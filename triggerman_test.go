package triggerman

import (
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"triggerman/internal/parser"
	"triggerman/internal/types"
)

func syncSystem(t testing.TB) *System {
	t.Helper()
	sys, err := Open(Options{Synchronous: true, Queue: MemoryQueue})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	return sys
}

func empSource(t testing.TB, sys *System) *TableSource {
	t.Helper()
	emp, err := sys.DefineTableSource("emp",
		types.Column{Name: "name", Kind: types.KindVarchar},
		types.Column{Name: "salary", Kind: types.KindInt},
		types.Column{Name: "dept", Kind: types.KindVarchar},
	)
	if err != nil {
		t.Fatal(err)
	}
	return emp
}

func row(name string, salary int64, dept string) types.Tuple {
	return types.Tuple{types.NewString(name), types.NewInt(salary), types.NewString(dept)}
}

func TestQuickstartEventTrigger(t *testing.T) {
	sys := syncSystem(t)
	emp := empSource(t, sys)
	err := sys.CreateTrigger(`create trigger bigSalary from emp
		when emp.salary > 100000
		do raise event BigSalary(emp.name, emp.salary)`)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := sys.Subscribe("BigSalary", 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := emp.Insert(row("Ada", 250000, "eng")); err != nil {
		t.Fatal(err)
	}
	if err := emp.Insert(row("Bob", 50000, "eng")); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-sub.C():
		if n.Name != "BigSalary" || n.Args[0].Str() != "Ada" || n.Args[1].Int() != 250000 {
			t.Errorf("notification = %v", n)
		}
	default:
		t.Fatal("no notification")
	}
	select {
	case n := <-sub.C():
		t.Fatalf("unexpected second notification %v", n)
	default:
	}
	st := sys.Stats()
	if st.Triggers != 1 || st.TokensIn != 2 || st.TokensMatched != 1 || st.ActionsRun != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestUpdateFredPaperExample(t *testing.T) {
	// §2's updateFred trigger, verbatim modulo quoting.
	sys := syncSystem(t)
	emp := empSource(t, sys)
	emp.Insert(row("Bob", 90000, "eng"))
	emp.Insert(row("Fred", 50000, "eng"))
	err := sys.CreateTrigger(`create trigger updateFred
		from emp
		on update(emp.salary)
		when emp.name = 'Bob'
		do execSQL 'update emp set salary=:NEW.emp.salary where emp.name=''Fred'''`)
	if err != nil {
		t.Fatal(err)
	}
	// Update Bob's salary: Fred's follows.
	if err := emp.Update(row("Bob", 90000, "eng"), row("Bob", 120000, "eng")); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Exec("select salary from emp where name = 'Fred'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 120000 {
		t.Errorf("Fred's salary = %v", res.Rows)
	}
	// Updating Bob's dept (not salary) must not fire update(salary).
	if err := emp.Update(row("Bob", 120000, "eng"), row("Bob", 120000, "ops")); err != nil {
		t.Fatal(err)
	}
	if sys.Stats().ActionsRun != 1 {
		t.Errorf("actions = %d, dept update should not fire", sys.Stats().ActionsRun)
	}
	// Updating Carol's salary must not fire (name <> Bob).
	emp.Insert(row("Carol", 10, "x"))
	emp.Update(row("Carol", 10, "x"), row("Carol", 20, "x"))
	if sys.Stats().ActionsRun != 1 {
		t.Errorf("actions = %d after Carol", sys.Stats().ActionsRun)
	}
}

func realEstate(t testing.TB, sys *System) (sp, house, rep *TableSource) {
	t.Helper()
	var err error
	sp, err = sys.DefineTableSource("salesperson",
		types.Column{Name: "spno", Kind: types.KindInt},
		types.Column{Name: "name", Kind: types.KindVarchar},
		types.Column{Name: "phone", Kind: types.KindVarchar})
	if err != nil {
		t.Fatal(err)
	}
	house, err = sys.DefineTableSource("house",
		types.Column{Name: "hno", Kind: types.KindInt},
		types.Column{Name: "address", Kind: types.KindVarchar},
		types.Column{Name: "price", Kind: types.KindFloat},
		types.Column{Name: "nno", Kind: types.KindInt},
		types.Column{Name: "spno", Kind: types.KindInt})
	if err != nil {
		t.Fatal(err)
	}
	rep, err = sys.DefineTableSource("represents",
		types.Column{Name: "spno", Kind: types.KindInt},
		types.Column{Name: "nno", Kind: types.KindInt})
	if err != nil {
		t.Fatal(err)
	}
	return sp, house, rep
}

func spRow(spno int64, name string) types.Tuple {
	return types.Tuple{types.NewInt(spno), types.NewString(name), types.NewString("555-0100")}
}
func houseRow(hno int64, addr string, nno int64) types.Tuple {
	return types.Tuple{types.NewInt(hno), types.NewString(addr), types.NewFloat(100000), types.NewInt(nno), types.NewInt(0)}
}
func repRow(spno, nno int64) types.Tuple {
	return types.Tuple{types.NewInt(spno), types.NewInt(nno)}
}

func TestIrisHouseAlertPaperExample(t *testing.T) {
	// §2's three-table join trigger, verbatim.
	sys := syncSystem(t)
	sp, house, rep := realEstate(t, sys)
	err := sys.CreateTrigger(`create trigger IrisHouseAlert
		on insert to house
		from salesperson s, house h, represents r
		when s.name = 'Iris' and s.spno=r.spno and r.nno=h.nno
		do raise event NewHouseInIrisNeighborhood(h.hno, h.address)`)
	if err != nil {
		t.Fatal(err)
	}
	sub, _ := sys.Subscribe("NewHouseInIrisNeighborhood", 8)

	sp.Insert(spRow(7, "Iris"))
	sp.Insert(spRow(8, "Ivan"))
	rep.Insert(repRow(7, 1)) // Iris represents neighborhood 1
	rep.Insert(repRow(8, 2)) // Ivan represents neighborhood 2

	// House in Iris's neighborhood fires.
	house.Insert(houseRow(100, "12 Oak Ln", 1))
	select {
	case n := <-sub.C():
		if n.Args[0].Int() != 100 || n.Args[1].Str() != "12 Oak Ln" {
			t.Errorf("args = %v", n.Args)
		}
	default:
		t.Fatal("Iris was not notified")
	}
	// House in Ivan's neighborhood does not fire (on insert to house is
	// the only event; salesperson/represents inserts only maintain
	// memories).
	house.Insert(houseRow(101, "9 Elm St", 2))
	select {
	case n := <-sub.C():
		t.Fatalf("unexpected notification %v", n)
	default:
	}
	// Iris picks up neighborhood 2. The represents tuple variable has no
	// on-clause event, so its implicit insert-or-update event (§5) fires
	// the rule for the join it completes with the existing house 101.
	rep.Insert(repRow(7, 2))
	select {
	case n := <-sub.C():
		if n.Args[0].Int() != 101 {
			t.Errorf("represents-seeded firing args = %v", n.Args)
		}
	default:
		t.Fatal("represents insert should fire for the existing house")
	}
	// New houses in neighborhood 2 now fire too.
	house.Insert(houseRow(102, "1 Pine Rd", 2))
	select {
	case n := <-sub.C():
		if n.Args[0].Int() != 102 {
			t.Errorf("args = %v", n.Args)
		}
	default:
		t.Fatal("no notification after new represents row")
	}
	// Deleting the represents row breaks the join again (delete is not
	// in the implicit insert-or-update event, so the delete itself does
	// not fire).
	rep.Delete(repRow(7, 2))
	house.Insert(houseRow(103, "2 Pine Rd", 2))
	select {
	case n := <-sub.C():
		t.Fatalf("unexpected notification after delete: %v", n)
	default:
	}
}

func TestManyTriggersOneSignature(t *testing.T) {
	sys := syncSystem(t)
	emp := empSource(t, sys)
	var fired int64
	sys.FireHook = func(uint64, []types.Tuple) { atomic.AddInt64(&fired, 1) }
	for i := 0; i < 500; i++ {
		err := sys.CreateTrigger(fmt.Sprintf(
			`create trigger watch%04d from emp when emp.name = 'user%04d'
			 do raise event Seen%04d(emp.salary)`, i, i, i))
		if err != nil {
			t.Fatal(err)
		}
	}
	// 500 triggers, one signature.
	src, _ := sys.reg.ByName("emp")
	if n := sys.pidx.SignatureCount(src.ID); n != 1 {
		t.Errorf("signatures = %d, want 1", n)
	}
	emp.Insert(row("user0042", 1, "d"))
	if fired != 1 {
		t.Errorf("fired = %d, want exactly 1", fired)
	}
	st := sys.Stats()
	if st.Index.ConstCompares > 3 {
		t.Errorf("const compares = %d; hash probe expected", st.Index.ConstCompares)
	}
}

func TestEnableDisable(t *testing.T) {
	sys := syncSystem(t)
	emp := empSource(t, sys)
	sys.CreateTrigger(`create trigger t1 from emp when emp.salary > 0 do raise event E(emp.name)`)
	sub, _ := sys.Subscribe("E", 8)
	if err := sys.DisableTrigger("t1"); err != nil {
		t.Fatal(err)
	}
	emp.Insert(row("a", 1, "d"))
	select {
	case <-sub.C():
		t.Fatal("disabled trigger fired")
	default:
	}
	sys.EnableTrigger("t1")
	emp.Insert(row("b", 1, "d"))
	select {
	case <-sub.C():
	default:
		t.Fatal("re-enabled trigger did not fire")
	}
}

func TestTriggerSets(t *testing.T) {
	sys := syncSystem(t)
	emp := empSource(t, sys)
	sys.CreateTriggerSet("batch", "nightly rules")
	err := sys.CreateTrigger(`create trigger t1 in batch from emp when emp.salary > 0 do raise event E(emp.name)`)
	if err != nil {
		t.Fatal(err)
	}
	sub, _ := sys.Subscribe("E", 8)
	if err := sys.DisableTriggerSet("batch"); err != nil {
		t.Fatal(err)
	}
	emp.Insert(row("a", 1, "d"))
	select {
	case <-sub.C():
		t.Fatal("trigger in disabled set fired")
	default:
	}
	sys.EnableTriggerSet("batch")
	emp.Insert(row("b", 1, "d"))
	select {
	case <-sub.C():
	default:
		t.Fatal("set re-enable did not restore firing")
	}
	if err := sys.DropTriggerSet("batch"); err == nil {
		t.Error("dropping non-empty set should fail")
	}
	sys.DropTrigger("t1")
	if err := sys.DropTriggerSet("batch"); err != nil {
		t.Errorf("drop empty set: %v", err)
	}
}

func TestDropTrigger(t *testing.T) {
	sys := syncSystem(t)
	emp := empSource(t, sys)
	sys.CreateTrigger(`create trigger t1 from emp when emp.salary > 0 do raise event E(emp.name)`)
	if err := sys.DropTrigger("t1"); err != nil {
		t.Fatal(err)
	}
	sub, _ := sys.Subscribe("E", 8)
	emp.Insert(row("a", 1, "d"))
	select {
	case <-sub.C():
		t.Fatal("dropped trigger fired")
	default:
	}
	if err := sys.DropTrigger("t1"); err == nil {
		t.Error("double drop should fail")
	}
	if sys.Stats().Triggers != 0 {
		t.Error("trigger count")
	}
}

func TestAsyncProcessing(t *testing.T) {
	sys, err := Open(Options{Drivers: 4, Queue: MemoryQueue, Threshold: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	emp, err := sys.DefineTableSource("emp",
		types.Column{Name: "name", Kind: types.KindVarchar},
		types.Column{Name: "salary", Kind: types.KindInt})
	if err != nil {
		t.Fatal(err)
	}
	var fired int64
	sys.FireHook = func(uint64, []types.Tuple) { atomic.AddInt64(&fired, 1) }
	sys.CreateTrigger(`create trigger hot from emp when emp.salary > 500 do raise event Hot(emp.name)`)
	for i := 0; i < 1000; i++ {
		err := emp.Insert(types.Tuple{
			types.NewString(fmt.Sprintf("u%d", i)), types.NewInt(int64(i)),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	sys.Drain()
	if got := atomic.LoadInt64(&fired); got != 499 {
		t.Errorf("fired = %d, want 499", got)
	}
	if sys.Errors() != 0 {
		t.Errorf("async errors: %v", sys.LastError())
	}
}

func TestConditionPartitions(t *testing.T) {
	sys, err := Open(Options{Drivers: 4, Queue: MemoryQueue, ConditionPartitions: 4, Threshold: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	emp, _ := sys.DefineTableSource("emp",
		types.Column{Name: "name", Kind: types.KindVarchar},
		types.Column{Name: "salary", Kind: types.KindInt})
	var fired int64
	sys.FireHook = func(uint64, []types.Tuple) { atomic.AddInt64(&fired, 1) }
	// Figure 5's shape: many triggers with the same condition.
	for i := 0; i < 100; i++ {
		err := sys.CreateTrigger(fmt.Sprintf(
			`create trigger t%03d from emp when emp.name = 'hot' do raise event E%03d()`, i, i))
		if err != nil {
			t.Fatal(err)
		}
	}
	emp.Insert(types.Tuple{types.NewString("hot"), types.NewInt(1)})
	sys.Drain()
	if got := atomic.LoadInt64(&fired); got != 100 {
		t.Errorf("fired = %d, want 100 across partitions", got)
	}
	if sys.Errors() != 0 {
		t.Errorf("async errors: %v", sys.LastError())
	}
}

func TestPersistenceAndRecovery(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tman.db")
	{
		sys, err := Open(Options{DiskPath: path, Synchronous: true})
		if err != nil {
			t.Fatal(err)
		}
		emp, err := sys.DefineTableSource("emp",
			types.Column{Name: "name", Kind: types.KindVarchar},
			types.Column{Name: "salary", Kind: types.KindInt})
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.CreateTrigger(`create trigger big from emp when emp.salary > 100 do raise event Big(emp.name)`); err != nil {
			t.Fatal(err)
		}
		emp.Insert(types.Tuple{types.NewString("pre"), types.NewInt(500)})
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// Reopen: trigger definitions and table data must survive.
	sys, err := Open(Options{DiskPath: path, Synchronous: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if sys.Stats().Triggers != 1 {
		t.Fatalf("recovered triggers = %d", sys.Stats().Triggers)
	}
	res, err := sys.Exec("select name from emp where salary = 500")
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("table data lost: %v %v", res, err)
	}
	// The recovered trigger still fires. Re-wrap the table as a source.
	sub, _ := sys.Subscribe("Big", 8)
	tab, err := sys.DB().Table("emp")
	if err != nil {
		t.Fatal(err)
	}
	_ = tab
	// Feed through the capturing runner (Exec path is uncaptured; use
	// the registered source via a stream push).
	src, ok := sys.reg.ByName("emp")
	if !ok {
		t.Fatal("data source not recovered")
	}
	_ = src
	// Use command-level insert through the capturing runner.
	if _, err := (capturingRunner{sys}).ExecParams(mustParseDML(t, "insert into emp values ('post', 900)"), nil); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-sub.C():
		if n.Args[0].Str() != "post" {
			t.Errorf("recovered trigger args = %v", n.Args)
		}
	default:
		t.Fatal("recovered trigger did not fire")
	}
}

func TestCascadingTriggers(t *testing.T) {
	sys := syncSystem(t)
	emp := empSource(t, sys)
	audit, err := sys.DefineTableSource("audit",
		types.Column{Name: "who", Kind: types.KindVarchar},
		types.Column{Name: "amount", Kind: types.KindInt})
	if err != nil {
		t.Fatal(err)
	}
	_ = audit
	// Trigger 1: big salary inserts into audit (captured table).
	err = sys.CreateTrigger(`create trigger t1 from emp when emp.salary > 100
		do execSQL 'insert into audit values (:NEW.emp.name, :NEW.emp.salary)'`)
	if err != nil {
		t.Fatal(err)
	}
	// Trigger 2: audit inserts raise an event (fires because trigger 1's
	// execSQL goes through the capturing runner).
	err = sys.CreateTrigger(`create trigger t2 from audit when audit.amount > 0
		do raise event Audited(audit.who)`)
	if err != nil {
		t.Fatal(err)
	}
	sub, _ := sys.Subscribe("Audited", 8)
	emp.Insert(row("Ada", 500, "eng"))
	select {
	case n := <-sub.C():
		if n.Args[0].Str() != "Ada" {
			t.Errorf("cascaded args = %v", n.Args)
		}
	default:
		t.Fatal("cascade did not fire")
	}
	res, _ := sys.Exec("select * from audit")
	if len(res.Rows) != 1 {
		t.Errorf("audit rows = %d", len(res.Rows))
	}
}

func TestCommandInterface(t *testing.T) {
	sys := syncSystem(t)
	out, err := sys.Command("define data source emp(name varchar, salary int)")
	if err != nil || out == "" {
		t.Fatalf("define: %q %v", out, err)
	}
	if _, err := sys.Command(`create trigger t from emp when emp.salary > 1 do raise event E()`); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Command("insert into emp values ('x', 5)"); err != nil {
		t.Fatal(err)
	}
	out, err = sys.Command("select name from emp where salary = 5")
	if err != nil {
		t.Fatal(err)
	}
	if out == "" {
		t.Error("select output empty")
	}
	if _, err := sys.Command("disable trigger t"); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Command("drop trigger t"); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Command("complete nonsense"); err == nil {
		t.Error("garbage command should fail")
	}
}

func TestStreamSource(t *testing.T) {
	sys := syncSystem(t)
	quotes, err := sys.DefineStreamSource("quotes",
		types.Column{Name: "symbol", Kind: types.KindVarchar},
		types.Column{Name: "price", Kind: types.KindFloat})
	if err != nil {
		t.Fatal(err)
	}
	var fired int64
	sys.FireHook = func(uint64, []types.Tuple) { atomic.AddInt64(&fired, 1) }
	sys.CreateTrigger(`create trigger spike from quotes when quotes.price > 100.0 do raise event Spike(quotes.symbol)`)
	quotes.Insert(types.Tuple{types.NewString("ACME"), types.NewFloat(150)})
	quotes.Insert(types.Tuple{types.NewString("ACME"), types.NewFloat(50)})
	quotes.Update(
		types.Tuple{types.NewString("ACME"), types.NewFloat(50)},
		types.Tuple{types.NewString("ACME"), types.NewFloat(200)})
	if fired != 2 {
		t.Errorf("fired = %d, want 2", fired)
	}
}

func TestCreateTriggerErrors(t *testing.T) {
	sys := syncSystem(t)
	empSource(t, sys)
	bad := []string{
		`create trigger t from ghost when ghost.x > 1 do raise event E()`,
		`create trigger t from emp when emp.ghost > 1 do raise event E()`,
		`create trigger t from emp group by dept having salary > 1 do raise event E()`, // non-group bare column
		`create trigger t from emp group by ghost having count(dept) > 1 do raise event E()`,
		`create trigger t from emp group by dept do raise event E()`, // group by without having
		`create trigger t from emp on update(emp.ghost) do raise event E()`,
	}
	for _, src := range bad {
		if err := sys.CreateTrigger(src); err == nil {
			t.Errorf("%q should fail", src)
		}
	}
	// duplicate name
	if err := sys.CreateTrigger(`create trigger dup from emp when emp.salary > 0 do raise event E()`); err != nil {
		t.Fatal(err)
	}
	if err := sys.CreateTrigger(`create trigger dup from emp when emp.salary > 1 do raise event E()`); err == nil {
		t.Error("duplicate trigger name should fail")
	}
	// failed create leaves no residue: the same name can be used after
	// fixing the error
	if err := sys.CreateTrigger(`create trigger fixme from emp when emp.ghost = 1 do raise event E()`); err == nil {
		t.Fatal("expected failure")
	}
	if err := sys.CreateTrigger(`create trigger fixme from emp when emp.salary = 1 do raise event E()`); err != nil {
		t.Errorf("name should be reusable after failed create: %v", err)
	}
}

func TestDeleteTrigger(t *testing.T) {
	sys := syncSystem(t)
	emp := empSource(t, sys)
	sys.CreateTrigger(`create trigger gone from emp on delete from emp
		when emp.dept = 'eng' do raise event EngineerLeft(emp.name)`)
	sub, _ := sys.Subscribe("EngineerLeft", 4)
	emp.Insert(row("Ada", 100, "eng"))
	select {
	case <-sub.C():
		t.Fatal("insert fired a delete trigger")
	default:
	}
	emp.Delete(row("Ada", 100, "eng"))
	select {
	case n := <-sub.C():
		if n.Args[0].Str() != "Ada" {
			t.Errorf("args = %v", n.Args)
		}
	default:
		t.Fatal("delete trigger did not fire")
	}
}

func TestOldImageInAction(t *testing.T) {
	sys := syncSystem(t)
	emp := empSource(t, sys)
	sys.CreateTrigger(`create trigger raiseWatch from emp on update(emp.salary)
		when emp.salary > 0
		do raise event Raise(emp.name, :OLD.emp.salary, :NEW.emp.salary)`)
	sub, _ := sys.Subscribe("Raise", 4)
	emp.Insert(row("Ada", 100, "eng"))
	emp.Update(row("Ada", 100, "eng"), row("Ada", 200, "eng"))
	select {
	case n := <-sub.C():
		if n.Args[1].Int() != 100 || n.Args[2].Int() != 200 {
			t.Errorf("old/new = %v", n.Args)
		}
	default:
		t.Fatal("no notification")
	}
}

// mustParseDML parses a DML statement for tests.
func mustParseDML(t *testing.T, sql string) parser.Statement {
	t.Helper()
	st, err := parseStatement(sql)
	if err != nil {
		t.Fatal(err)
	}
	return st
}
