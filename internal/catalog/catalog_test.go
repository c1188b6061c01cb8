package catalog

import (
	"fmt"
	"testing"

	"triggerman/internal/datasource"
	"triggerman/internal/minisql"
	"triggerman/internal/parser"
	"triggerman/internal/predindex"
	"triggerman/internal/storage"
	"triggerman/internal/types"
)

func newCatalogFlush(t testing.TB, disk storage.DiskManager, cacheSize int) (*Catalog, func()) {
	t.Helper()
	bp := storage.NewBufferPool(disk, 512)
	return openOn(t, bp, cacheSize, false), func() {
		if err := bp.FlushAll(); err != nil {
			t.Fatal(err)
		}
	}
}

// openOn opens (or creates, on an empty disk) a catalog over the given
// buffer pool, so a test can count the pool's page fetches.
func openOn(t testing.TB, bp *storage.BufferPool, cacheSize int, gator bool) *Catalog {
	t.Helper()
	var db *minisql.DB
	var err error
	if bp.Disk().NumPages() == 0 {
		db, err = minisql.Create(bp)
	} else {
		db, err = minisql.Open(bp, 0)
	}
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{DB: db, Reg: datasource.NewRegistry(),
		Pidx: predindex.New(predindex.WithDB(db)), Cache: cacheSize, UseGator: gator})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func newCatalog(t testing.TB, disk storage.DiskManager, cacheSize int) *Catalog {
	t.Helper()
	c, _ := newCatalogFlush(t, disk, cacheSize)
	return c
}

var empSchema = types.MustSchema(
	types.Column{Name: "name", Kind: types.KindVarchar},
	types.Column{Name: "salary", Kind: types.KindInt},
)

func withEmp(t testing.TB, c *Catalog) *datasource.Source {
	t.Helper()
	src, err := c.DefineDataSource("emp", empSchema)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func TestCreateTriggerPipeline(t *testing.T) {
	c := newCatalog(t, storage.NewMem(), 16)
	src := withEmp(t, c)
	info, err := c.CreateTrigger(`create trigger big from emp when emp.salary > 100 do raise event Big(emp.name)`)
	if err != nil {
		t.Fatal(err)
	}
	if info.ID == 0 || info.Name != "big" || !info.Enabled {
		t.Errorf("info = %+v", info)
	}
	if len(info.SourceIDs) != 1 || info.SourceIDs[0] != src.ID {
		t.Errorf("sources = %v", info.SourceIDs)
	}
	if c.TriggerCount() != 1 {
		t.Error("count")
	}
	if id, ok := c.TriggerByName("BIG"); !ok || id != info.ID {
		t.Error("case-insensitive lookup")
	}
	// One signature registered on the source.
	if n := c.pidx.SignatureCount(src.ID); n != 1 {
		t.Errorf("signatures = %d", n)
	}
	// The expression_signature catalog table has a row.
	res, err := c.db.Exec("select sigid, constantsetsize from expression_signature")
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("sig rows = %v, %v", res, err)
	}
	if res.Rows[0][1].Int() != 1 {
		t.Errorf("constantsetsize = %v", res.Rows[0][1])
	}
}

func TestSignatureRowTracksSize(t *testing.T) {
	c := newCatalog(t, storage.NewMem(), 16)
	withEmp(t, c)
	for i := 0; i < 5; i++ {
		if _, err := c.CreateTrigger(fmt.Sprintf(
			`create trigger t%d from emp when emp.salary > %d do raise event E()`, i, i)); err != nil {
			t.Fatal(err)
		}
	}
	res, _ := c.db.Exec("select constantsetsize from expression_signature")
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 5 {
		t.Errorf("sig rows = %v", res.Rows)
	}
}

func TestPinLoadsFromCatalogText(t *testing.T) {
	c := newCatalog(t, storage.NewMem(), 2) // tiny cache to force churn
	withEmp(t, c)
	var ids []uint64
	for i := 0; i < 6; i++ {
		info, err := c.CreateTrigger(fmt.Sprintf(
			`create trigger t%d from emp when emp.salary > %d do raise event E%d(emp.name)`, i, i, i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
	}
	// Pin each: with capacity 2 most loads are misses re-parsed from the
	// stored text.
	for _, id := range ids {
		lt, unpin, err := c.Pin(id)
		if err != nil {
			t.Fatal(err)
		}
		if lt.Info.Name != fmt.Sprintf("t%d", id-1) {
			t.Errorf("loaded name = %q for id %d", lt.Info.Name, id)
		}
		// The compiled action is the trigger's own: t(i) raises E(i).
		if got, want := raisedEvent(t, lt.Action), fmt.Sprintf("E%d", id-1); got != want {
			t.Errorf("trigger %d raises %s, want %s", id, got, want)
		}
		if lt.Network != nil {
			t.Error("single-var trigger should have no network")
		}
		if len(lt.Schemas) != 1 || lt.Schemas[0].Arity() != 2 {
			t.Error("schemas not resolved")
		}
		unpin()
	}
	st := c.Cache().Stats()
	if st.Misses < 4 {
		t.Errorf("expected cache churn, stats = %+v", st)
	}
}

func TestMultiVarTriggerHasResidentNetwork(t *testing.T) {
	c := newCatalog(t, storage.NewMem(), 16)
	withEmp(t, c)
	dept := types.MustSchema(types.Column{Name: "dname", Kind: types.KindVarchar})
	if _, err := c.DefineDataSource("dept", dept); err != nil {
		t.Fatal(err)
	}
	info, err := c.CreateTrigger(`create trigger j from emp e, dept d
		when e.name = d.dname do raise event J(e.salary)`)
	if err != nil {
		t.Fatal(err)
	}
	lt, unpin, err := c.Pin(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if lt.Network == nil {
		t.Fatal("multi-var trigger needs a network")
	}
	net1 := lt.Network
	unpin()
	// Evict and re-pin: the network object must be the same instance
	// (alpha memories are resident).
	c.Cache().Invalidate(info.ID)
	lt2, unpin2, err := c.Pin(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer unpin2()
	if lt2.Network != net1 {
		t.Error("network not shared across cache reloads")
	}
}

func TestDropTriggerCleansUp(t *testing.T) {
	c := newCatalog(t, storage.NewMem(), 16)
	src := withEmp(t, c)
	info, _ := c.CreateTrigger(`create trigger gone from emp when emp.name = 'x' do raise event E()`)
	entry := c.pidx.Signatures(src.ID)[0]
	if entry.Size() != 1 {
		t.Fatal("predicate not registered")
	}
	if err := c.DropTrigger("gone"); err != nil {
		t.Fatal(err)
	}
	if entry.Size() != 0 {
		t.Error("predicate not removed on drop")
	}
	if c.TriggerCount() != 0 {
		t.Error("count after drop")
	}
	if _, _, err := c.Pin(info.ID); err == nil {
		t.Error("pin of dropped trigger should fail")
	}
	if err := c.DropTrigger("gone"); err == nil {
		t.Error("double drop")
	}
	// Row gone from the catalog table.
	res, _ := c.db.Exec("select * from trigger")
	if len(res.Rows) != 0 {
		t.Errorf("trigger rows = %d", len(res.Rows))
	}
}

func TestEnableDisableAndSets(t *testing.T) {
	c := newCatalog(t, storage.NewMem(), 16)
	withEmp(t, c)
	if _, err := c.CreateTriggerSet("batch", "comment"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateTriggerSet("batch", ""); err == nil {
		t.Error("duplicate set")
	}
	info, err := c.CreateTrigger(`create trigger t1 in batch from emp when emp.salary > 0 do raise event E()`)
	if err != nil {
		t.Fatal(err)
	}
	if !c.IsFireable(info.ID) {
		t.Error("should be fireable")
	}
	c.SetTriggerEnabled("t1", false)
	if c.IsFireable(info.ID) {
		t.Error("disabled trigger fireable")
	}
	c.SetTriggerEnabled("t1", true)
	c.SetTriggerSetEnabled("batch", false)
	if c.IsFireable(info.ID) {
		t.Error("trigger in disabled set fireable")
	}
	c.SetTriggerSetEnabled("batch", true)
	if !c.IsFireable(info.ID) {
		t.Error("re-enabled")
	}
	if err := c.DropTriggerSet("batch"); err == nil {
		t.Error("non-empty set drop should fail")
	}
	c.DropTrigger("t1")
	if err := c.DropTriggerSet("batch"); err != nil {
		t.Error(err)
	}
	if err := c.SetTriggerEnabled("ghost", true); err == nil {
		t.Error("unknown trigger")
	}
	if err := c.SetTriggerSetEnabled("ghost", true); err == nil {
		t.Error("unknown set")
	}
}

func TestImplicitSetCreation(t *testing.T) {
	c := newCatalog(t, storage.NewMem(), 16)
	withEmp(t, c)
	if _, err := c.CreateTrigger(`create trigger t1 in autoset from emp when emp.salary > 0 do raise event E()`); err != nil {
		t.Fatal(err)
	}
	if err := c.SetTriggerSetEnabled("autoset", false); err != nil {
		t.Errorf("implicit set missing: %v", err)
	}
}

func TestRecoveryAcrossRestart(t *testing.T) {
	disk := storage.NewMem()
	var trigID uint64
	{
		c, flush := newCatalogFlush(t, disk, 16)
		withEmp(t, c)
		info, err := c.CreateTrigger(`create trigger keep from emp when emp.salary > 42 do raise event Keep(emp.name)`)
		if err != nil {
			t.Fatal(err)
		}
		trigID = info.ID
		if _, err := c.CreateTriggerSet("night", "batch jobs"); err != nil {
			t.Fatal(err)
		}
		c.SetTriggerEnabled("keep", false)
		flush()
	}
	// "Restart": a new catalog over the same disk.
	c2 := newCatalog(t, disk, 16)
	if c2.TriggerCount() != 1 {
		t.Fatalf("recovered %d triggers", c2.TriggerCount())
	}
	id, ok := c2.TriggerByName("keep")
	if !ok || id != trigID {
		t.Fatalf("recovered id = %d", id)
	}
	if c2.IsFireable(id) {
		t.Error("disabled flag lost in recovery")
	}
	// The predicate is re-registered.
	src, _ := c2.reg.ByName("emp")
	if n := c2.pidx.SignatureCount(src.ID); n != 1 {
		t.Errorf("recovered signatures = %d", n)
	}
	// Sets recovered.
	if err := c2.SetTriggerSetEnabled("night", false); err != nil {
		t.Errorf("set lost: %v", err)
	}
	// New triggers get fresh IDs.
	info, err := c2.CreateTrigger(`create trigger fresh from emp when emp.salary > 1 do raise event F()`)
	if err != nil {
		t.Fatal(err)
	}
	if info.ID <= trigID {
		t.Errorf("id %d not advanced past %d", info.ID, trigID)
	}
}

func TestCreateErrors(t *testing.T) {
	c := newCatalog(t, storage.NewMem(), 16)
	withEmp(t, c)
	bad := []string{
		`create trigger x from ghost when ghost.a > 1 do raise event E()`,
		`create trigger x from emp when emp.ghost > 1 do raise event E()`,
		`create trigger x from emp group by name having salary > 1 do raise event E()`,
		`create trigger x from emp group by ghost having count(name) > 1 do raise event E()`,
		`create trigger x from emp emp2, emp emp2 when emp2.salary > 1 do raise event E()`,
		`drop trigger x`, // not a create statement via CreateTrigger
	}
	for _, src := range bad {
		if _, err := c.CreateTrigger(src); err == nil {
			t.Errorf("%q should fail", src)
		}
	}
	if c.TriggerCount() != 0 {
		t.Error("failed creates leaked triggers")
	}
	if _, err := c.CreateTrigger(`create trigger ok from emp when emp.salary > 1 do raise event E()`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateTrigger(`create trigger OK from emp when emp.salary > 2 do raise event E()`); err == nil {
		t.Error("case-insensitive duplicate name")
	}
}

func TestEventMaskMapping(t *testing.T) {
	c := newCatalog(t, storage.NewMem(), 16)
	src := withEmp(t, c)
	if _, err := c.CreateTrigger(`create trigger u from emp on update(emp.salary) when emp.salary > 0 do raise event E()`); err != nil {
		t.Fatal(err)
	}
	entries := c.pidx.Signatures(src.ID)
	if len(entries) != 1 {
		t.Fatalf("signatures = %d", len(entries))
	}
	m := entries[0].Mask
	if m.AnyOp || m.AllOps || m.Op != datasource.OpUpdate || len(m.Columns) != 1 || m.Columns[0] != 1 {
		t.Errorf("mask = %+v", m)
	}
	// Event column must exist.
	if _, err := c.CreateTrigger(`create trigger u2 from emp on update(emp.ghost) do raise event E()`); err == nil {
		t.Error("unknown event column")
	}
}

func TestOnClauseNamesSourceNotAlias(t *testing.T) {
	c := newCatalog(t, storage.NewMem(), 16)
	withEmp(t, c)
	dept := types.MustSchema(types.Column{Name: "dname", Kind: types.KindVarchar})
	c.DefineDataSource("dept", dept)
	// on insert to emp where the from clause aliases emp as e.
	if _, err := c.CreateTrigger(`create trigger x on insert to emp from emp e, dept d
		when e.name = d.dname do raise event E()`); err != nil {
		t.Errorf("on clause naming the source should resolve: %v", err)
	}
}

func TestLoadedTriggerParsedAction(t *testing.T) {
	c := newCatalog(t, storage.NewMem(), 16)
	withEmp(t, c)
	info, _ := c.CreateTrigger(`create trigger a from emp when emp.salary > 0
		do execSQL 'insert into emp values (:NEW.emp.name, 0)'`)
	lt, unpin, err := c.Pin(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer unpin()
	if _, ok := lt.Action.(*parser.ExecSQL); !ok {
		t.Errorf("action = %T", lt.Action)
	}
}

func TestAggregateTriggerRecovery(t *testing.T) {
	disk := storage.NewMem()
	{
		c, flush := newCatalogFlush(t, disk, 16)
		c.DefineDataSource("sales", types.MustSchema(
			types.Column{Name: "region", Kind: types.KindVarchar},
			types.Column{Name: "amount", Kind: types.KindInt}))
		if _, err := c.CreateTrigger(`create trigger hot from sales
			group by region having count(region) > 2
			do raise event Hot(sales.region)`); err != nil {
			t.Fatal(err)
		}
		flush()
	}
	c2 := newCatalog(t, disk, 16)
	id, ok := c2.TriggerByName("hot")
	if !ok {
		t.Fatal("aggregate trigger not recovered")
	}
	if !c2.TriggerIsAggregate(id) {
		t.Error("IsAggregate flag lost")
	}
	lt, unpin, err := c2.Pin(id)
	if err != nil {
		t.Fatal(err)
	}
	defer unpin()
	if lt.Agg == nil {
		t.Fatal("aggregate state not rebuilt on recovery")
	}
	// State restarts empty (main-memory resident, like alpha memories).
	if lt.Agg.State.Groups() != 0 {
		t.Errorf("recovered groups = %d", lt.Agg.State.Groups())
	}
	if len(lt.Agg.State.Specs) != 1 {
		t.Errorf("specs = %v", lt.Agg.State.Specs)
	}
}

func TestTriggerClassFromFlags(t *testing.T) {
	disk := storage.NewMem()
	c, flush := newCatalogFlush(t, disk, 8)
	withEmp(t, c)
	inter, err := c.CreateTrigger("create trigger t_inter from emp when emp.salary > 1 do raise event A(emp.name)")
	if err != nil {
		t.Fatal(err)
	}
	bat, err := c.CreateTrigger("create trigger t_bat batch from emp when emp.salary > 2 do raise event B(emp.name)")
	if err != nil {
		t.Fatal(err)
	}
	if got := c.TriggerClass(inter.ID); got != Interactive {
		t.Fatalf("default class = %v", got)
	}
	if got := c.TriggerClass(bat.ID); got != Batch {
		t.Fatalf("batch flag class = %v", got)
	}
	if got := c.TriggerClass(99999); got != Interactive {
		t.Fatalf("unknown trigger class = %v", got)
	}
	flush()

	// The class survives restart via text re-parse in recovery.
	c2 := newCatalog(t, disk, 8)
	id, ok := c2.TriggerByName("t_bat")
	if !ok {
		t.Fatal("t_bat lost in recovery")
	}
	if got := c2.TriggerClass(id); got != Batch {
		t.Fatalf("recovered class = %v", got)
	}
}

func TestParseClass(t *testing.T) {
	cases := []struct {
		in string
		cl Class
		ok bool
	}{
		{"interactive", Interactive, true},
		{"batch", Batch, true},
		{"urgent", Interactive, false},
		{"", Interactive, false},
	}
	for _, tc := range cases {
		cl, ok := ParseClass(tc.in)
		if cl != tc.cl || ok != tc.ok {
			t.Fatalf("ParseClass(%q) = %v,%v want %v,%v", tc.in, cl, ok, tc.cl, tc.ok)
		}
	}
	if Interactive.String() != "interactive" || Batch.String() != "batch" {
		t.Fatal("Class.String")
	}
}
