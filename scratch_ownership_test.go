package triggerman

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"triggerman/internal/datasource"
	"triggerman/internal/discrim"
	"triggerman/internal/expr"
	"triggerman/internal/predindex"
	"triggerman/internal/retry"
	"triggerman/internal/storage"
	"triggerman/internal/types"
)

// Every test of this package runs with released scratch overwritten:
// whatever still reads a work after its step ended — an event argument,
// a stored row, an alpha-memory tuple, a rule-action task's binding
// that was a slice of a buffer and not a copy — reads garbage, and the
// tests that compare outputs with a recompute (the chaos table, the
// kitchen sink, the probe and ordering properties, the cascade below)
// fail. So does whatever reads an alpha-memory row after the memory
// freed its slot: a rule-action task that did not copy its combination,
// a Gator partial sharing a slot. The garbage is static, so scribbling
// allocates nothing and the allocation ceilings hold under it.
func init() {
	scribble = scribbleWork
	discrim.ScribbleFreed = scribbleRow
}

func scribbleRow(row types.Tuple) {
	for i := range row {
		row[i] = garbageTuple[0]
	}
}

var (
	garbageTuple = types.Tuple{types.NewString("scribbled"), types.NewString("scribbled"), types.NewString("scribbled"), types.NewString("scribbled")}
	garbageMatch = predindex.Match{Ref: predindex.Ref{ExprID: ^uint64(0), TriggerID: ^uint64(0), NextNode: -1,
		FireMask: predindex.EventMask{AllOps: true}, MultiVar: true, Aggregate: true}, SourceID: -1}
)

func scribbleWork(w *work) {
	w.tok = datasource.Token{SourceID: -1, Op: datasource.OpUpdate, Old: garbageTuple, New: garbageTuple, Seq: ^uint64(0)}
	w.part, w.slot, w.cur, w.id, w.one[0] = -7, -7, 1<<30, ^uint64(0), garbageTuple
	for _, buf := range [][]types.Tuple{w.tuples[:cap(w.tuples)], w.olds[:cap(w.olds)]} {
		for i := range buf {
			buf[i] = garbageTuple
		}
	}
	scribbleRow(w.vals[:cap(w.vals)])
	ms := w.probe.Matches[:cap(w.probe.Matches)]
	for i := range ms {
		ms[i] = garbageMatch
	}
}

// TestScratchOwnershipCascade is the durable_cascade shape — persistent
// queue, rule actions as their own tasks, two condition partitions —
// with a join and an aggregate beside the execSQL cascade, checked
// against a model: every delivered event's arguments, the audit table's
// rows, the alpha memories' contents (read back through a late join)
// and the aggregate's groups are what a recompute says. Phases are
// drained apart because unordered dispatch may reorder a row's insert
// and its update.
func TestScratchOwnershipCascade(t *testing.T) {
	sys, err := Open(Options{
		DiskPath: filepath.Join(t.TempDir(), "own.db"), Queue: PersistentQueue,
		BufferPoolPages: 64, ActionTasks: true, ConditionPartitions: 2, Drivers: 4,
		TraceSampleEvery: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	intCol := func(name string) types.Column { return types.Column{Name: name, Kind: types.KindInt} }
	orders, err := sys.DefineTableSource("orders", intCol("id"), intCol("cust"), intCol("amount"))
	if err != nil {
		t.Fatal(err)
	}
	vip, err := sys.DefineTableSource("vip", intCol("id"))
	if err != nil {
		t.Fatal(err)
	}
	audit, err := sys.DefineTableSource("audit", intCol("id"), intCol("amount"))
	if err != nil {
		t.Fatal(err)
	}
	thresholds := []int64{100, 300, 500, 700}
	for i, th := range thresholds {
		if err := sys.CreateTrigger(fmt.Sprintf(`create trigger c%d from orders when orders.amount >= %d
			do execSQL 'insert into audit values (:NEW.orders.id, :NEW.orders.amount)'`, i, th)); err != nil {
			t.Fatal(err)
		}
	}
	for _, ddl := range []string{
		`create trigger o from orders do raise event O(orders.id, orders.amount, orders.cust)`,
		`create trigger u from orders on update to orders do raise event U(orders.id, :OLD.orders.amount, orders.amount)`,
		`create trigger d from orders on delete to orders do raise event D(orders.id)`,
		`create trigger a from audit do raise event A(audit.id, audit.amount)`,
		`create trigger j from orders o, vip v when o.cust = v.id do raise event J(o.id, o.amount, v.id)`,
		`create trigger g from orders group by cust having count(id) > 0 do raise event G(cust, count(id))`,
	} {
		if err := sys.CreateTrigger(ddl); err != nil {
			t.Fatal(err)
		}
	}
	got := collectArgs(t, sys)

	want := map[string][]string{}
	expect := func(ev string, args ...int64) {
		tu := make(types.Tuple, len(args))
		for i, a := range args {
			tu[i] = types.NewInt(a)
		}
		want[ev] = append(want[ev], tu.String())
	}
	row := func(id, cust, amount int64) types.Tuple {
		return types.Tuple{types.NewInt(id), types.NewInt(cust), types.NewInt(amount)}
	}
	var wantAudit []string
	arrives := func(id, cust, amount int64) { // an insert's or an update's new image
		expect("O", id, amount, cust)
		for _, th := range thresholds {
			if amount >= th {
				expect("A", id, amount)
				wantAudit = append(wantAudit, types.Tuple{types.NewInt(id), types.NewInt(amount)}.String())
			}
		}
		if cust < 3 {
			expect("J", id, amount, cust)
		}
	}

	for v := int64(0); v < 3; v++ {
		if err := vip.Insert(types.Tuple{types.NewInt(v)}); err != nil {
			t.Fatal(err)
		}
	}
	sys.Drain()
	const n = 300
	amount := make([]int64, n)
	for i := int64(0); i < n; i++ {
		amount[i] = i * 37 % 1000
		if err := orders.Insert(row(i, i%10, amount[i])); err != nil {
			t.Fatal(err)
		}
		arrives(i, i%10, amount[i])
	}
	for c := int64(0); c < 10; c++ {
		expect("G", c, 1) // the group's first row makes the having clause true
	}
	sys.Drain()
	for i := int64(0); i < 50; i++ {
		next := (amount[i] + 450) % 1000
		if err := orders.Update(row(i, i%10, amount[i]), row(i, i%10, next)); err != nil {
			t.Fatal(err)
		}
		expect("U", i, amount[i], next)
		arrives(i, i%10, next)
		amount[i] = next
	}
	sys.Drain()
	for i := int64(50); i < 80; i++ {
		if err := orders.Delete(row(i, i%10, amount[i])); err != nil {
			t.Fatal(err)
		}
		expect("D", i)
	}
	sys.Drain()
	// What the orders alpha memory holds now, read back by a vip row that
	// joins every live order of customer 3.
	if err := vip.Insert(types.Tuple{types.NewInt(3)}); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < n; i++ {
		if i%10 == 3 && (i < 50 || i >= 80) {
			expect("J", i, amount[i], 3)
		}
	}
	sys.Drain()

	if sys.Errors() != 0 || sys.DeadLetterCount() != 0 {
		t.Fatalf("errors %d (%v), dead letters %d", sys.Errors(), sys.LastError(), sys.DeadLetterCount())
	}
	for ev, w := range want {
		g := got(ev)
		slices.Sort(w)
		if !slices.Equal(g, w) {
			t.Errorf("event %s: %d deliveries, the model %d; first difference: %s", ev, len(g), len(w), firstDiff(g, w))
		}
	}
	var gotAudit []string
	if err := audit.Table().Scan(func(_ storage.RID, tu types.Tuple) bool {
		gotAudit = append(gotAudit, tu.String())
		return true
	}); err != nil {
		t.Fatal(err)
	}
	slices.Sort(gotAudit)
	slices.Sort(wantAudit)
	if !slices.Equal(gotAudit, wantAudit) {
		t.Errorf("audit table: %d rows, the model %d; first difference: %s", len(gotAudit), len(wantAudit), firstDiff(gotAudit, wantAudit))
	}
	lt, unpin, err := sys.Catalog().Pin(triggerIDByName(t, sys, "j"))
	if err != nil {
		t.Fatal(err)
	}
	if o, v := lt.Network.MemorySize(0), lt.Network.MemorySize(1); o != n-30 || v != 4 {
		t.Errorf("alpha memories hold %d orders and %d vips, the model %d and 4", o, v, n-30)
	}
	unpin()
	lt, unpin, err = sys.Catalog().Pin(triggerIDByName(t, sys, "g"))
	if err != nil {
		t.Fatal(err)
	}
	if groups := lt.Agg.State.Groups(); groups != 10 {
		t.Errorf("aggregate holds %d groups, the model 10", groups)
	}
	unpin()
}

// TestAbandonedAttemptsKeepTheirOwnScratch runs the pipeline under an
// action policy whose attempt timeout abandons every other attempt
// mid-action: the abandoned goroutine and its retry then run at once, and work goes on being taken and released around them. Each
// attempt must have run on its own copy of the firing (work.own): every
// delivery carries its own token's value, once per attempt that ran,
// and the race detector sees no sharing.
func TestAbandonedAttemptsKeepTheirOwnScratch(t *testing.T) {
	sys, err := Open(Options{
		Queue: MemoryQueue, Drivers: 4, ActionTasks: true,
		ActionRetry: &retry.Policy{MaxAttempts: 3, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond,
			AttemptTimeout: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	src, err := sys.DefineStreamSource("s", types.Column{Name: "v", Kind: types.KindInt})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.CreateTrigger(`create trigger x from s do raise event X(s.v, s.v + 1)`); err != nil {
		t.Fatal(err)
	}
	// Every other attempt outlives its timeout, is abandoned, and delivers
	// late, beside the retry that replaced it.
	var calls atomic.Int64
	sys.exe.Inject = func(uint64) error {
		if calls.Add(1)%2 == 1 {
			time.Sleep(4 * time.Millisecond)
		}
		return nil
	}
	got := collectArgs(t, sys)
	const n = 40
	for i := 0; i < n; i++ {
		if err := src.Insert(types.Tuple{types.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	sys.Drain()
	time.Sleep(10 * time.Millisecond) // the abandoned attempts finish
	seen := map[string]bool{}
	for _, args := range got("X") {
		seen[args] = true
	}
	for i := int64(0); i < n; i++ {
		want := types.Tuple{types.NewInt(i), types.NewInt(i + 1)}.String()
		if !seen[want] {
			t.Errorf("no delivery %s", want)
		}
		delete(seen, want)
	}
	for stray := range seen {
		t.Errorf("delivery %s matches no token: an attempt read another firing's scratch", stray)
	}
}

// collectArgs subscribes to every event and returns a reader of one
// event's delivered argument tuples, rendered and sorted.
func collectArgs(t *testing.T, sys *System) func(ev string) []string {
	t.Helper()
	sub, err := sys.Subscribe("*", 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	byEvent := map[string][]string{}
	go func() {
		for n := range sub.C() {
			mu.Lock()
			byEvent[n.Name] = append(byEvent[n.Name], n.Args.String())
			mu.Unlock()
		}
	}()
	t.Cleanup(sub.Cancel)
	return func(ev string) []string {
		if sub.Dropped() > 0 {
			t.Fatalf("subscription dropped %d notifications", sub.Dropped())
		}
		// Delivery is a channel send the collector may not have taken yet.
		var prev int
		for settle := 0; settle < 3; {
			time.Sleep(2 * time.Millisecond)
			mu.Lock()
			now := len(byEvent[ev])
			mu.Unlock()
			if now == prev {
				settle++
			} else {
				prev, settle = now, 0
			}
		}
		mu.Lock()
		defer mu.Unlock()
		out := slices.Clone(byEvent[ev])
		slices.Sort(out)
		return out
	}
}

func firstDiff(got, want []string) string {
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			return fmt.Sprintf("at %d got %q, the model %q", i, g, w)
		}
	}
	return "none"
}

// TestActionTaskOwnsItsMemoryRows holds a rule-action task back while
// the row it joined leaves the alpha memory: one driver, blocked by a
// gate firing, lets a join's insert and the delete of its partner row
// queue up and then stage in one batch, so the delete frees — and
// scribbles — the partner's slot before the task runs. The task reads
// the partner's columns all the same, from its own copy.
func TestActionTaskOwnsItsMemoryRows(t *testing.T) {
	sys, orders, vip := openOrdersJoin(t, Options{Queue: MemoryQueue, ActionTasks: true, Drivers: 1})
	gate, err := sys.DefineStreamSource("gate", types.Column{Name: "g", Kind: types.KindInt})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.CreateTrigger(`create trigger gate from gate do raise event Gate(gate.g)`); err != nil {
		t.Fatal(err)
	}
	gateID := triggerIDByName(t, sys, "gate")
	blocked, open := make(chan struct{}), make(chan struct{})
	sys.FireHook = func(id uint64, _ []types.Tuple) {
		if id == gateID {
			close(blocked)
			<-open
		}
	}
	got := collectArgs(t, sys)
	partner := types.Tuple{types.NewInt(1), types.NewString("ann")}
	if err := vip.Insert(partner); err != nil {
		t.Fatal(err)
	}
	sys.Drain()
	if err := gate.Insert(types.Tuple{types.NewInt(0)}); err != nil {
		t.Fatal(err)
	}
	<-blocked
	if err := errors.Join(orders.Insert(types.Tuple{types.NewInt(10), types.NewInt(1)}), vip.Delete(partner)); err != nil {
		t.Fatal(err)
	}
	close(open)
	sys.Drain()
	if j := got("J"); fmt.Sprint(j) != `[(10, 'ann')]` {
		t.Fatalf("J fired %v, want the order joined with ann's row as it was", j)
	}
}

// TestAbandonedJoinAttemptOwnsItsMemoryRows abandons an inline join
// firing's first attempt and holds it back until the partner row it
// joined has left the alpha memory, its slot freed and scribbled. The
// abandoned attempt outlives its token's step and the memories' read
// locks, so it must run on its own copy of the row (runCombo copies
// the rows whenever attempts can be abandoned): its delivery, like every
// other attempt's, carries the partner's columns as they were.
func TestAbandonedJoinAttemptOwnsItsMemoryRows(t *testing.T) {
	sys, orders, vip := openOrdersJoin(t, Options{
		Queue: MemoryQueue, Drivers: 1,
		ActionRetry: &retry.Policy{MaxAttempts: 3, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond,
			AttemptTimeout: 50 * time.Millisecond},
	})
	release := make(chan struct{})
	var calls atomic.Int64
	sys.exe.Inject = func(uint64) error {
		if calls.Add(1) == 1 {
			<-release // abandoned at its timeout; the retry delivers
		}
		return nil
	}
	got := collectArgs(t, sys)
	partner := types.Tuple{types.NewInt(1), types.NewString("ann")}
	if err := vip.Insert(partner); err != nil {
		t.Fatal(err)
	}
	sys.Drain()
	if err := orders.Insert(types.Tuple{types.NewInt(10), types.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	sys.Drain()
	if err := vip.Delete(partner); err != nil {
		t.Fatal(err)
	}
	sys.Drain()
	close(release)
	// Every attempt that ran delivers once: the abandoned one, the retry
	// that replaced it, and the attempts of the enumeration, which runs
	// under the same policy and is abandoned and retried around them.
	var j []string
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		if j = got("J"); len(j) >= 2 && len(j) == int(calls.Load()) {
			break
		}
	}
	if len(j) < 2 || len(j) != int(calls.Load()) {
		t.Fatalf("J fired %v for %d attempts, want one delivery per attempt and the abandoned one among them", j, calls.Load())
	}
	for _, args := range j {
		if args != `(10, 'ann')` {
			t.Fatalf("J fired %v, want each the order joined with ann's row as it was", j)
		}
	}
}

// openOrdersJoin opens a system with opts and the join trigger j over
// two tables, firing J(order id, customer name) when an order arrives;
// the system closes when the test ends.
func openOrdersJoin(t *testing.T, opts Options) (sys *System, orders, vip *TableSource) {
	t.Helper()
	sys, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	intCol := func(name string) types.Column { return types.Column{Name: name, Kind: types.KindInt} }
	if orders, err = sys.DefineTableSource("orders", intCol("id"), intCol("cust")); err != nil {
		t.Fatal(err)
	}
	if vip, err = sys.DefineTableSource("vip", intCol("id"), types.Column{Name: "name", Kind: types.KindVarchar}); err != nil {
		t.Fatal(err)
	}
	if err := sys.CreateTrigger(`create trigger j from orders o, vip v when o.cust = v.id on insert to orders do raise event J(o.id, v.name)`); err != nil {
		t.Fatal(err)
	}
	return sys, orders, vip
}

// TestReleasedScratchPinsNoDroppedTrigger creates, fires and drops
// triggers one after another and then holds every parked work: the
// predicates the index held for them must be collectable all the same,
// because a released work keeps no match. (Without holding the works
// the test could not fail: a sync.Pool forgets its contents after two
// collections. And it runs without the scribbling, which would bury a
// match left behind under garbage.)
func TestReleasedScratchPinsNoDroppedTrigger(t *testing.T) {
	scribble = nil
	defer func() { scribble = scribbleWork }()
	sys := syncSystem(t)
	src, err := sys.DefineStreamSource("s",
		types.Column{Name: "v", Kind: types.KindInt}, types.Column{Name: "w", Kind: types.KindInt})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	var freed atomic.Int32
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("d%d", i)
		// The second conjunct is not indexable: it is the Rest a match
		// carries a pointer to.
		if err := sys.CreateTrigger(fmt.Sprintf(
			"create trigger %s from s when s.v = %d and s.w + %d > 0 do raise event E(s.v)", name, i, i)); err != nil {
			t.Fatal(err)
		}
		tu := types.Tuple{types.NewInt(int64(i)), types.NewInt(1)}
		watched := false
		err := sys.pidx.MatchToken(datasource.Token{SourceID: src.Source().ID, Op: datasource.OpInsert, New: tu},
			func(m predindex.Match) bool {
				runtime.SetFinalizer(m.Rest.Clauses[0].Atoms[0].(*expr.Binary), func(*expr.Binary) { freed.Add(1) })
				watched = true
				return true
			})
		if err != nil || !watched {
			t.Fatalf("trigger %s: no match to watch (%v)", name, err)
		}
		if err := src.Insert(tu); err != nil {
			t.Fatal(err)
		}
		if err := sys.DropTrigger(name); err != nil {
			t.Fatal(err)
		}
	}
	held := make([]*work, 64)
	for i := range held {
		held[i] = sys.getWork()
	}
	for i := 0; i < 10 && freed.Load() < n; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := freed.Load(); got != n {
		t.Errorf("%d of %d dropped triggers' predicates were collected: something parked still points at the rest", got, n)
	}
	runtime.KeepAlive(held)
}
