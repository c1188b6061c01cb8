package discrim

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"triggerman/internal/datasource"
	"triggerman/internal/expr"
	"triggerman/internal/parser"
	"triggerman/internal/types"
)

// Every test of this package runs with freed memory rows overwritten:
// whatever still reads a row after its slot was freed — a Gator partial
// sharing a slot instead of copying it, a combination kept past its
// P-node call — reads garbage, and the recompute oracles fail.
func init() { ScribbleFreed = scribbleRow }

func scribbleRow(row types.Tuple) {
	for i := range row {
		row[i] = types.NewString("scribbled")
	}
}

// Real-estate schema from §2 of the paper.
var (
	spSchema = types.MustSchema(
		types.Column{Name: "spno", Kind: types.KindInt},
		types.Column{Name: "name", Kind: types.KindVarchar},
		types.Column{Name: "phone", Kind: types.KindVarchar},
	)
	houseSchema = types.MustSchema(
		types.Column{Name: "hno", Kind: types.KindInt},
		types.Column{Name: "address", Kind: types.KindVarchar},
		types.Column{Name: "price", Kind: types.KindFloat},
		types.Column{Name: "nno", Kind: types.KindInt},
		types.Column{Name: "spno", Kind: types.KindInt},
	)
	repSchema = types.MustSchema(
		types.Column{Name: "spno", Kind: types.KindInt},
		types.Column{Name: "nno", Kind: types.KindInt},
	)
)

// bindMulti binds a predicate over the (s, h, r) variables.
func bindMulti(t *testing.T, src string) expr.CNF {
	t.Helper()
	n, err := parser.ParseExpr(src)
	if err != nil {
		t.Fatal(err)
	}
	schemas := []*types.Schema{spSchema, houseSchema, repSchema}
	b := &expr.Binder{
		VarIndex:   map[string]int{"s": 0, "h": 1, "r": 2},
		DefaultVar: -1,
		ColumnIndex: func(v int, col string) int {
			return schemas[v].ColumnIndex(col)
		},
	}
	if err := b.Bind(n); err != nil {
		t.Fatal(err)
	}
	cnf, err := expr.ToCNF(n)
	if err != nil {
		t.Fatal(err)
	}
	return cnf
}

func sp(spno int64, name string) types.Tuple {
	return types.Tuple{types.NewInt(spno), types.NewString(name), types.NewString("555")}
}
func house(hno int64, nno int64) types.Tuple {
	return types.Tuple{types.NewInt(hno), types.NewString(fmt.Sprintf("%d Main St", hno)), types.NewFloat(100000), types.NewInt(nno), types.NewInt(0)}
}
func rep(spno, nno int64) types.Tuple {
	return types.Tuple{types.NewInt(spno), types.NewInt(nno)}
}

// irisNetwork builds the IrisHouseAlert network: s.spno=r.spno AND
// r.nno=h.nno (selection s.name='Iris' is handled above the network).
func irisNetwork(t *testing.T) *Network {
	t.Helper()
	vars := []Var{
		{Name: "s", SourceID: 1},
		{Name: "h", SourceID: 2},
		{Name: "r", SourceID: 3},
	}
	edges := []JoinEdge{
		{A: 0, B: 2, Pred: bindMulti(t, "s.spno = r.spno")},
		{A: 2, B: 1, Pred: bindMulti(t, "r.nno = h.nno")},
	}
	n, err := NewNetwork(42, vars, edges, expr.CNF{})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func insertTok(src int32, tu types.Tuple) datasource.Token {
	return datasource.Token{SourceID: src, Op: datasource.OpInsert, New: tu}
}

func collect(t *testing.T, n *Network, v int, tok datasource.Token) []Combo {
	t.Helper()
	var out []Combo
	if err := n.NotifyToken(v, tok, func(c Combo) bool {
		c.Tuples = slices.Clone(c.Tuples) // the network's, valid during the call
		out = append(out, c)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestIrisHouseAlertJoin(t *testing.T) {
	n := irisNetwork(t)
	// Iris (spno 7) represents neighborhoods 1 and 2.
	collect(t, n, 0, insertTok(1, sp(7, "Iris")))
	collect(t, n, 2, insertTok(3, rep(7, 1)))
	collect(t, n, 2, insertTok(3, rep(7, 2)))
	// A house in neighborhood 2 fires exactly once.
	got := collect(t, n, 1, insertTok(2, house(100, 2)))
	if len(got) != 1 {
		t.Fatalf("combos = %d, want 1", len(got))
	}
	c := got[0]
	if c.SeedVar != 1 || c.Tuples[0].Get(1).Str() != "Iris" || c.Tuples[1].Get(0).Int() != 100 {
		t.Errorf("combo = %+v", c)
	}
	// A house in neighborhood 9 does not fire.
	if got := collect(t, n, 1, insertTok(2, house(101, 9))); len(got) != 0 {
		t.Errorf("unexpected combos: %+v", got)
	}
	// A second salesperson for neighborhood 2 doubles matches for new
	// houses there.
	collect(t, n, 0, insertTok(1, sp(8, "Ivan")))
	collect(t, n, 2, insertTok(3, rep(8, 2)))
	if got := collect(t, n, 1, insertTok(2, house(102, 2))); len(got) != 2 {
		t.Errorf("combos = %d, want 2", len(got))
	}
}

func TestTokenSeedingEachVariable(t *testing.T) {
	n := irisNetwork(t)
	collect(t, n, 0, insertTok(1, sp(7, "Iris")))
	collect(t, n, 1, insertTok(2, house(100, 2)))
	// The final piece (represents) completes the join and fires.
	got := collect(t, n, 2, insertTok(3, rep(7, 2)))
	if len(got) != 1 {
		t.Fatalf("combos = %d, want 1", len(got))
	}
	if got[0].SeedVar != 2 {
		t.Errorf("seed var = %d", got[0].SeedVar)
	}
}

func TestDeleteRemovesFromMemory(t *testing.T) {
	n := irisNetwork(t)
	collect(t, n, 0, insertTok(1, sp(7, "Iris")))
	collect(t, n, 2, insertTok(3, rep(7, 2)))
	collect(t, n, 1, insertTok(2, house(50, 2)))
	if n.MemorySize(0) != 1 || n.MemorySize(2) != 1 || n.MemorySize(1) != 1 {
		t.Fatal("memory sizes")
	}
	// Delete the represents row: the join no longer completes.
	del := datasource.Token{SourceID: 3, Op: datasource.OpDelete, Old: rep(7, 2)}
	got := collect(t, n, 2, del)
	// The minus token still seeds an enumeration (the combination that
	// just ceased to exist), letting rules react to deletions.
	if len(got) != 1 {
		t.Errorf("delete seeded %d combos", len(got))
	}
	if n.MemorySize(2) != 0 {
		t.Error("memory not drained")
	}
	if got := collect(t, n, 1, insertTok(2, house(1, 2))); len(got) != 0 {
		t.Errorf("join should be broken after delete: %+v", got)
	}
}

func TestUpdateReplacesMemory(t *testing.T) {
	n := irisNetwork(t)
	collect(t, n, 0, insertTok(1, sp(7, "Iris")))
	collect(t, n, 2, insertTok(3, rep(7, 1)))
	upd := datasource.Token{SourceID: 3, Op: datasource.OpUpdate, Old: rep(7, 1), New: rep(7, 2)}
	collect(t, n, 2, upd)
	if n.MemorySize(2) != 1 {
		t.Fatalf("memory size = %d", n.MemorySize(2))
	}
	if got := collect(t, n, 1, insertTok(2, house(1, 2))); len(got) != 1 {
		t.Errorf("updated join should match nno=2: %+v", got)
	}
	if got := collect(t, n, 1, insertTok(2, house(2, 1))); len(got) != 0 {
		t.Errorf("old value should be gone: %+v", got)
	}
}

func TestSingleVariableNetwork(t *testing.T) {
	n, err := NewNetwork(1, []Var{{Name: "emp", SourceID: 1}}, nil, expr.CNF{})
	if err != nil {
		t.Fatal(err)
	}
	tok := insertTok(1, types.Tuple{types.NewString("Bob")})
	got := collect(t, n, 0, tok)
	if len(got) != 1 || got[0].Tuples[0].Get(0).Str() != "Bob" {
		t.Fatalf("combos = %+v", got)
	}
}

func TestCatchAllPredicate(t *testing.T) {
	// Hyper-join-ish condition: s.spno + r.spno > h.hno (three variables).
	vars := []Var{{Name: "s", SourceID: 1}, {Name: "h", SourceID: 2}, {Name: "r", SourceID: 3}}
	edges := []JoinEdge{
		{A: 0, B: 2, Pred: bindMulti(t, "s.spno = r.spno")},
	}
	catch := bindMulti(t, "s.spno + r.spno > h.hno")
	n, err := NewNetwork(1, vars, edges, catch)
	if err != nil {
		t.Fatal(err)
	}
	collect(t, n, 0, insertTok(1, sp(5, "A")))
	collect(t, n, 2, insertTok(3, rep(5, 1)))
	// 5+5=10 > 3 -> fires
	if got := collect(t, n, 1, insertTok(2, house(3, 1))); len(got) != 1 {
		t.Errorf("catch-all should pass: %+v", got)
	}
	// 5+5=10 > 100 false -> no fire
	if got := collect(t, n, 1, insertTok(2, house(100, 1))); len(got) != 0 {
		t.Errorf("catch-all should reject: %+v", got)
	}
}

func bindTwo(t *testing.T, src string, s0, s1 *types.Schema) expr.CNF {
	t.Helper()
	n, err := parser.ParseExpr(src)
	if err != nil {
		t.Fatal(err)
	}
	schemas := []*types.Schema{s0, s1}
	b := &expr.Binder{
		VarIndex:    map[string]int{"s": 0, "r": 1},
		DefaultVar:  -1,
		ColumnIndex: func(v int, col string) int { return schemas[v].ColumnIndex(col) },
	}
	if err := b.Bind(n); err != nil {
		t.Fatal(err)
	}
	cnf, err := expr.ToCNF(n)
	if err != nil {
		t.Fatal(err)
	}
	return cnf
}

func TestNetworkValidation(t *testing.T) {
	if _, err := NewNetwork(1, []Var{{Name: "a"}}, []JoinEdge{{A: 0, B: 5}}, expr.CNF{}); err == nil {
		t.Error("bad edge should fail")
	}
	n, _ := NewNetwork(1, []Var{{Name: "a"}}, nil, expr.CNF{})
	if err := n.NotifyToken(5, datasource.Token{}, nil); err == nil {
		t.Error("bad variable index should fail")
	}
}

func TestDisconnectedVariablesCartesian(t *testing.T) {
	// No join edges: cartesian product of memories.
	vars := []Var{{Name: "a", SourceID: 1}, {Name: "b", SourceID: 2}}
	n, _ := NewNetwork(1, vars, nil, expr.CNF{})
	collect(t, n, 1, insertTok(2, types.Tuple{types.NewInt(10)}))
	collect(t, n, 1, insertTok(2, types.Tuple{types.NewInt(20)}))
	got := collect(t, n, 0, insertTok(1, types.Tuple{types.NewInt(1)}))
	if len(got) != 2 {
		t.Fatalf("cartesian combos = %d, want 2", len(got))
	}
}

func TestEarlyStopEnumeration(t *testing.T) {
	vars := []Var{{Name: "a", SourceID: 1}, {Name: "b", SourceID: 2}}
	n, _ := NewNetwork(1, vars, nil, expr.CNF{})
	for i := int64(0); i < 100; i++ {
		collect(t, n, 1, insertTok(2, types.Tuple{types.NewInt(i)}))
	}
	count := 0
	n.NotifyToken(0, insertTok(1, types.Tuple{types.NewInt(1)}), func(Combo) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Errorf("early stop saw %d", count)
	}
}

func TestDuplicateTuplesBagSemantics(t *testing.T) {
	vars := []Var{{Name: "a", SourceID: 1}, {Name: "b", SourceID: 2}}
	n, _ := NewNetwork(1, vars, nil, expr.CNF{})
	dup := types.Tuple{types.NewInt(5)}
	collect(t, n, 1, insertTok(2, dup))
	collect(t, n, 1, insertTok(2, dup))
	if n.MemorySize(1) != 2 {
		t.Fatalf("bag size = %d", n.MemorySize(1))
	}
	got := collect(t, n, 0, insertTok(1, types.Tuple{types.NewInt(1)}))
	if len(got) != 2 {
		t.Errorf("duplicate instances should both join: %d", len(got))
	}
	// Remove one instance only.
	del := datasource.Token{SourceID: 2, Op: datasource.OpDelete, Old: dup}
	collect(t, n, 1, del)
	if n.MemorySize(1) != 1 {
		t.Errorf("bag size after one delete = %d", n.MemorySize(1))
	}
}

// A removed row becomes garbage at once, though its slot lives on: the
// memory clears the slot's values — and a Gator partial that held the
// row held a copy, which retraction drops — and the next add reuses the
// slot instead of growing the table. (It runs without the scribbling,
// which would bury the row under garbage whether or not it is cleared.)
func TestRemovedTupleIsCollected(t *testing.T) {
	ScribbleFreed = nil
	defer func() { ScribbleFreed = scribbleRow }()
	for _, kind := range []string{"atreat", "gator"} {
		t.Run(kind, func(t *testing.T) {
			vars := []Var{{Name: "s", SourceID: 1}, {Name: "r", SourceID: 3}}
			edges := []JoinEdge{{A: 0, B: 1, Pred: bindTwo(t, "s.spno = r.spno", spSchema, repSchema)}}
			var notify func(int, datasource.Token, PNode) error
			var mem *memory
			if kind == "atreat" {
				n, err := NewNetwork(1, vars, edges, expr.CNF{})
				if err != nil {
					t.Fatal(err)
				}
				notify, mem = n.NotifyToken, n.Vars[0].mem
			} else {
				g, err := NewGreedyGator(1, vars, edges, expr.CNF{}, nil)
				if err != nil {
					t.Fatal(err)
				}
				notify, mem = g.NotifyToken, g.Vars[0].mem
			}
			defer runtime.KeepAlive(notify) // the network, and its memories
			notify(0, insertTok(1, sp(1, "Ann")), nil)
			notify(1, insertTok(3, rep(7, 1)), nil)
			collected := make(chan struct{})
			// The row's name is a heap string of its own that nothing but
			// the tokens and the network holds; the tokens are gone once
			// this call returns.
			func() {
				name := strings.Repeat("Iris", 16)
				runtime.SetFinalizer(unsafe.StringData(name), func(*byte) { close(collected) })
				notify(0, insertTok(1, sp(7, name)), nil)
				// Gator: a partial seeded at r copies the row it binds at s.
				notify(1, insertTok(3, rep(7, 2)), nil)
				notify(0, datasource.Token{SourceID: 1, Op: datasource.OpDelete, Old: sp(7, name)}, nil)
			}()
			if got := memoryRows(mem); fmt.Sprint(got) != fmt.Sprint(sortedRows([]types.Tuple{sp(1, "Ann")})) {
				t.Fatalf("memory holds %v after the delete", got)
			}
			freed := slices.IndexFunc(mem.rows, func(r instance) bool { return r.serial == 0 })
			if freed < 0 || len(mem.rows) != 2 {
				t.Fatalf("slot table %v: want the removed row's slot free among 2", mem.rows)
			}
			for i := 0; ; i++ {
				runtime.GC()
				select {
				case <-collected:
				case <-time.After(10 * time.Millisecond):
					if i < 50 {
						continue
					}
					t.Fatal("the removed row's string is still reachable from the network")
				}
				break
			}
			notify(0, insertTok(1, sp(8, "Bo")), nil)
			if len(mem.rows) != 2 || mem.rows[freed].serial == 0 {
				t.Fatalf("slot table %v: the add did not reuse slot %d", mem.rows, freed)
			}
		})
	}
}

// Drivers enumerate one network at once, beside its maintenance: they
// share its plans and memories, and each combination is the call's own.
func TestConcurrentEnumerations(t *testing.T) {
	n := irisNetwork(t)
	for i := int64(0); i < 4; i++ {
		n.AddTuple(0, sp(i, "s"))
		n.AddTuple(2, rep(i, 1))
	}
	stop := make(chan struct{})
	var maint, readers sync.WaitGroup
	maint.Add(1)
	go func() { // rows that join no house in neighbourhood 1
		defer maint.Done()
		for i := int64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			n.AddTuple(2, rep(i%4, 9))
			n.RemoveTuple(2, rep(i%4, 9))
		}
	}()
	for d := int64(0); d < 4; d++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var sc Scratch
			for k := d * 1000; k < d*1000+200; k++ {
				got := 0
				err := n.Enumerate(&sc, 1, insertTok(2, house(k, 1)), func(c Combo) bool {
					if c.Tuples[1].Get(0).Int() == k && types.Equal(c.Tuples[0].Get(0), c.Tuples[2].Get(0)) {
						got++
					}
					return true
				})
				if err != nil || got != 4 {
					t.Errorf("driver %d, house %d: %d combinations (%v), want 4", d, k, got, err)
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	maint.Wait()
}

// TestIndexedMemoryAgreesWithScan drives identical random token streams
// through an indexed and an unindexed network; their firing sequences
// must match exactly (the index is a pre-filter, never a semantic
// change).
func TestIndexedMemoryAgreesWithScan(t *testing.T) {
	build := func(indexed bool) *Network {
		vars := []Var{
			{Name: "s", SourceID: 1},
			{Name: "h", SourceID: 2},
			{Name: "r", SourceID: 3},
		}
		edges := []JoinEdge{
			{A: 0, B: 2, Pred: bindMulti(t, "s.spno = r.spno")},
			{A: 2, B: 1, Pred: bindMulti(t, "r.nno = h.nno and r.nno > 0")},
		}
		n, err := NewNetworkOpts(1, vars, edges, expr.CNF{}, indexed)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	idx, scan := build(true), build(false)
	rng := rand.New(rand.NewSource(33))
	for step := 0; step < 800; step++ {
		var tok datasource.Token
		switch rng.Intn(3) {
		case 0:
			tok = datasource.Token{SourceID: 1, Op: datasource.OpInsert, New: sp(int64(rng.Intn(6)), "x")}
			tok.SourceID = 1
		case 1:
			tok = datasource.Token{SourceID: 2, Op: datasource.OpInsert, New: house(int64(step), int64(rng.Intn(6)-1))}
		default:
			tok = datasource.Token{SourceID: 3, Op: datasource.OpInsert, New: rep(int64(rng.Intn(6)), int64(rng.Intn(6)-1))}
		}
		v := map[int32]int{1: 0, 2: 1, 3: 2}[tok.SourceID]
		var a, b []string
		if err := idx.NotifyToken(v, tok, func(c Combo) bool {
			a = append(a, fmt.Sprint(c.Tuples))
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if err := scan.NotifyToken(v, tok, func(c Combo) bool {
			b = append(b, fmt.Sprint(c.Tuples))
			return true
		}); err != nil {
			t.Fatal(err)
		}
		sort.Strings(a)
		sort.Strings(b)
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("step %d (%s): indexed %v vs scan %v", step, tok, a, b)
		}
	}
}
