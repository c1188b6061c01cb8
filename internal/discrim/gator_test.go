package discrim

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"triggerman/internal/datasource"
	"triggerman/internal/expr"
	"triggerman/internal/parser"
	"triggerman/internal/types"
)

func gatorVars() []Var {
	return []Var{
		{Name: "s", SourceID: 1},
		{Name: "h", SourceID: 2},
		{Name: "r", SourceID: 3},
	}
}

func gatorEdges(t *testing.T) []JoinEdge {
	return []JoinEdge{
		{A: 0, B: 2, Pred: bindMulti(t, "s.spno = r.spno")},
		{A: 2, B: 1, Pred: bindMulti(t, "r.nno = h.nno")},
	}
}

func TestGatorShapeValidation(t *testing.T) {
	vars := gatorVars()
	edges := gatorEdges(t)
	// Omitting a variable fails.
	if _, err := NewGatorNetwork(1, vars, edges, expr.CNF{},
		NodeShape(LeafShape(0), LeafShape(1))); err == nil {
		t.Error("shape omitting a variable should fail")
	}
	// Repeating a variable fails.
	if _, err := NewGatorNetwork(1, vars, edges, expr.CNF{},
		NodeShape(LeafShape(0), LeafShape(0), LeafShape(1))); err == nil {
		t.Error("shape repeating a variable should fail")
	}
	// Single-child interior node fails.
	if _, err := NewGatorNetwork(1, vars, edges, expr.CNF{},
		NodeShape(NodeShape(LeafShape(0)), LeafShape(1), LeafShape(2))); err == nil {
		t.Error("1-child interior node should fail")
	}
	// Out-of-range leaf fails.
	if _, err := NewGatorNetwork(1, vars, edges, expr.CNF{},
		NodeShape(LeafShape(0), LeafShape(9), LeafShape(2))); err == nil {
		t.Error("leaf out of range should fail")
	}
	// Virtual memories are rejected.
	vv := gatorVars()
	vv[0].Kind = Virtual
	if _, err := NewGreedyGator(1, vv, edges, expr.CNF{}, nil); err == nil {
		t.Error("virtual memory should be rejected")
	}
	// Valid shapes: left-deep, right-deep, bushy ternary.
	for _, shape := range []*Shape{
		NodeShape(NodeShape(LeafShape(0), LeafShape(2)), LeafShape(1)),
		NodeShape(LeafShape(0), NodeShape(LeafShape(2), LeafShape(1))),
		NodeShape(LeafShape(0), LeafShape(1), LeafShape(2)),
	} {
		if _, err := NewGatorNetwork(1, gatorVars(), gatorEdges(t), expr.CNF{}, shape); err != nil {
			t.Errorf("valid shape rejected: %v", err)
		}
	}
}

func TestGatorIrisEquivalence(t *testing.T) {
	// The Iris scenario through the catalog's Gator shape matches the
	// TREAT network exactly.
	g, err := NewGreedyGator(42, gatorVars(), gatorEdges(t), expr.CNF{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	fire := func(v int, tok datasource.Token) []string {
		var out []string
		if err := g.NotifyToken(v, tok, func(c Combo) bool {
			out = append(out, fmt.Sprint(c.Tuples))
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	fire(0, insertTok(1, sp(7, "Iris")))
	fire(2, insertTok(3, rep(7, 2)))
	got := fire(1, insertTok(2, house(100, 2)))
	if len(got) != 1 {
		t.Fatalf("combos = %v", got)
	}
	// Non-matching house.
	if got := fire(1, insertTok(2, house(101, 9))); len(got) != 0 {
		t.Fatalf("unexpected %v", got)
	}
	// Retraction: deleting the represents row retracts the cached combo.
	del := datasource.Token{SourceID: 3, Op: datasource.OpDelete, Old: rep(7, 2)}
	retracted := fire(2, del)
	if len(retracted) != 1 {
		t.Fatalf("retracted = %v", retracted)
	}
	// The root beta is empty again.
	sizes := g.BetaSizes()
	if sizes[len(sizes)-1] != 0 {
		t.Fatalf("root beta size = %v", sizes)
	}
	// And the join no longer completes.
	if got := fire(1, insertTok(2, house(102, 2))); len(got) != 0 {
		t.Fatalf("join should be broken: %v", got)
	}
}

// TestGatorAgreesWithTreatRandomized drives one random stream of
// inserts, duplicate rows, deletes, phantom deletes and updates through
// the flat TREAT network and each of four Gator shapes, and holds both
// to a from-scratch recompute over the live rows (the incremental
// maintenance correctness of Veldhuizen's LFTJ paper): every token's
// firings equal, as a multiset, a nested loop over the live rows; after
// every token each variable's memory holds exactly its live rows, and
// the Gator root beta holds the whole join. Half the tokens remove a
// row, so freed slots are reused mid-history, under the scribbling: a
// partial or a combination that read a freed slot would read garbage.
func TestGatorAgreesWithTreatRandomized(t *testing.T) {
	shapes := map[string]func() (*GatorNetwork, error){
		"left-deep": func() (*GatorNetwork, error) {
			return NewGatorNetwork(1, gatorVars(), gatorEdges(t), expr.CNF{},
				NodeShape(NodeShape(LeafShape(0), LeafShape(1)), LeafShape(2)))
		},
		"bushy": func() (*GatorNetwork, error) {
			return NewGatorNetwork(1, gatorVars(), gatorEdges(t), expr.CNF{},
				NodeShape(LeafShape(1), NodeShape(LeafShape(0), LeafShape(2))))
		},
		"ternary": func() (*GatorNetwork, error) {
			return NewGatorNetwork(1, gatorVars(), gatorEdges(t), expr.CNF{},
				NodeShape(LeafShape(0), LeafShape(1), LeafShape(2)))
		},
		"greedy": func() (*GatorNetwork, error) {
			return NewGreedyGator(1, gatorVars(), gatorEdges(t), expr.CNF{}, []int{3, 10, 2})
		},
	}
	// joins is the trigger's condition: s.spno = r.spno and r.nno = h.nno.
	joins := func(s, h, r types.Tuple) bool {
		return types.Equal(s.Get(0), r.Get(0)) && types.Equal(r.Get(1), h.Get(3))
	}
	for name, build := range shapes {
		t.Run(name, func(t *testing.T) {
			treat, err := NewNetwork(1, gatorVars(), gatorEdges(t), expr.CNF{})
			if err != nil {
				t.Fatal(err)
			}
			gator, err := build()
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(77))
			gen := []func() types.Tuple{
				func() types.Tuple { return sp(int64(rng.Intn(5)), fmt.Sprintf("n%d", rng.Intn(3))) },
				func() types.Tuple { return house(int64(rng.Intn(20)), int64(rng.Intn(5))) },
				func() types.Tuple { return rep(int64(rng.Intn(5)), int64(rng.Intn(5))) },
			}
			live := make([][]types.Tuple, 3)
			added := make([]int, 3) // rows ever added to each memory
			// recompute lists the combinations with seed at variable fix
			// (fix -1: the whole join) by a nested loop over live.
			recompute := func(fix int, seed types.Tuple) []string {
				over := func(v int) []types.Tuple {
					if v == fix {
						return []types.Tuple{seed}
					}
					return live[v]
				}
				var out []string
				for _, s := range over(0) {
					for _, r := range over(2) {
						for _, h := range over(1) {
							if joins(s, h, r) {
								out = append(out, fmt.Sprint([]types.Tuple{s, h, r}))
							}
						}
					}
				}
				sort.Strings(out)
				return out
			}
			for step := 0; step < 600; step++ {
				v := rng.Intn(3)
				tok := datasource.Token{SourceID: int32(v + 1)}
				i := -1
				if len(live[v]) > 0 {
					i = rng.Intn(len(live[v]))
				}
				phantom := false
				switch op := rng.Intn(10); {
				case op < 2 || i < 0:
					tok.Op, tok.New = datasource.OpInsert, gen[v]()
				case op < 4: // a duplicate row: a second instance
					tok.Op, tok.New = datasource.OpInsert, live[v][i]
				case op < 7:
					tok.Op, tok.Old = datasource.OpDelete, live[v][i]
				case op < 8: // a row no memory holds (spno, hno -1)
					tok.Op, tok.Old, phantom = datasource.OpDelete, gen[v](), true
					tok.Old[0] = types.NewInt(-1)
				default:
					tok.Op, tok.Old, tok.New = datasource.OpUpdate, live[v][i], gen[v]()
				}
				var want []string // a phantom delete retracts and fires nothing
				if !phantom {
					want = recompute(v, tok.Effective())
				}
				if tok.Old != nil && !phantom {
					live[v] = append(live[v][:i], live[v][i+1:]...)
				}
				if tok.New != nil {
					live[v] = append(live[v], tok.New)
					added[v]++
				}
				for _, net := range []struct {
					name   string
					vars   []Var
					notify func(int, datasource.Token, PNode) error
				}{{"treat", treat.Vars, treat.NotifyToken}, {name, gator.Vars, gator.NotifyToken}} {
					var got []string
					if err := net.notify(v, tok, func(c Combo) bool {
						got = append(got, fmt.Sprint(c.Tuples))
						return true
					}); err != nil {
						t.Fatal(err)
					}
					sort.Strings(got)
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("step %d (%s on var %d):\n %s %v\n recompute %v", step, tok, v, net.name, got, want)
					}
					for mv := range live {
						if got, want := memoryRows(net.vars[mv].mem), sortedRows(live[mv]); fmt.Sprint(got) != fmt.Sprint(want) {
							t.Fatalf("step %d: %s memory %d holds %v, live %v", step, net.name, mv, got, want)
						}
					}
				}
				sizes := gator.BetaSizes()
				if got, want := sizes[len(sizes)-1], len(recompute(-1, nil)); got != want {
					t.Fatalf("step %d: root beta holds %d combinations, the join has %d", step, got, want)
				}
			}
			for v := range live {
				for _, m := range []*memory{treat.Vars[v].mem, gator.Vars[v].mem} {
					if len(m.rows) >= added[v] {
						t.Errorf("memory %d grew %d slots for %d rows added: no slot was reused", v, len(m.rows), added[v])
					}
				}
			}
		})
	}
}

// Inserts on sibling leaves run concurrently (tokens from different
// sources are processed in parallel), and each can see the other's new
// instance: the partial both then build is stored, and fired, once.
func TestGatorConcurrentSiblingInserts(t *testing.T) {
	g, err := NewGreedyGator(1, gatorVars(), gatorEdges(t), expr.CNF{}, nil) // ((s r) h)
	if err != nil {
		t.Fatal(err)
	}
	const rows = 100
	gen := []func(i int64) types.Tuple{ // every row distinct
		func(i int64) types.Tuple { return sp(i%10, fmt.Sprint(i)) },
		func(i int64) types.Tuple { return house(i, i%10) },
		func(i int64) types.Tuple { return rep(i%10, i/10) },
	}
	var mu sync.Mutex
	fired := make(map[string]int)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for v := range gen {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := int64(0); i < rows; i++ {
				if err := g.NotifyToken(v, insertTok(int32(v+1), gen[v](i)), func(c Combo) bool {
					mu.Lock()
					fired[fmt.Sprint(c.Tuples)]++
					mu.Unlock()
					return true
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	sr, join := 0, 0
	for i := int64(0); i < rows; i++ {
		for k := int64(0); k < rows; k++ {
			s, r := gen[0](i), gen[2](k)
			if !types.Equal(s.Get(0), r.Get(0)) {
				continue
			}
			sr++
			for l := int64(0); l < rows; l++ {
				if h := gen[1](l); types.Equal(r.Get(1), h.Get(3)) {
					join++
					if key := fmt.Sprint([]types.Tuple{s, h, r}); fired[key] != 1 {
						t.Fatalf("%s fired %d times", key, fired[key])
					}
				}
			}
		}
	}
	if len(fired) != join {
		t.Errorf("%d combinations fired, the join has %d", len(fired), join)
	}
	if sizes := g.BetaSizes(); sizes[0] != sr || sizes[1] != join {
		t.Errorf("beta sizes %v, want [%d %d]", sizes, sr, join)
	}
}

// memoryRows lists a memory's tuples, sorted, checking its size count.
func memoryRows(m *memory) []string {
	var out []string
	m.scan(scanAll, nil, func(in instance) bool {
		out = append(out, fmt.Sprint(in.tuple))
		return true
	})
	if len(out) != m.len() {
		out = append(out, fmt.Sprintf("(size says %d)", m.len()))
	}
	sort.Strings(out)
	return out
}

func sortedRows(tus []types.Tuple) []string {
	out := make([]string, len(tus))
	for i, tu := range tus {
		out[i] = fmt.Sprint(tu)
	}
	sort.Strings(out)
	return out
}

func TestGatorBetaCaching(t *testing.T) {
	// Beta memories hold the intermediate join: after loading s and r,
	// the (s ⋈ r) beta is populated; h tokens probe it without
	// recomputation.
	g, err := NewGatorNetwork(7, gatorVars(), gatorEdges(t), expr.CNF{},
		NodeShape(NodeShape(LeafShape(0), LeafShape(2)), LeafShape(1)))
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 10; i++ {
		g.NotifyToken(0, insertTok(1, sp(i, "x")), nil)
		g.NotifyToken(2, insertTok(3, rep(i, i%3)), nil)
	}
	sizes := g.BetaSizes()
	if sizes[0] != 10 { // s⋈r pairs (spno equality, one rep per sp)
		t.Fatalf("inner beta = %v", sizes)
	}
	fired := 0
	g.NotifyToken(1, insertTok(2, house(1, 0)), func(Combo) bool { fired++; return true })
	// nno=0 -> reps with i%3==0: i in {0,3,6,9} -> 4 combos
	if fired != 4 {
		t.Fatalf("fired = %d", fired)
	}
}

func TestGatorUpdateToken(t *testing.T) {
	g, err := NewGreedyGator(1, gatorVars(), gatorEdges(t), expr.CNF{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	g.NotifyToken(0, insertTok(1, sp(7, "Iris")), nil)
	g.NotifyToken(1, insertTok(2, house(100, 2)), nil)
	fired := 0
	g.NotifyToken(2, insertTok(3, rep(7, 1)), func(Combo) bool { fired++; return true })
	if fired != 0 {
		t.Fatal("nno mismatch should not fire")
	}
	// Update the represents row to complete the join.
	upd := datasource.Token{SourceID: 3, Op: datasource.OpUpdate, Old: rep(7, 1), New: rep(7, 2)}
	g.NotifyToken(2, upd, func(Combo) bool { fired++; return true })
	if fired != 1 {
		t.Fatalf("update fired %d", fired)
	}
	if g.MemorySize(2) != 1 {
		t.Fatal("memory size after update")
	}
}

// Ablation: TREAT recomputes sibling joins per token; Rete/Gator caches
// them in beta memories. A Y–Z sub-join with a non-indexable predicate
// makes the difference visible: X tokens probe the cached (Y ⋈ Z) in
// the Gator network but force a Z scan per Y match under TREAT.
func BenchmarkAblation_TreatVsGator(b *testing.B) {
	xSchema := types.MustSchema(types.Column{Name: "k", Kind: types.KindInt})
	ySchema := types.MustSchema(
		types.Column{Name: "k", Kind: types.KindInt},
		types.Column{Name: "a", Kind: types.KindInt})
	zSchema := types.MustSchema(types.Column{Name: "b", Kind: types.KindInt})
	_ = xSchema
	bind := func(src string) expr.CNF {
		n, err := parser.ParseExpr(src)
		if err != nil {
			b.Fatal(err)
		}
		schemas := []*types.Schema{xSchema, ySchema, zSchema}
		bd := &expr.Binder{
			VarIndex:    map[string]int{"x": 0, "y": 1, "z": 2},
			DefaultVar:  -1,
			ColumnIndex: func(v int, col string) int { return schemas[v].ColumnIndex(col) },
		}
		if err := bd.Bind(n); err != nil {
			b.Fatal(err)
		}
		cnf, err := expr.ToCNF(n)
		if err != nil {
			b.Fatal(err)
		}
		return cnf
	}
	const rows = 300
	workloads := []struct {
		name string
		yz   string
	}{
		// Selective but non-indexable band join: ~3 z rows per y, yet
		// TREAT must scan every z row per token to find them — the beta
		// cache (Rete/Gator) wins.
		{"band-join", "y.a < z.b and z.b <= y.a + 3"},
		// Wide half-open join: huge intermediate result; caching it in a
		// beta costs more than TREAT's recomputation — TREAT wins. The
		// existence of both regimes is exactly why [Hans97b] optimizes
		// the network shape per trigger.
		{"wide-join", "y.a < z.b"},
	}
	for _, w := range workloads {
		for _, kind := range []string{"treat", "gator"} {
			b.Run(w.name+"/"+kind, func(b *testing.B) {
				vars := []Var{{Name: "x", SourceID: 1}, {Name: "y", SourceID: 2}, {Name: "z", SourceID: 3}}
				edges := []JoinEdge{
					{A: 0, B: 1, Pred: bind("x.k = y.k")},
					{A: 1, B: 2, Pred: bind(w.yz)},
				}
				notify := func(v int, tok datasource.Token, p PNode) error { return nil }
				switch kind {
				case "treat":
					n, err := NewNetwork(1, vars, edges, expr.CNF{})
					if err != nil {
						b.Fatal(err)
					}
					notify = n.NotifyToken
				case "gator":
					// Cache (y ⋈ z) in a beta; x probes it by equijoin
					// at the root.
					g, err := NewGatorNetwork(1, vars, edges, expr.CNF{},
						NodeShape(NodeShape(LeafShape(1), LeafShape(2)), LeafShape(0)))
					if err != nil {
						b.Fatal(err)
					}
					notify = g.NotifyToken
				}
				for i := int64(0); i < rows; i++ {
					yTok := datasource.Token{SourceID: 2, Op: datasource.OpInsert,
						New: types.Tuple{types.NewInt(i), types.NewInt(i)}}
					if err := notify(1, yTok, nil); err != nil {
						b.Fatal(err)
					}
					zTok := datasource.Token{SourceID: 3, Op: datasource.OpInsert,
						New: types.Tuple{types.NewInt(i + 3)}}
					if err := notify(2, zTok, nil); err != nil {
						b.Fatal(err)
					}
				}
				b.ResetTimer()
				fired := 0
				for i := 0; i < b.N; i++ {
					xTok := datasource.Token{SourceID: 1, Op: datasource.OpInsert,
						New: types.Tuple{types.NewInt(int64(i % rows))}}
					if err := notify(0, xTok, func(Combo) bool { fired++; return true }); err != nil {
						b.Fatal(err)
					}
				}
				if fired == 0 {
					b.Fatal("no firings")
				}
				b.ReportMetric(float64(fired)/float64(b.N), "combos/token")
			})
		}
	}
}
