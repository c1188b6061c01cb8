package discrim

import (
	"fmt"
	"testing"

	"triggerman/internal/datasource"
	"triggerman/internal/expr"
	"triggerman/internal/minisql"
	"triggerman/internal/parser"
	"triggerman/internal/storage"
	"triggerman/internal/types"
)

// Ablation: stored vs virtual alpha memories (A-TREAT's design choice).
// Stored memories pay per-token maintenance and hold tuples in RAM;
// virtual memories pay a base-table scan per join. The crossover
// justifies A-TREAT's rule of thumb: virtualize memories whose
// selection is very unselective (large stored size), keep selective
// ones stored.
func BenchmarkAblation_VirtualVsStoredMemory(b *testing.B) {
	for _, rows := range []int{100, 1000, 10000} {
		for _, kind := range []string{"stored", "virtual"} {
			b.Run(fmt.Sprintf("%s/rows=%d", kind, rows), func(b *testing.B) {
				bp := storage.NewBufferPool(storage.NewMem(), 4096)
				db, err := minisql.Create(bp)
				if err != nil {
					b.Fatal(err)
				}
				tab, err := db.CreateTable("salesperson", spSchema)
				if err != nil {
					b.Fatal(err)
				}
				tuples := make([]types.Tuple, rows)
				for i := range tuples {
					tuples[i] = sp(int64(i), fmt.Sprintf("p%05d", i))
					if _, err := tab.Insert(tuples[i]); err != nil {
						b.Fatal(err)
					}
				}
				v := Var{Name: "s", SourceID: 1}
				if kind == "virtual" {
					v.Kind = Virtual
					v.Table = tab
				}
				vars := []Var{v, {Name: "r", SourceID: 3}}
				edges := []JoinEdge{{A: 0, B: 1, Pred: bindTwoBench(b, "s.spno = r.spno")}}
				n, err := NewNetwork(1, vars, edges, expr.CNF{})
				if err != nil {
					b.Fatal(err)
				}
				if kind == "stored" {
					if err := n.SeedMemory(0, tuples); err != nil {
						b.Fatal(err)
					}
				}
				b.ResetTimer()
				fired := 0
				var sc Scratch
				for i := 0; i < b.N; i++ {
					tok := datasource.Token{SourceID: 3, Op: datasource.OpInsert,
						New: rep(int64(i%rows), 1)}
					err := n.Enumerate(&sc, 1, tok, func(Combo) bool { fired++; return true })
					if err != nil {
						b.Fatal(err)
					}
				}
				if fired != b.N {
					b.Fatalf("fired %d of %d", fired, b.N)
				}
			})
		}
	}
}

func bindTwoBench(b *testing.B, src string) expr.CNF {
	b.Helper()
	n, err := parser.ParseExpr(src)
	if err != nil {
		b.Fatal(err)
	}
	schemas := []*types.Schema{spSchema, repSchema}
	bd := &expr.Binder{
		VarIndex:    map[string]int{"s": 0, "r": 1},
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

// Ablation: indexed vs unindexed alpha memories. Equijoin probes keep
// per-token cost proportional to actual matches instead of memory
// cardinality.
func BenchmarkAblation_IndexedVsScanMemory(b *testing.B) {
	for _, rows := range []int{100, 1000, 10000} {
		for _, kind := range []string{"indexed", "scan"} {
			b.Run(fmt.Sprintf("%s/rows=%d", kind, rows), func(b *testing.B) {
				vars := []Var{{Name: "s", SourceID: 1}, {Name: "r", SourceID: 3}}
				edges := []JoinEdge{{A: 0, B: 1, Pred: bindTwoBench(b, "s.spno = r.spno")}}
				n, err := NewNetworkOpts(1, vars, edges, expr.CNF{}, kind == "indexed")
				if err != nil {
					b.Fatal(err)
				}
				tuples := make([]types.Tuple, rows)
				for i := range tuples {
					tuples[i] = sp(int64(i), fmt.Sprintf("p%05d", i))
				}
				if err := n.SeedMemory(0, tuples); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				fired := 0
				var sc Scratch
				for i := 0; i < b.N; i++ {
					tok := datasource.Token{SourceID: 3, Op: datasource.OpInsert,
						New: rep(int64(i%rows), 1)}
					if err := n.Enumerate(&sc, 1, tok, func(Combo) bool { fired++; return true }); err != nil {
						b.Fatal(err)
					}
				}
				if fired != b.N {
					b.Fatalf("fired %d of %d", fired, b.N)
				}
			})
		}
	}
}
