package triggerman

import (
	"testing"

	"triggerman/internal/types"
)

// FuzzCreateTrigger feeds arbitrary text to CreateTrigger and, when a
// trigger is created, runs an insert, an update that moves the row to
// another group and a delete through it. Nothing may panic: text that
// is not a valid trigger is refused, and an action that cannot run is
// an error the system records. The source is a stream, so no action
// can write to it and cascade forever. The seeds (testdata/fuzz)
// include every aggregate shape: calls in the having, in event
// arguments, inside scalar functions, in execSQL values, set and where.
func FuzzCreateTrigger(f *testing.F) {
	f.Add(`create trigger t from sales group by region having count(region) > 0 do raise event E(sales.region, sum(amount))`)
	f.Fuzz(func(t *testing.T, text string) {
		sys, err := Open(Options{Synchronous: true, Queue: MemoryQueue, TraceSampleEvery: -1, DisableSLO: true, DisableProfiling: true})
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		sales, err := sys.DefineStreamSource("sales",
			types.Column{Name: "region", Kind: types.KindVarchar},
			types.Column{Name: "amount", Kind: types.KindInt},
			types.Column{Name: "rep", Kind: types.KindVarchar})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.DB().CreateTable("audit", types.MustSchema(
			types.Column{Name: "k", Kind: types.KindVarchar},
			types.Column{Name: "v", Kind: types.KindFloat})); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Exec("insert into audit values ('n', 1)"); err != nil {
			t.Fatal(err)
		}
		if sys.CreateTrigger(text) != nil {
			return
		}
		a, b := sale("n", 70, "x"), sale("s", 40, "y")
		for _, err := range []error{sales.Insert(a), sales.Insert(a), sales.Update(a, b), sales.Delete(b), sales.Delete(a)} {
			if err != nil {
				t.Fatal(err)
			}
		}
	})
}
