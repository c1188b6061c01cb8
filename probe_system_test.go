package triggerman

import (
	"fmt"
	"testing"

	"triggerman/internal/datasource"
	"triggerman/internal/types"
)

// TestOneProbePerImage pins what the index counters mean: a token costs
// one index probe per image it has. Every token has one, itself; an
// update on a source that feeds a network or an aggregate has a second,
// its old image, because the two can match different refs. The same
// holds trigger by trigger: /triggerz's probes for a join or aggregate
// trigger equal the images it was shown, not two or three times that.
//
// Partition fan-out splits the work without repeating it: the
// whole-token step probes only for the state it owns — not at all when
// the source has none — and each of the P partition tasks probes its
// own part, one of which holds the trigger's ref.
func TestOneProbePerImage(t *testing.T) {
	const join = `create trigger tr from a, b when a.x = b.x do raise event E(a.x)`
	kinds := []struct {
		name     string
		gator    bool
		trigger  string
		stateful bool
	}{
		{"single-variable", false, `create trigger tr from a when a.x >= 0 do raise event E(a.x)`, false},
		{"A-TREAT join", false, join, true},
		{"Gator join", true, join, true},
		{"aggregate", false, `create trigger tr from a group by x having count(x) > 1 do raise event E(a.x)`, true},
	}
	modes := []struct {
		name string
		opts Options
	}{
		{"Synchronous", Options{Synchronous: true}},
		{"default", Options{Drivers: 2}},
		{"fan-out", Options{Drivers: 2, ConditionPartitions: 2}},
	}
	row := func(x, y int) types.Tuple { return types.Tuple{types.NewInt(int64(x)), types.NewInt(int64(y))} }
	for _, kind := range kinds {
		for _, mode := range modes {
			for _, op := range []datasource.Op{datasource.OpInsert, datasource.OpDelete, datasource.OpUpdate} {
				t.Run(fmt.Sprintf("%s/%s/%s", kind.name, mode.name, op), func(t *testing.T) {
					opts := mode.opts
					opts.Queue = MemoryQueue
					opts.GatorNetworks = kind.gator
					sys, err := Open(opts)
					if err != nil {
						t.Fatal(err)
					}
					defer sys.Close()
					cols := []types.Column{{Name: "x", Kind: types.KindInt}, {Name: "y", Kind: types.KindInt}}
					a, err := sys.DefineStreamSource("a", cols...)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := sys.DefineStreamSource("b", cols...); err != nil {
						t.Fatal(err)
					}
					if err := sys.CreateTrigger(kind.trigger); err != nil {
						t.Fatal(err)
					}
					const n = 40
					for i := 0; i < n; i++ {
						if err := a.Insert(row(i, 0)); err != nil {
							t.Fatal(err)
						}
					}
					sys.Drain()
					tokens0, probes0 := sys.Stats().Index.Tokens, triggerProbes(sys, "tr")

					for i := 0; i < n; i++ {
						switch op {
						case datasource.OpInsert:
							err = a.Insert(row(n+i, 0))
						case datasource.OpDelete:
							err = a.Delete(row(i, 0))
						case datasource.OpUpdate:
							err = a.Update(row(i, 0), row(i, 1))
						}
						if err != nil {
							t.Fatal(err)
						}
					}
					// Per token: what the index is probed with, and how many
					// of those probes reach the trigger's ref.
					images := int64(1)
					if op == datasource.OpUpdate && kind.stateful {
						images = 2
					}
					wantIndex, wantTrigger := images, images
					if parts := int64(opts.ConditionPartitions); parts > 1 {
						if !kind.stateful {
							wantIndex = 0
						}
						wantIndex, wantTrigger = wantIndex+parts, wantTrigger+1
					}
					sys.Drain()
					if sys.Errors() != 0 {
						t.Fatalf("errors: %v", sys.LastError())
					}
					if got := sys.Stats().Index.Tokens - tokens0; got != n*wantIndex {
						t.Errorf("%d %s tokens cost %d index probes, want %d", n, op, got, n*wantIndex)
					}
					// The single-variable trigger listens for inserts and
					// updates only, so its probe count says nothing here.
					if kind.stateful {
						if got := triggerProbes(sys, "tr") - probes0; got != n*wantTrigger {
							t.Errorf("/triggerz probes for the trigger rose by %d over %d %s tokens, want %d", got, n, op, n*wantTrigger)
						}
					}
				})
			}
		}
	}
}

// triggerProbes reads one trigger's attributed match probes the way
// /triggerz reports them.
func triggerProbes(sys *System, name string) int64 {
	for _, tc := range sys.triggerzPayload(16).Hot {
		if tc.Name == name {
			return tc.Probes
		}
	}
	return 0
}

// TestTransitionConditionKeepsStateRecomputable covers the one thing a
// registered predicate can see of the single probe: an update is now
// matched as itself, so a when clause that reads :OLD is tested against
// the real old image where the synthetic insert image used to show it
// NULL. Such a clause is a fact about the event, and must decide only
// whether the event fires — never what an alpha memory or a group
// holds, or a raise would put a row in that no later token takes out.
func TestTransitionConditionKeepsStateRecomputable(t *testing.T) {
	const join = `create trigger r from a, b when a.v > :OLD.a.v and a.k = b.k do raise event R(a.k, a.v)`
	for _, tc := range []struct {
		name    string
		gator   bool
		trigger string
		// fired is the firing count after each of the four steps below.
		fired [4]int
	}{
		// The raise fires, seeded by a with its old image at hand; the
		// insert into b does not: seeded by b, a has no old image.
		{"A-TREAT join", false, join, [4]int{0, 1, 1, 1}},
		// Gator is told of an update as a delete and an insert, and the
		// insert carries no old image: no transition ever holds, as at
		// the parent commit.
		{"Gator join", true, join, [4]int{0, 0, 0, 0}},
		// An aggregate counts rows; no row passes a transition condition
		// on its own.
		{"aggregate", false, `create trigger r from a when a.v > :OLD.a.v group by k having count(k) > 0 do raise event R(a.k)`, [4]int{0, 0, 0, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := Open(Options{Synchronous: true, Queue: MemoryQueue, GatorNetworks: tc.gator})
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			cols := []types.Column{{Name: "k", Kind: types.KindInt}, {Name: "v", Kind: types.KindInt}}
			a, err := sys.DefineStreamSource("a", cols...)
			if err != nil {
				t.Fatal(err)
			}
			b, err := sys.DefineStreamSource("b", cols...)
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.CreateTrigger(tc.trigger); err != nil {
				t.Fatal(err)
			}
			fired := 0
			sys.FireHook = func(uint64, []types.Tuple) { fired++ }
			row := func(k, v int64) types.Tuple { return types.Tuple{types.NewInt(k), types.NewInt(v)} }
			steps := []struct {
				name string
				do   func() error
			}{
				{"insert", func() error { b.Insert(row(1, 0)); return a.Insert(row(1, 10)) }},
				{"raise", func() error { return a.Update(row(1, 10), row(1, 20)) }},
				{"cut", func() error { return a.Update(row(1, 20), row(1, 15)) }},
				{"insert into b", func() error { return b.Insert(row(1, 1)) }},
			}
			for i, st := range steps {
				if err := st.do(); err != nil {
					t.Fatal(err)
				}
				if fired != tc.fired[i] {
					t.Errorf("after %s: %d firings, want %d", st.name, fired, tc.fired[i])
				}
			}
			if sys.Errors() != 0 {
				t.Fatalf("errors: %v", sys.LastError())
			}
			// State against the base table: a holds one row, (1, 15), and
			// it passes no transition condition standing still.
			lt, unpin, err := sys.Catalog().Pin(triggerIDByName(t, sys, "r"))
			if err != nil {
				t.Fatal(err)
			}
			defer unpin()
			switch {
			case lt.Network != nil:
				if got := lt.Network.MemorySize(0); got != 1 {
					t.Errorf("alpha memory of a holds %d rows, the source holds 1", got)
				}
			case lt.Gator != nil:
				if got := lt.Gator.MemorySize(0); got != 1 {
					t.Errorf("alpha memory of a holds %d rows, the source holds 1", got)
				}
			default:
				if got := lt.Agg.State.Groups(); got != 0 {
					t.Errorf("aggregate state holds %d groups, no row passes the selection", got)
				}
			}
		})
	}
}
