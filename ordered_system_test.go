package triggerman

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"triggerman/internal/types"
)

// TestSourceFIFOOrderingUnderDriverPool is the ordering property test
// for Options.SourceFIFO: with several drivers and work stealing
// enabled, every firing for a given source must observe that source's
// tokens in enqueue order. Two sources insert concurrently so tokens
// from different sources interleave freely in the shared queue — only
// the per-source subsequences are constrained. Ordering is part of the
// trigger semantics, so it may not depend on an unrelated knob: it
// holds with ConditionPartitions set too, where ordering wins over
// partition fan-out.
func TestSourceFIFOOrderingUnderDriverPool(t *testing.T) {
	for _, parts := range []int{0, 2} {
		t.Run(fmt.Sprintf("ConditionPartitions=%d", parts), func(t *testing.T) {
			sourceFIFOOrdering(t, parts)
		})
	}
}

func sourceFIFOOrdering(t *testing.T, parts int) {
	sys, err := Open(Options{
		Drivers:             8,
		Queue:               MemoryQueue,
		SourceFIFO:          true,
		ConditionPartitions: parts,
		TokenBatch:          4,
		Threshold:           time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	a, err := sys.DefineStreamSource("sa", types.Column{Name: "x", Kind: types.KindInt})
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.DefineStreamSource("sb", types.Column{Name: "x", Kind: types.KindInt})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.CreateTrigger(`create trigger ta from sa when sa.x >= 0 do raise event EA(sa.x)`); err != nil {
		t.Fatal(err)
	}
	if err := sys.CreateTrigger(`create trigger tb from sb when sb.x >= 0 do raise event EB(sb.x)`); err != nil {
		t.Fatal(err)
	}
	idA := triggerIDByName(t, sys, "ta")
	idB := triggerIDByName(t, sys, "tb")

	var mu sync.Mutex
	var gotA, gotB []int64
	sys.FireHook = func(id uint64, combo []types.Tuple) {
		mu.Lock()
		defer mu.Unlock()
		switch id {
		case idA:
			gotA = append(gotA, combo[0][0].Int())
		case idB:
			gotB = append(gotB, combo[0][0].Int())
		}
	}

	const n = 400
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if err := a.Insert(types.Tuple{types.NewInt(int64(i))}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if err := b.Insert(types.Tuple{types.NewInt(int64(i))}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	sys.Drain()

	if sys.Errors() != 0 {
		t.Fatalf("errors: %v", sys.LastError())
	}
	mu.Lock()
	defer mu.Unlock()
	checkSequential(t, "sa", gotA, n)
	checkSequential(t, "sb", gotB, n)
	t.Logf("pool steals=%d parks=%d unparks=%d",
		sys.Stats().Pool.Steals, sys.Stats().Pool.Parks, sys.Stats().Pool.Unparks)
}

// TestPropagateOncePerToken: whatever the dispatch setting, a token's
// propagation pass runs exactly once — each insert adds one row to the
// join trigger's alpha memory (a bag, so a second pass would show), on
// a 2-partition system where match-and-fire runs once per partition.
//
// The self-join rows pin the order that pass must keep: the trigger's
// two variables read one source, their refs sit in different
// partitions, and both alpha memories must hold the inserted tuple
// before either variable enumerates, so every insert finds itself on
// the other side of the join. Firings must equal the nested-loop
// recompute.
func TestPropagateOncePerToken(t *testing.T) {
	const (
		join     = `create trigger j from a, b when a.x = b.x do raise event J(a.x)`
		selfJoin = `create trigger j from a l, a r when l.x = r.x do raise event J(l.x)`
	)
	for _, tc := range []struct {
		name    string
		opts    Options
		trigger string
	}{
		{"default", Options{}, join},
		{"SourceFIFO", Options{SourceFIFO: true}, join},
		{"Synchronous", Options{Synchronous: true}, join},
		{"self-join default", Options{}, selfJoin},
		{"self-join SourceFIFO", Options{SourceFIFO: true}, selfJoin},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := tc.opts
			opts.Drivers = 4
			opts.Queue = MemoryQueue
			opts.ConditionPartitions = 2
			sys, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			a, err := sys.DefineStreamSource("a", types.Column{Name: "x", Kind: types.KindInt})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sys.DefineStreamSource("b", types.Column{Name: "x", Kind: types.KindInt}); err != nil {
				t.Fatal(err)
			}
			if err := sys.CreateTrigger(tc.trigger); err != nil {
				t.Fatal(err)
			}
			var fired atomic.Int64
			sys.FireHook = func(uint64, []types.Tuple) { fired.Add(1) }
			const n = 300
			xs := make([]int64, n) // distinct, so concurrent tokens never pair
			for i := range xs {
				xs[i] = int64(i)
				if err := a.Insert(types.Tuple{types.NewInt(xs[i])}); err != nil {
					t.Fatal(err)
				}
			}
			sys.Drain()
			if sys.Errors() != 0 {
				t.Fatalf("errors: %v", sys.LastError())
			}
			lt, unpin, err := sys.Catalog().Pin(triggerIDByName(t, sys, "j"))
			if err != nil {
				t.Fatal(err)
			}
			defer unpin()
			if got := lt.Network.MemorySize(0); got != n {
				t.Fatalf("alpha memory of a holds %d rows after %d inserts: propagate did not run exactly once per token", got, n)
			}
			if tc.trigger != selfJoin {
				return
			}
			if got := lt.Network.MemorySize(1); got != n {
				t.Fatalf("alpha memory of the second variable holds %d rows after %d inserts", got, n)
			}
			// Recompute: insert i seeds each variable in turn and pairs
			// with every row so far, itself included, that has its x.
			var want int64
			for i := range xs {
				for seed := 0; seed < 2; seed++ {
					for j := 0; j <= i; j++ {
						if xs[j] == xs[i] {
							want++
						}
					}
				}
			}
			if got := fired.Load(); got != want {
				t.Fatalf("self-join fired %d times over %d inserts, recompute says %d: an insert enumerated before its own tuple was in both memories", got, n, want)
			}
		})
	}
}

func checkSequential(t *testing.T, src string, got []int64, n int) {
	t.Helper()
	if len(got) != n {
		t.Fatalf("%s: fired %d times, want %d", src, len(got), n)
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("%s: firing %d observed token %d — enqueue order violated", src, i, v)
		}
	}
}

func triggerIDByName(t *testing.T, sys *System, name string) uint64 {
	t.Helper()
	id, ok := sys.Catalog().TriggerByName(name)
	if !ok {
		t.Fatalf("trigger %q not found", name)
	}
	return id
}
