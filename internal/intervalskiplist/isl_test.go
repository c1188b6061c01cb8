package intervalskiplist

import (
	"math/rand"
	"sort"
	"testing"

	"triggerman/internal/types"
)

func iv(t *testing.T, l *List, i Interval) {
	t.Helper()
	if err := l.Insert(i); err != nil {
		t.Fatalf("insert %s: %v", i, err)
	}
}

// wantStab checks that stabbing l at v reports exactly the want IDs.
func wantStab(t *testing.T, l *List, v types.Value, want ...uint64) {
	t.Helper()
	var g []uint64
	l.Stab(v, func(iv Interval) bool {
		g = append(g, iv.ID)
		return true
	})
	sort.Slice(g, func(i, j int) bool { return g[i] < g[j] })
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(g) != len(want) {
		t.Fatalf("got %v, want %v", g, want)
	}
	for i := range g {
		if g[i] != want[i] {
			t.Fatalf("got %v, want %v", g, want)
		}
	}
}

func TestIntervalContains(t *testing.T) {
	gt := Gt(1, types.NewInt(10))
	if gt.Contains(types.NewInt(10)) || !gt.Contains(types.NewInt(11)) {
		t.Error("Gt")
	}
	ge := Ge(2, types.NewInt(10))
	if !ge.Contains(types.NewInt(10)) || ge.Contains(types.NewInt(9)) {
		t.Error("Ge")
	}
	lt := Lt(3, types.NewInt(10))
	if lt.Contains(types.NewInt(10)) || !lt.Contains(types.NewInt(9)) {
		t.Error("Lt")
	}
	le := Le(4, types.NewInt(10))
	if !le.Contains(types.NewInt(10)) || le.Contains(types.NewInt(11)) {
		t.Error("Le")
	}
	bw := Interval{ID: 5, Lo: types.NewInt(1), Hi: types.NewInt(3)}
	for v, want := range map[int64]bool{0: false, 1: true, 2: true, 3: true, 4: false} {
		if bw.Contains(types.NewInt(v)) != want {
			t.Errorf("[1, 3] contains %d = %v", v, !want)
		}
	}
}

func TestIntervalString(t *testing.T) {
	if s := Gt(1, types.NewInt(5)).String(); s != "(5, +inf)" {
		t.Errorf("Gt string = %q", s)
	}
	if s := (Interval{ID: 1, Lo: types.NewInt(1), Hi: types.NewInt(2)}).String(); s != "[1, 2]" {
		t.Errorf("closed interval string = %q", s)
	}
}

func TestEmptyIntervalRejected(t *testing.T) {
	l := New(1)
	if err := l.Insert(Interval{ID: 1, Lo: types.NewInt(5), Hi: types.NewInt(3)}); err == nil {
		t.Error("inverted interval should fail")
	}
	bad := Interval{ID: 2, Lo: types.NewInt(5), Hi: types.NewInt(5), LoOpen: true}
	if err := l.Insert(bad); err == nil {
		t.Error("empty open point interval should fail")
	}
	// Degenerate closed point interval [5,5] is legal.
	if err := l.Insert(Interval{ID: 3, Lo: types.NewInt(5), Hi: types.NewInt(5)}); err != nil {
		t.Errorf("point interval: %v", err)
	}
	wantStab(t, l, types.NewInt(5), 3)
}

func TestStabBasic(t *testing.T) {
	l := New(42)
	iv(t, l, Gt(1, types.NewInt(80000))) // salary > 80000
	iv(t, l, Gt(2, types.NewInt(50000))) // salary > 50000
	iv(t, l, Lt(3, types.NewInt(60000))) // salary < 60000
	iv(t, l, Interval{ID: 4, Lo: types.NewInt(55000), Hi: types.NewInt(90000)})

	wantStab(t, l, types.NewInt(90000), 1, 2, 4)
	wantStab(t, l, types.NewInt(55000), 2, 3, 4)
	wantStab(t, l, types.NewInt(10000), 3)
	wantStab(t, l, types.NewInt(80000), 2, 4)  // > is strict
	wantStab(t, l, types.NewInt(100000), 1, 2) // above [55000, 90000]
	if l.Len() != 4 {
		t.Errorf("len = %d", l.Len())
	}
}

func TestStabEarlyStop(t *testing.T) {
	l := New(1)
	for i := uint64(0); i < 10; i++ {
		iv(t, l, Gt(i, types.NewInt(0)))
	}
	n := 0
	l.Stab(types.NewInt(5), func(Interval) bool { n++; return n < 3 })
	if n != 3 {
		t.Errorf("early stop saw %d", n)
	}
}

func TestDelete(t *testing.T) {
	l := New(7)
	a := Gt(1, types.NewInt(100))
	b := Gt(2, types.NewInt(100))
	iv(t, l, a)
	iv(t, l, b)
	if !l.Delete(a) {
		t.Fatal("delete existing")
	}
	if l.Delete(a) {
		t.Error("double delete")
	}
	wantStab(t, l, types.NewInt(200), 2)
	if l.Len() != 1 {
		t.Errorf("len = %d", l.Len())
	}
}

func TestStringValues(t *testing.T) {
	l := New(3)
	iv(t, l, Ge(1, types.NewString("m"))) // name >= 'm'
	iv(t, l, Lt(2, types.NewString("f"))) // name < 'f'
	wantStab(t, l, types.NewString("zebra"), 1)
	wantStab(t, l, types.NewString("apple"), 2)
	wantStab(t, l, types.NewString("m"), 1)
}

// Brute-force oracle comparison over a large randomized workload, the
// main correctness proof for marker placement and node-split handling.
func TestRandomizedAgainstBruteForce(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 17, 99} {
		l := New(seed)
		rng := rand.New(rand.NewSource(seed * 1000))
		live := map[uint64]Interval{}
		nextID := uint64(1)
		randVal := func() types.Value { return types.NewInt(int64(rng.Intn(200))) }
		randInterval := func() Interval {
			id := nextID
			nextID++
			switch rng.Intn(5) {
			case 0:
				return Gt(id, randVal())
			case 1:
				return Ge(id, randVal())
			case 2:
				return Lt(id, randVal())
			case 3:
				return Le(id, randVal())
			default:
				a, b := rng.Intn(200), rng.Intn(200)
				if a > b {
					a, b = b, a
				}
				ivl := Interval{ID: id, Lo: types.NewInt(int64(a)), Hi: types.NewInt(int64(b))}
				ivl.LoOpen = rng.Intn(2) == 0 && a < b
				ivl.HiOpen = rng.Intn(2) == 0 && a < b
				return ivl
			}
		}
		for step := 0; step < 600; step++ {
			switch {
			case len(live) == 0 || rng.Intn(4) > 0:
				nv := randInterval()
				if err := l.Insert(nv); err != nil {
					t.Fatal(err)
				}
				live[nv.ID] = nv
			default:
				// delete a random live interval
				for id, ivl := range live {
					if !l.Delete(ivl) {
						t.Fatalf("seed %d step %d: delete %s failed", seed, step, ivl)
					}
					delete(live, id)
					break
				}
			}
			if step%25 == 0 {
				for probe := 0; probe < 30; probe++ {
					v := types.NewInt(int64(rng.Intn(210) - 5))
					got := map[uint64]bool{}
					l.Stab(v, func(ivl Interval) bool {
						if got[ivl.ID] {
							t.Fatalf("duplicate id %d in stab", ivl.ID)
						}
						got[ivl.ID] = true
						return true
					})
					for id, ivl := range live {
						if ivl.Contains(v) != got[id] {
							t.Fatalf("seed %d step %d: stab(%s) id %d (%s): oracle %v, got %v (len=%d nodes=%d)",
								seed, step, v, id, ivl, ivl.Contains(v), got[id], l.Len(), l.Nodes())
						}
					}
					if len(got) > countContains(live, v) {
						t.Fatalf("stab returned extra ids")
					}
				}
			}
		}
		if l.Len() != len(live) {
			t.Fatalf("len %d != live %d", l.Len(), len(live))
		}
	}
}

func countContains(live map[uint64]Interval, v types.Value) int {
	n := 0
	for _, ivl := range live {
		if ivl.Contains(v) {
			n++
		}
	}
	return n
}

func TestManyIdenticalBounds(t *testing.T) {
	// The equivalence-class shape: thousands of "salary > C" predicates
	// with a handful of distinct constants.
	l := New(5)
	for i := uint64(0); i < 3000; i++ {
		iv(t, l, Gt(i, types.NewInt(int64(i%10)*10000)))
	}
	got := 0
	l.Stab(types.NewInt(45000), func(Interval) bool { got++; return true })
	// matches constants 0..40000 -> i%10 in {0..4} -> 1500 intervals
	if got != 1500 {
		t.Errorf("stab matched %d, want 1500", got)
	}
	if l.Nodes() != 10 {
		t.Errorf("nodes = %d, want 10 distinct endpoints", l.Nodes())
	}
}

func TestFloatAndIntMix(t *testing.T) {
	l := New(9)
	iv(t, l, Gt(1, types.NewFloat(0.5)))
	wantStab(t, l, types.NewInt(1), 1)
	wantStab(t, l, types.NewInt(0))
}
