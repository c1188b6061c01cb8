package profile

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestSketchExactWhenUnderCapacity(t *testing.T) {
	s := NewSketch(1024)
	for key := uint64(1); key <= 100; key++ {
		for i := uint64(0); i < key; i++ {
			s.Add(key, Matches, 1)
		}
	}
	if ev := s.Evictions(); ev != 0 {
		// Set-associativity can evict below global capacity only when a
		// bucket overflows; 100 keys over 128 buckets * 8 ways will not.
		t.Fatalf("evictions = %d, want 0", ev)
	}
	for key := uint64(1); key <= 100; key++ {
		e, ok := s.Get(key)
		if !ok {
			t.Fatalf("key %d not tracked", key)
		}
		if e.Counts[Matches] != int64(key) {
			t.Fatalf("key %d count = %d, want %d", key, e.Counts[Matches], key)
		}
		if e.Err != 0 {
			t.Fatalf("key %d err = %d, want 0", key, e.Err)
		}
	}
	top := s.TopK(Matches, 5)
	if len(top) != 5 {
		t.Fatalf("TopK returned %d entries", len(top))
	}
	for i, want := range []uint64{100, 99, 98, 97, 96} {
		if top[i].Key != want {
			t.Fatalf("TopK[%d] = key %d, want %d", i, top[i].Key, want)
		}
	}
}

func TestSketchHeavyHittersSurviveNoise(t *testing.T) {
	// 10 heavy keys with ~1000 updates each against 50k one-shot noise
	// keys must all be tracked and rank in the top 10: the space-saving
	// guarantee is that any key with true count above the minimum weight
	// stays resident.
	s := NewSketch(256)
	rng := rand.New(rand.NewSource(42))
	heavy := map[uint64]int64{}
	for i := 0; i < 10; i++ {
		heavy[uint64(1000+i)] = int64(900 + 20*i)
	}
	type upd struct{ key uint64 }
	var stream []upd
	for k, n := range heavy {
		for i := int64(0); i < n; i++ {
			stream = append(stream, upd{k})
		}
	}
	for i := 0; i < 50_000; i++ {
		stream = append(stream, upd{uint64(10_000 + i)})
	}
	rng.Shuffle(len(stream), func(i, j int) { stream[i], stream[j] = stream[j], stream[i] })
	for _, u := range stream {
		s.Add(u.key, Probes, 1)
	}
	top := s.TopK(Probes, 10)
	if len(top) != 10 {
		t.Fatalf("TopK returned %d entries", len(top))
	}
	got := map[uint64]bool{}
	for _, e := range top {
		got[e.Key] = true
	}
	for k := range heavy {
		if !got[k] {
			t.Fatalf("heavy key %d missing from top-10: %+v", k, top)
		}
	}
	// Estimates over-count by at most Err (weight inherited at
	// admission): estimate - Err <= true <= estimate + Err on weight.
	for _, e := range top {
		if e.Weight-e.Err > heavy[e.Key]+e.Err {
			t.Fatalf("key %d weight %d err %d inconsistent with true %d",
				e.Key, e.Weight, e.Err, heavy[e.Key])
		}
	}
	if s.Len() > s.Capacity() {
		t.Fatalf("Len %d exceeds capacity %d", s.Len(), s.Capacity())
	}
	if s.Evictions() == 0 {
		t.Fatal("expected evictions under 50k-key noise")
	}
}

func TestSketchZeroKeyIgnored(t *testing.T) {
	s := NewSketch(8)
	s.Add(0, Probes, 1)
	if s.Len() != 0 {
		t.Fatal("zero key must not be tracked")
	}
	if _, ok := s.Get(0); ok {
		t.Fatal("Get(0) must miss")
	}
}

func TestSketchConcurrentAdds(t *testing.T) {
	s := NewSketch(64)
	const goroutines = 8
	const perG = 10_000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perG; i++ {
				s.Add(uint64(1+rng.Intn(32)), Matches, 1)
			}
		}(int64(g))
	}
	wg.Wait()
	// 32 distinct keys over 64 capacity: every update lands somewhere,
	// and with no bucket overflow the totals are exact.
	var total int64
	for _, e := range s.Entries() {
		total += e.Counts[Matches]
	}
	if s.Evictions() == 0 && total != goroutines*perG {
		t.Fatalf("total = %d, want %d", total, goroutines*perG)
	}
}

func TestProfilerNilSafe(t *testing.T) {
	var p *Profiler
	p.MatchProbe(1)
	p.MatchHit(1)
	p.ObserveAction(1, time.Millisecond)
	p.ActionFailure(1)
	p.ActionRetries(1, 3)
	p.CacheHit(1)
	p.CacheMiss(1)
	if _, ok := p.TriggerEntry(1); ok {
		t.Fatal("nil profiler must report no entries")
	}
}

func TestProfilerAttribution(t *testing.T) {
	p := New(0)
	p.MatchProbe(7) // failed rest test: probe only
	p.MatchHit(7)   // full match: probe + match in one charge
	p.ObserveAction(7, 1500*time.Nanosecond)
	p.ActionRetries(7, 3)
	p.ActionRetries(7, 1) // no retries -> no charge
	p.ActionFailure(7)
	p.CacheHit(7)
	p.CacheMiss(7)

	e, ok := p.TriggerEntry(7)
	if !ok {
		t.Fatal("trigger 7 not tracked")
	}
	want := [NumMetrics]int64{}
	want[Probes] = 2
	want[Matches] = 1
	want[ActionNanos] = 1500
	want[ActionRuns] = 1
	want[Failures] = 1
	want[Retries] = 2
	want[CacheHits] = 1
	want[CacheMisses] = 1
	if e.Counts != want {
		t.Fatalf("counts = %v, want %v", e.Counts, want)
	}
	if sel := e.Selectivity(); sel != 0.5 {
		t.Fatalf("selectivity = %v, want 0.5", sel)
	}
}

func TestSketchAdd2(t *testing.T) {
	s := NewSketch(64)
	// Fresh admission through the Add2 path.
	s.Add2(9, Probes, 1, Matches, 1)
	// Hot-path update of an existing cell.
	s.Add2(9, Probes, 1, Matches, 1)
	e, ok := s.Get(9)
	if !ok {
		t.Fatal("key 9 not tracked")
	}
	if e.Counts[Probes] != 2 || e.Counts[Matches] != 2 {
		t.Fatalf("counts = %v, want probes=2 matches=2", e.Counts)
	}
	// Each Add2 is one event for the space-saving rank.
	if e.Weight != 2 || e.Err != 0 {
		t.Fatalf("weight=%d err=%d, want 2 and 0", e.Weight, e.Err)
	}
}

func TestSketchAdd2Replacement(t *testing.T) {
	// Force bucket overflow so an Add2 admission must replace: the
	// newcomer inherits the victim's weight as Err and both metric
	// deltas land on the fresh cell.
	s := NewSketch(ways) // single bucket
	for key := uint64(1); key <= ways; key++ {
		s.Add(key, Probes, 1)
	}
	s.Add2(100, Probes, 3, Matches, 2)
	e, ok := s.Get(100)
	if !ok {
		t.Fatal("replacement key not tracked")
	}
	if e.Counts[Probes] != 3 || e.Counts[Matches] != 2 {
		t.Fatalf("counts = %v, want probes=3 matches=2", e.Counts)
	}
	if e.Err != 1 || e.Weight != 2 {
		t.Fatalf("weight=%d err=%d, want weight=2 err=1", e.Weight, e.Err)
	}
	if s.Evictions() != 1 {
		t.Fatalf("evictions = %d, want 1", s.Evictions())
	}
}

// TestSlicedSketchExactUnderReconcile: per-key totals must equal the
// single-threaded reference when every driver updates the same keys
// at once — one viral key through both entry points, the rest through
// Add. Run under -race.
func TestSlicedSketchExactUnderReconcile(t *testing.T) {
	const (
		writers = 8
		rounds  = 3000
		keys    = 12
	)
	s := NewSketch(256) // under capacity: no evictions
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				for k := uint64(1); k <= keys; k++ {
					// Key 1 is viral: double traffic, via both entry points.
					if k == 1 {
						s.Add2(k, Probes, 1, Matches, 1)
					}
					s.Add(k, Probes, 1)
				}
				if i%16 == 0 {
					runtime.Gosched() // interleave on single-P schedulers too
				}
			}
		}()
	}
	wg.Wait()

	if ev := s.Evictions(); ev != 0 {
		t.Fatalf("evictions = %d, want 0 (under capacity)", ev)
	}
	for k := uint64(1); k <= keys; k++ {
		e, ok := s.Get(k)
		if !ok {
			t.Fatalf("key %d not tracked", k)
		}
		wantProbes := int64(writers * rounds)
		wantMatches := int64(0)
		wantWeight := int64(writers * rounds)
		if k == 1 {
			wantProbes *= 2
			wantMatches = int64(writers * rounds)
			wantWeight *= 2
		}
		if e.Counts[Probes] != wantProbes || e.Counts[Matches] != wantMatches {
			t.Fatalf("key %d: probes/matches = %d/%d, want %d/%d",
				k, e.Counts[Probes], e.Counts[Matches], wantProbes, wantMatches)
		}
		if e.Weight != wantWeight || e.Err != 0 {
			t.Fatalf("key %d: weight/err = %d/%d, want %d/0", k, e.Weight, e.Err, wantWeight)
		}
	}
}
