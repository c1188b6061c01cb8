package predindex

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"triggerman/internal/datasource"
	"triggerman/internal/expr"
	"triggerman/internal/types"
)

// TestPropertyProbeDuringReconcile: concurrent probes against an index
// with one viral constant — one prober per driver slot, one NoSlot
// prober on the shared line, one whose slot lies past the geometry and
// wraps onto a driver's line, while another goroutine keeps adding
// predicates to the same signature — must leave Stats and Snapshot at
// exactly the totals a single-threaded reference predicts. Run under
// -race.
func TestPropertyProbeDuringReconcile(t *testing.T) {
	const (
		writers    = 8
		probesEach = 2000 // even: half on the hot constant, half cold
		hotTrigs   = 3
		ncold      = 10
		adderAdds  = 150
	)
	// Forced organization so concurrent adds never cross a reorg
	// threshold mid-run; the COW add path is exercised all the same.
	ix := newIx(t, WithSlots(writers), WithForcedOrganization(OrgMemoryIndex))
	mask := EventMask{AnyOp: true}

	// One viral constant carrying several triggers, plus cold singleton
	// constants — all the same signature shape, so one entry.
	var entry *SignatureEntry
	for i := 0; i < hotTrigs; i++ {
		sig, consts := buildSig(t, "emp.name = 'hot'")
		e, err := ix.AddPredicate(empSrc, mask, sig, consts, refFor(t, sig, consts, uint64(i+1), uint64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		entry = e
	}
	for i := 0; i < ncold; i++ {
		sig, consts := buildSig(t, fmt.Sprintf("emp.name = 'c%02d'", i))
		if _, err := ix.AddPredicate(empSrc, mask, sig, consts, refFor(t, sig, consts, uint64(100+i), uint64(100+i))); err != nil {
			t.Fatal(err)
		}
	}

	// Pre-build the concurrent adder's work in the test goroutine
	// (buildSig may t.Fatal). The added constants are never probed, so
	// the expected totals stay deterministic.
	type addJob struct {
		sig    *expr.Signature
		consts []types.Value
		ref    Ref
	}
	jobs := make([]addJob, adderAdds)
	for i := range jobs {
		sig, consts := buildSig(t, fmt.Sprintf("emp.name = 'zz%03d'", i))
		jobs[i] = addJob{sig, consts, refFor(t, sig, consts, uint64(5000+i), uint64(5000+i))}
	}

	slots := []int{NoSlot, writers + 1} // the shared line, and a wrap onto slot 1
	for s := 0; s < writers; s++ {
		slots = append(slots, s)
	}
	errCh := make(chan error, len(slots)+1)
	var adder sync.WaitGroup
	adder.Add(1)
	go func() { // adder: COW set swaps racing every probe
		defer adder.Done()
		for _, j := range jobs {
			if _, err := ix.AddPredicate(empSrc, mask, j.sig, j.consts, j.ref); err != nil {
				errCh <- err
				return
			}
			runtime.Gosched()
		}
	}()

	var probers sync.WaitGroup
	got := make([]int64, len(slots))
	for w, slot := range slots {
		probers.Add(1)
		go func(w, slot int) {
			defer probers.Done()
			var buf Buffer
			for i := 0; i < probesEach; i++ {
				var tok datasource.Token
				if i%2 == 0 {
					tok = insertTok("hot", int64(i), "d00")
				} else {
					tok = insertTok(fmt.Sprintf("c%02d", (i/2+w)%ncold), int64(i), "d00")
				}
				buf.Reset()
				if err := ix.Match(&buf, tok, MatchCtx{Part: AllParts, Slot: slot}); err != nil {
					errCh <- err
					return
				}
				got[w] += int64(len(buf.Matches))
				if i%16 == 0 {
					runtime.Gosched() // interleave on single-P schedulers too
				}
			}
		}(w, slot)
	}
	probers.Wait()
	adder.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Single-threaded reference.
	var (
		totalProbes = int64(len(slots) * probesEach)
		hotProbes   = totalProbes / 2
		wantMatches = hotProbes*hotTrigs + (totalProbes - hotProbes)
	)
	var gotMatches int64
	for _, n := range got {
		gotMatches += n
	}
	if gotMatches != wantMatches {
		t.Fatalf("buffered matches = %d, want %d", gotMatches, wantMatches)
	}
	if snap := ix.Snapshot(); len(snap) != 1 || snap[0].ID != entry.ID ||
		snap[0].Probes != totalProbes || snap[0].Matches != wantMatches {
		t.Fatalf("entry snapshot = %+v, want %d probes and %d matches", snap, totalProbes, wantMatches)
	}
	st := ix.Stats()
	want := Stats{Tokens: totalProbes, SigProbes: totalProbes, ConstCompares: totalProbes, Matches: wantMatches}
	if st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}

	// The racing adds must all be visible after the run.
	ms := matchAll(t, ix, insertTok("zz000", 1, "d00"))
	if len(ms) != 1 || ms[0].TriggerID != 5000 {
		t.Fatalf("concurrently added predicate not matchable: %v", ms)
	}
}
