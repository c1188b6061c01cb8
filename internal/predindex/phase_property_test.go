package predindex

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"triggerman/internal/datasource"
	"triggerman/internal/expr"
	"triggerman/internal/types"
)

// TestPropertyProbeDuringReconcile is the probe-during-reconcile
// property test the acceptance criteria name: concurrent slot-stamped
// probes against an index with one viral constant — while a reconciler
// spins fold epochs and another goroutine keeps adding predicates to
// the same signature — must produce exactly the totals a
// single-threaded reference predicts. Run under -race.
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

	promotedBefore := ix.Contention().Promotions
	errCh := make(chan error, writers+1)
	var stop atomic.Bool
	var aux sync.WaitGroup
	aux.Add(1)
	go func() { // reconciler: fold epochs racing every probe
		defer aux.Done()
		for !stop.Load() {
			ix.Reconcile()
			runtime.Gosched()
		}
	}()
	aux.Add(1)
	go func() { // adder: COW set swaps racing every probe
		defer aux.Done()
		for _, j := range jobs {
			if _, err := ix.AddPredicate(empSrc, mask, j.sig, j.consts, j.ref); err != nil {
				errCh <- err
				return
			}
			runtime.Gosched()
		}
	}()

	var gotMatches atomic.Int64
	var probers sync.WaitGroup
	for w := 0; w < writers; w++ {
		probers.Add(1)
		go func(slot int) {
			defer probers.Done()
			var local int64
			var buf Buffer
			for i := 0; i < probesEach; i++ {
				var tok datasource.Token
				if i%2 == 0 {
					tok = insertTok("hot", int64(i), "d00")
				} else {
					tok = insertTok(fmt.Sprintf("c%02d", (i/2+slot)%ncold), int64(i), "d00")
				}
				buf.Reset()
				if err := ix.Match(&buf, tok, MatchCtx{Part: AllParts, Slot: slot}); err != nil {
					errCh <- err
					return
				}
				local += int64(len(buf.Matches))
				if i%16 == 0 {
					runtime.Gosched() // interleave on single-P schedulers too
				}
			}
			gotMatches.Add(local)
		}(w)
	}
	probers.Wait()
	stop.Store(true)
	aux.Wait()
	ix.Reconcile() // final fold at quiescence
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Single-threaded reference.
	const (
		totalProbes = writers * probesEach
		hotProbes   = totalProbes / 2
		wantMatches = hotProbes*hotTrigs + (totalProbes - hotProbes)
	)
	if got := gotMatches.Load(); got != wantMatches {
		t.Fatalf("callback matches = %d, want %d", got, wantMatches)
	}
	if snap := ix.Snapshot(); len(snap) != 1 || snap[0].ID != entry.ID ||
		snap[0].Probes != totalProbes || snap[0].Matches != wantMatches {
		t.Fatalf("entry snapshot = %+v, want %d probes and %d matches", snap, totalProbes, wantMatches)
	}
	st := ix.Stats()
	if st.Tokens != totalProbes || st.SigProbes != totalProbes || st.Matches != wantMatches {
		t.Fatalf("stats tokens/sigProbes/matches = %d/%d/%d, want %d/%d/%d",
			st.Tokens, st.SigProbes, st.Matches, totalProbes, totalProbes, wantMatches)
	}
	if st.RestTests != 0 {
		t.Fatalf("restTests = %d, want 0 (pure equality signatures)", st.RestTests)
	}

	// Phase state: the entry counter and the hot constant must have
	// promoted under 8-way traffic, and the reconciled reading must have
	// caught up to the live value at quiescence.
	if got := ix.Contention().Promotions - promotedBefore; got < 2 {
		t.Fatalf("promotions under 8-way traffic = %d, want the entry and the hot constant", got)
	}
	// The spinning reconciler can fold three probe-less epochs between
	// the last probe and stop being set, and three idle epochs demote a
	// counter: one run in ten ended "plain" on two CPUs. The exact totals
	// are checked above; a slot-alternating burst on the hot constant
	// re-arms whatever the tail demoted, and the totals below include it.
	const burst = 2 * writers
	for i := 0; i < burst; i++ {
		if err := ix.Match(new(Buffer), insertTok("hot", 1, "d00"), MatchCtx{Part: AllParts, Slot: i % writers}); err != nil {
			t.Fatal(err)
		}
	}
	ix.Reconcile()
	const (
		snapProbes = totalProbes + burst
		snapHot    = hotProbes + burst
	)
	snaps := ix.Snapshot()
	if len(snaps) != 1 {
		t.Fatalf("snapshot entries = %d, want 1", len(snaps))
	}
	snap := snaps[0]
	if snap.Probes != snapProbes {
		t.Fatalf("snapshot probes = %d, want %d", snap.Probes, snapProbes)
	}
	if snap.Phase != "sliced" || snap.Slices != writers {
		t.Fatalf("snapshot phase/slices = %s/%d, want sliced/%d", snap.Phase, snap.Slices, writers)
	}
	if snap.Reconciles == 0 || snap.LastReconcileAgeNs < 0 {
		t.Fatalf("snapshot reconciles=%d lastAge=%d, want folds recorded", snap.Reconciles, snap.LastReconcileAgeNs)
	}
	if snap.ReconciledProbes != snapProbes {
		t.Fatalf("reconciled probes = %d, want %d after final fold", snap.ReconciledProbes, snapProbes)
	}
	if len(snap.HotConstants) == 0 {
		t.Fatal("hot constant never promoted to the sliced phase")
	}
	hc := snap.HotConstants[0]
	if !strings.Contains(hc.Consts, "hot") {
		t.Fatalf("hottest constant = %q, want the viral key", hc.Consts)
	}
	if hc.Probes != snapHot || hc.Matches != int64(snapHot)*hotTrigs {
		t.Fatalf("hot constant probes/matches = %d/%d, want %d/%d",
			hc.Probes, hc.Matches, snapHot, snapHot*hotTrigs)
	}
	if hc.Slices != writers {
		t.Fatalf("hot constant slices = %d, want %d", hc.Slices, writers)
	}

	dom := ix.Contention()
	if dom.Slots != writers || dom.Sliced == 0 || dom.Reconciles == 0 {
		t.Fatalf("domain stats = %+v, want slots=%d with sliced counters and epochs", dom, writers)
	}

	// The racing adds must all be visible after the run.
	ms := matchAll(t, ix, insertTok("zz000", 1, "d00"))
	if len(ms) != 1 || ms[0].TriggerID != 5000 {
		t.Fatalf("concurrently added predicate not matchable: %v", ms)
	}
}
