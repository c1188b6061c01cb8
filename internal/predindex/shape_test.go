package predindex

import (
	"fmt"
	"testing"

	"triggerman/internal/datasource"
	"triggerman/internal/minisql"
	"triggerman/internal/storage"
	"triggerman/internal/types"
)

// The paper's scalability claims are claims about shape: how the work of
// one probe grows with the trigger population. The tests here and the
// shape cases in predindex_test.go assert that work as the index's own
// counters see it (Stats, the buffer pool's fetches), never as time, so
// each claim is deterministic and can fail.

// probeCost is the work of one probe as Stats counts it.
type probeCost struct {
	sigProbes, compares, restTests, matches int64
}

// costOf probes tok once and returns what the probe added to the
// index's counters.
func costOf(t testing.TB, ix *Index, tok datasource.Token) probeCost {
	t.Helper()
	before := ix.Stats()
	matchAll(t, ix, tok)
	after := ix.Stats()
	return probeCost{
		sigProbes: after.SigProbes - before.SigProbes,
		compares:  after.ConstCompares - before.ConstCompares,
		restTests: after.RestTests - before.RestTests,
		matches:   after.Matches - before.Matches,
	}
}

// addConstants adds n instances of the one signature of when, instance
// i with the single constant konst(i) and trigger ID i+1. The signature
// is built once, so the population costs adds, not parses.
func addConstants(t testing.TB, ix *Index, when string, n int, konst func(i int) types.Value) {
	t.Helper()
	sig, _ := buildSig(t, when)
	mask := EventMask{AnyOp: true}
	for i := 0; i < n; i++ {
		consts := []types.Value{konst(i)}
		id := uint64(i + 1)
		if _, err := ix.AddPredicate(empSrc, mask, sig, consts, refFor(t, sig, consts, id, id)); err != nil {
			t.Fatal(err)
		}
	}
}

func userName(i int) string { return fmt.Sprintf("user%07d", i) }

func userConst(i int) types.Value { return types.NewString(userName(i)) }

// TestMatchCostIndependentOfTriggerCount is E1 (§5, Figures 3–4): one
// equality signature with N distinct constants. Under the adaptive
// organization a probe costs one signature probe and one constant
// compare at every N; the same population in a linear list costs N
// compares, the ECA-style "at least linear in the number of triggers"
// the paper contrasts with, which shows the counter can see growth.
//
// Planted regression: an adaptive class that never leaves the list
// (maybeReorganize returning before it migrates) costs N compares per
// probe, and the adaptive case fails from N = 10² on.
func TestMatchCostIndependentOfTriggerCount(t *testing.T) {
	for _, n := range []int{100, 1_000, 10_000} {
		adaptive := newIx(t)
		list := newIx(t, WithForcedOrganization(OrgMemoryList))
		for _, ix := range []*Index{adaptive, list} {
			addConstants(t, ix, "emp.name = 'x'", n, userConst)
		}
		for _, probe := range []int{0, n / 2, n - 1, n} { // the last matches nothing
			tok := insertTok(userName(probe), 1, "d")
			hits := int64(1)
			if probe == n {
				hits = 0
			}
			if got, want := costOf(t, adaptive, tok), (probeCost{1, 1, 0, hits}); got != want {
				t.Errorf("N=%d adaptive probe %d: cost %+v, want %+v", n, probe, got, want)
			}
			if got, want := costOf(t, list, tok), (probeCost{1, int64(n), 0, hits}); got != want {
				t.Errorf("N=%d mm-list probe %d: cost %+v, want %+v", n, probe, got, want)
			}
		}
	}
}

// TestRangeProbeCostTracksOutput is E10 ([Hans96b], §8): N constants of
// "salary > C", C = 0…N-1, probed with a salary that about 1 % of them
// are below. The mm-index stab compares exactly the k predicates it
// returns; the list compares all N.
//
// Planted regression: an mm-index range probe that tests every stored
// interval instead of stabbing (the IndexRange case of memIndex.match
// walking byID) costs N compares and fails at N = 10³.
func TestRangeProbeCostTracksOutput(t *testing.T) {
	for _, n := range []int{1_000, 10_000} {
		k := n / 100
		index := newIx(t, WithForcedOrganization(OrgMemoryIndex))
		list := newIx(t, WithForcedOrganization(OrgMemoryList))
		for _, ix := range []*Index{index, list} {
			addConstants(t, ix, "emp.salary > 0", n, func(i int) types.Value { return types.NewInt(int64(i)) })
		}
		tok := insertTok("x", int64(k), "d") // k > C exactly for C = 0…k-1
		if got, want := costOf(t, index, tok), (probeCost{1, int64(k), 0, int64(k)}); got != want {
			t.Errorf("N=%d mm-index: cost %+v, want %+v", n, got, want)
		}
		if got, want := costOf(t, list, tok), (probeCost{1, int64(n), 0, int64(k)}); got != want {
			t.Errorf("N=%d mm-list: cost %+v, want %+v", n, got, want)
		}
	}
}

// pageFetchesPerProbe builds a class of size equality constants under a
// table organization behind an 8-page buffer pool and returns the
// pool's page fetches (hits + misses) per matching point probe.
func pageFetchesPerProbe(t *testing.T, org Organization, size int) float64 {
	t.Helper()
	bp := storage.NewBufferPool(storage.NewMem(), 8)
	db, err := minisql.Create(bp)
	if err != nil {
		t.Fatal(err)
	}
	ix := newIx(t, WithDB(db), WithForcedOrganization(org))
	addConstants(t, ix, "emp.name = 'x'", size, userConst)
	const probes = 16
	before := bp.Stats()
	for p := 0; p < probes; p++ {
		i := p * size / probes
		if ms := matchAll(t, ix, insertTok(userName(i), 1, "d")); len(ms) != 1 || ms[0].TriggerID != uint64(i+1) {
			t.Fatalf("%s size %d probe %d: matches %+v", org, size, i, ms)
		}
	}
	after := bp.Stats()
	fetches := (after.Hits + after.Misses) - (before.Hits + before.Misses)
	return float64(fetches) / probes
}
