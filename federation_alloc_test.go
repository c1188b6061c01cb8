package triggerman

import (
	"strings"
	"testing"

	"triggerman/internal/datasource"
	"triggerman/internal/metrics"
	"triggerman/internal/types"
)

// benchFederation is the minimal Federation stand-in for hot-path
// guards: a scrape is one registry snapshot merged and rendered, the
// same work the fleet layer does per round, without importing
// internal/fleet (which imports this package).
type benchFederation struct{ sys *System }

func (f benchFederation) ClusterMetrics() (string, error) {
	snaps := map[string]*metrics.Snapshot{"self": f.sys.met.Snapshot()}
	var b strings.Builder
	err := metrics.Merge(snaps).WritePrometheus(&b)
	return b.String(), err
}

func (f benchFederation) ClusterSloz() (any, error) { return nil, nil }

// applyAllocs measures steady-state allocations of one token apply.
func applyAllocs(t *testing.T, sys *System) float64 {
	t.Helper()
	if _, err := sys.DefineStreamSource("emp",
		types.Column{Name: "name", Kind: types.KindVarchar},
		types.Column{Name: "salary", Kind: types.KindInt},
		types.Column{Name: "dept", Kind: types.KindVarchar},
	); err != nil {
		t.Fatal(err)
	}
	src, _ := sys.reg.ByName("emp")
	tok := datasource.Token{SourceID: src.ID, Op: datasource.OpInsert,
		New: row("user0000001", 1, "d")}
	// Warm caches (interning, histograms, queue) before counting.
	for i := 0; i < 100; i++ {
		if err := sys.apply(tok); err != nil {
			t.Fatal(err)
		}
	}
	return testing.AllocsPerRun(200, func() {
		if err := sys.apply(tok); err != nil {
			t.Fatal(err)
		}
	})
}

// TestFederationAddsNoHotPathAllocs is the guard behind the fleet
// layer's "off the token hot path" claim: installing the federation
// hook and running scrape rounds must not add a single allocation to
// the apply path — peers read registry snapshots, the token never
// sees them.
func TestFederationAddsNoHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates") // as TestAllocCeilings; tier-1 runs this without -race
	}
	open := func() *System {
		sys, err := Open(Options{
			Synchronous:      true,
			Queue:            MemoryQueue,
			TraceSampleEvery: -1,
			DisableSLO:       true,
			DisableProfiling: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sys.Close() })
		return sys
	}

	base := applyAllocs(t, open())

	fedSys := open()
	fed := benchFederation{sys: fedSys}
	fedSys.SetFederation(fed)
	// Exercise the scrape path so any lazily-allocated state exists,
	// then leave it idle: AllocsPerRun counts process-global mallocs,
	// so the guard isolates what the hook's presence costs the token.
	for i := 0; i < 3; i++ {
		if _, err := fed.ClusterMetrics(); err != nil {
			t.Fatal(err)
		}
	}
	withFed := applyAllocs(t, fedSys)

	t.Logf("allocs/apply: base=%.1f federation=%.1f", base, withFed)
	if withFed > base+0.5 {
		t.Fatalf("federation added hot-path allocations: base %.1f, with federation %.1f",
			base, withFed)
	}
}
