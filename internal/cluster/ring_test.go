package cluster

import (
	"fmt"
	"math/rand"
	"testing"
)

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("source_%d", i)
	}
	return out
}

// TestRingDeterministicOrdering: rings built from any permutation of
// the same member set place every key identically — placement is a
// pure function of the membership, so all nodes agree.
func TestRingDeterministicOrdering(t *testing.T) {
	members := []string{"n1", "n2", "n3", "n4", "n5"}
	base := NewRing(members, 0)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		shuffled := append([]string(nil), members...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		r := NewRing(shuffled, 0)
		for _, k := range keys(500) {
			if got, want := r.Owner(k), base.Owner(k); got != want {
				t.Fatalf("permutation %v: Owner(%q) = %q, want %q", shuffled, k, got, want)
			}
		}
	}
	// Duplicates and empties collapse.
	r := NewRing([]string{"n1", "", "n2", "n1", "n3", "n4", "n5", "n2"}, 0)
	if r.Size() != 5 {
		t.Fatalf("Size = %d after dedup, want 5", r.Size())
	}
	for _, k := range keys(100) {
		if r.Owner(k) != base.Owner(k) {
			t.Fatal("dedup changed placement")
		}
	}
}

// TestRingStabilityUnderMembershipChange: adding a member moves keys
// only TO the new member, removing one moves only ITS keys, and the
// moved fraction is bounded near 1/n (consistent hashing's point).
func TestRingStabilityUnderMembershipChange(t *testing.T) {
	ks := keys(2000)
	r3 := NewRing([]string{"n1", "n2", "n3"}, 0)
	r4 := NewRing([]string{"n1", "n2", "n3", "n4"}, 0)

	moved := 0
	for _, k := range ks {
		before, after := r3.Owner(k), r4.Owner(k)
		if before != after {
			moved++
			if after != "n4" {
				t.Fatalf("key %q moved %q -> %q, but only the new member may gain keys", k, before, after)
			}
		}
	}
	// Expect ~1/4 of keys to move; allow a generous band around it.
	if moved == 0 || moved > len(ks)/2 {
		t.Fatalf("add moved %d/%d keys, want ~%d", moved, len(ks), len(ks)/4)
	}

	// Removing an original member strands only its keys.
	r2 := NewRing([]string{"n1", "n3"}, 0)
	for _, k := range ks {
		before, after := r3.Owner(k), r2.Owner(k)
		if before == "n2" {
			if after == "n2" {
				t.Fatalf("key %q still owned by removed member", k)
			}
		} else if before != after {
			t.Fatalf("key %q moved %q -> %q though its owner stayed", k, before, after)
		}
	}
}

// TestRingBalance: a fuzz-style distribution check — over a few
// thousand random keys, every member of a 3-node ring owns a
// reasonable share (no pathological hot node, no starved node).
func TestRingBalance(t *testing.T) {
	r := NewRing([]string{"alpha", "beta", "gamma"}, 0)
	rng := rand.New(rand.NewSource(42))
	counts := map[string]int{}
	const total = 6000
	for i := 0; i < total; i++ {
		k := fmt.Sprintf("src-%d-%d", rng.Int63(), i)
		counts[r.Owner(k)]++
	}
	if len(counts) != 3 {
		t.Fatalf("owners seen: %v, want all 3 members", counts)
	}
	for m, c := range counts {
		frac := float64(c) / total
		if frac < 0.15 || frac > 0.55 {
			t.Errorf("member %s owns %.1f%% of keys (counts %v); balance is off", m, 100*frac, counts)
		}
	}
}

// TestRingEdgeCases pins empty-ring and single-member behavior.
func TestRingEdgeCases(t *testing.T) {
	empty := NewRing(nil, 0)
	if got := empty.Owner("x"); got != "" {
		t.Fatalf("empty ring Owner = %q, want \"\"", got)
	}
	one := NewRing([]string{"solo"}, 0)
	for _, k := range keys(50) {
		if one.Owner(k) != "solo" {
			t.Fatal("single-member ring must own everything")
		}
	}
}
