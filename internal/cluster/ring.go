// Package cluster turns a single-process TriggerMan system into one
// node of a multi-node trigger service. The paper's scaling argument —
// route tokens by (source, signature) onto independent workers — is
// applied one level up: data sources are partitioned across nodes by
// consistent hashing (the placement ring), every node replicates the
// full trigger catalog (DDL broadcast), and tokens captured on a
// non-owner node are forwarded to the owner over the wire protocol
// with retry backoff, falling back to the dead-letter table when the
// owner is unreachable — zero silent loss.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultVnodes is the virtual-node count per member: enough points
// that source ownership spreads evenly across a handful of nodes
// without making ring rebuilds expensive.
const DefaultVnodes = 64

// point is one virtual node on the ring.
type point struct {
	hash   uint64
	member string
}

// Ring maps source names onto member nodes by consistent hashing.
// Replication-free v1: each source is owned by exactly one node. A
// Ring is immutable — a membership change builds a new one with
// NewRing — so hot-path Owner lookups need no locking.
type Ring struct {
	vnodes  int
	members []string // sorted, deduplicated
	points  []point  // sorted by (hash, member)
}

// NewRing builds a ring over members (order-insensitive; duplicates
// collapse). vnodes <= 0 takes DefaultVnodes. An empty member list
// yields a ring whose Owner always returns "".
func NewRing(members []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	seen := make(map[string]bool, len(members))
	uniq := make([]string, 0, len(members))
	for _, m := range members {
		if m == "" || seen[m] {
			continue
		}
		seen[m] = true
		uniq = append(uniq, m)
	}
	sort.Strings(uniq)
	r := &Ring{vnodes: vnodes, members: uniq}
	r.points = make([]point, 0, len(uniq)*vnodes)
	for _, m := range uniq {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, point{hash: hash64(fmt.Sprintf("%s#%d", m, i)), member: m})
		}
	}
	// Ties (identical hashes) break by member name so two rings built
	// from the same member set are bit-identical regardless of input
	// order — every node computes the same placement.
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].member < r.points[j].member
	})
	return r
}

// hash64 is FNV-1a followed by a 64-bit avalanche finalizer:
// stdlib-only and stable across processes and architectures (placement
// must agree on every node). Raw FNV-1a of near-identical short
// strings ("n4#0".."n4#63") clusters badly on the ring; the finalizer
// restores uniform point spread.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Owner returns the member that owns source: the first ring point
// clockwise from the source's hash. Empty ring returns "".
func (r *Ring) Owner(source string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := hash64(source)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap around
	}
	return r.points[i].member
}

// Members returns the ring's member list, sorted.
func (r *Ring) Members() []string {
	out := make([]string, len(r.members))
	copy(out, r.members)
	return out
}

// Size reports the member count.
func (r *Ring) Size() int { return len(r.members) }
