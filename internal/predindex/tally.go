package predindex

import "sync/atomic"

// NoSlot is the MatchCtx.Slot of a prober outside any driver (a
// synchronous embedder, a control-plane call); its tallies land in the
// block's shared line.
const NoSlot = -1

// Tally indices. The index-wide block uses all of them; a signature's
// block uses tTokens (tokens consulted against it) and tMatches.
const (
	tTokens        = iota // tokens probed
	tMatches              // refs matched
	tSigProbes            // signature entries consulted
	tConstCompares        // constant comparisons / index probes
	tRestTests            // rest-of-predicate evaluations
	numTallies
)

// slotTallies is one slot's counters, padded to a cache line so
// neighbouring slots never share one.
type slotTallies struct {
	n [numTallies]atomic.Int64
	_ [64 - numTallies*8]byte
}

// tallies is a per-slot block of exact counters: line 0 is shared by
// NoSlot callers, and each driver slot owns one line after it, so a hot
// signature probed from every driver never bounces a line between
// cores. A read sums the block: exact at quiescence, and never more
// than the updates already made while writers run.
type tallies []slotTallies

// newTallies builds a block for slots ≥ 1 driver slots.
func newTallies(slots int) tallies { return make(tallies, 1+slots) }

// at returns the caller's line. A slot outside the geometry wraps.
func (t tallies) at(slot int) *slotTallies {
	if slot < 0 {
		return &t[0]
	}
	return &t[1+slot%(len(t)-1)]
}

// sum reads tally i across the block.
func (t tallies) sum(i int) int64 {
	var s int64
	for j := range t {
		s += t[j].n[i].Load()
	}
	return s
}
