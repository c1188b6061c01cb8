// Package intervalskiplist implements the interval skip list of Hanson
// and Johnson ("Selection Predicate Indexing for Active Databases Using
// Interval Skip Lists", Information Systems 21(3), 1996) — the structure
// the paper cites for indexing range predicates such as
// salary > CONSTANT. Each predicate constant defines an interval of
// matching attribute values; a stabbing query over a token's attribute
// value returns every matching predicate in O(log n + k) expected time.
//
// Intervals may be open, closed, or half-open, and unbounded on either
// side, so the comparison predicates map directly:
//
//	attr >  C  ->  (C, +inf)
//	attr >= C  ->  [C, +inf)
//	attr <  C  ->  (-inf, C)
//	attr <= C  ->  (-inf, C]
//	attr BETWEEN C1 AND C2 -> [C1, C2]
//
// Marker maintenance on node insertion keeps the covering invariant
// rather than strict maximality (duplicate hits are deduplicated during
// stabbing), and interval removal sweeps the level-0 span of the
// interval; both are standard engineering simplifications that preserve
// the stabbing-correctness theorem of the original structure.
package intervalskiplist

import (
	"fmt"
	"math/rand"
	"strings"

	"triggerman/internal/types"
)

const maxLevel = 24

// Interval is a (possibly unbounded) range of attribute values carrying
// a caller-supplied ID (an expression or predicate identifier).
type Interval struct {
	ID uint64
	// Lo and Hi bound the interval; Unbounded ends are marked by
	// LoUnbounded/HiUnbounded and their Value is ignored.
	Lo, Hi                   types.Value
	LoUnbounded, HiUnbounded bool
	// LoOpen/HiOpen exclude the endpoint.
	LoOpen, HiOpen bool
}

// Gt returns the interval for "attr > c".
func Gt(id uint64, c types.Value) Interval {
	return Interval{ID: id, Lo: c, LoOpen: true, HiUnbounded: true}
}

// Ge returns the interval for "attr >= c".
func Ge(id uint64, c types.Value) Interval {
	return Interval{ID: id, Lo: c, HiUnbounded: true}
}

// Lt returns the interval for "attr < c".
func Lt(id uint64, c types.Value) Interval {
	return Interval{ID: id, Hi: c, HiOpen: true, LoUnbounded: true}
}

// Le returns the interval for "attr <= c".
func Le(id uint64, c types.Value) Interval {
	return Interval{ID: id, Hi: c, LoUnbounded: true}
}

// Between returns the closed interval [lo, hi].
func Between(id uint64, lo, hi types.Value) Interval {
	return Interval{ID: id, Lo: lo, Hi: hi}
}

// Contains reports whether the interval contains v.
func (iv Interval) Contains(v types.Value) bool {
	if !iv.LoUnbounded {
		c := types.Compare(v, iv.Lo)
		if c < 0 || (c == 0 && iv.LoOpen) {
			return false
		}
	}
	if !iv.HiUnbounded {
		c := types.Compare(v, iv.Hi)
		if c > 0 || (c == 0 && iv.HiOpen) {
			return false
		}
	}
	return true
}

// coversEdge reports whether the open value range (a, b) lies inside the
// interval; a nil end means the sentinel (-inf for a, +inf for b).
func (iv Interval) coversEdge(a, b *types.Value) bool {
	if !iv.LoUnbounded {
		if a == nil {
			return false
		}
		if types.Compare(iv.Lo, *a) > 0 {
			return false
		}
	}
	if !iv.HiUnbounded {
		if b == nil {
			return false
		}
		if types.Compare(*b, iv.Hi) > 0 {
			return false
		}
	}
	return true
}

// String renders the interval in math notation.
func (iv Interval) String() string {
	var b strings.Builder
	if iv.LoOpen || iv.LoUnbounded {
		b.WriteByte('(')
	} else {
		b.WriteByte('[')
	}
	if iv.LoUnbounded {
		b.WriteString("-inf")
	} else {
		b.WriteString(iv.Lo.String())
	}
	b.WriteString(", ")
	if iv.HiUnbounded {
		b.WriteString("+inf")
	} else {
		b.WriteString(iv.Hi.String())
	}
	if iv.HiOpen || iv.HiUnbounded {
		b.WriteByte(')')
	} else {
		b.WriteByte(']')
	}
	return b.String()
}

type markerSet map[uint64]Interval

func (m markerSet) add(iv Interval)  { m[iv.ID] = iv }
func (m markerSet) remove(id uint64) { delete(m, id) }

type node struct {
	// sentinel nodes have val unset; isHead / isTail discriminate.
	val            types.Value
	isHead, isTail bool
	forward        []*node
	// markers[i] holds intervals marked on the edge leaving this node at
	// level i.
	markers []markerSet
	// eqMarkers holds intervals that contain this node's exact value.
	eqMarkers markerSet
	// owners counts intervals having an endpoint at this node's value;
	// informational (nodes are retained after their owners vanish).
	owners int
}

func (n *node) valuePtr() *types.Value {
	if n.isHead || n.isTail {
		return nil
	}
	v := n.val
	return &v
}

// List is the interval skip list. Half-unbounded intervals live in two
// plain ordered skip lists (their stabbing queries are prefixes /
// suffixes of the bound order); bounded intervals use the marker
// structure of the original paper; doubly-unbounded intervals match
// every value.
type List struct {
	head, tail *node
	rng        *rand.Rand
	size       int // number of stored intervals
	nodes      int // number of value nodes (marker structure)

	loBounds *boundSkip // lo-bounded, hi-unbounded: (C, +inf) / [C, +inf)
	hiBounds *boundSkip // hi-bounded, lo-unbounded: (-inf, C) / (-inf, C]
	always   markerSet  // unbounded on both sides
}

// New returns an empty list with a deterministic level generator seeded
// by seed (tests pass fixed seeds; production uses any value).
func New(seed int64) *List {
	head := &node{isHead: true, forward: make([]*node, maxLevel), markers: make([]markerSet, maxLevel), eqMarkers: markerSet{}}
	tail := &node{isTail: true, forward: make([]*node, maxLevel), markers: make([]markerSet, maxLevel), eqMarkers: markerSet{}}
	for i := range head.forward {
		head.forward[i] = tail
		head.markers[i] = markerSet{}
		tail.markers[i] = markerSet{}
	}
	return &List{
		head: head, tail: tail,
		rng:      rand.New(rand.NewSource(seed)),
		loBounds: newBoundSkip(seed ^ 0x5bd1),
		hiBounds: newBoundSkip(seed ^ 0x9e37),
		always:   markerSet{},
	}
}

// Len returns the number of intervals stored.
func (l *List) Len() int { return l.size }

// Nodes returns the number of distinct endpoint values (for tests).
func (l *List) Nodes() int { return l.nodes + l.loBounds.nodes + l.hiBounds.nodes }

// less orders node a strictly before value v.
func nodeLess(a *node, v types.Value) bool {
	if a.isHead {
		return true
	}
	if a.isTail {
		return false
	}
	return types.Compare(a.val, v) < 0
}

func (l *List) randomLevel() int {
	lvl := 1
	for lvl < maxLevel && l.rng.Intn(2) == 0 {
		lvl++
	}
	return lvl
}

// findNode returns the node with value v, inserting it (and
// redistributing markers over the split edges) when absent.
func (l *List) findOrInsertNode(v types.Value) *node {
	var update [maxLevel]*node
	x := l.head
	for i := maxLevel - 1; i >= 0; i-- {
		for nodeLess(x.forward[i], v) {
			x = x.forward[i]
		}
		update[i] = x
	}
	cand := update[0].forward[0]
	if !cand.isTail && types.Compare(cand.val, v) == 0 {
		return cand
	}
	lvl := l.randomLevel()
	n := &node{val: v, forward: make([]*node, lvl), markers: make([]markerSet, lvl), eqMarkers: markerSet{}}
	// Collect the markers of every edge the new node splits. Each such
	// edge's interior contains v, so every collected interval contains v
	// and becomes an eqMarker of n; the markers are then re-placed
	// maximally over the affected span (remove-and-replace keeps total
	// marker count O(intervals * log n); naive copy-to-both-halves grows
	// quadratically).
	seen := markerSet{}
	for i := 0; i < lvl; i++ {
		n.markers[i] = markerSet{}
		a := update[i]
		for id, iv := range a.markers[i] {
			seen[id] = iv
		}
		a.markers[i] = markerSet{}
		b := a.forward[i]
		a.forward[i] = n
		n.forward[i] = b
	}
	if len(seen) > 0 {
		// The split spans nest; the widest is at the new node's top
		// level.
		from := update[lvl-1]
		to := n.forward[lvl-1]
		for id, iv := range seen {
			n.eqMarkers[id] = iv
			l.placeSpan(from, to, iv)
		}
	}
	// Higher-level edges (levels >= lvl) that skip over the new node are
	// untouched; their markers still cover their span.
	l.nodes++
	return n
}

// placeSpan re-marks interval iv maximally over the node range
// [from, to] after an edge split. The walk skips forward at the highest
// safe level while outside iv's coverage, keeping re-placement
// logarithmic rather than linear in the span.
func (l *List) placeSpan(from, to *node, iv Interval) {
	x := from
	for x != to {
		// Past the interval's upper end: nothing further is coverable.
		if !iv.HiUnbounded {
			if vp := x.valuePtr(); vp != nil && types.Compare(*vp, iv.Hi) >= 0 {
				return
			}
		}
		// Still before the lower end: skip toward it at the highest
		// level that does not overshoot lo or the span.
		beforeLo := false
		if !iv.LoUnbounded {
			vp := x.valuePtr()
			beforeLo = vp == nil || types.Compare(*vp, iv.Lo) < 0
		}
		if beforeLo {
			moved := false
			for j := len(x.forward) - 1; j >= 0; j-- {
				nx := x.forward[j]
				if nx == nil || nx.isTail || pastNode(nx, to) {
					continue
				}
				if types.Compare(nx.val, iv.Lo) <= 0 {
					x = nx
					moved = true
					break
				}
			}
			if !moved {
				x = x.forward[0]
				if x == nil {
					return
				}
			}
			continue
		}
		// Within coverage: mark the maximal covered edge and advance.
		i := 0
		for i+1 < len(x.forward) && x.forward[i+1] != nil &&
			iv.coversEdge(x.valuePtr(), x.forward[i+1].valuePtr()) &&
			!pastNode(x.forward[i+1], to) {
			i++
		}
		next := x.forward[i]
		if next == nil {
			return
		}
		if iv.coversEdge(x.valuePtr(), next.valuePtr()) && !pastNode(next, to) {
			x.markers[i].add(iv)
			x = next
			continue
		}
		// The level-0 edge from x is not coverable: no further edge is.
		return
	}
}

// Insert adds an interval. Inserting two intervals with the same ID is
// an error (IDs key the marker sets).
func (l *List) Insert(iv Interval) error {
	if !iv.LoUnbounded && !iv.HiUnbounded {
		c := types.Compare(iv.Lo, iv.Hi)
		if c > 0 {
			return fmt.Errorf("intervalskiplist: empty interval %s", iv)
		}
		if c == 0 && (iv.LoOpen || iv.HiOpen) {
			return fmt.Errorf("intervalskiplist: empty interval %s", iv)
		}
	}
	switch {
	case iv.LoUnbounded && iv.HiUnbounded:
		l.always.add(iv)
	case iv.HiUnbounded:
		l.loBounds.add(iv.Lo, iv)
	case iv.LoUnbounded:
		l.hiBounds.add(iv.Hi, iv)
	default:
		lo := l.findOrInsertNode(iv.Lo)
		lo.owners++
		hi := l.findOrInsertNode(iv.Hi)
		if hi != lo {
			hi.owners++
		}
		l.placeMarkers(lo, hi, iv)
	}
	l.size++
	return nil
}

// placeMarkers walks from lo to hi, marking maximal-ish edges covered by
// the interval and tagging eqMarkers on nodes whose value it contains.
func (l *List) placeMarkers(lo, hi *node, iv Interval) {
	x := lo
	if vp := x.valuePtr(); vp != nil && iv.Contains(*vp) {
		x.eqMarkers.add(iv)
	}
	if x == hi {
		return
	}
	i := 0
	for x != hi {
		// Raise while the higher-level edge is still covered.
		for i+1 < len(x.forward) && x.forward[i+1] != nil &&
			iv.coversEdge(x.valuePtr(), x.forward[i+1].valuePtr()) &&
			!pastNode(x.forward[i+1], hi) {
			i++
		}
		// Lower while the current edge is not covered or overshoots hi.
		for i > 0 && (!iv.coversEdge(x.valuePtr(), x.forward[i].valuePtr()) || pastNode(x.forward[i], hi)) {
			i--
		}
		next := x.forward[i]
		if !iv.coversEdge(x.valuePtr(), next.valuePtr()) || pastNode(next, hi) {
			// Cannot advance under the interval: endpoints are nodes, so
			// this only happens when lo==hi region is exhausted.
			break
		}
		x.markers[i].add(iv)
		x = next
		if vp := x.valuePtr(); vp != nil && iv.Contains(*vp) {
			x.eqMarkers.add(iv)
		}
	}
}

// pastNode reports whether n lies strictly beyond limit in list order.
func pastNode(n, limit *node) bool {
	if n == limit {
		return false
	}
	if limit.isTail {
		return n.isTail && n != limit
	}
	if n.isTail {
		return true
	}
	if n.isHead {
		return false
	}
	return types.Compare(n.val, limit.val) > 0
}

// Delete removes the interval with the given ID and bounds. The bounds
// must match the inserted interval (the predicate index stores them
// alongside the ID). Returns false when no such marker was found.
func (l *List) Delete(iv Interval) bool {
	switch {
	case iv.LoUnbounded && iv.HiUnbounded:
		if _, ok := l.always[iv.ID]; !ok {
			return false
		}
		l.always.remove(iv.ID)
		l.size--
		return true
	case iv.HiUnbounded:
		if !l.loBounds.remove(iv.Lo, iv.ID) {
			return false
		}
		l.size--
		return true
	case iv.LoUnbounded:
		if !l.hiBounds.remove(iv.Hi, iv.ID) {
			return false
		}
		l.size--
		return true
	}
	// Bounded interval: sweep the level-0 span of the marker structure,
	// removing the ID from every marker and eqMarker set.
	var start *node
	if iv.LoUnbounded {
		start = l.head
	} else {
		var update [maxLevel]*node
		x := l.head
		for i := maxLevel - 1; i >= 0; i-- {
			for nodeLess(x.forward[i], iv.Lo) {
				x = x.forward[i]
			}
			update[i] = x
		}
		start = update[0]
	}
	found := false
	for x := start; x != nil; x = x.forward[0] {
		if _, ok := x.eqMarkers[iv.ID]; ok {
			x.eqMarkers.remove(iv.ID)
			found = true
		}
		for i := range x.markers {
			if _, ok := x.markers[i][iv.ID]; ok {
				x.markers[i].remove(iv.ID)
				found = true
			}
		}
		if x.isTail || pastNode(x, boundNode(l, iv)) {
			break
		}
	}
	if found {
		l.size--
	}
	return found
}

// boundNode returns a limit node for the delete sweep.
func boundNode(l *List, iv Interval) *node {
	if iv.HiUnbounded {
		return l.tail
	}
	// Sweep one node past hi to catch eqMarkers at hi itself.
	x := l.head
	for i := maxLevel - 1; i >= 0; i-- {
		for nodeLess(x.forward[i], iv.Hi) {
			x = x.forward[i]
		}
	}
	n := x.forward[0]
	if !n.isTail && types.Compare(n.val, iv.Hi) == 0 {
		return n
	}
	return n
}

// Stab returns every stored interval containing v, in unspecified order.
func (l *List) Stab(v types.Value, fn func(Interval) bool) {
	// An interval lives in exactly one store (always, loBounds, hiBounds
	// or the node markers), and only markers can show it twice, so the
	// seen set is built when the first marker is met and not before: a
	// list of one-sided ranges, which is what a predicate index holds,
	// stabs without allocating.
	var seen map[uint64]bool
	emit := func(ms map[uint64]Interval) bool {
		for id, iv := range ms {
			if seen[id] {
				continue
			}
			if !iv.LoUnbounded && !iv.HiUnbounded {
				if seen == nil {
					seen = make(map[uint64]bool)
				}
				seen[id] = true
			}
			// Covering (not maximal) markers can over-approximate after
			// edge splits; re-check containment for exactness.
			if !iv.Contains(v) {
				continue
			}
			if !fn(iv) {
				return false
			}
		}
		return true
	}
	if !emit(l.always) {
		return
	}
	// Lo-bounded suffix intervals: every bucket with bound <= v can
	// match (per-interval openness is re-checked by emit).
	done := false
	l.loBounds.ascendFromHead(func(bound types.Value, items map[uint64]Interval) bool {
		if types.Compare(bound, v) > 0 {
			return false
		}
		if !emit(items) {
			done = true
			return false
		}
		return true
	})
	if done {
		return
	}
	// Hi-bounded prefix intervals: every bucket with bound >= v can
	// match.
	l.hiBounds.ascendFrom(v, func(bound types.Value, items map[uint64]Interval) bool {
		if !emit(items) {
			done = true
			return false
		}
		return true
	})
	if done {
		return
	}
	x := l.head
	for i := maxLevel - 1; i >= 0; i-- {
		for nodeLess(x.forward[i], v) {
			x = x.forward[i]
		}
		y := x.forward[i]
		if y.isTail {
			// Edge (x, tail) spans v; markers here come from intervals
			// unbounded above.
			if !emit(x.markers[i]) {
				return
			}
			continue
		}
		if types.Compare(y.val, v) == 0 {
			if !emit(y.eqMarkers) {
				return
			}
			continue
		}
		// Edge (x, y) strictly spans v: its markers contain v's open
		// neighborhood.
		if !emit(x.markers[i]) {
			return
		}
	}
}

// StabAll collects the results of Stab into a slice.
func (l *List) StabAll(v types.Value) []Interval {
	var out []Interval
	l.Stab(v, func(iv Interval) bool {
		out = append(out, iv)
		return true
	})
	return out
}
