// Gator networks: the paper's planned next-generation discrimination
// network ("In the future, we plan to implement an optimized type of
// discrimination network called a Gator network in TriggerMan", §3,
// citing [Hans97b]). A Gator network generalizes TREAT and Rete: join
// results can be cached in beta memory nodes arranged in a tree of
// arbitrary arity — TREAT is the degenerate tree with no beta nodes,
// Rete the binary left-deep tree, and Gator anything between, chosen by
// an optimizer.
//
// This implementation supports:
//
//   - beta nodes over arbitrary subsets of tuple variables, arranged in
//     any tree shape;
//   - incremental maintenance: plus tokens join through sibling
//     memories and deposit new partial combinations; minus tokens
//     retract every combination they participated in;
//   - join-predicate placement at the lowest node covering both
//     endpoints;
//   - TREAT via the flat Network type, any explicit shape
//     (NewGatorNetwork), and a greedy optimizer (NewGreedyGator) that
//     grows a left-deep tree through connected variables, smallest
//     estimated cardinality first — the catalog's builder.
package discrim

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"triggerman/internal/datasource"
	"triggerman/internal/expr"
	"triggerman/internal/types"
)

// partial is one partial combination held in a beta memory. Instance
// identity is Rete-style: each inserted tuple carries a serial, and a
// partial holds the serial of every instance in it, so duplicate tuple
// values yield distinct combinations exactly as the TREAT bag semantics
// do. A partial owns its tuples (see gjoin.partial) and nothing writes
// them.
type partial struct {
	tuples  []types.Tuple
	serials []uint64 // indexed by variable; 0 outside the span
}

func (p *partial) at(vc varCol) types.Value { return p.tuples[vc.v].Get(vc.col) }

// betaMemory stores a node's partial combinations in a slot table,
// chained per span variable by that variable's instance serial (their
// identity, for retraction) and indexed on the (variable, column) values
// its plans probe — the beta analogue of Ariel's indexed alpha memories.
type betaMemory struct {
	mu       sync.RWMutex
	span     []int
	size     int
	parts    []*partial // by slot; nil marks a free slot
	free     freeList
	bySerial []chains // indexed by variable
	idx      hashIndex[varCol, *partial]
}

func newBetaMemory(span []int) *betaMemory {
	return &betaMemory{span: span, bySerial: make([]chains, span[len(span)-1]+1)}
}

func (bm *betaMemory) get(s int32) *partial { return bm.parts[s] }

// add stores p unless the memory already holds a partial of the same
// instances, and reports whether it did. Inserts on sibling leaves run
// concurrently, and each can see the other's new instance: both then
// build the same partial, which must be stored, and fired, once.
func (bm *betaMemory) add(p *partial) bool {
	bm.mu.Lock()
	defer bm.mu.Unlock()
	// A stored copy of p is in every span variable's serial chain;
	// search the shortest.
	v := bm.span[0]
	for _, o := range bm.span[1:] {
		if bm.bySerial[o].len(p.serials[o]) < bm.bySerial[v].len(p.serials[v]) {
			v = o
		}
	}
	c := &bm.bySerial[v]
	for s := c.first(p.serials[v]); s != none; s = c.next(s) {
		if slices.Equal(bm.parts[s].serials, p.serials) {
			return false
		}
	}
	s := bm.free.take(len(bm.parts))
	if int(s) == len(bm.parts) {
		bm.parts = append(bm.parts, nil)
	}
	bm.parts[s] = p
	for _, v := range bm.span {
		bm.bySerial[v].push(p.serials[v], s)
	}
	bm.idx.add(s, p)
	bm.size++
	return true
}

// removeBySerial retracts every combination containing the given
// instance at variable v, and returns gone with them appended.
func (bm *betaMemory) removeBySerial(v int, serial uint64, gone []*partial) []*partial {
	bm.mu.Lock()
	defer bm.mu.Unlock()
	for s := bm.bySerial[v].first(serial); s != none; {
		p, next := bm.parts[s], bm.bySerial[v].next(s)
		for _, ov := range bm.span {
			bm.bySerial[ov].unlink(p.serials[ov], s)
		}
		bm.idx.remove(s, p)
		bm.parts[s] = nil
		bm.free = append(bm.free, s)
		bm.size--
		gone = append(gone, p)
		s = next
	}
	return gone
}

// scan is memory.scan for partials: fn sees every partial whose indexed
// value equals the bound value p names, or all of them for a scan.
func (bm *betaMemory) scan(p probe, combo []types.Tuple, fn func(*partial) bool) {
	bm.mu.RLock()
	defer bm.mu.RUnlock()
	if p.slot >= 0 {
		bm.idx.lookup(p, combo, bm.get, fn)
		return
	}
	for _, q := range bm.parts {
		if q != nil && !fn(q) {
			return
		}
	}
}

func (bm *betaMemory) len() int {
	bm.mu.RLock()
	defer bm.mu.RUnlock()
	return bm.size
}

// gnode is one node of the Gator tree: a leaf (alpha memory of one
// variable) or an interior node with a beta memory over its span.
type gnode struct {
	// leafVar >= 0 marks a leaf.
	leafVar  int
	children []*gnode
	span     []int // sorted variable set
	// edges assigned to this node (lowest node covering both ends), and
	// their predicates.
	edges  []int
	tests  []expr.Node
	beta   *betaMemory // nil for leaves
	parent *gnode
	// siblings plans how a partial of this node's span joins at its
	// parent: the parent's other children in binding order, each with
	// its probe.
	siblings []sibling
}

type sibling struct {
	node  *gnode
	probe probe
}

// GatorNetwork is a discrimination network with cached join state.
type GatorNetwork struct {
	TriggerID uint64
	Vars      []Var
	Edges     []JoinEdge
	CatchAll  expr.CNF

	root     *gnode
	leaves   []*gnode
	catchAll []expr.Node
}

// Shape describes a Gator tree as nested variable groups: a Shape is
// either a single variable index or a list of sub-shapes.
type Shape struct {
	Var  int      // valid when Subs is nil
	Subs []*Shape // interior node
}

// LeafShape and NodeShape build Shape trees.
func LeafShape(v int) *Shape { return &Shape{Var: v} }

// NodeShape groups sub-shapes under one beta node.
func NodeShape(subs ...*Shape) *Shape { return &Shape{Var: -1, Subs: subs} }

// NewGatorNetwork builds a network with the given tree shape. The shape
// must cover every variable exactly once.
func NewGatorNetwork(triggerID uint64, vars []Var, edges []JoinEdge, catchAll expr.CNF, shape *Shape) (*GatorNetwork, error) {
	if len(vars) < 2 {
		return nil, fmt.Errorf("discrim: gator network needs >= 2 variables")
	}
	g := &GatorNetwork{TriggerID: triggerID, Vars: vars, Edges: edges, CatchAll: catchAll, catchAll: conjunction(catchAll)}
	_, equis, err := joinGraph(len(vars), edges, true)
	if err != nil {
		return nil, err
	}
	g.leaves = make([]*gnode, len(vars))
	for i := range g.Vars {
		g.Vars[i].mem = new(memory)
		g.leaves[i] = &gnode{leafVar: i, span: []int{i}}
	}
	root, err := g.buildShape(shape)
	if err != nil {
		return nil, err
	}
	seen := make([]bool, len(vars))
	for _, v := range root.span {
		if seen[v] {
			return nil, fmt.Errorf("discrim: shape repeats variable %d", v)
		}
		seen[v] = true
	}
	for i, s := range seen {
		if !s {
			return nil, fmt.Errorf("discrim: shape omits variable %d", i)
		}
	}
	g.root = root
	// Assign each edge to the lowest node whose span covers both ends.
	for ei, e := range edges {
		n := lowestCovering(root, e.A, e.B)
		n.edges, n.tests = append(n.edges, ei), append(n.tests, e.Pred.Node())
	}
	g.plan(root, equis)
	return g, nil
}

// plan works out, for every child of n and below, how a partial of the
// child's span joins its siblings: their order, and for each an indexed
// probe by an equijoin of n's edges to what is bound before it, whose
// index it adds to the sibling's memory.
func (g *GatorNetwork) plan(n *gnode, equis [][]equiKey) {
	for _, from := range n.children {
		bound := make([]bool, len(g.Vars))
		for _, v := range from.span {
			bound[v] = true
		}
		for _, sib := range n.children {
			if sib == from {
				continue
			}
			s := sibling{node: sib, probe: scanAll}
			if at, by, ok := equiProbe(n.edges, equis, sib.span, bound); ok {
				s.probe.by = by
				if sib.beta == nil {
					s.probe.slot = g.Vars[at.v].mem.idx.slot(at.col)
				} else {
					s.probe.slot = sib.beta.idx.slot(at)
				}
			}
			for _, v := range sib.span {
				bound[v] = true
			}
			from.siblings = append(from.siblings, s)
		}
		g.plan(from, equis)
	}
}

func (g *GatorNetwork) buildShape(s *Shape) (*gnode, error) {
	if s == nil {
		return nil, fmt.Errorf("discrim: nil shape")
	}
	if s.Subs == nil {
		if s.Var < 0 || s.Var >= len(g.Vars) {
			return nil, fmt.Errorf("discrim: shape variable %d out of range", s.Var)
		}
		return g.leaves[s.Var], nil
	}
	if len(s.Subs) < 2 {
		return nil, fmt.Errorf("discrim: interior shape node needs >= 2 children")
	}
	n := &gnode{leafVar: -1}
	for _, sub := range s.Subs {
		child, err := g.buildShape(sub)
		if err != nil {
			return nil, err
		}
		child.parent = n
		n.children = append(n.children, child)
		n.span = append(n.span, child.span...)
	}
	sort.Ints(n.span)
	n.beta = newBetaMemory(n.span)
	return n, nil
}

func lowestCovering(n *gnode, a, b int) *gnode {
	if !spanContains(n.span, a) || !spanContains(n.span, b) {
		return nil
	}
	for _, c := range n.children {
		if got := lowestCovering(c, a, b); got != nil {
			return got
		}
	}
	return n
}

func spanContains(span []int, v int) bool {
	_, ok := slices.BinarySearch(span, v)
	return ok
}

// NewGreedyGator builds a left-deep tree over variables ordered by
// ascending estimated cardinality (the [Hans97b] optimizer reduced to
// its leading heuristic: join small memories first so beta memories
// stay small), re-ordered so that each next variable shares an edge
// with those already joined when one does — a beta memory then holds a
// join, not a cross product. card[i] estimates variable i's memory
// size; nil means uniform, which grows the tree in connected order from
// the first variable.
func NewGreedyGator(triggerID uint64, vars []Var, edges []JoinEdge, catchAll expr.CNF, card []int) (*GatorNetwork, error) {
	remaining := make([]int, len(vars))
	for i := range remaining {
		remaining[i] = i
	}
	if card != nil {
		sort.SliceStable(remaining, func(a, b int) bool { return card[remaining[a]] < card[remaining[b]] })
	}
	var chosen []int
	connected := func(v int) bool {
		return slices.ContainsFunc(edges, func(e JoinEdge) bool {
			return (e.A == v || e.B == v) && slices.Contains(chosen, e.other(v))
		})
	}
	var shape *Shape
	for len(remaining) > 0 {
		pick := max(slices.IndexFunc(remaining, connected), 0)
		v := remaining[pick]
		remaining = slices.Delete(remaining, pick, pick+1)
		chosen = append(chosen, v)
		if shape == nil {
			shape = LeafShape(v)
		} else {
			shape = NodeShape(shape, LeafShape(v))
		}
	}
	return NewGatorNetwork(triggerID, vars, edges, catchAll, shape)
}

// BetaSizes reports the cardinality of every beta memory, root last
// (tests and memory accounting).
func (g *GatorNetwork) BetaSizes() []int {
	var out []int
	var walk func(n *gnode)
	walk = func(n *gnode) {
		for _, c := range n.children {
			walk(c)
		}
		if n.beta != nil {
			out = append(out, n.beta.len())
		}
	}
	walk(g.root)
	return out
}

// MemorySize reports variable v's alpha memory cardinality.
func (g *GatorNetwork) MemorySize(v int) int { return g.Vars[v].mem.len() }

// NotifyToken drives the network: memories are maintained and every
// root-level combination created (plus token) or retracted (minus
// token) is streamed to pnode.
func (g *GatorNetwork) NotifyToken(v int, tok datasource.Token, pnode PNode) error {
	if v < 0 || v >= len(g.Vars) {
		return fmt.Errorf("discrim: variable %d out of range", v)
	}
	switch tok.Op {
	case datasource.OpInsert:
		return g.insert(v, tok.New, tok, pnode)
	case datasource.OpDelete:
		return g.remove(v, tok.Old, tok, pnode)
	case datasource.OpUpdate:
		if err := g.remove(v, tok.Old, tok, nil); err != nil {
			return err
		}
		return g.insert(v, tok.New, tok, pnode)
	}
	return nil
}

// insert adds tu's instance at leaf v and joins it upward, level by
// level: each node joins the new partials of the child below with that
// child's siblings and deposits what it makes; only the partials its
// memory accepts go on, and the root's go to the P-node.
func (g *GatorNetwork) insert(v int, tu types.Tuple, tok datasource.Token, pnode PNode) error {
	if tu == nil {
		return nil
	}
	n := len(g.Vars)
	buf := make([]types.Tuple, 2*n)
	j := &gjoin{g: g, env: expr.MultiEnv{Tuples: buf[:n:n], Olds: buf[n:]}, serials: make([]uint64, n), memRow: make([]bool, n)}
	combo := j.env.Tuples
	j.env.Olds[v] = tok.Old
	combo[v], j.serials[v] = tu, g.Vars[v].mem.add(tu)
	from := g.leaves[v]
	j.extend(from.parent, from.siblings)
	for node := from.parent; j.err == nil; node = node.parent {
		fresh := slices.DeleteFunc(j.out, func(p *partial) bool { return !node.beta.add(p) })
		if node == g.root || len(fresh) == 0 {
			return g.fire(fresh, &j.env, v, tok, pnode)
		}
		j.out = nil
		for _, p := range fresh {
			copy(combo, p.tuples)
			copy(j.serials, p.serials)
			j.extend(node.parent, node.siblings)
		}
	}
	return j.err
}

// gjoin is one insert's scratch: the combination being bound and its
// serials, owned by the call.
type gjoin struct {
	g       *GatorNetwork
	env     expr.MultiEnv // the combination; only the seed has an old image
	serials []uint64
	memRow  []bool     // which of the combination's tuples are alpha-memory rows
	out     []*partial // the partials made at the current level
	err     error
}

// partial makes the combination a partial. The partial outlives the
// alpha memories' locks, and a removed row's slot is cleared and reused,
// so the rows bound from alpha memories are copied, into one array; the
// seed's tuple and those of the partials below are shared, as nothing
// writes them.
func (j *gjoin) partial() *partial {
	p := &partial{tuples: slices.Clone(j.env.Tuples), serials: slices.Clone(j.serials)}
	n := 0
	for v, borrowed := range j.memRow {
		if borrowed {
			n += len(p.tuples[v])
		}
	}
	if n == 0 {
		return p
	}
	vals := make(types.Tuple, 0, n)
	for v, borrowed := range j.memRow {
		if borrowed {
			k := len(vals)
			vals = append(vals, p.tuples[v]...)
			p.tuples[v] = vals[k:len(vals):len(vals)]
		}
	}
	return p
}

// extend binds sibs' spans in every way their memories allow; each
// combination that passes node's edges becomes a new partial of node.
func (j *gjoin) extend(node *gnode, sibs []sibling) {
	if j.err != nil {
		return
	}
	combo := j.env.Tuples
	if len(sibs) == 0 {
		ok, err := allHold(node.tests, &j.env)
		if j.err = err; ok {
			j.out = append(j.out, j.partial())
		}
		return
	}
	s := &sibs[0]
	if v := s.node.leafVar; v >= 0 {
		j.memRow[v] = true
		j.g.Vars[v].mem.scan(s.probe, combo, func(in instance) bool {
			combo[v], j.serials[v] = in.tuple, in.serial
			j.extend(node, sibs[1:])
			return j.err == nil
		})
		combo[v], j.serials[v], j.memRow[v] = nil, 0, false
		return
	}
	span := s.node.span
	s.node.beta.scan(s.probe, combo, func(p *partial) bool {
		for _, v := range span {
			combo[v], j.serials[v] = p.tuples[v], p.serials[v]
		}
		j.extend(node, sibs[1:])
		return j.err == nil
	})
	for _, v := range span {
		combo[v], j.serials[v] = nil, 0
	}
}

// remove retracts a tuple: it leaves the alpha memory and every beta
// combination containing it — those are in the betas on the leaf's path
// to the root — and the retracted root combinations are streamed to
// pnode (minus notifications).
func (g *GatorNetwork) remove(v int, tu types.Tuple, tok datasource.Token, pnode PNode) error {
	if tu == nil {
		return nil
	}
	serial := g.Vars[v].mem.remove(tu)
	if serial == 0 {
		return nil
	}
	var gone []*partial
	for n := g.leaves[v].parent; n != nil; n = n.parent {
		gone = n.beta.removeBySerial(v, serial, gone[:0])
	}
	if pnode == nil || len(gone) == 0 {
		return nil
	}
	env := &expr.MultiEnv{Olds: make([]types.Tuple, len(g.Vars))}
	env.Olds[v] = tok.Old
	return g.fire(gone, env, v, tok, pnode)
}

// fire hands root combinations that pass the catch-all conjuncts to
// pnode; env carries the seed variable's old image.
func (g *GatorNetwork) fire(root []*partial, env *expr.MultiEnv, seedVar int, tok datasource.Token, pnode PNode) error {
	if pnode == nil {
		return nil
	}
	for _, p := range root {
		env.Tuples = p.tuples
		ok, err := allHold(g.catchAll, env)
		if err != nil {
			return err
		}
		if ok && !pnode(Combo{Tuples: p.tuples, Token: tok, SeedVar: seedVar}) {
			return nil
		}
	}
	return nil
}
