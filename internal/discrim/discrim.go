// Package discrim implements the discrimination networks the paper uses
// for trigger condition testing (§3): A-TREAT after Ariel ([Hans96]),
// and the Gator networks ([Hans97b]) it plans as the upgrade. Both are
// built from the same parts: one alpha memory per tuple variable — a bag
// of tuple instances with a hash index on each equijoin column it is
// probed by, keyed by types.Value.Hash and checked with types.Equal —
// and join plans worked out once, when the network is built, so a token
// looks its plan up instead of walking the condition graph. A P-node
// fires for every tuple combination satisfying the whole condition.
//
// Selection predicates live *above* the network in the predicate index;
// a token reaches a network node only after its selection predicate
// matched (the nextNetworkNode field of the matched expression).
// Every alpha memory is stored; A-TREAT's virtual alpha memories, which
// re-derive their contents from a base table, are not built: every
// source the system defines may be a stream, which no table backs.
package discrim

import (
	"fmt"
	"slices"
	"sync"

	"triggerman/internal/datasource"
	"triggerman/internal/expr"
	"triggerman/internal/types"
)

// instance is one tuple held by a memory. Duplicate rows are distinct
// instances, told apart by serial: Gator's partial joins name instances
// by serial; A-TREAT ignores it. A memory's instance is its slot's
// row, valid only while the memory's lock is held (see memory).
type instance struct {
	serial uint64
	tuple  types.Tuple
}

func (in instance) at(col int) types.Value { return in.tuple.Get(col) }

// none ends a slot chain.
const none = -1

// chains threads slots into hash buckets without a slice per bucket:
// heads maps a bucket's hash to its first and last slot and its length,
// and links holds each slot's neighbours in its bucket, so a slot joins
// a bucket at its tail and leaves it in O(1), buckets keep insertion
// order, and once the map and the links have grown nothing allocates. A
// slot is in at most one bucket of a chains.
type chains struct {
	heads map[uint64]bucket
	links []link // by slot
}

type bucket struct{ first, last, n int32 }

type link struct{ prev, next int32 }

// push appends slot s to bucket h.
func (c *chains) push(h uint64, s int32) {
	if c.heads == nil {
		c.heads = make(map[uint64]bucket)
	}
	for int(s) >= len(c.links) {
		c.links = append(c.links, link{})
	}
	l := link{prev: none, next: none}
	if b, ok := c.heads[h]; ok {
		l.prev, c.links[b.last].next = b.last, s
		b.last, b.n = s, b.n+1
		c.heads[h] = b
	} else {
		c.heads[h] = bucket{first: s, last: s, n: 1}
	}
	c.links[s] = l
}

// unlink takes slot s out of bucket h, and drops the bucket once it is
// empty.
func (c *chains) unlink(h uint64, s int32) {
	b, l := c.heads[h], c.links[s]
	if b.n--; b.n == 0 {
		delete(c.heads, h)
		return
	}
	if l.prev == none {
		b.first = l.next
	} else {
		c.links[l.prev].next = l.next
	}
	if l.next == none {
		b.last = l.prev
	} else {
		c.links[l.next].prev = l.prev
	}
	c.heads[h] = b
}

// first returns bucket h's first slot, or none; next(s) the one after s.
func (c *chains) first(h uint64) int32 {
	if b, ok := c.heads[h]; ok {
		return b.first
	}
	return none
}

func (c *chains) next(s int32) int32 { return c.links[s].next }

// len reports bucket h's length.
func (c *chains) len(h uint64) int32 { return c.heads[h].n }

// freeList holds a slot table's freed slots, handed out again before
// the table grows.
type freeList []int32

// take returns a freed slot, or end, the slot past the table's end, when
// none is free.
func (f *freeList) take(end int) int32 {
	k := len(*f)
	if k == 0 {
		return int32(end)
	}
	s := (*f)[k-1]
	*f = (*f)[:k-1]
	return s
}

// hashIndex is the hash index a memory keeps on each key a plan probes
// it by — the memory indexing Ariel used ([Hans96]), so a join probes
// the entries that can match instead of scanning the memory: per key,
// the memory's slots chained by the hash of their entry's value there.
// Alpha memories key by column, beta memories by (variable, column).
type hashIndex[K comparable, E keyed[K]] struct {
	keys []K
	by   []chains // by[i] chains by keys[i]'s value
}

// keyed is a hashIndex entry: its value at a key.
type keyed[K any] interface{ at(K) types.Value }

// slot returns k's index slot, adding the index if it is new. Plans
// call it while the network is built, before the memory holds an entry.
func (x *hashIndex[K, E]) slot(k K) int {
	if i := slices.Index(x.keys, k); i >= 0 {
		return i
	}
	x.keys = append(x.keys, k)
	x.by = append(x.by, chains{})
	return len(x.keys) - 1
}

func (x *hashIndex[K, E]) add(s int32, e E) {
	for i, k := range x.keys {
		x.by[i].push(e.at(k).Hash(), s)
	}
}

func (x *hashIndex[K, E]) remove(s int32, e E) {
	for i, k := range x.keys {
		x.by[i].unlink(e.at(k).Hash(), s)
	}
}

// lookup calls fn, until it returns false, on every entry whose value at
// p's key equals the bound value p names; entry maps a slot to its entry.
func (x *hashIndex[K, E]) lookup(p probe, combo []types.Tuple, entry func(int32) E, fn func(E) bool) {
	v, k, c := combo[p.by.v].Get(p.by.col), x.keys[p.slot], &x.by[p.slot]
	for s := c.first(v.Hash()); s != none; s = c.next(s) {
		if e := entry(s); types.Equal(e.at(k), v) && !fn(e) {
			return
		}
	}
}

// memory is a stored alpha memory: a slot table of tuple instances. Each
// slot keeps its own tuple, which the memory owns and refills in place;
// the slot is chained by tuple hash (its identity, for removal) and by
// its value in each column its plans probe. A removed row's values are
// cleared and its slot is reused, so a memory that has grown allocates
// nothing. The zero memory is empty and ready for use.
//
// Ownership: a row is the memory's, and readable only under its lock.
// An enumeration holds the read lock of every memory whose row it binds
// across the P-node call; whatever keeps a row past that — a rule-action
// task, an attempt a retry policy abandons, a Gator partial — copies it.
type memory struct {
	mu   sync.RWMutex
	next uint64 // the last serial handed out
	size int
	rows []instance // by slot; serial 0 marks a free slot
	free freeList
	ids  chains // slots by tuple hash
	idx  hashIndex[int, instance]
}

// get returns slot s's instance, its tuple capped so that an append
// copies it instead of writing into the slot's spare capacity.
func (m *memory) get(s int32) instance {
	r := m.rows[s]
	return instance{r.serial, r.tuple[:len(r.tuple):len(r.tuple)]}
}

// add stores a copy of tu and returns the new instance's serial.
func (m *memory) add(tu types.Tuple) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.free.take(len(m.rows))
	if int(s) == len(m.rows) {
		m.rows = append(m.rows, instance{})
	}
	m.next++
	r := &m.rows[s]
	r.serial, r.tuple = m.next, append(r.tuple[:0], tu...)
	m.ids.push(tu.Hash(), s)
	m.idx.add(s, *r)
	m.size++
	return m.next
}

// remove deletes one instance equal to tu and returns its serial, or 0
// when the memory holds none (a phantom delete). The slot's values are
// cleared, so the memory keeps nothing of the row reachable, and the
// slot goes to the next add.
func (m *memory) remove(tu types.Tuple) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := tu.Hash()
	for s := m.ids.first(h); s != none; s = m.ids.next(s) {
		if in := m.get(s); in.tuple.Equal(tu) {
			m.ids.unlink(h, s)
			m.idx.remove(s, in)
			if ScribbleFreed != nil {
				ScribbleFreed(in.tuple)
			} else {
				clear(in.tuple)
			}
			r := &m.rows[s]
			r.serial, r.tuple = 0, r.tuple[:0]
			m.free = append(m.free, s)
			m.size--
			return in.serial
		}
	}
	return 0
}

// ScribbleFreed, when a test sets it, fills each row a memory frees with
// garbage instead of clearing it, so that whatever still reads a removed
// row — a combination kept past its P-node call, a Gator partial that
// shares a slot instead of copying it — reads garbage, and shows.
var ScribbleFreed func(row types.Tuple)

// scan calls fn, until it returns false, on every instance p selects:
// those whose indexed column holds the bound value p names, or all of
// them for a scan. fn runs under the memory's read lock.
func (m *memory) scan(p probe, combo []types.Tuple, fn func(instance) bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if p.slot >= 0 {
		m.idx.lookup(p, combo, m.get, fn)
		return
	}
	for s := range m.rows {
		if m.rows[s].serial != 0 && !fn(m.get(int32(s))) {
			return
		}
	}
}

func (m *memory) len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.size
}

// Var describes one tuple variable of a trigger.
type Var struct {
	// Name is the tuple-variable name from the from clause.
	Name string
	// SourceID is the data source feeding this variable.
	SourceID int32

	mem *memory
}

// JoinEdge is one edge of the trigger condition graph (§5.1 step 3): a
// join predicate between two tuple variables, bound so that ColumnRef
// VarIdx matches the network's variable order.
type JoinEdge struct {
	A, B int
	Pred expr.CNF
}

func (e JoinEdge) other(v int) int {
	if e.A == v {
		return e.B
	}
	return e.A
}

// Combo is a satisfying tuple combination delivered to the P-node.
type Combo struct {
	// Tuples holds one tuple per variable, in network variable order.
	// The slice is the network's and is valid only during the P-node
	// call; a P-node that keeps the combination copies it.
	Tuples []types.Tuple
	// Token is the update descriptor that seeded the match.
	Token datasource.Token
	// SeedVar is the variable the token arrived on.
	SeedVar int
}

// PNode receives satisfying combinations; returning false stops the
// current enumeration (used for early cancellation).
type PNode func(Combo) bool

// varCol names column col of variable v's tuple.
type varCol struct{ v, col int }

// equiKey is a single-column equijoin extracted from an edge predicate:
// the two columns must be equal.
type equiKey [2]varCol

// probe is a memory lookup planned when the network is built: the
// entries whose index slot holds the value in column by.col of the
// already bound variable by.v. Slot -1 scans the memory.
type probe struct {
	slot int
	by   varCol
}

var scanAll = probe{slot: -1}

// joinGraph validates the edges and works out what both network kinds
// plan with: the edges at each variable and each edge's equijoins (none
// when index is false, which leaves every memory unindexed).
func joinGraph(nvars int, edges []JoinEdge, index bool) (adj [][]int, equis [][]equiKey, err error) {
	adj, equis = make([][]int, nvars), make([][]equiKey, len(edges))
	for ei, e := range edges {
		if e.A < 0 || e.A >= nvars || e.B < 0 || e.B >= nvars || e.A == e.B {
			return nil, nil, fmt.Errorf("discrim: bad join edge %d (%d-%d) for %d variables", ei, e.A, e.B, nvars)
		}
		adj[e.A] = append(adj[e.A], ei)
		adj[e.B] = append(adj[e.B], ei)
		if index {
			equis[ei] = equijoinsOf(e)
		}
	}
	return adj, equis, nil
}

// equijoinsOf extracts single-atom equality clauses of the form
// varA.colA = varB.colB from an edge predicate.
func equijoinsOf(e JoinEdge) []equiKey {
	var out []equiKey
	for _, cl := range e.Pred.Clauses {
		if len(cl.Atoms) != 1 {
			continue
		}
		bin, ok := cl.Atoms[0].(*expr.Binary)
		if !ok || bin.Op != expr.OpEq {
			continue
		}
		l, lok := bin.Left.(*expr.ColumnRef)
		r, rok := bin.Right.(*expr.ColumnRef)
		if !lok || !rok || l.Old || r.Old || l.VarIdx < 0 || r.VarIdx < 0 || l.VarIdx == r.VarIdx {
			continue
		}
		out = append(out, equiKey{{l.VarIdx, l.ColIdx}, {r.VarIdx, r.ColIdx}})
	}
	return out
}

// equiProbe finds, among the given edges, the first equijoin with one
// side in span and the other on a bound variable: binding span can then
// probe column at with the value in column by.
func equiProbe(edges []int, equis [][]equiKey, span []int, bound []bool) (at, by varCol, ok bool) {
	for _, ei := range edges {
		for _, q := range equis[ei] {
			for s := 0; s < 2; s++ {
				if spanContains(span, q[s].v) && bound[q[1-s].v] {
					return q[s], q[1-s], true
				}
			}
		}
	}
	return varCol{}, varCol{}, false
}

// Network is the per-trigger A-TREAT network.
type Network struct {
	TriggerID uint64
	Vars      []Var
	Edges     []JoinEdge
	// CatchAll holds conjuncts referring to zero or three-plus variables
	// (the paper's catch-all list); it is evaluated on complete
	// combinations.
	CatchAll expr.CNF
	// IndexMemories disables equijoin memory indexing when false is
	// passed to NewNetworkOpts (ablation); NewNetwork enables it.
	IndexMemories bool

	// plans[v] binds the other variables for a token seeded at v. Plans
	// are read-only once built: enumerations share them.
	plans    [][]step
	catchAll []expr.Node
}

// step binds one variable of a join plan: its memory is probed or
// scanned, and each candidate is tested against the predicates of the
// edges to the variables bound before it.
type step struct {
	v     int
	probe probe
	tests []expr.Node
}

// conjunction is the predicate list a combination must pass for c: none
// for an empty CNF.
func conjunction(c expr.CNF) []expr.Node {
	if len(c.Clauses) == 0 {
		return nil
	}
	return []expr.Node{c.Node()}
}

// NewNetwork builds a network with indexed alpha memories.
func NewNetwork(triggerID uint64, vars []Var, edges []JoinEdge, catchAll expr.CNF) (*Network, error) {
	return NewNetworkOpts(triggerID, vars, edges, catchAll, true)
}

// NewNetworkOpts is NewNetwork with explicit control over memory
// indexing (benchmark ablations pass false).
func NewNetworkOpts(triggerID uint64, vars []Var, edges []JoinEdge, catchAll expr.CNF, indexMemories bool) (*Network, error) {
	n := &Network{TriggerID: triggerID, Vars: vars, Edges: edges, CatchAll: catchAll, IndexMemories: indexMemories,
		catchAll: conjunction(catchAll)}
	adj, equis, err := joinGraph(len(vars), edges, indexMemories)
	if err != nil {
		return nil, err
	}
	for i := range n.Vars {
		n.Vars[i].mem = new(memory)
	}
	n.plans = make([][]step, len(vars))
	for seed := range vars {
		bound := make([]bool, len(vars))
		bound[seed] = true
		for _, vi := range bindOrder(seed, adj, edges) {
			st := step{v: vi, probe: scanAll}
			if at, by, ok := equiProbe(adj[vi], equis, []int{vi}, bound); ok {
				st.probe = probe{n.Vars[vi].mem.idx.slot(at.col), by}
			}
			for _, ei := range adj[vi] {
				if bound[edges[ei].other(vi)] {
					st.tests = append(st.tests, edges[ei].Pred.Node())
				}
			}
			bound[vi] = true
			n.plans[seed] = append(n.plans[seed], st)
		}
	}
	return n, nil
}

// bindOrder lists the variables other than seed in BFS order from it, so
// join predicates become testable as early as possible. Variables no
// edge reaches (cartesian products) come last.
func bindOrder(seed int, adj [][]int, edges []JoinEdge) []int {
	seen := make([]bool, len(adj))
	seen[seed] = true
	order := []int{seed}
	for i := 0; i < len(order); i++ {
		for _, ei := range adj[order[i]] {
			if o := edges[ei].other(order[i]); !seen[o] {
				seen[o] = true
				order = append(order, o)
			}
		}
	}
	for v, s := range seen {
		if !s {
			order = append(order, v)
		}
	}
	return order[1:]
}

// MemorySize reports the cardinality of variable i's memory.
func (n *Network) MemorySize(i int) int {
	return n.Vars[i].mem.len()
}

// AddTuple inserts a tuple into variable v's memory.
func (n *Network) AddTuple(v int, tu types.Tuple) error {
	if v < 0 || v >= len(n.Vars) {
		return fmt.Errorf("discrim: variable %d out of range", v)
	}
	if tu != nil {
		n.Vars[v].mem.add(tu)
	}
	return nil
}

// RemoveTuple removes one instance of a tuple from variable v's memory.
func (n *Network) RemoveTuple(v int, tu types.Tuple) error {
	if v < 0 || v >= len(n.Vars) {
		return fmt.Errorf("discrim: variable %d out of range", v)
	}
	if tu != nil {
		n.Vars[v].mem.remove(tu)
	}
	return nil
}

// Scratch is one enumeration's state — the join, its combination and
// the combination's old images — owned by the caller and reused from
// call to call, the way predindex.Match fills a caller's Buffer. The
// zero Scratch is ready for use; it serves one enumeration at a time,
// and holds nothing between calls.
type Scratch struct {
	j   join
	buf []types.Tuple
}

// scratches serves NotifyToken, whose callers own no Scratch.
var scratches = sync.Pool{New: func() any { return new(Scratch) }}

// Enumerate streams satisfying combinations seeded by the given tuple
// at variable v, without touching any memory, using sc for its state. A
// nil pnode is a no-op.
func (n *Network) Enumerate(sc *Scratch, v int, tok datasource.Token, pnode PNode) error {
	if v < 0 || v >= len(n.Vars) {
		return fmt.Errorf("discrim: variable %d out of range", v)
	}
	seed := tok.Effective()
	if pnode == nil || seed == nil {
		return nil
	}
	nv := len(n.Vars)
	if cap(sc.buf) < 2*nv {
		sc.buf = make([]types.Tuple, 2*nv)
	}
	buf := sc.buf[:2*nv]
	j := &sc.j
	*j = join{n: n, tok: tok, seedVar: v, pnode: pnode,
		env: expr.MultiEnv{Tuples: buf[:nv:nv], Olds: buf[nv:]}}
	j.env.Tuples[v], j.env.Olds[v] = seed, tok.Old
	j.extend(n.plans[v])
	err := j.err
	clear(buf)
	*j = join{}
	return err
}

// NotifyToken drives the network with a token routed to variable v: the
// memory is maintained (insert/delete/update semantics) and satisfying
// combinations seeded by the token are streamed to pnode. The token is
// assumed to have already passed variable v's selection predicate.
// Callers that must decouple maintenance from firing (update tokens
// whose old and new images match different predicates) use AddTuple /
// RemoveTuple / Enumerate directly.
func (n *Network) NotifyToken(v int, tok datasource.Token, pnode PNode) error {
	if v < 0 || v >= len(n.Vars) {
		return fmt.Errorf("discrim: variable %d out of range", v)
	}
	switch mem := n.Vars[v].mem; tok.Op {
	case datasource.OpInsert:
		mem.add(tok.New)
	case datasource.OpDelete:
		if mem.remove(tok.Old) == 0 {
			// Phantom delete: the tuple was never in the memory, so no
			// combination ceased to exist.
			return nil
		}
	case datasource.OpUpdate:
		mem.remove(tok.Old)
		mem.add(tok.New)
	}
	sc := scratches.Get().(*Scratch)
	defer scratches.Put(sc)
	return n.Enumerate(sc, v, tok, pnode)
}

// join is one TREAT enumeration: the seed variable's tuple is fixed and
// the plan extends it through the remaining variables. Its combination
// and old images belong to the call, so enumerations run concurrently.
type join struct {
	n       *Network
	tok     datasource.Token
	seedVar int
	pnode   PNode
	env     expr.MultiEnv // the combination; only the seed has an old image
	err     error
	stop    bool // the P-node asked to stop, or err is set
}

// extend binds the variables of steps in every way the memories allow
// and hands each complete combination passing the catch-all conjuncts
// to the P-node.
func (j *join) extend(steps []step) {
	combo := j.env.Tuples
	if len(steps) == 0 {
		if j.hold(j.n.catchAll) && !j.pnode(Combo{Tuples: combo, Token: j.tok, SeedVar: j.seedVar}) {
			j.stop = true
		}
		return
	}
	st := &steps[0]
	bind := func(in instance) bool {
		if combo[st.v] = in.tuple; j.hold(st.tests) {
			j.extend(steps[1:])
		}
		return !j.stop
	}
	j.n.Vars[st.v].mem.scan(st.probe, combo, bind)
	combo[st.v] = nil
}

// hold reports whether the combination passes preds; an error stops the
// enumeration.
func (j *join) hold(preds []expr.Node) bool {
	ok, err := allHold(preds, &j.env)
	return j.fail(err) && ok
}

// fail records the enumeration's first error, which stops it, and
// reports whether the enumeration goes on.
func (j *join) fail(err error) bool {
	if err != nil && j.err == nil {
		j.err, j.stop = err, true
	}
	return !j.stop
}

// allHold evaluates bound multi-variable predicates over a partial or
// complete combination. Only the seeding variable carries an old image;
// :OLD references to other variables read as NULL, matching SQL
// semantics for rows that were not updated.
func allHold(preds []expr.Node, env *expr.MultiEnv) (bool, error) {
	for _, p := range preds {
		if res, err := expr.EvalPredicate(p, env); res != expr.True || err != nil {
			return false, err
		}
	}
	return true, nil
}
