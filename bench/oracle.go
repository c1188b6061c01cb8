package main

import "sort"

// The harness's reference implementations. They share no code with the
// system: the single-variable matcher is a plain hash-and-sorted-list
// model of the harness's own copy of the trigger population, and the
// join/aggregate oracle recomputes from the harness's own base tables
// by nested loops.

// Shapes of single-variable reference triggers. A tuple is seen as four
// int32 fields (strings are indices into the workload's string tables).
const (
	refAll    uint8 = iota // no condition, fires on insert and update
	refAllDel              // no condition, fires on delete
	refEq                  // field[a] = c
	refEqGT                // field[a] = c and field[b] > d
	refEqLT                // field[a] = c and field[b] < d
	refEqEq                // field[a] = c and field[b] = d
	refGT                  // field[a] > c
	refLT                  // field[a] < c
	refGE                  // field[a] >= c
)

// refTrigger is the harness's own description of one single-variable
// trigger: enough to decide a match, nothing of the system's.
type refTrigger struct {
	id    int32 // caller's handle (position in the population)
	shape uint8
	a, b  uint8
	c, d  int32
}

// rest decides the second conjunct of an equality-led trigger whose
// first conjunct is already known to hold.
func (t refTrigger) rest(f [4]int32) bool {
	switch t.shape {
	case refEqGT:
		return f[t.b] > t.d
	case refEqLT:
		return f[t.b] < t.d
	case refEqEq:
		return f[t.b] == t.d
	}
	return true
}

type fieldConst struct {
	field uint8
	c     int32
}

// refMatcher answers "which triggers of this source fire on this
// tuple". Equality-led triggers hang off a (field, constant) map; range
// triggers sit in per-field lists sorted by threshold so that a count is
// a binary search; the unconditional ones are two short lists.
type refMatcher struct {
	eq       map[fieldConst][]refTrigger
	gt, lt   [4][]refTrigger // gt: ascending c, holds refGT and refGE (as c-1)
	all, del []refTrigger
	sorted   bool
}

func newRefMatcher() *refMatcher {
	return &refMatcher{eq: make(map[fieldConst][]refTrigger)}
}

func (m *refMatcher) add(t refTrigger) {
	switch t.shape {
	case refAll:
		m.all = append(m.all, t)
	case refAllDel:
		m.del = append(m.del, t)
	case refGT:
		m.gt[t.a] = append(m.gt[t.a], t)
		m.sorted = false
	case refGE: // f >= c is f > c-1 over integers
		t.c--
		m.gt[t.a] = append(m.gt[t.a], t)
		m.sorted = false
	case refLT:
		m.lt[t.a] = append(m.lt[t.a], t)
		m.sorted = false
	default:
		k := fieldConst{t.a, t.c}
		m.eq[k] = append(m.eq[k], t)
	}
}

func (m *refMatcher) sortRanges() {
	for a := range m.gt {
		sort.Slice(m.gt[a], func(i, j int) bool { return m.gt[a][i].c < m.gt[a][j].c })
		sort.Slice(m.lt[a], func(i, j int) bool { return m.lt[a][i].c < m.lt[a][j].c })
	}
	m.sorted = true
}

// match counts the triggers that fire on the tuple (del: a delete
// token's old image) and, when fn is not nil, reports each one's id.
func (m *refMatcher) match(f [4]int32, del bool, fn func(id int32)) int {
	if !m.sorted {
		m.sortRanges()
	}
	n := 0
	emit := func(t refTrigger) {
		n++
		if fn != nil {
			fn(t.id)
		}
	}
	if del {
		for _, t := range m.del {
			emit(t)
		}
		return n
	}
	for _, t := range m.all {
		emit(t)
	}
	for a := uint8(0); a < 4; a++ {
		for _, t := range m.eq[fieldConst{a, f[a]}] {
			if t.rest(f) {
				emit(t)
			}
		}
		// gt: every threshold below f[a] fires.
		g := m.gt[a]
		k := sort.Search(len(g), func(i int) bool { return g[i].c >= f[a] })
		if fn == nil {
			n += k
		} else {
			for _, t := range g[:k] {
				emit(t)
			}
		}
		// lt: every threshold above f[a] fires.
		l := m.lt[a]
		k = sort.Search(len(l), func(i int) bool { return l[i].c > f[a] })
		if fn == nil {
			n += len(l) - k
		} else {
			for _, t := range l[k:] {
				emit(t)
			}
		}
	}
	return n
}

// --- join / aggregate oracle -------------------------------------------

// joinTrigger is the harness's copy of one three-variable trigger of the
// IrisHouseAlert shape:
//
//	from salesperson s, house h, represents r
//	when s.name = <name> and s.spno = r.spno and r.nno = h.nno and h.price >= <minPrice>
type joinTrigger struct {
	name     int32 // salesperson name index
	minPrice int32
}

// aggTrigger is the harness's copy of one aggregate trigger:
//
//	from sale group by region having count(region) > k and sum(amount) > m
type aggTrigger struct{ k, m int32 }

type houseRow struct{ hno, price, nno int32 }
type repRow struct{ spno, nno int32 }
type spRow struct{ spno, name int32 }
type saleRow struct{ region, amount int32 }

// baseTables are the harness's own copies of the four sources' current
// contents, maintained by applying the same ops it sends.
type baseTables struct {
	house map[int32]houseRow // by hno
	rep   map[int32]repRow   // by row id (the harness's handle)
	sp    map[int32]spRow    // by spno
	sale  map[int32]saleRow  // by row id
}

func newBaseTables() *baseTables {
	return &baseTables{
		house: make(map[int32]houseRow), rep: make(map[int32]repRow),
		sp: make(map[int32]spRow), sale: make(map[int32]saleRow),
	}
}

// memorySizes recomputes, from scratch, the three alpha-memory sizes of
// a join trigger in from-clause order (s, h, r): the rows of each base
// table that pass the variable's selection predicate.
func (b *baseTables) memorySizes(t joinTrigger) [3]int {
	var out [3]int
	for _, s := range b.sp {
		if s.name == t.name {
			out[0]++
		}
	}
	for _, h := range b.house {
		if h.price >= t.minPrice {
			out[1]++
		}
	}
	out[2] = len(b.rep)
	return out
}

// joinFirings recomputes by nested loops how many combinations a house
// row completes for the trigger: every (s, r) with s.name = name,
// s.spno = r.spno and r.nno = h.nno.
func (b *baseTables) joinFirings(t joinTrigger, h houseRow) int {
	if h.price < t.minPrice {
		return 0
	}
	n := 0
	for _, r := range b.rep {
		if r.nno != h.nno {
			continue
		}
		for _, s := range b.sp {
			if s.name == t.name && s.spno == r.spno {
				n++
			}
		}
	}
	return n
}

// repFirings recomputes how many combinations a represents row
// completes: every (s, h) with s.name = name, s.spno = r.spno,
// h.nno = r.nno and h.price >= minPrice.
func (b *baseTables) repFirings(t joinTrigger, r repRow) int {
	n := 0
	for _, s := range b.sp {
		if s.name != t.name || s.spno != r.spno {
			continue
		}
		for _, h := range b.house {
			if h.nno == r.nno && h.price >= t.minPrice {
				n++
			}
		}
	}
	return n
}

// groupState recomputes one region's count and sum from the sale table.
func (b *baseTables) groupState(region int32) (count int, sum int64) {
	for _, s := range b.sale {
		if s.region == region {
			count++
			sum += int64(s.amount)
		}
	}
	return count, sum
}

// groups recomputes the number of non-empty groups.
func (b *baseTables) groups() int {
	seen := make(map[int32]bool)
	for _, s := range b.sale {
		seen[s.region] = true
	}
	return len(seen)
}

func (t aggTrigger) having(count int, sum int64) bool {
	return count > int(t.k) && sum > int64(t.m)
}
