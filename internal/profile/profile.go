// Package profile implements per-trigger cost attribution: a
// cardinality-bounded space-saving top-K sketch that charges match
// probes, matches, rule-action wall time, action failures/retries, and
// trigger-cache traffic to individual trigger IDs without holding
// per-entity state for every trigger in the catalog. (Signatures are
// few by design, so the predicate index keeps exact per-signature
// counters itself; the sketch is for the unbounded trigger dimension.)
//
// The paper's scalability argument (§5) collapses millions of triggers
// into few expression signatures, so exact per-trigger counters would
// reintroduce the O(#triggers) memory the predicate index removed. The
// sketch keeps a fixed number of tracked entities and applies the
// space-saving replacement rule (Metwally et al.; "Threshold Queries in
// Theory and in the Wild" motivates the same shape): when a new key
// arrives and the structure is full, the minimum-weight entry is
// replaced and its weight inherited as the newcomer's error bound.
// Heavy entities are therefore guaranteed to be tracked once their
// update count exceeds the minimum, which is all top-K queries need.
//
// Layout: the sketch is an array of set-associative buckets (the
// shards), each holding `ways` entries with the keys packed into one
// cache line. A key hashes to exactly one bucket; lookups scan at most
// `ways` keys with atomic loads and update counters with atomic adds —
// no locks on the match hot path. Admission of a new key takes the
// bucket's mutex and runs the space-saving replacement within the
// bucket; when the bucket is full, replacement is sampled (see
// admissionSample) so uniform cold traffic cannot turn every probe
// into a mutex acquisition. Replacement under concurrent updates can
// misattribute a handful of in-flight updates to the new occupant; the
// Err field bounds the resulting estimate error exactly as in the
// classic algorithm, and sampling only delays a heavy hitter's
// admission, never perturbs tracked counts.
package profile

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Metric enumerates the quantities attributed to each entity.
type Metric uint8

const (
	// Probes counts candidate refs delivered by the predicate index
	// (constant matched; rest-of-predicate not yet tested).
	Probes Metric = iota
	// Matches counts refs whose whole selection predicate passed.
	Matches
	// ActionNanos accumulates rule-action wall time in nanoseconds.
	ActionNanos
	// ActionRuns counts rule-action executions started.
	ActionRuns
	// Failures counts firings quarantined to the dead-letter table.
	Failures
	// Retries counts action retry attempts beyond the first.
	Retries
	// CacheHits counts trigger-cache pin hits.
	CacheHits
	// CacheMisses counts trigger-cache pin misses (catalog loads).
	CacheMisses

	numMetrics
)

// NumMetrics is the number of attributed quantities.
const NumMetrics = int(numMetrics)

// ways is the set-associativity of each bucket: a key can live in one
// of `ways` cells, so lookups are at most `ways` atomic loads.
const ways = 8

// Entry is a snapshot of one tracked entity.
type Entry struct {
	Key    uint64
	Counts [NumMetrics]int64
	// Weight is the space-saving rank: the number of updates charged to
	// the key, including any inherited from replaced predecessors.
	Weight int64
	// Err bounds the over-estimate of Weight (the weight inherited when
	// the key was admitted by replacement; 0 = exact).
	Err int64
}

// Selectivity is the entry's probe→match rate (0 when never probed).
func (e Entry) Selectivity() float64 {
	if e.Counts[Probes] == 0 {
		return 0
	}
	return float64(e.Counts[Matches]) / float64(e.Counts[Probes])
}

// cell holds one tracked key's attribution state. Err is written only
// under the bucket mutex during admission.
type cell struct {
	weight atomic.Int64
	err    atomic.Int64
	counts [numMetrics]atomic.Int64
}

// bucket packs its keys into a contiguous array — one 64-byte cache
// line for ways=8 — so the common "is this key tracked?" scan touches
// a single line instead of striding across every cell.
type bucket struct {
	mu     sync.Mutex   // serializes admissions and replacements
	misses atomic.Int64 // full-bucket misses, drives sampled replacement
	keys   [ways]atomic.Uint64
	cells  [ways]cell
}

// admissionSample rate-limits space-saving replacements when a bucket
// is full: only every admissionSample-th full-bucket miss runs the
// replacement (the first miss of each cycle, so an isolated newcomer
// still lands immediately). Uniform cold traffic — the replacement-path
// worst case — then pays the mutex on 1/8 of misses instead of all of
// them, keeping the match hot path cheap. The cost is a bounded
// under-count: updates for an untracked key between its admission
// opportunities are dropped, which only delays a heavy hitter's
// admission by O(admissionSample) bucket misses and never perturbs
// already-tracked keys. Admission into an *empty* cell is never
// sampled, so sketches running under capacity stay exact.
const admissionSample = 8

// Sketch is a bounded space-saving top-K structure keyed by uint64
// entity IDs. The zero key is reserved as the empty sentinel; trigger
// and signature IDs both start at 1.
type Sketch struct {
	buckets   []bucket
	mask      uint64
	evictions atomic.Int64
}

// NewSketch builds a sketch tracking at least capacity entities
// (rounded up to a power-of-two bucket count times the associativity).
func NewSketch(capacity int) *Sketch {
	if capacity < ways {
		capacity = ways
	}
	n := 1
	for n*ways < capacity {
		n <<= 1
	}
	return &Sketch{buckets: make([]bucket, n), mask: uint64(n - 1)}
}

// Capacity reports the number of entities the sketch can track.
func (s *Sketch) Capacity() int { return len(s.buckets) * ways }

// mix is the 64-bit murmur3 finalizer — cheap, well-distributed.
func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Add charges delta of metric m to key. Keys already tracked pay two
// atomic adds after at most `ways` atomic loads from one cache line;
// new keys take the bucket mutex for (possibly sampled) admission.
func (s *Sketch) Add(key uint64, m Metric, delta int64) {
	if key == 0 {
		return
	}
	b := &s.buckets[mix(key)&s.mask]
	for i := range b.keys {
		if b.keys[i].Load() == key {
			c := &b.cells[i]
			c.counts[m].Add(delta)
			c.weight.Add(1)
			return
		}
	}
	s.admitCell(b, key, func(c *cell) {
		c.counts[m].Add(delta)
	})
}

// Add2 charges two metrics to key with a single cell lookup — the
// match hot path charges Probes and Matches together, so folding both
// into one scan halves its sketch cost. The update counts as one event
// for the space-saving rank.
func (s *Sketch) Add2(key uint64, m1 Metric, d1 int64, m2 Metric, d2 int64) {
	if key == 0 {
		return
	}
	b := &s.buckets[mix(key)&s.mask]
	for i := range b.keys {
		if b.keys[i].Load() == key {
			c := &b.cells[i]
			c.counts[m1].Add(d1)
			c.counts[m2].Add(d2)
			c.weight.Add(1)
			return
		}
	}
	s.admitCell(b, key, func(c *cell) {
		c.counts[m1].Add(d1)
		c.counts[m2].Add(d2)
	})
}

// admitCell locates or creates key's cell and applies charge to it.
// charge always runs against zeroed (or already-live) counts, so it
// adds unconditionally. Full-bucket replacement is sampled (see
// admissionSample); sampled-out updates are dropped.
func (s *Sketch) admitCell(b *bucket, key uint64, charge func(c *cell)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	empty, min := -1, -1
	minW := int64(1<<63 - 1)
	for i := range b.keys {
		k := b.keys[i].Load()
		if k == key {
			// Admitted by a concurrent caller while we waited.
			c := &b.cells[i]
			charge(c)
			c.weight.Add(1)
			return
		}
		if k == 0 {
			if empty < 0 {
				empty = i
			}
			continue
		}
		if w := b.cells[i].weight.Load(); w < minW {
			minW, min = w, i
		}
	}
	if empty >= 0 {
		c := &b.cells[empty]
		charge(c)
		c.err.Store(0)
		c.weight.Store(1)
		b.keys[empty].Store(key) // publish last
		return
	}
	if b.misses.Add(1)%admissionSample != 1 {
		// Sampled out: drop this update rather than churn the bucket.
		return
	}
	// Space-saving replacement: the newcomer inherits the victim's
	// weight as its rank and error bound; per-metric counts restart (an
	// under-estimate for re-admitted keys, bounded by Err).
	s.evictions.Add(1)
	c := &b.cells[min]
	b.keys[min].Store(key)
	for i := range c.counts {
		c.counts[i].Store(0)
	}
	charge(c)
	c.err.Store(minW)
	c.weight.Store(minW + 1)
}

// Get returns the tracked entry for key, if present.
func (s *Sketch) Get(key uint64) (Entry, bool) {
	if key == 0 {
		return Entry{}, false
	}
	b := &s.buckets[mix(key)&s.mask]
	for i := range b.keys {
		if b.keys[i].Load() == key {
			return snapshotCell(key, &b.cells[i]), true
		}
	}
	return Entry{}, false
}

func snapshotCell(key uint64, c *cell) Entry {
	e := Entry{Key: key, Weight: c.weight.Load(), Err: c.err.Load()}
	for i := range c.counts {
		e.Counts[i] = c.counts[i].Load()
	}
	return e
}

// Entries snapshots every tracked entity, unordered.
func (s *Sketch) Entries() []Entry {
	out := make([]Entry, 0, 64)
	for bi := range s.buckets {
		b := &s.buckets[bi]
		for i := range b.keys {
			k := b.keys[i].Load()
			if k == 0 {
				continue
			}
			out = append(out, snapshotCell(k, &b.cells[i]))
		}
	}
	return out
}

// TopK returns the k tracked entities with the largest counts of
// metric m, descending (ties broken by key for determinism). Entities
// with a zero count of m are omitted.
func (s *Sketch) TopK(m Metric, k int) []Entry {
	all := s.Entries()
	sort.Slice(all, func(i, j int) bool {
		if all[i].Counts[m] != all[j].Counts[m] {
			return all[i].Counts[m] > all[j].Counts[m]
		}
		return all[i].Key < all[j].Key
	})
	out := all[:0]
	for _, e := range all {
		if e.Counts[m] == 0 {
			break
		}
		out = append(out, e)
		if len(out) == k {
			break
		}
	}
	return out[:len(out):len(out)]
}

// Len reports the number of tracked entities.
func (s *Sketch) Len() int {
	n := 0
	for bi := range s.buckets {
		b := &s.buckets[bi]
		for i := range b.keys {
			if b.keys[i].Load() != 0 {
				n++
			}
		}
	}
	return n
}

// Evictions reports how many space-saving replacements have happened;
// zero means every tracked count is exact.
func (s *Sketch) Evictions() int64 { return s.evictions.Load() }

// Profiler wraps a trigger-keyed sketch with typed attribution hooks.
// Per-signature counts need no sketch: signatures are few by design
// (the paper's whole point), so the predicate index keeps exact atomic
// counters per signature entry. All methods are safe on a nil receiver,
// so call sites need no profiling-enabled branches.
type Profiler struct {
	Triggers *Sketch
}

// DefaultCapacity tracks the paper's trigger-cache sizing spirit: room
// for every plausibly-hot entity at a few hundred bytes each.
const DefaultCapacity = 1024

// New builds a profiler tracking up to capacity triggers (<= 0 takes
// DefaultCapacity).
func New(capacity int) *Profiler {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Profiler{Triggers: NewSketch(capacity)}
}

// MatchProbe charges one candidate-ref delivery whose rest-of-predicate
// test failed. (Candidates that match are charged by MatchHit, which
// folds the probe and the match into one sketch lookup — the match path
// pays at most one lookup per candidate either way.)
func (p *Profiler) MatchProbe(triggerID uint64) {
	if p == nil {
		return
	}
	p.Triggers.Add(triggerID, Probes, 1)
}

// MatchHit charges one candidate-ref delivery that passed its whole
// selection predicate: a probe and a match in a single lookup.
func (p *Profiler) MatchHit(triggerID uint64) {
	if p == nil {
		return
	}
	p.Triggers.Add2(triggerID, Probes, 1, Matches, 1)
}

// ObserveAction charges one rule-action execution and its wall time.
func (p *Profiler) ObserveAction(triggerID uint64, d time.Duration) {
	if p == nil {
		return
	}
	p.Triggers.Add2(triggerID, ActionRuns, 1, ActionNanos, d.Nanoseconds())
}

// ActionFailure charges one quarantined firing.
func (p *Profiler) ActionFailure(triggerID uint64) {
	if p == nil {
		return
	}
	p.Triggers.Add(triggerID, Failures, 1)
}

// ActionRetries charges retry attempts beyond the first.
func (p *Profiler) ActionRetries(triggerID uint64, attempts int) {
	if p == nil || attempts <= 1 {
		return
	}
	p.Triggers.Add(triggerID, Retries, int64(attempts-1))
}

// CacheHit charges one trigger-cache pin hit.
func (p *Profiler) CacheHit(triggerID uint64) {
	if p == nil {
		return
	}
	p.Triggers.Add(triggerID, CacheHits, 1)
}

// CacheMiss charges one trigger-cache pin miss.
func (p *Profiler) CacheMiss(triggerID uint64) {
	if p == nil {
		return
	}
	p.Triggers.Add(triggerID, CacheMisses, 1)
}

// TriggerEntry returns the tracked entry for a trigger ID.
func (p *Profiler) TriggerEntry(id uint64) (Entry, bool) {
	if p == nil {
		return Entry{}, false
	}
	return p.Triggers.Get(id)
}
