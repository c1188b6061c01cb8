package metrics

import (
	"sync/atomic"
	"time"
)

// DefaultLatencyBounds are the fixed bucket upper bounds, in
// nanoseconds, used by every latency histogram unless overridden:
// roughly log-spaced from 1µs to 10s. Fixed buckets keep Observe
// allocation-free and make quantile extraction a single cumulative
// scan.
var DefaultLatencyBounds = []int64{
	int64(1 * time.Microsecond),
	int64(2500 * time.Nanosecond),
	int64(5 * time.Microsecond),
	int64(10 * time.Microsecond),
	int64(25 * time.Microsecond),
	int64(50 * time.Microsecond),
	int64(100 * time.Microsecond),
	int64(250 * time.Microsecond),
	int64(500 * time.Microsecond),
	int64(1 * time.Millisecond),
	int64(2500 * time.Microsecond),
	int64(5 * time.Millisecond),
	int64(10 * time.Millisecond),
	int64(25 * time.Millisecond),
	int64(50 * time.Millisecond),
	int64(100 * time.Millisecond),
	int64(250 * time.Millisecond),
	int64(500 * time.Millisecond),
	int64(1 * time.Second),
	int64(2500 * time.Millisecond),
	int64(5 * time.Second),
	int64(10 * time.Second),
}

// Exemplar links one histogram bucket to a concrete recent
// observation: the trace sequence number that produced it, the
// observed value, and when it landed. A p999 bucket in /statusz is an
// abstract count; its exemplar is a trace you can actually open.
type Exemplar struct {
	Seq     uint64        `json:"seq"`
	Value   time.Duration `json:"value_ns"`
	At      int64         `json:"at_unix_ns"`
	UpperNs int64         `json:"bucket_upper_ns"` // bucket edge; 0 for +Inf
}

// exemplarCell is one bucket's lock-free exemplar slot. Fields are
// written independently (three atomic stores), so a reader racing a
// writer may see fields from two different observations — each field
// is still a real recent observation in this bucket, which is all a
// debugging pointer needs. A seqlock would buy exactness the use case
// does not require at the price of hot-path fencing.
type exemplarCell struct {
	seq atomic.Uint64
	ns  atomic.Int64
	at  atomic.Int64
}

// Histogram is a fixed-bucket latency histogram. Observations are
// durations in nanoseconds; buckets hold counts of observations at or
// below each upper bound, with one implicit overflow bucket (+Inf).
// Observe is lock-free: one atomic add for the bucket, one for the
// running sum, one for the count.
type Histogram struct {
	bounds  []int64 // sorted upper bounds, ns
	buckets []atomic.Int64
	sum     atomic.Int64
	count   atomic.Int64
	// exemplars holds one recent traced observation per bucket
	// (including +Inf), populated only by ObserveEx so plain Observe
	// stays three atomic adds.
	exemplars []exemplarCell
}

// NewHistogram builds a histogram with the given sorted upper bounds in
// nanoseconds (nil or empty takes DefaultLatencyBounds).
func NewHistogram(bounds []int64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBounds
	}
	return &Histogram{
		bounds:    bounds,
		buckets:   make([]atomic.Int64, len(bounds)+1), // +1 = +Inf overflow
		exemplars: make([]exemplarCell, len(bounds)+1),
	}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.buckets[h.bucketOf(ns)].Add(1)
	h.sum.Add(ns)
	h.count.Add(1)
}

// ObserveEx records one duration and stamps the landing bucket's
// exemplar with the trace sequence number that produced it. Seq 0
// (an untraced observation) degrades to a plain Observe.
func (h *Histogram) ObserveEx(d time.Duration, seq uint64) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	b := h.bucketOf(ns)
	h.buckets[b].Add(1)
	h.sum.Add(ns)
	h.count.Add(1)
	if seq != 0 {
		ex := &h.exemplars[b]
		ex.seq.Store(seq)
		ex.ns.Store(ns)
		ex.at.Store(time.Now().UnixNano())
	}
}

// exemplarAt reads one bucket's exemplar; ok is false when the bucket
// never received a traced observation.
func (h *Histogram) exemplarAt(b int) (Exemplar, bool) {
	ex := &h.exemplars[b]
	seq := ex.seq.Load()
	if seq == 0 {
		return Exemplar{}, false
	}
	e := Exemplar{Seq: seq, Value: time.Duration(ex.ns.Load()), At: ex.at.Load()}
	if b < len(h.bounds) {
		e.UpperNs = h.bounds[b]
	}
	return e, true
}

// Exemplars returns every populated bucket exemplar, lowest bucket
// first.
func (h *Histogram) Exemplars() []Exemplar {
	var out []Exemplar
	for b := range h.exemplars {
		if e, ok := h.exemplarAt(b); ok {
			out = append(out, e)
		}
	}
	return out
}

// CountAtOrBelow reports how many observations landed in buckets whose
// upper bound is <= d — the "good" count for a latency SLO with
// threshold d. The bucket edge rounds the threshold down, so the count
// is conservative: an observation is only counted good when its whole
// bucket is provably under the threshold.
func (h *Histogram) CountAtOrBelow(d time.Duration) int64 {
	ns := int64(d)
	var good int64
	for i, bound := range h.bounds {
		if bound > ns {
			break
		}
		good += h.buckets[i].Load()
	}
	return good
}

// bucketOf binary-searches the bucket index whose upper bound is the
// first >= ns; len(bounds) is the overflow bucket.
func (h *Histogram) bucketOf(ns int64) int {
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if ns <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Count reports the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum reports the total of all observations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// snapshot copies the bucket counts (cumulative form) and the total.
func (h *Histogram) snapshot() (cum []int64, total int64) {
	cum = make([]int64, len(h.buckets))
	var running int64
	for i := range h.buckets {
		running += h.buckets[i].Load()
		cum[i] = running
	}
	return cum, running
}

// Quantile returns an upper bound on the q-quantile (q in [0,1]) of the
// observed samples: the upper edge of the first bucket whose cumulative
// count reaches q·total. Observations in the overflow bucket report the
// largest finite bound. ok is false when the histogram is empty.
func (h *Histogram) Quantile(q float64) (d time.Duration, ok bool) {
	_, hi, ok := h.QuantileBounds(q)
	return hi, ok
}

// QuantileBounds brackets the true q-quantile of the observed samples:
// the quantile lies within [lo, hi], where hi is the selected bucket's
// upper edge and lo is the previous bucket's. For the overflow bucket,
// hi is the largest finite bound (an under-estimate; the histogram
// cannot do better, which is why the top bound is 10s).
func (h *Histogram) QuantileBounds(q float64) (lo, hi time.Duration, ok bool) {
	cum, total := h.snapshot()
	if total == 0 {
		return 0, 0, false
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// rank is the 1-based index of the order statistic at quantile q.
	rank := int64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	for i, c := range cum {
		if c >= rank {
			if i > 0 {
				lo = time.Duration(h.bounds[i-1])
			}
			if i < len(h.bounds) {
				hi = time.Duration(h.bounds[i])
			} else {
				hi = time.Duration(h.bounds[len(h.bounds)-1])
			}
			return lo, hi, true
		}
	}
	// Unreachable: the overflow bucket's cumulative count equals total.
	last := time.Duration(h.bounds[len(h.bounds)-1])
	return last, last, true
}
