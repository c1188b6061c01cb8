// Package admission implements overload protection for the token
// pipeline: per-source token-bucket rate limits, queue-depth watermarks
// with priority-aware load shedding, and the classified ErrOverload
// contract producers see when the system refuses work.
//
// The controller sits at capture time — the entry point into the §6
// update queue. Each data source owns a token bucket (sustained rate
// plus burst) and two watermarks over its queued-token depth. At the
// soft watermark the source stops accepting batch-class work: the token
// is shed, meaning quarantined in the dead-letter table where it stays
// accounted and requeueable, never silently dropped. At the hard
// watermark (or an empty rate bucket) the source rejects everything
// with ErrOverload, which classifies as transient in the retry taxonomy
// so producers treat it as retryable backpressure. Interactive-class
// work is never shed — only rejected at the hard limit — which is what
// bounds its queueing delay under a burst.
package admission

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"triggerman/internal/retry"
)

// Class is a trigger's scheduling priority class, declared in the
// create-trigger statement and carried onto every task the trigger's
// tokens and actions spawn.
type Class uint8

const (
	// Interactive is the default class: latency-sensitive work that is
	// never shed and runs from the high-priority queues.
	Interactive Class = iota
	// Batch marks throughput work: first to shed under load, runs from
	// the low-priority queues.
	Batch
)

// String names the class.
func (c Class) String() string {
	if c == Batch {
		return "batch"
	}
	return "interactive"
}

// ParseClass recognizes a class keyword from a create-trigger flag
// list. The second result reports whether s named a class at all.
func ParseClass(s string) (Class, bool) {
	switch s {
	case "interactive":
		return Interactive, true
	case "batch":
		return Batch, true
	default:
		return Interactive, false
	}
}

// Verdict is the admission decision for one token.
type Verdict uint8

const (
	// VerdictAdmit lets the token into the pipeline.
	VerdictAdmit Verdict = iota
	// VerdictShed diverts the token to the dead-letter table (batch
	// class over the soft watermark). The producer sees success.
	VerdictShed
	// VerdictReject refuses the token with ErrOverload (hard watermark
	// or rate limit). The producer must back off and retry.
	VerdictReject
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictShed:
		return "shed"
	case VerdictReject:
		return "reject"
	default:
		return "admit"
	}
}

// State is a source's current graceful-degradation state, derived from
// its most recent admission decision.
type State uint8

const (
	// StateAdmitting: below the soft watermark, bucket has tokens.
	StateAdmitting State = iota
	// StateShedding: at or over the soft watermark; batch work is being
	// shed while interactive work still flows.
	StateShedding
	// StateRejecting: at or over the hard watermark or rate-limited;
	// everything is refused.
	StateRejecting
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateShedding:
		return "shedding"
	case StateRejecting:
		return "rejecting"
	default:
		return "admitting"
	}
}

// ErrOverload is the sentinel producers test with errors.Is when a
// token is rejected at capture. Overload errors classify as transient:
// the condition clears as the queues drain, so retrying is correct.
var ErrOverload = errors.New("admission: source overloaded")

// OverloadError carries the rejection detail. It matches ErrOverload
// via errors.Is and classifies transient via the retry taxonomy.
type OverloadError struct {
	// SourceID is the refusing data source.
	SourceID int32
	// Reason is "depth" (hard watermark) or "rate" (empty bucket).
	Reason string
	// Depth and Limit describe the tripped bound: queued tokens vs the
	// hard watermark for depth rejections, or the configured rate (as
	// tokens/sec) for rate rejections.
	Depth, Limit int
}

// Error implements error.
func (e *OverloadError) Error() string {
	return fmt.Sprintf("admission: source %d overloaded (%s: %d >= %d)",
		e.SourceID, e.Reason, e.Depth, e.Limit)
}

// Is matches the ErrOverload sentinel.
func (e *OverloadError) Is(target error) bool { return target == ErrOverload }

// overload builds the classified error for one rejection.
func overload(src int32, reason string, depth, limit int) error {
	return retry.Transient(&OverloadError{SourceID: src, Reason: reason, Depth: depth, Limit: limit})
}

// Config bounds one source's admission. The zero value disables every
// limit (all tokens admitted); each field is independent so depth
// watermarks work without rate limits and vice versa.
type Config struct {
	// SoftDepth is the queued-token watermark at which batch-class work
	// is shed. 0 disables shedding.
	SoftDepth int
	// HardDepth is the watermark at which every token is rejected with
	// ErrOverload. 0 disables hard rejection.
	HardDepth int
	// Rate is the sustained admission rate in tokens/second per source.
	// 0 disables rate limiting.
	Rate float64
	// Burst is the token-bucket capacity; defaults to max(Rate, 1) when
	// a rate is set, letting short bursts through at full speed.
	Burst int
}

// withDefaults fills derived fields.
func (c Config) withDefaults() Config {
	if c.Rate > 0 && c.Burst <= 0 {
		c.Burst = int(c.Rate)
		if c.Burst < 1 {
			c.Burst = 1
		}
	}
	return c
}

// sourceState is one source's bucket, counters, and last state.
type sourceState struct {
	mu     sync.Mutex
	tokens float64   // current bucket fill
	last   time.Time // last refill instant
	state  State

	admitted    atomic.Int64
	shed        atomic.Int64
	rejected    atomic.Int64
	rateLimited atomic.Int64 // subset of rejected caused by the bucket
}

// SourceLoad is one source's row in a Snapshot (the /loadz payload and
// the metrics gauges read this).
type SourceLoad struct {
	SourceID    int32
	Class       Class
	State       State
	Depth       int
	Admitted    int64
	Shed        int64
	Rejected    int64
	RateLimited int64
}

// Controller applies one Config uniformly across data sources, keeping
// per-source buckets, counters, and degradation state.
type Controller struct {
	cfg   Config
	depth func(src int32) int // queued-token depth signal (datasource.Queue.SourceDepth)

	// OnTransition, when set, observes graceful-degradation state
	// changes (admitting → shedding → rejecting and back). It is called
	// outside the controller's locks.
	OnTransition func(src int32, from, to State)

	// now is the clock (replaced in tests).
	now func() time.Time

	mu   sync.RWMutex
	srcs map[int32]*sourceState

	admitTotal  atomic.Int64
	shedTotal   atomic.Int64
	rejectTotal atomic.Int64
}

// New builds a controller over a depth signal. depth may be nil when no
// watermarks are configured.
func New(cfg Config, depth func(src int32) int) *Controller {
	if depth == nil {
		depth = func(int32) int { return 0 }
	}
	return &Controller{
		cfg:   cfg.withDefaults(),
		depth: depth,
		now:   time.Now,
		srcs:  make(map[int32]*sourceState),
	}
}

// Config returns the controller's (default-filled) configuration.
func (c *Controller) Config() Config { return c.cfg }

// source returns (creating on first sight) one source's state.
func (c *Controller) source(src int32) *sourceState {
	c.mu.RLock()
	st := c.srcs[src]
	c.mu.RUnlock()
	if st != nil {
		return st
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if st = c.srcs[src]; st == nil {
		st = &sourceState{tokens: float64(c.cfg.Burst), last: c.now()}
		c.srcs[src] = st
	}
	return st
}

// Admit decides one token's fate. The error is non-nil exactly when the
// verdict is VerdictReject; it matches ErrOverload and classifies
// transient. The caller is responsible for acting on a shed verdict
// (dead-lettering the token) — the controller only counts it.
func (c *Controller) Admit(src int32, class Class) (Verdict, error) {
	st := c.source(src)
	depth := c.depth(src)

	verdict := VerdictAdmit
	var err error
	rateHit := false
	if c.cfg.HardDepth > 0 && depth >= c.cfg.HardDepth {
		verdict, err = VerdictReject, overload(src, "depth", depth, c.cfg.HardDepth)
	} else if c.cfg.Rate > 0 && !c.take(st) {
		verdict, err = VerdictReject, overload(src, "rate", depth, int(c.cfg.Rate))
		rateHit = true
	} else if c.cfg.SoftDepth > 0 && depth >= c.cfg.SoftDepth && class == Batch {
		verdict = VerdictShed
	}

	var next State
	switch verdict {
	case VerdictReject:
		st.rejected.Add(1)
		c.rejectTotal.Add(1)
		if rateHit {
			st.rateLimited.Add(1)
		}
		next = StateRejecting
	case VerdictShed:
		st.shed.Add(1)
		c.shedTotal.Add(1)
		next = StateShedding
	default:
		st.admitted.Add(1)
		c.admitTotal.Add(1)
		next = StateAdmitting
		// An admitted interactive token over the soft watermark still
		// means the source is degraded: batch work would have shed.
		if c.cfg.SoftDepth > 0 && depth >= c.cfg.SoftDepth {
			next = StateShedding
		}
	}

	st.mu.Lock()
	prev := st.state
	st.state = next
	st.mu.Unlock()
	if prev != next && c.OnTransition != nil {
		c.OnTransition(src, prev, next)
	}
	return verdict, err
}

// take refills and drains one bucket token; false means rate-limited.
func (c *Controller) take(st *sourceState) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	now := c.now()
	st.tokens += now.Sub(st.last).Seconds() * c.cfg.Rate
	st.last = now
	if max := float64(c.cfg.Burst); st.tokens > max {
		st.tokens = max
	}
	if st.tokens < 1 {
		return false
	}
	st.tokens--
	return true
}

// Totals reports the controller-wide verdict counters.
func (c *Controller) Totals() (admitted, shed, rejected int64) {
	return c.admitTotal.Load(), c.shedTotal.Load(), c.rejectTotal.Load()
}

// Snapshot lists every source the controller has seen, sorted by
// source ID, with live depth readings. classOf resolves each source's
// current class (nil means all interactive).
func (c *Controller) Snapshot(classOf func(int32) Class) []SourceLoad {
	if classOf == nil {
		classOf = func(int32) Class { return Interactive }
	}
	c.mu.RLock()
	ids := make([]int32, 0, len(c.srcs))
	for id := range c.srcs {
		ids = append(ids, id)
	}
	c.mu.RUnlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]SourceLoad, 0, len(ids))
	for _, id := range ids {
		st := c.source(id)
		st.mu.Lock()
		state := st.state
		st.mu.Unlock()
		out = append(out, SourceLoad{
			SourceID:    id,
			Class:       classOf(id),
			State:       state,
			Depth:       c.depth(id),
			Admitted:    st.admitted.Load(),
			Shed:        st.shed.Load(),
			Rejected:    st.rejected.Load(),
			RateLimited: st.rateLimited.Load(),
		})
	}
	return out
}
