// Package trace stamps update descriptors as they move through the
// token lifecycle — capture into the (persistent) queue, dequeue by a
// driver, predicate-index match, join/A-TREAT propagation, rule-action
// execution, event delivery — recording per-stage durations into the
// metrics registry and keeping a bounded ring of recent complete traces
// so slow tokens can be debugged from a running system.
//
// A Span is live from Begin until its last reference is Finished; stage
// recording is lock-free (atomic adds into a fixed per-stage array) so
// partitioned condition testing and concurrent rule-action tasks can
// stamp the same span safely. Spans cross the queue boundary keyed by
// the token's sequence number: the capture side registers the span
// under the seq the queue assigned, and the driver side looks it up
// after dequeue.
package trace

import (
	"sync"
	"sync/atomic"
	"time"

	"triggerman/internal/metrics"
)

// Stage enumerates the token lifecycle stages.
type Stage uint8

const (
	// StageCapture is apply-entry → token durably enqueued (includes
	// the persistent queue write).
	StageCapture Stage = iota
	// StageDequeue is enqueued → dequeued by a driver: the token's
	// queue-wait. It is pure residence time — the work between capture
	// and dequeue is the queue, nothing else — so a trace whose dequeue
	// stage dominates was delayed by backlog, not by slow processing.
	// Record.QueueWaitNs is derived from it.
	StageDequeue
	// StageTaskWait is time a per-token task (a SourceFIFO serial
	// dispatch, a condition partition, a spawned rule action) sat in
	// the driver pool's run queue between submit and first run —
	// scheduler wait, distinct from the token queue's StageDequeue.
	StageTaskWait
	// StageMatch is the predicate-index probes (§5.4's match pass): one
	// per image of the token, matches buffered and nothing else. A token
	// fanned out over partitions observes it once per step that probes.
	StageMatch
	// StagePropagate is routing the buffered matches to the state they
	// name: alpha-memory maintenance plus incremental aggregate upkeep.
	// For Gator triggers it includes in-network firing, which happens at
	// propagation time. Observed once on every traced token, near zero
	// when the source feeds no network or aggregate.
	StagePropagate
	// StageAction is rule-action execution (one observation per
	// firing, retries included).
	StageAction
	// StageDeliver is event-bus publication within a raise event
	// action.
	StageDeliver
	// StageForward is the cross-node forward hop: the origin node's
	// synchronous wire call shipping a non-owned token to its owner.
	// It is recorded origin-side as a synthesized record (the token's
	// local lifecycle ends at the forward); the owner's stages continue
	// under the same propagated trace id.
	StageForward
	numStages
)

// String names the stage.
func (s Stage) String() string {
	switch s {
	case StageCapture:
		return "capture"
	case StageDequeue:
		return "dequeue"
	case StageTaskWait:
		return "taskwait"
	case StageMatch:
		return "match"
	case StagePropagate:
		return "propagate"
	case StageAction:
		return "action"
	case StageDeliver:
		return "deliver"
	case StageForward:
		return "forward"
	default:
		return "unknown"
	}
}

// Stages lists every lifecycle stage in pipeline order.
func Stages() []Stage {
	out := make([]Stage, numStages)
	for i := range out {
		out[i] = Stage(i)
	}
	return out
}

// stageCell is one span's per-stage accumulator.
type stageCell struct {
	count atomic.Int64
	total atomic.Int64 // ns
}

// Span is one traced token's in-flight state.
type Span struct {
	tracer *Tracer
	seq    uint64
	source int32
	op     string
	class  string
	// parent is the wire-propagated trace id for a token that began
	// life in a client application (0 for locally originated tokens).
	parent uint64
	start  time.Time
	// lastEvent is the previous sequential stamp (ns offset from
	// start), used by Mark to compute capture/dequeue durations.
	lastEvent atomic.Int64
	refs      atomic.Int32
	stages    [numStages]stageCell
}

// Mark records the sequential stage ending now: its duration is the
// time since the previous Mark (or Begin). Used for capture and
// dequeue, which bracket the queue boundary. Nil-safe.
func (sp *Span) Mark(st Stage) {
	if sp == nil {
		return
	}
	now := int64(time.Since(sp.start))
	prev := sp.lastEvent.Swap(now)
	sp.observe(st, time.Duration(now-prev))
}

// Observe records an explicitly timed stage duration. Nil-safe.
func (sp *Span) Observe(st Stage, d time.Duration) {
	if sp == nil {
		return
	}
	sp.observe(st, d)
}

func (sp *Span) observe(st Stage, d time.Duration) {
	if d < 0 {
		d = 0
	}
	sp.stages[st].count.Add(1)
	sp.stages[st].total.Add(int64(d))
	if h := sp.tracer.stageHists[st]; h != nil {
		h.Observe(d)
	}
}

// Retain adds a reference for a concurrent consumer (a partition task
// holding the span). Nil-safe.
func (sp *Span) Retain() {
	if sp == nil {
		return
	}
	sp.refs.Add(1)
}

// Finish releases one reference; when the last drops, the span is
// completed into the tracer's ring. Nil-safe.
func (sp *Span) Finish() {
	if sp == nil {
		return
	}
	if sp.refs.Add(-1) == 0 {
		sp.tracer.complete(sp)
	}
}

// StageStat summarizes one stage of a completed trace.
type StageStat struct {
	Stage string        `json:"stage"`
	Count int64         `json:"count"`
	Total time.Duration `json:"total_ns"`
}

// Record is one completed token trace, JSON-friendly for /statusz.
type Record struct {
	Seq    uint64    `json:"seq"`
	Source int32     `json:"source"`
	Op     string    `json:"op"`
	Class  string    `json:"class,omitempty"`
	Start  time.Time `json:"start"`
	// TraceParent is the wire-propagated context for a client-
	// originated token (empty otherwise): the same id the client put
	// on its push request, so one trace crosses the wire boundary.
	TraceParent string        `json:"traceparent,omitempty"`
	Total       time.Duration `json:"total_ns"`
	// QueueWaitNs and ServiceNs decompose Total: wait is time spent
	// sitting in queues (token queue residence + driver-pool run-queue
	// wait), service is everything else (capture, match, propagate,
	// action, deliver). A slow trace whose wait dominates was a backlog
	// victim; one whose service dominates was itself expensive.
	QueueWaitNs int64       `json:"queue_wait_ns"`
	ServiceNs   int64       `json:"service_ns"`
	Stages      []StageStat `json:"stages"`
}

// Config tunes a Tracer.
type Config struct {
	// Registry receives per-stage and end-to-end duration histograms;
	// nil disables registry recording (traces still complete).
	Registry *metrics.Registry
	// SampleEvery traces every Nth token; 0 or 1 traces all, negative
	// disables tracing entirely.
	SampleEvery int
	// RingSize bounds the completed-trace ring (default 64).
	RingSize int
	// MaxActive bounds in-flight spans: tokens captured while the
	// table is full are simply not traced (counted in Dropped). This
	// keeps a stuck queue from pinning unbounded trace state.
	// Default 1024.
	MaxActive int
	// StaleAfter bounds how long an unfinished span may sit in the
	// active table once it is full: when Begin finds the table at
	// MaxActive, spans older than this are swept out to make room. A
	// span can be orphaned when its token is dequeued by a concurrent
	// driver in the instant between enqueue and Attach — rare, but
	// without the sweep each occurrence would pin a slot forever.
	// Default 1 minute.
	StaleAfter time.Duration
	// ClassOf, when set, labels each span with its source's priority
	// class ("interactive"/"batch"), and end-to-end durations are
	// additionally recorded into per-class histograms
	// (tman_token_duration_seconds{class=...}) — the series the SLO
	// engine evaluates objectives against.
	ClassOf func(source int32) string
}

// Tracer samples tokens and tracks their spans across the queue
// boundary.
type Tracer struct {
	cfg        Config
	stageHists [numStages]*metrics.Histogram
	totalHist  *metrics.Histogram
	started    *metrics.Counter

	// droppedN and sweptN are kept as plain atomics (not registry
	// counters) so /statusz can report them with or without a registry;
	// the registry exports them as callback views.
	droppedN atomic.Int64
	sweptN   atomic.Int64

	tick atomic.Uint64 // sampling clock

	mu      sync.Mutex
	active  map[uint64]*Span
	nActive atomic.Int32 // fast-path skip when nothing is traced

	// classHists interns per-class end-to-end histograms lazily (the
	// class vocabulary is tiny: interactive, batch). Guarded by mu —
	// only complete() and ClassHistogram touch it, never the stamp
	// hot path.
	classHists map[string]*metrics.Histogram

	ring  []Record
	next  int
	count int
}

// New builds a tracer.
func New(cfg Config) *Tracer {
	if cfg.RingSize <= 0 {
		cfg.RingSize = 64
	}
	if cfg.MaxActive <= 0 {
		cfg.MaxActive = 1024
	}
	if cfg.StaleAfter <= 0 {
		cfg.StaleAfter = time.Minute
	}
	if cfg.SampleEvery == 0 {
		cfg.SampleEvery = 1
	}
	t := &Tracer{
		cfg:        cfg,
		active:     make(map[uint64]*Span),
		classHists: make(map[string]*metrics.Histogram),
		ring:       make([]Record, cfg.RingSize),
	}
	if reg := cfg.Registry; reg != nil {
		for _, st := range Stages() {
			t.stageHists[st] = reg.Histogram("tman_stage_duration_seconds",
				"token lifecycle stage durations", nil, metrics.L("stage", st.String()))
		}
		t.totalHist = reg.Histogram("tman_token_duration_seconds",
			"end-to-end token processing time, capture to completion", nil)
		t.started = reg.Counter("tman_traces_started_total", "tokens sampled for tracing")
		reg.CounterFunc("tman_traces_dropped_total",
			"tokens not traced because the active-span table was full",
			t.droppedN.Load)
		reg.CounterFunc("tman_traces_swept_total",
			"orphaned spans evicted from the full active-span table",
			t.sweptN.Load)
	}
	return t
}

// Begin starts a span for a token about to be captured, or returns nil
// when the token is not sampled. The caller must Attach the span once
// the queue has assigned the token's sequence number.
func (t *Tracer) Begin(source int32, op string) *Span {
	if t == nil || t.cfg.SampleEvery <= 0 {
		return nil
	}
	if n := t.tick.Add(1); int(n%uint64(t.cfg.SampleEvery)) != 0 {
		return nil
	}
	if int(t.nActive.Load()) >= t.cfg.MaxActive {
		if t.sweepStale() == 0 {
			t.droppedN.Add(1)
			return nil
		}
	}
	sp := t.newSpan(source, op)
	return sp
}

// BeginRemote starts a span for a token that arrived over the wire
// carrying a trace context. A sampled parent forces tracing — the
// client paid for the header, the server honors it regardless of
// SampleEvery (though fully-disabled tracing still wins). An unsampled
// or absent parent (id 0) falls back to Begin's normal sampling.
func (t *Tracer) BeginRemote(source int32, op string, parent uint64, flags byte) *Span {
	if parent == 0 || flags&FlagSampled == 0 {
		return t.Begin(source, op)
	}
	if t == nil || t.cfg.SampleEvery <= 0 {
		return nil
	}
	if int(t.nActive.Load()) >= t.cfg.MaxActive {
		if t.sweepStale() == 0 {
			t.droppedN.Add(1)
			return nil
		}
	}
	sp := t.newSpan(source, op)
	sp.parent = parent
	return sp
}

func (t *Tracer) newSpan(source int32, op string) *Span {
	sp := &Span{tracer: t, source: source, op: op, start: time.Now()}
	if fn := t.cfg.ClassOf; fn != nil {
		sp.class = fn(source)
	}
	sp.refs.Store(1)
	if t.started != nil {
		t.started.Inc()
	}
	return sp
}

// Attach registers the span under the sequence number the queue
// assigned, making it discoverable by the dequeue side. Nil-safe.
func (t *Tracer) Attach(seq uint64, sp *Span) {
	if t == nil || sp == nil {
		return
	}
	sp.seq = seq
	t.mu.Lock()
	if _, dup := t.active[seq]; !dup {
		t.active[seq] = sp
		t.nActive.Add(1)
	}
	t.mu.Unlock()
}

// sweepStale evicts spans older than StaleAfter from the full active
// table, reporting how many slots it freed. Swept spans are only
// deregistered — holders that later Finish still complete them into
// the ring; orphans (never dequeued) become garbage.
func (t *Tracer) sweepStale() int {
	cutoff := time.Now().Add(-t.cfg.StaleAfter)
	freed := 0
	t.mu.Lock()
	for seq, sp := range t.active {
		if sp.start.Before(cutoff) {
			delete(t.active, seq)
			t.nActive.Add(-1)
			freed++
		}
	}
	t.mu.Unlock()
	if freed > 0 {
		t.sweptN.Add(int64(freed))
	}
	return freed
}

// Dequeued looks up the active span for a dequeued token and stamps its
// dequeue stage. Returns nil for untraced tokens. The fast path (no
// active spans) is one atomic load.
func (t *Tracer) Dequeued(seq uint64) *Span {
	if t == nil || t.nActive.Load() == 0 {
		return nil
	}
	t.mu.Lock()
	sp := t.active[seq]
	t.mu.Unlock()
	sp.Mark(StageDequeue)
	return sp
}

// complete moves a finished span into the ring.
func (t *Tracer) complete(sp *Span) {
	total := time.Since(sp.start)
	if t.totalHist != nil {
		t.totalHist.ObserveEx(total, sp.seq)
	}
	rec := Record{
		Seq:    sp.seq,
		Source: sp.source,
		Op:     sp.op,
		Class:  sp.class,
		Start:  sp.start,
		Total:  total,
	}
	if sp.parent != 0 {
		rec.TraceParent = FormatContext(sp.parent, FlagSampled)
	}
	for _, st := range Stages() {
		c := sp.stages[st].count.Load()
		if c == 0 {
			continue
		}
		ns := sp.stages[st].total.Load()
		// Queue-wait vs service decomposition: dequeue (token-queue
		// residence) and taskwait (driver-pool run-queue wait) are
		// waiting; every other stage is work.
		switch st {
		case StageDequeue, StageTaskWait:
			rec.QueueWaitNs += ns
		default:
			rec.ServiceNs += ns
		}
		rec.Stages = append(rec.Stages, StageStat{
			Stage: st.String(),
			Count: c,
			Total: time.Duration(ns),
		})
	}
	t.mu.Lock()
	if cur, ok := t.active[sp.seq]; ok && cur == sp {
		delete(t.active, sp.seq)
		t.nActive.Add(-1)
	}
	if sp.class != "" {
		if h := t.classHistLocked(sp.class); h != nil {
			h.ObserveEx(total, sp.seq)
		}
	}
	t.ring[t.next] = rec
	t.next = (t.next + 1) % len(t.ring)
	if t.count < len(t.ring) {
		t.count++
	}
	t.mu.Unlock()
}

// classHistLocked interns the per-class end-to-end histogram; caller
// holds t.mu. Returns nil without a registry.
func (t *Tracer) classHistLocked(class string) *metrics.Histogram {
	if h, ok := t.classHists[class]; ok {
		return h
	}
	if t.cfg.Registry == nil {
		return nil
	}
	h := t.cfg.Registry.Histogram("tman_token_duration_seconds",
		"end-to-end token processing time, capture to completion", nil,
		metrics.L("class", class))
	t.classHists[class] = h
	return h
}

// ClassHistogram returns the end-to-end duration histogram for a
// priority class — the series SLO objectives evaluate against. It
// interns on first use so an objective can be wired before the first
// token of its class completes. Nil when the tracer has no registry.
func (t *Tracer) ClassHistogram(class string) *metrics.Histogram {
	if t == nil || t.cfg.Registry == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.classHistLocked(class)
}

// TotalHistogram returns the aggregate end-to-end duration histogram
// (nil without a registry) — the exemplar source for /statusz.
func (t *Tracer) TotalHistogram() *metrics.Histogram {
	if t == nil {
		return nil
	}
	return t.totalHist
}

// Dropped reports tokens not traced because the active table was full.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.droppedN.Load()
}

// Swept reports orphaned spans evicted by the stale sweep.
func (t *Tracer) Swept() int64 {
	if t == nil {
		return 0
	}
	return t.sweptN.Load()
}

// RecordBySeq finds the completed trace for a sequence number in the
// ring (most recent wins). ok is false when the trace has been evicted
// or never existed — exemplars outlive the ring, so callers must
// tolerate a miss.
func (t *Tracer) RecordBySeq(seq uint64) (Record, bool) {
	if t == nil || seq == 0 {
		return Record{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := 0; i < t.count; i++ {
		idx := (t.next - 1 - i + len(t.ring)) % len(t.ring)
		if t.ring[idx].Seq == seq {
			return t.ring[idx], true
		}
	}
	return Record{}, false
}

// Recent returns the completed traces retained in the ring, oldest
// first.
func (t *Tracer) Recent() []Record {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Record, 0, t.count)
	start := (t.next - t.count + len(t.ring)) % len(t.ring)
	for i := 0; i < t.count; i++ {
		out = append(out, t.ring[(start+i)%len(t.ring)])
	}
	return out
}

// RecordForward synthesizes a completed origin-side record for a
// token forwarded to its owner node: the origin never dequeues the
// token, so without this the forward hop would vanish from the trace
// ring and a cross-node timeline would start at the owner. The record
// carries the propagated trace id as its TraceParent — the same id the
// owner's record will carry — so RecordsByParent stitches both halves
// together. No-op when tracing is disabled or the id is unsampled.
func (t *Tracer) RecordForward(source int32, op string, parent uint64, start time.Time, d time.Duration) {
	if t == nil || t.cfg.SampleEvery <= 0 || parent == 0 {
		return
	}
	if d < 0 {
		d = 0
	}
	if h := t.stageHists[StageForward]; h != nil {
		h.Observe(d)
	}
	rec := Record{
		Source:      source,
		Op:          op,
		Start:       start,
		TraceParent: FormatContext(parent, FlagSampled),
		Total:       d,
		ServiceNs:   int64(d),
		Stages:      []StageStat{{Stage: StageForward.String(), Count: 1, Total: d}},
	}
	if fn := t.cfg.ClassOf; fn != nil {
		rec.Class = fn(source)
	}
	t.mu.Lock()
	t.ring[t.next] = rec
	t.next = (t.next + 1) % len(t.ring)
	if t.count < len(t.ring) {
		t.count++
	}
	t.mu.Unlock()
}

// RecordsByParent returns every retained record carrying the given
// propagated trace id, oldest first — the node-local slice of a
// cross-node trace, served over the wire by ReqTraceFetch.
func (t *Tracer) RecordsByParent(parent uint64) []Record {
	if t == nil || parent == 0 {
		return nil
	}
	want := FormatContext(parent, FlagSampled)
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Record
	start := (t.next - t.count + len(t.ring)) % len(t.ring)
	for i := 0; i < t.count; i++ {
		rec := t.ring[(start+i)%len(t.ring)]
		if rec.TraceParent == want {
			out = append(out, rec)
		}
	}
	return out
}

// ActiveCount reports in-flight spans (tests).
func (t *Tracer) ActiveCount() int { return int(t.nActive.Load()) }

// StageQuantile reports an upper bound on the q-quantile of a stage's
// recorded durations, from the registry histogram. ok is false when
// the tracer has no registry or the stage has no observations.
func (t *Tracer) StageQuantile(st Stage, q float64) (time.Duration, bool) {
	if t == nil || st >= numStages || t.stageHists[st] == nil {
		return 0, false
	}
	return t.stageHists[st].Quantile(q)
}
