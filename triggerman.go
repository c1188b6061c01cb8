// Package triggerman is a scalable trigger processor: a Go
// reproduction of "Scalable Trigger Processing" (Hanson et al., ICDE
// 1999, the TriggerMan system). It supports very large numbers of
// triggers by interning selection predicates into expression-signature
// equivalence classes, indexing each class's constants in one of four
// organizations (main-memory list, main-memory index, database table,
// indexed database table), caching trigger descriptions in a bounded
// trigger cache, and processing tokens with token-, condition-,
// action-, and data-level concurrency.
//
// Quick start:
//
//	sys, _ := triggerman.Open(triggerman.Options{})
//	defer sys.Close()
//	emp, _ := sys.DefineTableSource("emp",
//		types.Column{Name: "name", Kind: types.KindVarchar},
//		types.Column{Name: "salary", Kind: types.KindInt})
//	sys.CreateTrigger(`create trigger bigSalary from emp
//	    when emp.salary > 100000
//	    do raise event BigSalary(emp.name, emp.salary)`)
//	sub, _ := sys.Subscribe("BigSalary", 16)
//	emp.Insert(types.Tuple{types.NewString("Ada"), types.NewInt(250000)})
//	sys.Drain()
//	fmt.Println(<-sub.C())
package triggerman

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"triggerman/internal/admission"
	"triggerman/internal/cache"
	"triggerman/internal/catalog"
	"triggerman/internal/datasource"
	"triggerman/internal/event"
	"triggerman/internal/eventlog"
	"triggerman/internal/exec"
	"triggerman/internal/metrics"
	"triggerman/internal/minisql"
	"triggerman/internal/predindex"
	"triggerman/internal/profile"
	"triggerman/internal/retry"
	"triggerman/internal/slo"
	"triggerman/internal/storage"
	"triggerman/internal/taskq"
	"triggerman/internal/trace"
	"triggerman/internal/types"
)

// QueueKind selects the update-descriptor transport (Figure 1).
type QueueKind uint8

const (
	// PersistentQueue stores tokens in a queue table so unprocessed
	// updates survive a crash (the paper's current implementation).
	PersistentQueue QueueKind = iota
	// MemoryQueue keeps tokens in main memory — faster, but "the safety
	// of persistent update queuing will be lost" (§3).
	MemoryQueue
)

// tokenBatch bounds how many tokens one process-token task dequeues and
// processes. Batching amortizes queue locking across tokens; tracing
// and cost attribution stay per-token. A Synchronous system takes one
// token per capture call.
const tokenBatch = 16

// Options configures a System. The zero value is a sensible in-memory
// deployment.
type Options struct {
	// DiskPath stores the database in a file; empty means in-memory.
	DiskPath string
	// Disk overrides the disk manager entirely (DiskPath is then
	// ignored). The fault-injection harness uses this to wrap storage
	// in an internal/faults.Disk; custom page stores plug in the same
	// way.
	Disk storage.DiskManager
	// ActionRetry overrides the retry policy for rule actions (execSQL,
	// raise event): transient failures are retried with exponential
	// backoff and jitter, then the firing is dead-lettered. Nil takes
	// the default (4 attempts, 1ms base doubling to a 50ms cap).
	// Permanent and unmarked errors — semantic faults like an unknown
	// column — fail fast to the dead-letter queue without retries.
	ActionRetry *retry.Policy
	// QueueRetry overrides the retry policy for queue and token
	// processing work (enqueue, dequeue, match passes). Nil takes the
	// default (6 attempts, 1ms base doubling to a 50ms cap).
	QueueRetry *retry.Policy
	// AdmissionConfig, when non-nil, enables overload protection at
	// capture: per-source token-bucket rate limits and queue-depth
	// watermarks. Over the soft watermark, batch-class tokens are shed
	// to the dead-letter table (accounted, requeueable); over the hard
	// watermark (or rate limit) every token is rejected with a
	// retryable error matching admission.ErrOverload. Nil admits
	// everything (no overload protection).
	AdmissionConfig *admission.Config
	// BufferPoolPages bounds the page cache (default 4096 pages = 16MB).
	BufferPoolPages int
	// TriggerCacheSize bounds the trigger cache (default 16384, the
	// paper's 64MB example).
	TriggerCacheSize int
	// Drivers is the driver count N; 0 derives it from NUM_CPUS and
	// ConcurrencyLevel as in §6.
	Drivers int
	// ConcurrencyLevel is TMAN_CONCURRENCY_LEVEL (default 1.0).
	ConcurrencyLevel float64
	// Queue selects the token transport.
	Queue QueueKind
	// DurableQueue forces every enqueued token's page to stable storage
	// before the capture call returns (persistent queue only) — the
	// paper's "safety of persistent update queuing" at its strongest.
	// Off by default: updates are group-flushed like the host DBMS's
	// buffered writes.
	DurableQueue bool
	// Synchronous runs the token pipeline on the caller's goroutine, one
	// token per capture call, instead of through the task queue
	// (deterministic; used by tests and when embedding in single-threaded
	// tools). There is no driver pool, so SourceFIFO, ConditionPartitions
	// fan-out and ActionTasks have nothing to schedule and run inline.
	Synchronous bool
	// ActionTasks runs every fired action as its own task (task type 2
	// of §6, rule-action concurrency). The default runs a token's
	// actions inline within its own task (task type 4, "process a token
	// to run a set of rule actions"), which avoids queue contention when
	// tokens fire many cheap actions.
	ActionTasks bool
	// SourceFIFO makes each data source's tokens process strictly in
	// enqueue order: dequeued tokens hop through per-source serial
	// tasks, so two tokens from one source never run concurrently (and
	// never reorder), while different sources still process in parallel.
	// Without it, same-source tokens may process concurrently across
	// drivers — higher throughput, no cross-token ordering guarantee.
	// Ordering wins over condition-level concurrency: with SourceFIFO
	// set, ConditionPartitions still partitions the index but a token's
	// partitions are matched in one pass inside its serial task.
	SourceFIFO bool
	// CostModel derives the constant-set organization thresholds from
	// the [Hans98b] cost model; nil keeps predindex.DefaultPolicy.
	CostModel *predindex.CostModel
	// ConditionPartitions > 1 splits every signature's triggerID sets
	// round-robin and matches each partition of a token as a separate
	// task (condition-level concurrency, Figure 5) — unless Synchronous
	// or SourceFIFO is set, which match the partitions inline. Applies
	// to new triggers.
	ConditionPartitions int
	// GatorNetworks runs multi-variable triggers through Gator networks
	// (cached join state, the paper's planned [Hans97b] upgrade) instead
	// of flat A-TREAT networks. Gator wins when intermediate joins are
	// selective and reused; A-TREAT wins when they are wide — see the
	// BenchmarkAblation_TreatVsGator two-regime comparison.
	GatorNetworks bool
	// Threshold bounds one driver drain slice (paper default 250ms). The
	// idle re-poll interval T is fixed at the paper's 250ms.
	Threshold time.Duration
	// MetricsAddr, when non-empty, starts the ops HTTP listener on the
	// address at Open: Prometheus /metrics, JSON /statusz, and
	// /debug/pprof. The listener can also be started later with
	// ListenOps.
	MetricsAddr string
	// TraceSampleEvery controls token-lifecycle tracing: every Nth
	// token is stamped through capture → dequeue → match → propagate →
	// action → deliver. 0 takes the default of 64, 1 traces every
	// token, negative disables tracing.
	TraceSampleEvery int
	// DisableProfiling turns off per-trigger cost attribution. Profiling
	// is on by default: the hot-path charge is a handful of atomic adds
	// into a bounded top-K sketch (see internal/profile).
	DisableProfiling bool
	// EventLogOut, when non-nil, mirrors the structured event log as
	// JSON lines to the writer (one line per discrete decision:
	// constant-set reorganizations, cache evictions, quarantines, ops
	// listener lifecycle). The bounded in-memory ring is kept either
	// way and served at /eventz.
	EventLogOut io.Writer
	// DisableSLO turns off the SLO engine and the runtime telemetry
	// sampler. Both are on by default: one goroutine each, a few
	// histogram scans per tick.
	DisableSLO bool
	// SLOObjectives declares the latency contracts the SLO engine
	// evaluates (/sloz, tman_slo_* metrics, slo.burn events). Nil takes
	// the defaults: interactive p99 < 50ms and batch p95 < 500ms,
	// end-to-end capture→completion per token.
	SLOObjectives []SLOObjective
	// SLOTick is the SLO engine's snapshot resolution (default 10s).
	SLOTick time.Duration
	// SLOWindows overrides the multi-window burn-rate pairs (default
	// fast 5m/1h at 14.4× and slow 6h/3d at 1×).
	SLOWindows []slo.WindowPair
	// NodeID names this system instance in a multi-node deployment: it
	// stamps /statusz and /loadz, is exchanged in the wire handshake,
	// and marks the origin of forwarded tokens and replicated DDL.
	// Empty means a standalone node ("local" in ops output).
	NodeID string
}

// TokenRouter decides, at the capture point, whether a token belongs
// on this node. internal/cluster installs one via SetRouter; a nil
// router (the default) keeps every token local. Route returns
// handled=true when it took responsibility for the token (forwarded to
// the owner node, or dead-lettered when the owner is unreachable) —
// the local pipeline then skips it entirely. handled=false means "mine,
// process locally". The contract is zero silent loss: a handled token
// was either delivered to its owner or durably quarantined.
type TokenRouter interface {
	Route(source string, tok datasource.Token, traceCtx string) (handled bool, err error)
}

// routerBox wraps a TokenRouter for atomic.Value (which needs a
// consistent concrete type, including the nil "no router" state).
type routerBox struct{ r TokenRouter }

// Federation is the fleet-scope observability provider. internal/fleet
// installs one via SetFederation; the ops handlers consult it when a
// request carries ?scope=cluster, so the same /metrics and /sloz
// endpoints answer for the whole fleet without new routes. All
// federation work (peer scrapes, merging) happens inside these calls
// or on the fleet's own background loop — never on the token path.
type Federation interface {
	// ClusterMetrics renders the fleet-merged registry in Prometheus
	// text exposition format (/metrics?scope=cluster).
	ClusterMetrics() (string, error)
	// ClusterSloz returns the fleet-scope SLO payload
	// (/sloz?scope=cluster): burn verdicts evaluated over the merged
	// per-class end-to-end histograms.
	ClusterSloz() (any, error)
}

// fedBox wraps a Federation for atomic.Value, like routerBox.
type fedBox struct{ f Federation }

// SLOObjective is one declarative latency contract: "Target fraction
// of Class-priority tokens complete within Threshold". The engine
// evaluates it against the per-class end-to-end histogram
// (tman_token_duration_seconds{class=...}).
type SLOObjective struct {
	// Name identifies the objective in /sloz, metrics, and slo.burn
	// events (e.g. "interactive-p99").
	Name string
	// Class is the priority class whose tokens the objective covers:
	// "interactive" or "batch".
	Class string
	// Target is the promised good fraction, e.g. 0.99.
	Target float64
	// Threshold is the capture→completion latency cutoff.
	Threshold time.Duration
}

// defaultSLOObjectives are the out-of-the-box contracts.
func defaultSLOObjectives() []SLOObjective {
	return []SLOObjective{
		{Name: "interactive-p99", Class: admission.Interactive.String(), Target: 0.99, Threshold: 50 * time.Millisecond},
		{Name: "batch-p95", Class: admission.Batch.String(), Target: 0.95, Threshold: 500 * time.Millisecond},
	}
}

// Stats aggregates subsystem counters.
type Stats struct {
	Triggers        int
	TokensIn        int64
	TokensMatched   int64
	ActionsRun      int64
	Index           predindex.Stats
	Pool            taskq.Stats
	TriggerCache    cache.Stats
	BufferPool      storage.PoolStats
	EventsRaised    int64
	EventsDelivered int64
	QueueDepth      int
	// Errors counts asynchronous processing errors ever recorded.
	Errors int64
	// RecentErrors is the bounded ring of recent errors, oldest first,
	// each with its pipeline stage and trigger ID.
	RecentErrors []ErrorRecord
	// DeadLetters is the current dead-letter table depth.
	DeadLetters int
	// DeadLettered counts quarantines performed since Open.
	DeadLettered int64
	// TokensShed and TokensRejected count admission-control verdicts
	// (zero when Options.AdmissionConfig is nil). Shed tokens are also
	// counted by DeadLettered when their quarantine lands.
	TokensShed     int64
	TokensRejected int64
}

// System is a TriggerMan instance.
type System struct {
	opts Options

	bp    *storage.BufferPool
	db    *minisql.DB
	reg   *datasource.Registry
	pidx  *predindex.Index
	cat   *catalog.Catalog
	bus   *event.Bus
	exe   *exec.Executor
	pool  *taskq.Pool
	queue datasource.Queue
	// adm is the admission controller (nil when overload protection is
	// not configured).
	adm *admission.Controller

	mu sync.RWMutex
	// sources counts, per data source, the triggers that read it.
	sources    map[int32]sourceUse
	partitions int
	// The token pipeline's shape (process.go), resolved once at Open:
	// tokenBatch is how many tokens one pump dequeues (the constant
	// tokenBatch, 1 when Synchronous), ordered puts the
	// per-source serial hop between dequeue and stage (SourceFIFO), and
	// fanOut matches a token's partitions as separate tasks. Both need
	// the pool, and ordering wins over fan-out.
	tokenBatch int
	ordered    bool
	fanOut     bool
	// dispatchMu makes an ordered pump's dequeue-batch and per-token
	// serial submissions one atomic step, so tokens reach the task queue
	// in dequeue order.
	dispatchMu sync.Mutex

	// met is the process-wide instrument registry; the headline
	// counters below are registry-backed so Stats() and /metrics read
	// the same cells.
	met           *metrics.Registry
	tracer        *trace.Tracer
	prof          *profile.Profiler
	elog          *eventlog.Log
	sloEng        *slo.Engine
	rts           *slo.RuntimeSampler
	reconStop     chan struct{}
	reconDone     chan struct{}
	cTokensIn     *metrics.Counter
	cTokensMatch  *metrics.Counter
	cActionsRun   *metrics.Counter
	cDeadLettered *metrics.Counter
	cBatches      *metrics.Counter
	cBatchTokens  *metrics.Counter
	ops           *opsServer
	ring          errorRing

	// Resolved retry policies (defaults applied). abandons says one of
	// them has an attempt timeout, so an attempt may still be running
	// when its retry starts: work.own keeps such attempts apart.
	actionRetry retry.Policy
	queueRetry  retry.Policy
	abandons    bool
	// dlRetry guards dead-letter writes: more attempts than the work
	// that failed, because losing the quarantine record loses the token.
	dlRetry retry.Policy
	// pump as the two function values applyTraced needs, made once: the
	// process-token task's body, and the inline call of Synchronous mode.
	pumpTask   func(slot int) error
	pumpInline func() error

	// FireHook, when set, observes every firing (tests and benchmarks).
	// The combination is the firing's and valid only during the call.
	FireHook func(triggerID uint64, combo []types.Tuple)

	// routerV holds the installed TokenRouter as a routerBox; read on
	// every capture, so it is an atomic.Value rather than a mutex.
	routerV atomic.Value

	// fedV holds the installed Federation as a fedBox; read only by
	// ops handlers, atomic so installation never blocks a scrape.
	fedV atomic.Value

	// sloObjs are the resolved SLO objectives (defaults applied), kept
	// so the fleet layer can mirror them at cluster scope.
	sloObjs []SLOObjective

	// extraOps are additional ops-endpoint handlers (RegisterOpsHandler)
	// picked up by ListenOps; internal/cluster mounts /clusterz here.
	extraOps map[string]http.HandlerFunc

	closed bool
}

// SetRouter installs (or, with nil, removes) the capture-point token
// router. Safe to call while traffic flows.
func (s *System) SetRouter(r TokenRouter) { s.routerV.Store(routerBox{r: r}) }

// router returns the installed TokenRouter, or nil.
func (s *System) router() TokenRouter {
	if b, ok := s.routerV.Load().(routerBox); ok {
		return b.r
	}
	return nil
}

// SetFederation installs (or, with nil, removes) the fleet-scope
// observability provider consulted by ?scope=cluster ops requests.
func (s *System) SetFederation(f Federation) { s.fedV.Store(fedBox{f: f}) }

// federation returns the installed Federation, or nil.
func (s *System) federation() Federation {
	if b, ok := s.fedV.Load().(fedBox); ok {
		return b.f
	}
	return nil
}

// SLOObjectives reports the resolved latency objectives the SLO engine
// runs with (explicit Options.SLOObjectives or the defaults; empty
// when Options.DisableSLO is set). The fleet layer mirrors them for
// cluster-scope evaluation.
func (s *System) SLOObjectives() []SLOObjective {
	return append([]SLOObjective(nil), s.sloObjs...)
}

// NodeID reports this instance's node identity ("local" when
// Options.NodeID is unset).
func (s *System) NodeID() string {
	if s.opts.NodeID != "" {
		return s.opts.NodeID
	}
	return "local"
}

// Open creates (or reopens, when DiskPath names an existing file) a
// trigger system.
func Open(opts Options) (*System, error) {
	if opts.BufferPoolPages <= 0 {
		opts.BufferPoolPages = 4096
	}
	var disk storage.DiskManager
	switch {
	case opts.Disk != nil:
		disk = opts.Disk
	case opts.DiskPath == "":
		disk = storage.NewMem()
	default:
		fd, err := storage.OpenFile(opts.DiskPath)
		if err != nil {
			return nil, err
		}
		disk = fd
	}
	met := metrics.NewRegistry()
	bp := storage.NewBufferPool(disk, opts.BufferPoolPages)
	bp.SetMetrics(met)
	var db *minisql.DB
	var err error
	if disk.NumPages() == 0 {
		db, err = minisql.Create(bp)
	} else {
		db, err = minisql.Open(bp, 0)
	}
	if err != nil {
		return nil, err
	}

	reg := datasource.NewRegistry()
	// The driver count is resolved before the index and profiler exist:
	// both size their phase-reconciled counters' slice geometry to one
	// slice per driver slot. Synchronous systems have no drivers — every
	// update carries NoSlot and stays on the plain path.
	slots := 1
	if !opts.Synchronous {
		slots = taskq.ResolveDrivers(opts.Drivers, opts.ConcurrencyLevel)
	}
	var prof *profile.Profiler
	if !opts.DisableProfiling {
		prof = profile.New(profile.DefaultCapacity, slots)
	}
	elog := eventlog.New(eventlog.Config{Out: opts.EventLogOut})
	pidxOpts := []predindex.Option{predindex.WithDB(db), predindex.WithMetrics(met), predindex.WithSlots(slots)}
	if opts.CostModel != nil {
		pidxOpts = append(pidxOpts, predindex.WithCostModel(*opts.CostModel))
	}
	if prof != nil {
		pidxOpts = append(pidxOpts, predindex.WithProfile(prof))
	}
	pidxOpts = append(pidxOpts, predindex.WithReorgHook(func(ev predindex.ReorgEvent) {
		elog.Emit("predindex.reorganize",
			"sig_id", ev.SigID,
			"source_id", ev.Source,
			"expr", ev.Expr,
			"from", ev.From.String(),
			"to", ev.To.String(),
			"size", ev.Size,
			"from_cost_ns", ev.FromCostNs,
			"to_cost_ns", ev.ToCostNs)
	}))
	pidx := predindex.New(pidxOpts...)

	cat, err := catalog.New(catalog.Config{
		DB: db, Reg: reg, Pidx: pidx, Cache: opts.TriggerCacheSize,
		UseGator: opts.GatorNetworks,
	})
	if err != nil {
		return nil, err
	}

	sampleEvery := opts.TraceSampleEvery
	if sampleEvery == 0 {
		sampleEvery = 64
	}
	sys := &System{
		opts:       opts,
		bp:         bp,
		db:         db,
		reg:        reg,
		pidx:       pidx,
		cat:        cat,
		bus:        event.NewBus(),
		met:        met,
		prof:       prof,
		elog:       elog,
		sources:    make(map[int32]sourceUse),
		partitions: opts.ConditionPartitions,
		tokenBatch: tokenBatch,
		ordered:    opts.SourceFIFO && !opts.Synchronous,
	}
	sys.fanOut = sys.partitions > 1 && !opts.Synchronous && !opts.SourceFIFO
	if opts.Synchronous {
		sys.tokenBatch = 1
	}
	// The tracer resolves each token's priority class at Begin so
	// end-to-end durations land in per-class histograms — the series the
	// SLO objectives read.
	sys.tracer = trace.New(trace.Config{
		Registry:    met,
		SampleEvery: sampleEvery,
		ClassOf:     func(src int32) string { return sys.sourceClass(src).String() },
	})
	sys.cTokensIn = met.Counter("tman_tokens_total", "update descriptors captured into the queue")
	sys.cTokensMatch = met.Counter("tman_matches_total", "token-trigger matches that fired or fed a network")
	sys.cActionsRun = met.Counter("tman_actions_total", "rule-action executions started")
	sys.cDeadLettered = met.Counter("tman_dead_letters_total", "tokens and firings quarantined in the dead-letter table")
	sys.cBatches = met.Counter("tman_token_batches_total", "non-empty token batches processed by process-token tasks")
	sys.cBatchTokens = met.Counter("tman_token_batch_tokens_total", "tokens processed through batches (ratio to batches = mean batch size)")
	if opts.ActionRetry != nil {
		sys.actionRetry = *opts.ActionRetry
	} else {
		sys.actionRetry = retry.Policy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 50 * time.Millisecond}
	}
	sys.actionRetry = sys.actionRetry.WithDefaults()
	sys.actionRetry.Observe = sys.retryObserver("action")
	if opts.QueueRetry != nil {
		sys.queueRetry = *opts.QueueRetry
	} else {
		sys.queueRetry = retry.Policy{MaxAttempts: 6, BaseDelay: time.Millisecond, MaxDelay: 50 * time.Millisecond}
	}
	sys.queueRetry = sys.queueRetry.WithDefaults()
	sys.queueRetry.Observe = sys.retryObserver("queue")
	sys.abandons = sys.actionRetry.AttemptTimeout > 0 || sys.queueRetry.AttemptTimeout > 0
	sys.pumpTask = sys.pump
	sys.pumpInline = func() error { return sys.pump(taskq.NoSlot) }
	sys.dlRetry = sys.queueRetry
	if sys.dlRetry.MaxAttempts < 10 {
		sys.dlRetry.MaxAttempts = 10
	}
	sys.dlRetry.Observe = sys.retryObserver("deadletter")
	sys.exe = &exec.Executor{
		DB: capturingRunner{sys}, Bus: sys.bus,
		Hist: met.Histogram("tman_action_duration_seconds", "rule-action execution time, one observation per attempt", nil),
	}
	if opts.Queue == MemoryQueue {
		sys.queue = datasource.NewMemQueue()
	} else if sys.queue, err = openQueue(db, bp, opts.DurableQueue); err != nil {
		return nil, err
	}
	if opts.AdmissionConfig != nil {
		sys.adm = admission.New(*opts.AdmissionConfig, sys.queue.SourceDepth)
		sys.adm.OnTransition = func(src int32, from, to admission.State) {
			elog.Emit("admission.state",
				"source_id", src, "from", from.String(), "to", to.String())
		}
	}
	if !opts.Synchronous {
		sys.pool = taskq.New(taskq.Config{
			Drivers:          opts.Drivers,
			ConcurrencyLevel: opts.ConcurrencyLevel,
			Threshold:        opts.Threshold,
			OnError:          sys.noteError,
			Metrics:          met,
		})
	}
	cat.Cache().SetObserver(cacheObserver{prof: prof, elog: elog})
	sys.reconStop = make(chan struct{})
	sys.reconDone = make(chan struct{})
	go func() {
		defer close(sys.reconDone)
		t := time.NewTicker(reconcileEvery)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				sys.Reconcile()
			case <-sys.reconStop:
				return
			}
		}
	}()
	sys.registerViews()
	// Rebuild the multi-var bookkeeping for recovered triggers.
	sys.rebuildMultiVar()
	if !opts.DisableSLO {
		eng := slo.New(slo.Config{
			Registry: met,
			Tick:     opts.SLOTick,
			Windows:  opts.SLOWindows,
			OnEvent:  elog.Emit,
		})
		objs := opts.SLOObjectives
		if len(objs) == 0 {
			objs = defaultSLOObjectives()
		}
		sys.sloObjs = objs
		for _, o := range objs {
			if err := eng.Add(slo.Objective{
				Name:      o.Name,
				Class:     o.Class,
				Target:    o.Target,
				Threshold: o.Threshold,
				Source:    slo.HistogramSource{H: sys.tracer.ClassHistogram(o.Class), Cutoff: o.Threshold},
			}); err != nil {
				return nil, err
			}
		}
		eng.Start()
		sys.sloEng = eng
		rts := slo.NewRuntimeSampler(slo.RuntimeConfig{
			Registry: met,
			Tokens:   sys.cTokensIn.Value,
		})
		rts.Start()
		sys.rts = rts
	}
	if opts.MetricsAddr != "" {
		if _, err := sys.ListenOps(opts.MetricsAddr); err != nil {
			sys.Close()
			return nil, err
		}
	}
	// Tokens a previous run left in the persistent queue are pumped like
	// freshly captured ones: one pump per token (a pump takes its batch
	// from one queue page, so fewer pumps can strand a page's tail).
	for n := sys.queue.Len(); n > 0; n-- {
		if err := sys.schedulePump(0, taskq.High); err != nil {
			sys.Close()
			return nil, err
		}
	}
	return sys, nil
}

// queueHeap names the persistent queue's heap in the master catalog.
const queueHeap = "token_queue"

// openQueue opens the persistent queue whose heap the master catalog
// records, creating and recording it in a database that has none. A
// durable queue's record is flushed before the first enqueue can
// promise that its token survives a restart.
func openQueue(db *minisql.DB, bp *storage.BufferPool, durable bool) (*datasource.TableQueue, error) {
	first, err := db.Heap(queueHeap)
	if err != nil {
		return nil, err
	}
	q, err := datasource.OpenTableQueue(bp, first)
	if err != nil {
		return nil, err
	}
	q.SetDurable(durable)
	if durable {
		if err := bp.FlushAll(); err != nil {
			return nil, err
		}
	}
	return q, nil
}

// cacheObserver charges trigger-cache activity to the attribution
// profiler and mirrors evictions into the event log. Both sinks are
// nil-receiver safe, so the zero observer is inert.
type cacheObserver struct {
	prof *profile.Profiler
	elog *eventlog.Log
}

func (o cacheObserver) CacheHit(id uint64)  { o.prof.CacheHit(id) }
func (o cacheObserver) CacheMiss(id uint64) { o.prof.CacheMiss(id) }
func (o cacheObserver) CacheEvict(id uint64) {
	o.elog.Emit("cache.evict", "trigger_id", id)
}

// retryObserver builds a Policy.Observe hook recording retry attempts
// (beyond the first) and exhaustions under the policy's label.
func (s *System) retryObserver(policy string) func(int, error) {
	attempts := s.met.Counter("tman_retry_attempts_total",
		"retry attempts beyond the first, by policy", metrics.L("policy", policy))
	exhausted := s.met.Counter("tman_retry_exhausted_total",
		"operations that ran out of retry attempts, by policy", metrics.L("policy", policy))
	return func(n int, err error) {
		if n > 1 {
			attempts.Add(int64(n - 1))
		}
		if err == nil {
			// Nearly every call: leave before the errors.As target below,
			// which escapes and would cost each success a heap object.
			return
		}
		var ex *retry.Exhausted
		if errors.As(err, &ex) {
			exhausted.Inc()
		}
	}
}

// registerViews exports the existing subsystem counters as callback
// instruments, so the registry and Stats() read the same sources and
// cannot drift.
func (s *System) registerViews() {
	m := s.met
	m.GaugeFunc("tman_queue_depth", "tokens waiting in the update queue",
		func() int64 { return int64(s.queue.Len()) })
	m.GaugeFunc("tman_dead_letter_depth", "entries currently quarantined",
		func() int64 { return int64(s.cat.DeadLetterCount()) })
	m.GaugeFunc("tman_triggers", "triggers defined",
		func() int64 { return int64(s.cat.TriggerCount()) })
	m.CounterFunc("tman_errors_total", "asynchronous processing errors recorded",
		func() int64 { return s.ring.totalCount() })
	m.CounterFunc("tman_events_total", "event-bus activity",
		func() int64 { raised, _ := s.bus.Stats(); return raised }, metrics.L("kind", "raised"))
	m.CounterFunc("tman_events_total", "event-bus activity",
		func() int64 { _, delivered := s.bus.Stats(); return delivered }, metrics.L("kind", "delivered"))
	for _, v := range []struct {
		event string
		fn    func() int64
	}{
		{"hit", func() int64 { return int64(s.cat.Cache().Stats().Hits) }},
		{"miss", func() int64 { return int64(s.cat.Cache().Stats().Misses) }},
		{"eviction", func() int64 { return int64(s.cat.Cache().Stats().Evictions) }},
	} {
		m.CounterFunc("tman_trigger_cache_total", "trigger cache activity", v.fn, metrics.L("event", v.event))
	}
	for _, v := range []struct {
		event string
		fn    func() int64
	}{
		{"hit", func() int64 { return int64(s.bp.Stats().Hits) }},
		{"miss", func() int64 { return int64(s.bp.Stats().Misses) }},
		{"eviction", func() int64 { return int64(s.bp.Stats().Evictions) }},
		{"flush", func() int64 { return int64(s.bp.Stats().Flushes) }},
	} {
		m.CounterFunc("tman_buffer_pool_total", "buffer pool activity", v.fn, metrics.L("event", v.event))
	}
	for _, v := range []struct {
		counter string
		fn      func() int64
	}{
		{"tokens", func() int64 { return s.pidx.Stats().Tokens }},
		{"sig_probes", func() int64 { return s.pidx.Stats().SigProbes }},
		{"const_compares", func() int64 { return s.pidx.Stats().ConstCompares }},
		{"rest_tests", func() int64 { return s.pidx.Stats().RestTests }},
		{"matches", func() int64 { return s.pidx.Stats().Matches }},
	} {
		m.CounterFunc("tman_index_total", "predicate index activity", v.fn, metrics.L("counter", v.counter))
	}
	if s.prof != nil {
		m.CounterFunc("tman_profile_evictions_total", "attribution sketch slot replacements",
			func() int64 { return s.prof.Triggers.Evictions() }, metrics.L("sketch", "triggers"))
	}
	m.CounterFunc("tman_events_logged_total", "structured event-log records accepted",
		func() int64 { return s.elog.Total() })
	if s.pool != nil {
		for _, v := range []struct {
			counter string
			fn      func() int64
		}{
			{"enqueued", func() int64 { return s.pool.Stats().Enqueued }},
			{"executed", func() int64 { return s.pool.Stats().Executed }},
			{"errors", func() int64 { return s.pool.Stats().Errors }},
			{"panics", func() int64 { return s.pool.Stats().Panics }},
			{"retries", func() int64 { return s.pool.Stats().Retries }},
			{"steals", func() int64 { return s.pool.Stats().Steals }},
			{"parks", func() int64 { return s.pool.Stats().Parks }},
			{"unparks", func() int64 { return s.pool.Stats().Unparks }},
			{"aged", func() int64 { return s.pool.Stats().Aged }},
			{"low_runs", func() int64 { return s.pool.Stats().LowRuns }},
		} {
			m.CounterFunc("tman_pool_total", "driver pool activity", v.fn, metrics.L("counter", v.counter))
		}
	}
	if s.adm != nil {
		for _, v := range []struct {
			verdict string
			fn      func() int64
		}{
			{"admitted", func() int64 { a, _, _ := s.adm.Totals(); return a }},
			{"shed", func() int64 { _, sh, _ := s.adm.Totals(); return sh }},
			{"rejected", func() int64 { _, _, r := s.adm.Totals(); return r }},
		} {
			m.CounterFunc("tman_admission_total", "admission-control verdicts", v.fn, metrics.L("verdict", v.verdict))
		}
		for _, st := range []admission.State{admission.StateAdmitting, admission.StateShedding, admission.StateRejecting} {
			st := st
			m.GaugeFunc("tman_admission_sources", "data sources per graceful-degradation state",
				func() int64 {
					var n int64
					for _, row := range s.adm.Snapshot(nil) {
						if row.State == st {
							n++
						}
					}
					return n
				}, metrics.L("state", st.String()))
		}
	}
}

func (s *System) rebuildMultiVar() {
	for _, name := range s.cat.TriggerNames() {
		id, _ := s.cat.TriggerByName(name)
		s.countTrigger(id, +1)
	}
}

// sourceUse counts the triggers reading one data source by what they
// ask of the token pipeline.
type sourceUse struct {
	// stateful triggers keep state the source's tokens must maintain: a
	// multi-variable trigger's network or an aggregate trigger's groups.
	stateful int
	// inter and batch split the triggers by priority class.
	inter, batch int
}

// countTrigger adds (delta +1) or removes (-1) a catalogued trigger
// from the records of the sources it reads.
func (s *System) countTrigger(id uint64, delta int) {
	srcs, ok := s.cat.TriggerSources(id)
	if !ok {
		return
	}
	stateful := len(srcs) > 1 || s.cat.TriggerIsAggregate(id)
	batch := s.cat.TriggerClass(id) == admission.Batch
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, src := range srcs {
		u := s.sources[src]
		if stateful {
			u.stateful += delta
		}
		if batch {
			u.batch += delta
		} else {
			u.inter += delta
		}
		s.sources[src] = u
	}
}

// sourceClass derives the admission class of a data source from the
// triggers attached to it: a source is batch-class (low-priority tasks,
// sheddable) exactly when it feeds at least one batch trigger and no
// interactive ones. A source with no triggers at all stays interactive
// — admission must not shed tokens whose consumers we cannot see yet.
func (s *System) sourceClass(src int32) admission.Class {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if u := s.sources[src]; u.inter > 0 || u.batch == 0 {
		return admission.Interactive
	}
	return admission.Batch
}

// noteError records an asynchronous error with no further context
// (taskq's OnError hook and legacy call sites).
func (s *System) noteError(err error) { s.ring.add("task", 0, err) }

// noteErrorAt records an asynchronous error with its pipeline stage and
// (when known) the failing trigger.
func (s *System) noteErrorAt(kind string, triggerID uint64, err error) {
	s.ring.add(kind, triggerID, err)
}

// LastError returns the most recent asynchronous processing error, if
// any.
func (s *System) LastError() error {
	if rec, ok := s.ring.last(); ok {
		return rec.Err
	}
	return nil
}

// Errors reports the asynchronous error count.
func (s *System) Errors() int64 { return s.ring.totalCount() }

// RecentErrors returns the bounded ring of recent asynchronous errors,
// oldest first.
func (s *System) RecentErrors() []ErrorRecord { return s.ring.snapshot() }

// isClosed reports whether Close has run.
func (s *System) isClosed() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.closed
}

// DB exposes the embedded database for execSQL targets and inspection.
func (s *System) DB() *minisql.DB { return s.db }

// Bus exposes the event bus.
func (s *System) Bus() *event.Bus { return s.bus }

// Catalog exposes the trigger catalog.
func (s *System) Catalog() *catalog.Catalog { return s.cat }

// PredIndex exposes the predicate index (benchmarks read its stats).
func (s *System) PredIndex() *predindex.Index { return s.pidx }

// Stats returns a combined counter snapshot. The headline counters are
// views over the metrics registry — the same cells /metrics exports.
func (s *System) Stats() Stats {
	raised, delivered := s.bus.Stats()
	st := Stats{
		Triggers:        s.cat.TriggerCount(),
		TokensIn:        s.cTokensIn.Value(),
		TokensMatched:   s.cTokensMatch.Value(),
		ActionsRun:      s.cActionsRun.Value(),
		Index:           s.pidx.Stats(),
		TriggerCache:    s.cat.Cache().Stats(),
		BufferPool:      s.bp.Stats(),
		EventsRaised:    raised,
		EventsDelivered: delivered,
		QueueDepth:      s.queue.Len(),
		Errors:          s.ring.totalCount(),
		RecentErrors:    s.ring.snapshot(),
		DeadLetters:     s.cat.DeadLetterCount(),
		DeadLettered:    s.cDeadLettered.Value(),
	}
	if s.pool != nil {
		st.Pool = s.pool.Stats()
	}
	if s.adm != nil {
		_, st.TokensShed, st.TokensRejected = s.adm.Totals()
	}
	return st
}

// Admission exposes the admission controller, or nil when
// Options.AdmissionConfig was not set. Ops handlers and tests read
// per-source load states through it.
func (s *System) Admission() *admission.Controller { return s.adm }

// Metrics exposes the instrument registry (the ops endpoint and tests
// read it; embedders may add their own instruments).
func (s *System) Metrics() *metrics.Registry { return s.met }

// Tracer exposes the token-lifecycle tracer.
func (s *System) Tracer() *trace.Tracer { return s.tracer }

// SLO exposes the SLO engine (nil when Options.DisableSLO is set; the
// engine's Snapshot is nil-receiver safe).
func (s *System) SLO() *slo.Engine { return s.sloEng }

// Runtime exposes the runtime telemetry sampler (nil when
// Options.DisableSLO is set; Snapshot is nil-receiver safe).
func (s *System) Runtime() *slo.RuntimeSampler { return s.rts }

// Profile exposes the per-trigger cost-attribution profiler (nil when
// Options.DisableProfiling is set; profile.Profiler methods are
// nil-receiver safe).
func (s *System) Profile() *profile.Profiler { return s.prof }

// EventLog exposes the structured event log.
func (s *System) EventLog() *eventlog.Log { return s.elog }

// Exec runs a mini-SQL statement directly against the embedded database
// (uncaptured: no update descriptors are generated; use a TableSource
// for captured updates).
func (s *System) Exec(sql string) (*minisql.Result, error) { return s.db.Exec(sql) }

// CreateTrigger processes a create trigger command (§5.1).
func (s *System) CreateTrigger(text string) error {
	if s.isClosed() {
		return errClosed
	}
	info, err := s.cat.CreateTrigger(text)
	if err != nil {
		return err
	}
	s.countTrigger(info.ID, +1)
	if s.partitions > 1 {
		for _, src := range info.SourceIDs {
			for _, e := range s.pidx.Signatures(src) {
				if err := e.SetPartitions(s.partitions); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// DropTrigger removes a trigger.
func (s *System) DropTrigger(name string) error {
	if id, ok := s.cat.TriggerByName(name); ok {
		s.countTrigger(id, -1)
	}
	return s.cat.DropTrigger(name)
}

// EnableTrigger / DisableTrigger toggle a trigger's isEnabled flag.
func (s *System) EnableTrigger(name string) error  { return s.cat.SetTriggerEnabled(name, true) }
func (s *System) DisableTrigger(name string) error { return s.cat.SetTriggerEnabled(name, false) }

// CreateTriggerSet / DropTriggerSet manage named trigger sets.
func (s *System) CreateTriggerSet(name, comments string) error {
	_, err := s.cat.CreateTriggerSet(name, comments)
	return err
}
func (s *System) DropTriggerSet(name string) error { return s.cat.DropTriggerSet(name) }

// EnableTriggerSet / DisableTriggerSet toggle a set's isEnabled flag.
func (s *System) EnableTriggerSet(name string) error {
	return s.cat.SetTriggerSetEnabled(name, true)
}
func (s *System) DisableTriggerSet(name string) error {
	return s.cat.SetTriggerSetEnabled(name, false)
}

// Command parses and executes one TriggerMan command-language statement
// (create/drop trigger, define data source, enable/disable, mini-SQL).
// It returns a human-readable result summary.
func (s *System) Command(text string) (string, error) {
	return s.command(text)
}

// Subscribe registers for raise event notifications; name "" or "*"
// subscribes to all events.
func (s *System) Subscribe(name string, buffer int) (*event.Subscription, error) {
	if s.isClosed() {
		return nil, errClosed
	}
	return s.bus.Subscribe(name, buffer)
}

// Drain blocks until all queued tokens and spawned actions finish.
func (s *System) Drain() {
	if s.pool != nil {
		s.pool.Drain()
	}
}

// reconcileEvery is the phase-reconciliation epoch: how often hot
// counters' per-driver slices (predicate-index probe/match tallies,
// profiler sketch cells) fold into their base cells and refresh the
// reconciled readings that reorganization decisions and snapshots
// consume — the staleness bound the cost model sees.
const reconcileEvery = 100 * time.Millisecond

// Reconcile runs one phase-reconciliation epoch across every sliced
// counter domain: the predicate index's probe/match tallies and the
// profiler sketch fold their per-driver slices and refresh the
// reconciled readings. A ticker started by Open calls this every
// reconcileEvery; tests call it themselves between deterministic
// phases.
func (s *System) Reconcile() {
	s.pidx.Reconcile()
	s.prof.Reconcile()
}

// Flush persists dirty pages to the disk manager.
func (s *System) Flush() error { return s.bp.FlushAll() }

// Close drains outstanding work, flushes, and shuts the system down.
func (s *System) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ops := s.ops
	s.ops = nil
	s.mu.Unlock()
	if ops != nil {
		addr := ops.ln.Addr().String()
		ops.shutdown()
		s.elog.Emit("ops.shutdown", "addr", addr)
	}
	s.sloEng.Stop()
	s.rts.Stop()
	close(s.reconStop)
	<-s.reconDone
	if s.pool != nil {
		s.pool.Close()
	}
	s.bus.Close()
	return s.bp.FlushAll()
}

// errClosed is returned by operations on a closed system.
var errClosed = fmt.Errorf("triggerman: system is closed")
