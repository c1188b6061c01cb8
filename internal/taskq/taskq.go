// Package taskq implements the concurrent processing machinery of §6: a
// task queue holding the four task kinds the paper defines, and N driver
// workers that each run the TmanTest() loop — drain tasks for at most
// THRESHOLD, yield, and come back after T when the queue was empty.
//
// The paper cannot spawn threads inside Informix, so it multiplexes
// driver *processes* over a shared-memory queue; here goroutines play
// the driver role, preserving the scheduling discipline (bounded drain
// slices, idle backoff).
//
// The queue itself is sharded per driver. Submit routes keyed tasks to
// their home shard (source-affine, so one data source's tokens stay
// together) and spreads unkeyed tasks round-robin, spilling to a global
// overflow queue when a shard backs up. A driver drains its own shard
// first, then the overflow, then steals from its peers' shards before
// parking — so a single hot source cannot idle the rest of the pool,
// and an idle pool costs nothing but parked goroutines.
//
// Tasks marked Serial additionally serialize per Key: at most one
// Serial task per key runs at a time, and blocked successors keep their
// FIFO position. The pipeline's SourceFIFO mode uses this to give each
// data source strict enqueue-order action visibility even with stealing
// enabled.
package taskq

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"triggerman/internal/fifo"
	"triggerman/internal/metrics"
	"triggerman/internal/retry"
)

// Kind enumerates the §6 task types.
type Kind uint8

const (
	// ProcessToken matches one token against the whole predicate index
	// (task type 1).
	ProcessToken Kind = iota
	// RunAction executes one fired rule action (task type 2).
	RunAction
	// TokenConditions matches one token against one partition of the
	// predicate index's triggerID sets (task type 3).
	TokenConditions
	// TokenActions runs the set of rule actions triggered by one token
	// (task type 4).
	TokenActions
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case ProcessToken:
		return "process-token"
	case RunAction:
		return "run-action"
	case TokenConditions:
		return "token-conditions"
	case TokenActions:
		return "token-actions"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// spillDepth is the per-shard backlog beyond which unkeyed Submits
// divert to the global overflow queue instead of piling onto one shard.
const spillDepth = 1024

// Priority selects which of a shard's two run queues a task joins.
// Drivers drain high before low — across their own shard, the overflow
// queue, and steals — but an aging tick (Config.AgingEvery) bounds how
// long low-priority work can wait behind a steady high-priority stream.
type Priority uint8

const (
	// High is the default: interactive-class work.
	High Priority = iota
	// Low marks batch-class work: drained after high, first to wait
	// under load, never starved thanks to aging.
	Low
)

// String names the priority.
func (pr Priority) String() string {
	if pr == Low {
		return "low"
	}
	return "high"
}

// NoSlot is the slot index reported to work running outside any
// driver: synchronous embedders and direct producer calls. Slot-keyed
// counter slices treat it as "no worker identity" and fall back to
// their shared cell.
const NoSlot = -1

// Task is one unit of work. Run executes it; tasks may enqueue follow-up
// tasks (e.g. a ProcessToken task spawning RunAction tasks).
//
// Every task runs under panic isolation: a panic in Run is recovered
// into a *retry.PanicError and reported through OnError, so one poison
// token can neither kill its driver goroutine nor wedge Drain.
type Task struct {
	Kind Kind
	Run  func() error
	// RunSlot, when set, is invoked instead of Run and receives the
	// executing driver's stable slot index in [0, Drivers): the identity
	// of the worker, not the goroutine, so a stolen task reports the
	// stealing driver's slot. The predicate index's tallies keep one
	// line per slot and count a probe on its driver's line. A task run
	// outside any driver (synchronous embedders) would see NoSlot.
	RunSlot func(slot int) error
	// Key, when non-zero, routes the task to a fixed shard so tasks
	// sharing a key drain from the same queue (source affinity). Keyed
	// tasks never spill to the overflow queue.
	Key int64
	// Serial, with a non-zero Key, guarantees at most one task with
	// this key runs at a time; later same-key tasks wait, keeping their
	// FIFO position. Stealing drivers honor the constraint because the
	// busy/blocked bookkeeping lives on the key's home shard.
	Serial bool
	// Pri selects the run queue; the zero value is High, so untagged
	// call sites keep today's behavior.
	Pri Priority
	// Retry, when non-nil, re-enqueues the task with the policy's
	// backoff after Run returns a transient error, up to the policy's
	// MaxAttempts total runs. Permanent errors, unknown errors and
	// panics are never retried. Drain and Close account for scheduled
	// retries: they wait for the task's final outcome.
	Retry *retry.Policy
	// OnDone, when set, runs exactly once when the task reaches its
	// terminal outcome — success, a non-retryable error, or retry
	// exhaustion. Attempts that will be retried do not call it. The
	// token tracer uses this to release span references held by
	// in-flight tasks.
	OnDone func(error)

	// attempt counts completed runs of this task (retry bookkeeping).
	attempt int
	// submitted is stamped by push so runTask can measure how long the
	// task waited in the run queue before a driver picked it up — the
	// scheduler-wait half of the queue-wait/service decomposition. A
	// requeued retry is re-stamped: each incarnation's wait is its own
	// observation.
	submitted time.Time
}

// Config tunes the driver pool.
type Config struct {
	// Drivers is N; 0 means ceil(NUM_CPUS * ConcurrencyLevel).
	Drivers int
	// ConcurrencyLevel is TMAN_CONCURRENCY_LEVEL in (0, 1]; default 1.0.
	ConcurrencyLevel float64
	// T is the idle re-poll interval (paper default 250ms; tests and
	// benchmarks use much smaller values).
	T time.Duration
	// Threshold bounds one TmanTest drain slice (paper default 250ms).
	Threshold time.Duration
	// AgingEvery bounds low-priority starvation: after this many
	// consecutive high-priority picks from one shard, the next pick
	// takes a waiting low-priority task even though high work remains.
	// Default 16.
	AgingEvery int
	// OnError receives task errors (default: counted and dropped).
	OnError func(error)
	// Metrics, when non-nil, registers the pool's instruments:
	// per-kind dispatch counters, a task-duration histogram, a
	// queue-depth gauge, and steal/park counters.
	Metrics *metrics.Registry
}

// ResolveDrivers is the pool's driver-count derivation, exported so
// embedders can size per-driver structures (slice geometries, slot
// arrays) before the pool exists: drivers when positive, else
// ceil(NUM_CPUS * level) as in §6.
func ResolveDrivers(drivers int, level float64) int {
	if level <= 0 || level > 1 {
		level = 1.0
	}
	if drivers > 0 {
		return drivers
	}
	n := int(float64(runtime.NumCPU())*level + 0.999999)
	if n < 1 {
		n = 1
	}
	return n
}

func (c Config) withDefaults() Config {
	if c.ConcurrencyLevel <= 0 || c.ConcurrencyLevel > 1 {
		c.ConcurrencyLevel = 1.0
	}
	c.Drivers = ResolveDrivers(c.Drivers, c.ConcurrencyLevel)
	if c.T <= 0 {
		c.T = 250 * time.Millisecond
	}
	if c.Threshold <= 0 {
		c.Threshold = 250 * time.Millisecond
	}
	if c.AgingEvery <= 0 {
		c.AgingEvery = 16
	}
	return c
}

// Stats counts pool activity.
type Stats struct {
	Enqueued, Executed, Errors int64
	// DrainSlices counts TmanTest invocations that found work.
	DrainSlices int64
	// Panics counts task panics recovered by the drivers.
	Panics int64
	// Retries counts backoff re-enqueues of transiently failed tasks.
	Retries int64
	// Steals counts tasks a driver took from another driver's shard.
	Steals int64
	// Parks counts drivers going idle; Unparks counts wake-ups by a
	// Submit (timed re-polls after T are not counted as unparks).
	Parks, Unparks int64
	// Aged counts low-priority tasks promoted by the aging tick while
	// high-priority work was still waiting.
	Aged int64
	// LowRuns counts executed low-priority tasks.
	LowRuns int64
}

// shard is one driver's run queue. The overflow queue is a shard too
// (without an owning driver). busy/blocked implement the Serial
// constraint: busy holds keys with a task currently running, blocked
// holds popped-but-not-runnable tasks per key, in FIFO order.
type shard struct {
	mu sync.Mutex
	// hi and lo are the priority run queues; takeFrom drains hi first
	// with an aging tick so lo is never starved.
	hi, lo fifo.Queue[Task]
	// hiStreak counts consecutive high-priority picks since the last
	// low pick (the aging clock).
	hiStreak int
	busy     map[int64]struct{}
	blocked  map[int64][]Task
	// depth mirrors the number of tasks queued on this shard (including
	// blocked Serial tasks) so QueueLen and the depth gauge sum shard
	// lengths without taking every shard lock.
	depth atomic.Int64
}

// queueFor picks the run queue matching a task's priority. Callers hold
// s.mu.
func (s *shard) queueFor(t Task) *fifo.Queue[Task] {
	if t.Pri == Low {
		return &s.lo
	}
	return &s.hi
}

func newShard() *shard {
	return &shard{busy: make(map[int64]struct{}), blocked: make(map[int64][]Task)}
}

// Pool is the sharded task queue plus its driver goroutines.
type Pool struct {
	cfg Config

	shards   []*shard
	overflow *shard
	rr       atomic.Uint64 // round-robin cursor for unkeyed tasks

	// runnable counts queued tasks that a driver could take right now
	// (excludes Serial tasks parked behind a busy key). Parking drivers
	// re-check it after joining the waiter list, closing the lost-wakeup
	// window between a failed scan and the park.
	runnable atomic.Int64

	// closeMu serializes Submit against Close's transition to closed;
	// requeue (retry re-admission) deliberately bypasses it.
	closeMu sync.RWMutex
	closed  atomic.Bool

	// lotMu guards the parking lot: drivers waiting for work.
	lotMu   sync.Mutex
	waiters []*waiter

	// pendN counts open tasks (queued or running); drainers are parked
	// Drain/Close callers woken at the next zero crossing. An explicit
	// counter instead of a WaitGroup: Drain and Close must tolerate
	// Submits racing the wait (a Close during a token storm), and
	// WaitGroup.Add concurrent with Wait across a zero crossing is a
	// runtime panic ("WaitGroup misuse").
	pendN    atomic.Int64
	drainMu  sync.Mutex
	drainers []chan struct{}

	drivers sync.WaitGroup

	stats Stats

	// Registry-backed instruments (nil without Config.Metrics).
	kindCounters [4]*metrics.Counter
	taskHist     *metrics.Histogram
	// waitHists record submit→run wait per priority queue, indexed by
	// Priority (High, Low).
	waitHists [2]*metrics.Histogram
}

// waiter is one parked driver's wake-up channel (capacity 1 so a wake
// never blocks the waker and a stale token at most causes one spurious
// rescan).
type waiter struct {
	ch chan struct{}
}

// New creates a pool and starts its drivers.
func New(cfg Config) *Pool {
	cfg = cfg.withDefaults()
	p := &Pool{cfg: cfg, overflow: newShard()}
	p.shards = make([]*shard, cfg.Drivers)
	for i := range p.shards {
		p.shards[i] = newShard()
	}
	if reg := cfg.Metrics; reg != nil {
		for k := ProcessToken; k <= TokenActions; k++ {
			p.kindCounters[k] = reg.Counter("tman_tasks_total",
				"tasks dispatched by the driver pool", metrics.L("kind", k.String()))
		}
		p.taskHist = reg.Histogram("tman_task_duration_seconds",
			"task execution time (one attempt)", nil)
		for pr := High; pr <= Low; pr++ {
			p.waitHists[pr] = reg.Histogram("tman_task_wait_seconds",
				"task wait in the run queue, submit to first run",
				nil, metrics.L("pri", pr.String()))
		}
		reg.GaugeFunc("tman_task_queue_depth", "tasks queued, not yet running",
			func() int64 { return int64(p.QueueLen()) })
		reg.CounterFunc("tman_task_steals_total", "tasks taken from another driver's shard",
			func() int64 { return atomic.LoadInt64(&p.stats.Steals) })
		reg.CounterFunc("tman_driver_parks_total", "drivers going idle",
			func() int64 { return atomic.LoadInt64(&p.stats.Parks) })
		reg.CounterFunc("tman_driver_unparks_total", "idle drivers woken by a submit",
			func() int64 { return atomic.LoadInt64(&p.stats.Unparks) })
		reg.CounterFunc("tman_task_aged_total", "low-priority tasks promoted by the aging tick",
			func() int64 { return atomic.LoadInt64(&p.stats.Aged) })
		reg.CounterFunc("tman_task_low_runs_total", "executed low-priority tasks",
			func() int64 { return atomic.LoadInt64(&p.stats.LowRuns) })
	}
	p.drivers.Add(cfg.Drivers)
	for i := 0; i < cfg.Drivers; i++ {
		go p.driver(i)
	}
	return p
}

// Stats returns a snapshot of the counters.
func (p *Pool) Stats() Stats {
	return Stats{
		Enqueued:    atomic.LoadInt64(&p.stats.Enqueued),
		Executed:    atomic.LoadInt64(&p.stats.Executed),
		Errors:      atomic.LoadInt64(&p.stats.Errors),
		DrainSlices: atomic.LoadInt64(&p.stats.DrainSlices),
		Panics:      atomic.LoadInt64(&p.stats.Panics),
		Retries:     atomic.LoadInt64(&p.stats.Retries),
		Steals:      atomic.LoadInt64(&p.stats.Steals),
		Parks:       atomic.LoadInt64(&p.stats.Parks),
		Unparks:     atomic.LoadInt64(&p.stats.Unparks),
		Aged:        atomic.LoadInt64(&p.stats.Aged),
		LowRuns:     atomic.LoadInt64(&p.stats.LowRuns),
	}
}

// shardFor picks the queue a task lands on. Keyed tasks always go to
// the key's home shard — routing and the Serial bookkeeping both depend
// on that. Unkeyed tasks rotate across shards and divert to the global
// overflow queue when the chosen shard is backed up, so a burst cannot
// bury one driver while its peers idle.
func (p *Pool) shardFor(t Task) *shard {
	if t.Key != 0 {
		return p.shards[uint64(t.Key)%uint64(len(p.shards))]
	}
	s := p.shards[p.rr.Add(1)%uint64(len(p.shards))]
	if s.depth.Load() >= spillDepth {
		return p.overflow
	}
	return s
}

// push enqueues t on its shard and wakes one parked driver. Callers
// handle closed-state and pending accounting.
func (p *Pool) push(t Task) {
	t.submitted = time.Now()
	s := p.shardFor(t)
	s.mu.Lock()
	s.queueFor(t).Push(t)
	s.mu.Unlock()
	s.depth.Add(1)
	p.runnable.Add(1)
	p.wakeOne()
}

// Submit enqueues a task. It fails after Close.
func (p *Pool) Submit(t Task) error {
	p.closeMu.RLock()
	if p.closed.Load() {
		p.closeMu.RUnlock()
		return fmt.Errorf("taskq: pool is closed")
	}
	p.pendN.Add(1)
	atomic.AddInt64(&p.stats.Enqueued, 1)
	p.push(t)
	p.closeMu.RUnlock()
	return nil
}

// requeue re-admits a retried task. Unlike Submit it ignores the closed
// flag: the task was accepted before Close, and Close's pending.Wait
// cannot return until this incarnation runs, so the drivers are still
// alive to pick it up.
func (p *Pool) requeue(t Task) {
	p.push(t)
}

// QueueLen reports the number of queued (not yet running) tasks. It
// sums the shards' depth mirrors — no shard lock is taken, so a metrics
// scrape never stalls the hot path.
func (p *Pool) QueueLen() int {
	n := p.overflow.depth.Load()
	for _, s := range p.shards {
		n += s.depth.Load()
	}
	return int(n)
}

// takeFrom pops the next runnable task from one shard. Serial tasks
// whose key is busy are moved aside into the shard's blocked lists
// (keeping FIFO order per key) and promoted by release when the running
// task finishes.
func (p *Pool) takeFrom(s *shard) (Task, bool) {
	s.mu.Lock()
	for {
		var t Task
		var ok bool
		// High-priority first; after AgingEvery consecutive high picks
		// the next pick promotes the oldest waiting low task so a steady
		// interactive stream cannot starve batch work.
		if s.lo.Len() > 0 && (s.hi.Len() == 0 || s.hiStreak >= p.cfg.AgingEvery) {
			if s.hi.Len() > 0 {
				atomic.AddInt64(&p.stats.Aged, 1)
			}
			t, ok = s.lo.Pop()
			s.hiStreak = 0
		} else {
			t, ok = s.hi.Pop()
			if ok {
				s.hiStreak++
			}
		}
		if !ok {
			s.mu.Unlock()
			return Task{}, false
		}
		if t.Serial {
			if _, running := s.busy[t.Key]; running {
				s.blocked[t.Key] = append(s.blocked[t.Key], t)
				p.runnable.Add(-1)
				continue
			}
			s.busy[t.Key] = struct{}{}
		}
		s.depth.Add(-1)
		p.runnable.Add(-1)
		s.mu.Unlock()
		return t, true
	}
}

// release clears a Serial key after its task ran and promotes the
// oldest blocked same-key task to the front of its priority's shard
// queue, so the key's FIFO order survives the detour through blocked.
func (p *Pool) release(s *shard, key int64) {
	s.mu.Lock()
	delete(s.busy, key)
	bl := s.blocked[key]
	if len(bl) == 0 {
		s.mu.Unlock()
		return
	}
	next := bl[0]
	copy(bl, bl[1:])
	bl = bl[:len(bl)-1]
	if len(bl) == 0 {
		delete(s.blocked, key)
	} else {
		s.blocked[key] = bl
	}
	s.queueFor(next).PushFront(next)
	s.mu.Unlock()
	p.runnable.Add(1)
	p.wakeOne()
}

// findTask scans for work: the driver's own shard first, then the
// global overflow queue, then its peers' shards (a steal). It never
// blocks; the driver loop parks when it returns false.
func (p *Pool) findTask(id int) (Task, *shard, bool) {
	own := p.shards[id]
	if t, ok := p.takeFrom(own); ok {
		return t, own, true
	}
	if t, ok := p.takeFrom(p.overflow); ok {
		return t, p.overflow, true
	}
	for i := 1; i < len(p.shards); i++ {
		victim := p.shards[(id+i)%len(p.shards)]
		if t, ok := p.takeFrom(victim); ok {
			atomic.AddInt64(&p.stats.Steals, 1)
			return t, victim, true
		}
	}
	return Task{}, nil, false
}

// wakeOne pops one parked driver and signals it.
func (p *Pool) wakeOne() {
	p.lotMu.Lock()
	n := len(p.waiters)
	if n == 0 {
		p.lotMu.Unlock()
		return
	}
	w := p.waiters[n-1]
	p.waiters[n-1] = nil
	p.waiters = p.waiters[:n-1]
	p.lotMu.Unlock()
	select {
	case w.ch <- struct{}{}:
	default:
	}
}

// wakeAll signals every parked driver (Close).
func (p *Pool) wakeAll() {
	p.lotMu.Lock()
	ws := p.waiters
	p.waiters = nil
	p.lotMu.Unlock()
	for _, w := range ws {
		select {
		case w.ch <- struct{}{}:
		default:
		}
	}
}

// cancelPark withdraws w from the lot (it found work or the pool
// closed) and absorbs a signal sent concurrently so a stale token does
// not cause a phantom wake on the next park.
func (p *Pool) cancelPark(w *waiter) {
	p.lotMu.Lock()
	for i, x := range p.waiters {
		if x == w {
			p.waiters = append(p.waiters[:i], p.waiters[i+1:]...)
			break
		}
	}
	p.lotMu.Unlock()
	select {
	case <-w.ch:
	default:
	}
}

// driver is one TriggerMan driver: call TmanTest (a bounded drain) while
// work is found, otherwise park until a Submit wakes it or the idle
// interval T elapses. The paper's external driver processes must re-poll
// every T because they cannot be signalled; in-process drivers are woken
// immediately, which strictly dominates the T-polling discipline (T
// remains the timed-park bound for safety).
func (p *Pool) driver(id int) {
	defer p.drivers.Done()
	w := &waiter{ch: make(chan struct{}, 1)}
	timer := time.NewTimer(p.cfg.T)
	defer timer.Stop()
	for {
		t, s, ok := p.findTask(id)
		if ok {
			p.tmanTest(id, t, s)
			continue
		}
		if p.closed.Load() {
			// closed is stored only after every racing Submit finished
			// its push (Submit holds closeMu.RLock across check+push), so
			// a failed rescan after observing the flag proves the queues
			// are empty for good — no task can be stranded by a Submit
			// that won the race against Close.
			if t, s, ok := p.findTask(id); ok {
				p.tmanTest(id, t, s)
				continue
			}
			return
		}
		p.lotMu.Lock()
		p.waiters = append(p.waiters, w)
		p.lotMu.Unlock()
		atomic.AddInt64(&p.stats.Parks, 1)
		// Re-check after joining the lot: a Submit that scanned the lot
		// before we appended would otherwise be a lost wakeup.
		if p.runnable.Load() > 0 || p.closed.Load() {
			p.cancelPark(w)
			continue
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(p.cfg.T)
		select {
		case <-w.ch:
			atomic.AddInt64(&p.stats.Unparks, 1)
		case <-timer.C:
			p.cancelPark(w)
		}
	}
}

// tmanTest runs the first task and keeps draining until Threshold
// elapses, mirroring the paper's pseudocode (get task, execute, yield).
// Follow-up tasks come from the same scan order as the driver loop, so
// a drain slice steals too when its own shard runs dry.
func (p *Pool) tmanTest(id int, t Task, s *shard) {
	atomic.AddInt64(&p.stats.DrainSlices, 1)
	deadline := time.Now().Add(p.cfg.Threshold)
	for {
		p.runTask(id, t, s)
		if time.Now().After(deadline) {
			return
		}
		var ok bool
		t, s, ok = p.findTask(id)
		if !ok {
			return
		}
		// The paper calls mi_yield() between tasks so other Informix
		// work can run; Gosched is the goroutine analogue.
		runtime.Gosched()
	}
}

func (p *Pool) runTask(slot int, t Task, s *shard) {
	if t.Kind <= TokenActions {
		if c := p.kindCounters[t.Kind]; c != nil {
			c.Inc()
		}
	}
	var begin time.Time
	if p.taskHist != nil || p.waitHists[0] != nil {
		begin = time.Now()
		idx := High
		if t.Pri == Low {
			idx = Low
		}
		if h := p.waitHists[idx]; h != nil && !t.submitted.IsZero() {
			h.Observe(begin.Sub(t.submitted))
		}
	}
	err := p.invoke(slot, t)
	if t.Serial {
		// Release the key before retry/Done handling: a retried
		// incarnation re-acquires it via the normal queue path.
		p.release(s, t.Key)
	}
	if p.taskHist != nil {
		p.taskHist.Observe(time.Since(begin))
	}
	atomic.AddInt64(&p.stats.Executed, 1)
	if t.Pri == Low {
		atomic.AddInt64(&p.stats.LowRuns, 1)
	}
	if err == nil {
		if t.OnDone != nil {
			t.OnDone(nil)
		}
		p.donePending()
		return
	}
	atomic.AddInt64(&p.stats.Errors, 1)
	if t.Retry != nil && t.attempt+1 < t.Retry.WithDefaults().MaxAttempts && retry.IsTransient(err) {
		// Re-enqueue after the policy's backoff. The new incarnation is
		// registered with pending before this one is released, so Drain
		// and Close keep waiting for the task's final outcome.
		nt := t
		nt.attempt++
		p.pendN.Add(1)
		atomic.AddInt64(&p.stats.Retries, 1)
		time.AfterFunc(t.Retry.Backoff(nt.attempt), func() { p.requeue(nt) })
		p.donePending()
		return
	}
	if p.cfg.OnError != nil {
		p.cfg.OnError(err)
	}
	if t.OnDone != nil {
		t.OnDone(err)
	}
	p.donePending()
}

// invoke runs the task body under panic isolation: a panicking task is
// converted into a *retry.PanicError (with stack) instead of killing
// the driver goroutine or deadlocking Drain.
func (p *Pool) invoke(slot int, t Task) (err error) {
	defer func() {
		if r := recover(); r != nil {
			atomic.AddInt64(&p.stats.Panics, 1)
			err = retry.Recovered(r)
		}
	}()
	if t.RunSlot != nil {
		return t.RunSlot(slot)
	}
	if t.Run == nil {
		return nil
	}
	return t.Run()
}

// donePending retires one open task and wakes every parked drainer at
// a zero crossing.
func (p *Pool) donePending() {
	if p.pendN.Add(-1) != 0 {
		return
	}
	p.drainMu.Lock()
	ds := p.drainers
	p.drainers = nil
	p.drainMu.Unlock()
	for _, ch := range ds {
		close(ch)
	}
}

// Drain blocks until every task enqueued so far (and every follow-up
// task they spawn) has finished. Unlike a WaitGroup wait it is safe
// against Submits racing the drain: the register-then-recheck dance
// closes the lost-wakeup window, and a waiter left registered across a
// missed crossing is swept (its channel closed) at the next one.
func (p *Pool) Drain() {
	for {
		if p.pendN.Load() == 0 {
			return
		}
		ch := make(chan struct{})
		p.drainMu.Lock()
		p.drainers = append(p.drainers, ch)
		p.drainMu.Unlock()
		if p.pendN.Load() == 0 {
			return
		}
		<-ch
	}
}

// Close stops accepting tasks, waits for the queue to drain, and stops
// the drivers. Tasks still in flight (and the follow-ups they cascade)
// complete; Submits racing Close either land before the drain finishes
// and are executed, or observe the closed flag and fail cleanly.
func (p *Pool) Close() {
	p.Drain()
	p.closeMu.Lock()
	p.closed.Store(true)
	p.closeMu.Unlock()
	p.wakeAll()
	p.drivers.Wait()
}
