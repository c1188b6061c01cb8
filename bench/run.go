package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"triggerman"
	"triggerman/internal/datasource"
	"triggerman/internal/event"
	"triggerman/internal/types"
)

// probeRoom is how many check tokens a workload's output check may send
// after the stream (their ts values follow the stream's).
const probeRoom = 1024

// refused marks, in runner.remaining, a token whose capture call
// returned an error: it is counted as refused, not as a mismatch.
const refused = -1 << 30

// window is the closed loop's bound on tokens sent but not complete.
const window = 1024

// subBuffer is the subscription's buffer. The bus drops on a full
// buffer, and a drop is a failure here, so the buffer holds the largest
// burst the workloads can produce: a window of tokens times the largest
// fan-out of a single token (fanin_match's range classes, about 1,000),
// bounded by what memory allows.
const subBuffer = 1 << 18

// sourceHandle is what the generator needs of a table or stream source.
type sourceHandle interface {
	Insert(types.Tuple) error
	Update(old, new types.Tuple) error
	Delete(types.Tuple) error
	Source() *datasource.Source
}

// instance is one opened, set-up system under test.
type instance struct {
	sp           *spec
	opts         triggerman.Options // as opened, before the traced run's disk wrapper
	sys          *triggerman.System
	src          []sourceHandle
	newT, oldT   []types.Tuple // scratch tuples per source, reused per send
	sub          *event.Subscription
	disk         *timedDisk // nil unless the run is traced or the workload file-backed
	dir          string
	setupSeconds float64
}

// phases are the four timed parts of one run.
type phases struct{ warm, sat, lo, hi time.Duration }

// splitPhases divides a run's measured seconds 3:15:8:8 into warm-up,
// saturation and the two paced windows (the issue's 3 s / 15 s / 8 s /
// 8 s at 34 s).
func splitPhases(seconds float64) phases {
	u := time.Duration(seconds / 34 * float64(time.Second))
	return phases{warm: 3 * u, sat: 15 * u, lo: 8 * u, hi: 8 * u}
}

// openInstance opens a system with the workload's options (adjusted by
// mutate), defines its sources and triggers, sends the seeding ops and
// subscribes. The time from Open to the end of seeding is setupSeconds.
func openInstance(sp *spec, workdir string, traced bool, mutate func(*triggerman.Options)) (*instance, error) {
	dir, err := os.MkdirTemp(workdir, sp.name+"-")
	if err != nil {
		return nil, err
	}
	opts := sp.options(dir)
	if mutate != nil {
		mutate(&opts)
	}
	in := &instance{sp: sp, dir: dir, opts: opts}
	if traced || opts.DiskPath != "" {
		if in.disk, err = wrapDisk(opts.DiskPath, traced); err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		opts.Disk = in.disk
	}
	begin := time.Now()
	if in.sys, err = triggerman.Open(opts); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	fail := func(err error) (*instance, error) {
		in.close()
		return nil, err
	}
	for _, sd := range sp.sources {
		var h sourceHandle
		if sd.table {
			h, err = in.sys.DefineTableSource(sd.name, sd.cols...)
		} else {
			h, err = in.sys.DefineStreamSource(sd.name, sd.cols...)
		}
		if err != nil {
			return fail(err)
		}
		in.src = append(in.src, h)
		in.newT = append(in.newT, make(types.Tuple, len(sd.cols)))
		in.oldT = append(in.oldT, make(types.Tuple, len(sd.cols)))
	}
	for _, text := range sp.ddl {
		if err := in.sys.CreateTrigger(text); err != nil {
			return fail(fmt.Errorf("%w: %s", err, text))
		}
	}
	for i := range sp.seedOps {
		if err := in.perform(&sp.seedOps[i], int64(-1-i)); err != nil {
			return fail(fmt.Errorf("seeding op %d: %w", i, err))
		}
	}
	in.sys.Drain()
	in.setupSeconds = time.Since(begin).Seconds()
	if in.sub, err = in.sys.Subscribe("*", subBuffer); err != nil {
		return fail(err)
	}
	return in, nil
}

// close shuts the system down and removes its directory. The file is
// deleted, not kept, so Close's final Sync is not passed to the device
// (see timedDisk).
func (in *instance) close() {
	if in.disk != nil {
		in.disk.closing.Store(true)
	}
	if in.sys != nil {
		in.sys.Close()
	}
	if in.disk != nil {
		in.disk.DiskManager.Close()
	}
	os.RemoveAll(in.dir)
}

// perform materialises one DML op into the scratch tuples and sends it.
func (in *instance) perform(o *op, ts int64) error {
	h, nw, old := in.src[o.src], in.newT[o.src], in.oldT[o.src]
	switch o.kind {
	case opInsert:
		in.sp.fill(o.src, o.f, ts, nw)
		return h.Insert(nw)
	case opUpdate:
		in.sp.fill(o.src, o.old, int64(o.oldTS), old)
		in.sp.fill(o.src, o.f, ts, nw)
		return h.Update(old, nw)
	case opDelete:
		in.sp.fill(o.src, o.old, int64(o.oldTS), old)
		return h.Delete(old)
	}
	return fmt.Errorf("op kind %d is not DML", o.kind)
}

// token builds the update descriptor the system derives from stream op
// i, with its own tuples (the replay pass keeps them).
func (in *instance) token(i int) datasource.Token {
	o := &in.sp.stream[i]
	tok := datasource.Token{SourceID: in.src[o.src].Source().ID}
	arity := len(in.sp.sources[o.src].cols)
	if o.kind != opInsert {
		tok.Old = make(types.Tuple, arity)
		in.sp.fill(o.src, o.old, int64(o.oldTS), tok.Old)
	}
	if o.kind != opDelete {
		tok.New = make(types.Tuple, arity)
		in.sp.fill(o.src, o.f, int64(i), tok.New)
	}
	switch o.kind {
	case opUpdate:
		tok.Op = datasource.OpUpdate
	case opDelete:
		tok.Op = datasource.OpDelete
	}
	return tok
}

// eventTally counts, per token ts, the events that do not count toward
// completion (join and aggregate firings), for the synchronous check.
type eventTally struct {
	perTS map[string][]uint16
	total map[string]int64
}

// recvSpan is one event.receive span of the harness's own trace.
type recvSpan struct{ ts, at int64 }

// runner drives one instance through the phases of a run.
type runner struct {
	in    *instance
	ops   []op
	epoch time.Time

	// Per stream index. remaining is written only by the consumer; due and
	// capNs only by the generator before the op is sent; doneAt only by
	// the consumer. The system's own synchronisation orders the two sides.
	remaining []int32
	due       []int64 // ns since epoch the op was due (closed loop: sent)
	doneAt    []int64 // ns since epoch its last terminal event arrived
	capNs     []int32 // ns the generator was blocked in the capture call

	next       int       // next stream index to send
	sentTokens int64     // DML ops sent (generator only)
	refused    int64     // capture calls that returned an error
	ddlNs      []float64 // every DDL call
	createNs   []float64 // by ddl index: the last CreateTrigger's time
	pairUs     []float64 // create + drop of one trigger, per completed pair
	completed  atomic.Int64
	sem        chan struct{}
	abort      chan struct{} // closed at the run's hard deadline
	consumerWG sync.WaitGroup
	tally      eventTally
	exhausted  bool

	breakOne bool // -selftest-break: the consumer drops one counted event
	spansOn  bool
	recv     []recvSpan
	reorgs   reorgWatch
}

func newRunner(in *instance, spansOn, breakOne bool, abort chan struct{}) *runner {
	n := len(in.sp.stream) + probeRoom
	r := &runner{
		in: in, ops: in.sp.stream, epoch: time.Now(),
		remaining: make([]int32, n), due: make([]int64, n),
		doneAt: make([]int64, n), capNs: make([]int32, n),
		createNs: make([]float64, len(in.sp.ddlName)),
		sem:      make(chan struct{}, window), abort: abort,
		breakOne: breakOne, spansOn: spansOn,
		tally: eventTally{perTS: make(map[string][]uint16), total: make(map[string]int64)},
	}
	for i := range r.ops {
		r.remaining[i] = int32(r.ops[i].expect)
	}
	if spansOn {
		r.recv = make([]recvSpan, 0, n*4)
		r.reorgs = newReorgWatch(in)
	}
	r.consumerWG.Add(1)
	go r.consume()
	return r
}

func (r *runner) now() int64 { return int64(time.Since(r.epoch)) }

// consume is the consumer goroutine: it drains the subscription and
// marks a token complete when its expected number of events has come.
func (r *runner) consume() {
	defer r.consumerWG.Done()
	sp := r.in.sp
	for n := range r.in.sub.C() {
		ts := eventTS(n)
		switch n.Name {
		case countEvent:
		case deleteEvent:
			// A delete token carries only the old image, whose ts is that of
			// the token that wrote the row; the spec knows which delete
			// removed it.
			ts = sp.deleterOf(ts)
		default:
			// A join firing passes the ts of every tuple of the combination.
			// The newest of them is the token that completed it.
			for _, a := range n.Args[1:] {
				if f, ok := a.AsFloat(); ok && int64(f) > ts {
					ts = int64(f)
				}
			}
		}
		if ts < 0 || ts >= int64(len(r.remaining)) {
			continue // a seeding or replay tuple's ts
		}
		if n.Name != countEvent && n.Name != deleteEvent {
			per := r.tally.perTS[n.Name]
			if per == nil {
				per = make([]uint16, len(r.remaining))
				r.tally.perTS[n.Name] = per
			}
			per[ts]++
			r.tally.total[n.Name]++
			continue
		}
		if r.breakOne {
			r.breakOne = false
			continue
		}
		if r.spansOn {
			r.recv = append(r.recv, recvSpan{ts, r.now()})
		}
		rem := r.remaining[ts] - 1
		r.remaining[ts] = rem
		if rem == 0 { // a later, surplus event makes it negative: a mismatch
			r.doneAt[ts] = r.now()
			r.completed.Add(1)
			select {
			case <-r.sem:
			default:
			}
		}
	}
}

// eventTS reads the token id an event carries as its first argument
// (aggregate actions pass max(ts), which may arrive as a float).
func eventTS(n event.Notification) int64 {
	if len(n.Args) == 0 {
		return -1
	}
	if f, ok := n.Args[0].AsFloat(); ok {
		return int64(f)
	}
	return -1
}

var errStalled = errors.New("run passed its hard deadline")

// sendNext performs stream op r.next. due < 0 means "due now" (closed
// loop). DDL ops are timed into ddlNs; DML ops are tokens.
func (r *runner) sendNext(due int64) {
	i := r.next
	r.next++
	o := &r.ops[i]
	if o.isDDL() {
		begin := r.now()
		var err error
		if o.kind == opCreate {
			err = r.in.sys.CreateTrigger(r.in.sp.ddlText[o.f[0]])
		} else {
			err = r.in.sys.DropTrigger(r.in.sp.ddlName[o.f[0]])
		}
		took := float64(r.now() - begin)
		r.ddlNs = append(r.ddlNs, took)
		if o.kind == opCreate {
			r.createNs[o.f[0]] = took
		} else {
			r.pairUs = append(r.pairUs, (r.createNs[o.f[0]]+took)/1e3)
		}
		if err != nil {
			r.refused++
		}
		if r.spansOn {
			r.reorgs.poll()
		}
		return
	}
	begin := r.now()
	if due < 0 {
		due = begin
	}
	r.due[i] = due
	err := r.in.perform(o, int64(i))
	r.capNs[i] = int32(r.now() - begin)
	r.sentTokens++
	if err != nil {
		r.refused++
		// The token never entered the system: nothing will complete it.
		r.completed.Add(1)
		r.remaining[i] = refused
	}
}

// counters is what the harness reads at the two ends of a window.
type counters struct {
	at        int64
	completed int64
	cpuNs     int64
	mem       runtime.MemStats
	stats     triggerman.Stats
	disk      diskCounts
	gcCPU     float64
	batches   int64
	batchToks int64
}

// cpuTimeNs is the process's user plus system CPU time.
func cpuTimeNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func (r *runner) snapshot() counters {
	c := counters{completed: r.completed.Load(), stats: r.in.sys.Stats(), cpuNs: cpuTimeNs()}
	runtime.ReadMemStats(&c.mem)
	c.gcCPU = gcCPUSeconds()
	if r.in.disk != nil {
		c.disk = r.in.disk.counts()
	}
	c.batches, _ = r.in.sys.Metrics().Value("tman_token_batches_total")
	c.batchToks, _ = r.in.sys.Metrics().Value("tman_token_batch_tokens_total")
	c.at = r.now()
	return c
}

// phaseResult is what one timed window yields.
type phaseResult struct {
	from, to    counters
	first, last int // stream indices [first, last) sent in the window
	blockedNs   int64
	lagNs       []float64 // paced: send start minus due instant
	backlog     int64     // paced: tokens incomplete when the window closed
}

func (p phaseResult) seconds() float64 { return float64(p.to.at-p.from.at) / 1e9 }
func (p phaseResult) tokens() int64    { return p.to.completed - p.from.completed }

// closedPhase runs the closed loop for d: at most `window` tokens sent
// but not complete, the next one sent as soon as a slot frees.
func (r *runner) closedPhase(d time.Duration) (phaseResult, error) {
	res := phaseResult{first: r.next}
	res.from = r.snapshot()
	deadline := res.from.at + int64(d)
	for r.now() < deadline {
		if r.next >= len(r.ops) {
			r.exhausted = true
			break
		}
		if !r.ops[r.next].isDDL() {
			select {
			case r.sem <- struct{}{}:
			default:
				begin := r.now()
				select {
				case r.sem <- struct{}{}:
				case <-r.abort:
					return res, errStalled
				}
				res.blockedNs += r.now() - begin
			}
		}
		r.sendNext(-1)
	}
	res.to = r.snapshot()
	res.last = r.next
	return res, r.quiesce()
}

// spinBelow is how close to a due instant the open-loop generator stops
// sleeping and yields instead: time.Sleep overshoots by 0.5 to 1 ms on
// the reference box, which would be charged to every paced latency.
const spinBelow = 1500 * time.Microsecond

// pacedPhase runs the open loop for d at rate ops/s: op k is due at
// k/rate whatever the system does, and its latency is counted from
// that instant, so a stalled send delays — and is charged to — the
// sends behind it.
func (r *runner) pacedPhase(rate float64, d time.Duration) (phaseResult, error) {
	res := phaseResult{first: r.next}
	n := int(rate * d.Seconds())
	res.lagNs = make([]float64, 0, n)
	interval := 1e9 / rate
	res.from = r.snapshot()
	for k := 0; k < n; k++ {
		if r.next >= len(r.ops) {
			r.exhausted = true
			break
		}
		due := res.from.at + int64(float64(k)*interval)
		for {
			wait := time.Duration(due - r.now())
			if wait <= 0 {
				break
			}
			if wait > spinBelow {
				time.Sleep(wait - spinBelow + 500*time.Microsecond)
			} else {
				runtime.Gosched()
			}
		}
		select {
		case <-r.abort:
			return res, errStalled
		default:
		}
		res.lagNs = append(res.lagNs, float64(r.now()-due))
		r.sendNext(due)
	}
	res.to = r.snapshot()
	res.last = r.next
	res.backlog = r.sentTokens - res.to.completed
	return res, r.quiesce()
}

// quiesce waits until everything sent has been processed and every
// raised event has reached the consumer. After it, a token that is not
// complete never will be.
func (r *runner) quiesce() error {
	r.in.sys.Drain()
	idle := 0
	for idle < 3 {
		select {
		case <-r.abort:
			return errStalled
		default:
		}
		if r.completed.Load() >= r.sentTokens {
			break
		}
		if len(r.in.sub.C()) == 0 {
			idle++
		} else {
			idle = 0
		}
		time.Sleep(500 * time.Microsecond)
	}
	// Nothing is in flight now: free the slots of tokens that will never
	// complete, so the next closed phase starts with a full window.
	for len(r.sem) > 0 {
		<-r.sem
	}
	return nil
}

// stop ends the consumer: the subscription is cancelled, its channel
// closes, and the goroutine returns.
func (r *runner) stop() {
	r.in.sub.Cancel()
	r.consumerWG.Wait()
}

// latencies returns doneAt-due in µs, ascending, for the completed
// tokens of a window, and the number sent there that never completed.
func (r *runner) latencies(p phaseResult) (us []float64, incomplete int) {
	for i := p.first; i < p.last; i++ {
		if r.ops[i].isDDL() {
			continue
		}
		if r.remaining[i] != 0 || r.doneAt[i] == 0 {
			incomplete++
			continue
		}
		us = append(us, float64(r.doneAt[i]-r.due[i])/1e3)
	}
	sort.Float64s(us)
	return us, incomplete
}

// captures returns the capture-call durations in µs, ascending, of the
// tokens sent in a window.
func (r *runner) captures(p phaseResult) []float64 {
	var us []float64
	for i := p.first; i < p.last; i++ {
		if !r.ops[i].isDDL() {
			us = append(us, float64(r.capNs[i])/1e3)
		}
	}
	sort.Float64s(us)
	return us
}

// mismatched counts the sent tokens whose received event count differs
// from the expected one (too few or too many).
func (r *runner) mismatched() int64 {
	var n int64
	for i := 0; i < r.next; i++ {
		if rem := r.remaining[i]; rem != 0 && rem != refused && !r.ops[i].isDDL() {
			n++
		}
	}
	return n
}

// ddlPairs returns create+drop round trips in µs, ascending.
func (r *runner) ddlPairs() []float64 {
	out := append([]float64(nil), r.pairUs...)
	sort.Float64s(out)
	return out
}

// probe sends check tokens after the stream and returns how many of
// them did not receive exactly their expected number of events.
func (r *runner) probe(ops []op) int {
	if len(ops) > probeRoom {
		ops = ops[:probeRoom]
	}
	base := len(r.ops)
	for k := range ops {
		idx := base + k
		r.remaining[idx] = int32(ops[k].expect)
		r.due[idx] = r.now()
		r.sentTokens++
		if err := r.in.perform(&ops[k], int64(idx)); err != nil {
			r.refused++
			r.completed.Add(1)
		}
	}
	if err := r.quiesce(); err != nil {
		return len(ops)
	}
	bad := 0
	for k := range ops {
		if r.remaining[base+k] != 0 {
			bad++
		}
	}
	return bad
}
