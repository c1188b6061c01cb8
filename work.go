package triggerman

import (
	"sync"
	"sync/atomic"
	"time"

	"triggerman/internal/catalog"
	"triggerman/internal/datasource"
	"triggerman/internal/discrim"
	"triggerman/internal/exec"
	"triggerman/internal/predindex"
	"triggerman/internal/trace"
	"triggerman/internal/types"
)

// work is the pipeline's scratch: the arguments of one step of one
// token's way through process.go, the buffers that step fills, and the
// step's functions as values. A step takes one from the pool, and
// whoever ends the step puts it back: stage's caller for a token staged
// inline, the task's end (done) for a step submitted to the pool.
//
// The functions retry.Policy.Do and taskq.Task want are closures over
// the step's arguments; a closure made per token is a heap object per
// token, and the pipeline used to make eight. Here the arguments are
// fields, the closures are method values bound once when the work is
// made (newWork), and handing one to Do or Submit allocates nothing.
//
// Ownership: a work holds only what dies with its step. What it points
// at — the token's tuples, the matched trigger's description — is owned
// elsewhere and merely borrowed. What outlives the step owns its own
// memory and is never a slice of these buffers: tuples stored in alpha
// memories and aggregate groups, rows handed to Table.Insert, event
// arguments delivered to subscribers, dead-letter payloads. A
// rule-action task outlives the token step that fired it, as does an
// attempt a retry policy abandons, and the alpha-memory rows of a
// combination are the memories' (a removal clears and reuses their
// slots), so runCombo gives a firing a work of its own with its own copy
// of the combination, and of those rows when it can outlive the step.
// putWork clears every pointer, so a parked work pins neither a dropped
// trigger's predicate nor a token's tuples.
type work struct {
	s *System

	// The token, and where the step stands: the partition being staged
	// (predindex.AllParts for the whole token), the driver slot running
	// it, the token's span when it is traced.
	tok  datasource.Token
	part int
	slot int
	sp   *trace.Span
	// seq is the sequence number enqueue assigned (atomic: see enqueue).
	seq atomic.Uint64
	// submitAt is when a traced step was handed to the pool.
	submitAt time.Time

	// route's state: the probe's matches, the index of the one being
	// fired, and for a network trigger the pinned description onCombo
	// fires and the first failure it met. A firing's lt is the trigger
	// whose compiled action it runs.
	probe predindex.Buffer
	cur   int
	lt    *catalog.LoadedTrigger
	ferr  error
	one   [1]types.Tuple  // a single-variable firing's combination
	join  discrim.Scratch // the A-TREAT enumeration fire runs

	// A firing (runCombo sets firing and fills these; otherwise the work
	// is a token's or a partition's step): the trigger's id, and the
	// matched tuples the action's references read through env. vals holds
	// the firing's copies of its combination's memory rows, when it can
	// outlive the step (runCombo).
	firing       bool
	id           uint64
	tuples, olds []types.Tuple
	vals         types.Tuple
	env          exec.Env
	exe          *exec.Executor
	tracedExe    exec.Executor

	enqueueFn, routeFn, fireFn, execFn func() error
	runFn                              func(slot int) error
	doneFn                             func(error)
	comboFn                            discrim.PNode
	observeFn                          func(phase string, d time.Duration)
}

// works is the pipeline's one pool. Its New is set in init: newWork
// binds methods that reach putWork, which names works.
var works sync.Pool

func init() { works.New = func() any { return newWork() } }

func newWork() *work {
	w := new(work)
	w.enqueueFn, w.routeFn, w.fireFn, w.execFn = w.enqueue, w.route, w.fire, w.exec
	w.runFn, w.doneFn, w.comboFn, w.observeFn = w.run, w.done, w.onCombo, w.observe
	w.env.SchemaOf = w.schemaOf
	return w
}

func (s *System) getWork() *work {
	w := works.Get().(*work)
	w.s = s
	return w
}

// scribble, when a test sets it, overwrites a released work's buffers
// with garbage, so that anything still reading them shows.
var scribble func(*work)

// putWork ends w's step: every pointer it held is dropped, and it goes
// back to the pool — unless a retry policy abandons attempts that
// overrun (see own), when nothing that ran on it may be reused.
func (s *System) putWork(w *work) {
	if s.abandons {
		return
	}
	w.tok, w.sp, w.lt, w.ferr, w.one[0] = datasource.Token{}, nil, nil, nil, nil
	w.probe.Reset()
	w.firing, w.id, w.exe = false, 0, nil
	clear(w.tuples)
	clear(w.olds)
	clear(w.vals)
	w.tuples, w.olds, w.vals = w.tuples[:0], w.olds[:0], w.vals[:0]
	w.env.Binding = exec.Binding{}
	w.tracedExe = exec.Executor{}
	if scribble != nil {
		scribble(w)
	}
	works.Put(w)
}

// own is the first thing a retried step does. A policy with an attempt
// timeout abandons an attempt that overruns and starts the next, and
// the abandoned goroutine keeps running on the work it was given; each
// attempt under such a policy therefore runs on a copy of the step's
// arguments, and no work is recycled (putWork). Without a timeout —
// the default, and every configuration the repository runs — w is its
// own.
func (w *work) own() *work {
	if !w.s.abandons {
		return w
	}
	c := newWork()
	c.s, c.tok, c.part, c.slot, c.sp = w.s, w.tok, w.part, w.slot, w.sp
	if !w.firing && w.cur < len(w.probe.Matches) {
		c.probe.Matches = append(c.probe.Matches, w.probe.Matches[w.cur])
	}
	c.lt, c.firing, c.id, c.exe = w.lt, w.firing, w.id, w.exe
	c.tuples, c.olds = append(c.tuples, w.tuples...), append(c.olds, w.olds...)
	c.env.Binding = exec.Binding{VarIndex: w.env.VarIndex, Tuples: c.tuples, Olds: c.olds, Aggregates: w.env.Aggregates}
	return c
}

// enqueue puts the token on the queue (w.enqueueFn, under the queue
// retry policy). It reads w and writes only seq, atomically, so an
// abandoned attempt that ends late harms nothing: whichever attempt's
// token the caller attaches its span to is a queued one.
func (w *work) enqueue() error {
	queued, err := w.s.queue.Enqueue(w.tok)
	if err == nil {
		w.seq.Store(queued.Seq)
	}
	return err
}

// run is the body of the task w was submitted as (w.runFn): the firing
// runCombo filled in, or else the staging of w's token or partition.
func (w *work) run(slot int) error {
	if w.sp != nil {
		w.sp.Observe(trace.StageTaskWait, time.Since(w.submitAt))
	}
	w.slot = slot
	if w.firing {
		w.runAction()
	} else {
		w.s.stage(w)
	}
	return nil
}

// done ends the task w was submitted as (w.doneFn; also the end of a
// submission the pool refused).
func (w *work) done(error) {
	w.sp.Finish()
	w.s.putWork(w)
}

// exec is one attempt at the firing's action (w.execFn).
func (w *work) exec() error {
	w = w.own()
	return w.exe.Run(w.id, w.lt.Action, &w.env)
}

func (w *work) schemaOf(vi int) *types.Schema {
	if vi < 0 || vi >= len(w.lt.Schemas) {
		return nil
	}
	return w.lt.Schemas[vi]
}

// observe stamps event delivery inside a traced firing on its span.
func (w *work) observe(phase string, d time.Duration) {
	if phase == "deliver" {
		w.sp.Observe(trace.StageDeliver, d)
	}
}
