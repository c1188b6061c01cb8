package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"testing"
	"time"

	"triggerman"
	"triggerman/internal/agg"
	"triggerman/internal/datasource"
	"triggerman/internal/discrim"
	"triggerman/internal/exec"
	"triggerman/internal/parser"
	"triggerman/internal/predindex"
	"triggerman/internal/storage"
	"triggerman/internal/taskq"
	"triggerman/internal/types"
)

// The per-layer ledger. "replay" numbers come from timing direct calls
// into one layer's public functions on the loaded system, with a sample
// of the workload's own tokens, on one goroutine; "boundary" numbers are
// deltas of public counters over the saturation phase.

// replaySample is how many of the saturation phase's tokens the replay
// pass uses.
const replaySample = 2000

// gcCPUSeconds reads the collector's cumulative CPU time.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		return s[0].Value.Float64()
	}
	return 0
}

// timerOverheadNs is the cost of the two clock reads around a timed
// call, measured once and subtracted from every replay median.
var timerOverheadNs = func() float64 {
	samples := make([]float64, 2001)
	for i := range samples {
		begin := time.Now()
		samples[i] = float64(time.Since(begin))
	}
	return median(samples)
}()

// timeCalls times each of n calls of fn and returns the median in ns,
// less the clock's own overhead (never below 1).
func timeCalls(n int, fn func(i int)) float64 {
	if n <= 0 {
		return 0
	}
	samples := make([]float64, n)
	for i := 0; i < n; i++ {
		begin := time.Now()
		fn(i)
		samples[i] = float64(time.Since(begin))
	}
	if m := median(samples) - timerOverheadNs; m > 1 {
		return m
	}
	return 1
}

// reorgWatch counts constant-set organization changes by looking at
// every signature's organization after each DDL call the generator
// makes — reorganizations happen only inside AddPredicate, so none is
// missed.
type reorgWatch struct {
	in    *instance
	last  map[uint64]predindex.Organization
	count int64
}

func newReorgWatch(in *instance) reorgWatch {
	w := reorgWatch{in: in, last: make(map[uint64]predindex.Organization)}
	w.poll()
	w.count = 0
	return w
}

func (w *reorgWatch) poll() {
	for _, h := range w.in.src {
		for _, e := range w.in.sys.PredIndex().Signatures(h.Source().ID) {
			org := e.Organization()
			if prev, seen := w.last[e.ID]; seen && prev != org {
				w.count++
			}
			w.last[e.ID] = org
		}
	}
}

// sampler watches what has no counter: the queue's depth and the
// goroutine count, every 10 ms of a traced run.
type sampler struct {
	stop, done        chan struct{}
	queueMax, goroMax int64
}

func startSampler(sys *triggerman.System) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				if d, ok := sys.Metrics().Value("tman_queue_depth"); ok && d > s.queueMax {
					s.queueMax = d
				}
				if g := int64(runtime.NumGoroutine()); g > s.goroMax {
					s.goroMax = g
				}
			}
		}
	}()
	return s
}

func (s *sampler) halt() {
	close(s.stop)
	<-s.done
}

// replayResult holds the replay pass's medians (ns unless named _us).
type replayResult struct {
	enqueue, dequeue, codec        float64
	submit, runWaitUs              float64
	match                          float64
	pin, missLoadUs                float64
	notify, add, remove            float64
	apply                          float64
	substitute, execStmt, raise    float64
	allocsPerAction                float64
	busRaise                       float64
	parse, createUs, dropUs        float64
	memoryRows, groups, signatures int64
}

// replay runs the replay pass on the loaded, drained instance. The
// harness's consumer must already be stopped: replay raises events.
func replay(in *instance, first, last int) (replayResult, error) {
	var rr replayResult
	sys, sp := in.sys, in.sp
	cat := sys.Catalog()

	// One subscriber drains the bus for the whole pass, so every raise is
	// timed with a listener, as in the run.
	sub, err := sys.Subscribe("*", 1024)
	if err != nil {
		return rr, err
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range sub.C() {
		}
	}()
	defer func() {
		sub.Cancel()
		<-drained
	}()

	var toks []datasource.Token
	for i := first; i < last && len(toks) < replaySample; i++ {
		if !sp.stream[i].isDDL() {
			toks = append(toks, in.token(i))
		}
	}
	if len(toks) == 0 {
		return rr, fmt.Errorf("replay: the saturation phase sent no tokens")
	}
	from := func(src uint8, insertOnly bool) []datasource.Token {
		id := in.src[src].Source().ID
		var out []datasource.Token
		for _, t := range toks {
			if t.SourceID == id && (!insertOnly || t.Op == datasource.OpInsert) {
				out = append(out, t)
			}
		}
		return out
	}

	// datasource: a stand-alone queue of the workload's kind. The
	// persistent queue sits on a memory disk here, so this is the queue's
	// own work; the device's time is the storage layer's.
	var q datasource.Queue = datasource.NewMemQueue()
	if in.opts.Queue == triggerman.PersistentQueue {
		tq, err := datasource.NewTableQueue(storage.NewBufferPool(storage.NewMem(), in.opts.BufferPoolPages))
		if err != nil {
			return rr, err
		}
		tq.SetDurable(in.opts.DurableQueue)
		q = tq
	}
	rr.enqueue = timeCalls(len(toks), func(i int) { q.Enqueue(toks[i]) })
	rr.dequeue = timeCalls(len(toks)/16, func(int) { q.DequeueBatch(16) }) / 16
	rr.codec = timeCalls(len(toks), func(i int) { datasource.DecodeToken(toks[i].Encode()) })

	// taskq: no-op keyed tasks on a stand-alone two-driver pool.
	pool := taskq.New(taskq.Config{Drivers: 2})
	submitted := make([]time.Time, len(toks))
	waits := make([]float64, len(toks))
	rr.submit = timeCalls(len(toks), func(i int) {
		submitted[i] = time.Now()
		pool.Submit(taskq.Task{Kind: taskq.ProcessToken, Key: int64(i%4) + 1, Run: func() error {
			waits[i] = float64(time.Since(submitted[i])) / 1e3
			return nil
		}})
	})
	pool.Drain()
	pool.Close()
	rr.runWaitUs = median(waits)

	// predindex, and the trigger ids its matches name for the cache.
	var fired []uint64
	rr.match = timeCalls(len(toks), func(i int) {
		sys.PredIndex().MatchToken(toks[i], func(m predindex.Match) bool {
			if len(fired) < replaySample {
				fired = append(fired, m.TriggerID)
			}
			return true
		})
	})
	rr.pin = timeCalls(len(fired), func(i int) {
		if _, unpin, err := cat.Pin(fired[i]); err == nil {
			unpin()
		}
	})
	rr.missLoadUs = timeCalls(min(len(fired), 500), func(i int) {
		cat.Cache().Invalidate(fired[i])
		if _, unpin, err := cat.Pin(fired[i]); err == nil {
			unpin()
		}
	}) / 1e3

	pinned := func(name string) (*loaded, error) {
		id, ok := cat.TriggerByName(name)
		if !ok {
			return nil, fmt.Errorf("replay: trigger %s is not defined", name)
		}
		lt, unpin, err := cat.Pin(id)
		if err != nil {
			return nil, err
		}
		return &loaded{id: id, lt: lt, unpin: unpin}, nil
	}

	// discrim: one network, the workload's own house inserts; every call
	// is undone so the memories end as they began.
	if h := sp.replay; h.joinTrigger != "" {
		l, err := pinned(h.joinTrigger)
		if err != nil {
			return rr, err
		}
		net, hs := l.lt.Network, from(h.joinSource, true)
		combo := func(discrim.Combo) bool { return true }
		rr.notify = timeCalls(len(hs), func(i int) { net.NotifyToken(h.joinVar, hs[i], combo) })
		for _, t := range hs {
			net.RemoveTuple(h.joinVar, t.New)
		}
		rr.add = timeCalls(len(hs), func(i int) { net.AddTuple(h.joinVar, hs[i].New) })
		rr.remove = timeCalls(len(hs), func(i int) { net.RemoveTuple(h.joinVar, hs[i].New) })
		l.unpin()
	}
	if h := sp.replay; h.aggTrigger != "" {
		l, err := pinned(h.aggTrigger)
		if err != nil {
			return rr, err
		}
		st, sales := l.lt.Agg.State, from(h.aggSource, true)
		rr.apply = timeCalls(len(sales), func(i int) {
			st.Apply(agg.OpInsert, nil, sales[i].New, false, true, l.lt.Agg.Having)
		})
		for _, t := range sales {
			st.Apply(agg.OpDelete, t.New, nil, true, false, l.lt.Agg.Having)
		}
		rr.groups = int64(st.Groups())
		l.unpin()
	}

	// exec and event: the workload's own actions, bound to its own tokens.
	exe := &exec.Executor{DB: sys.DB(), Bus: sys.Bus()}
	bind := func(l *loaded) ([]datasource.Token, func(i int) exec.Binding, func(int) *types.Schema) {
		var mine []datasource.Token
		for _, t := range toks {
			if t.SourceID == l.lt.Sources[0] && t.Op != datasource.OpDelete {
				mine = append(mine, t)
			}
		}
		binding := func(i int) exec.Binding {
			return exec.Binding{VarIndex: l.lt.VarIndex, Tuples: []types.Tuple{mine[i].New}, Olds: []types.Tuple{mine[i].Old}}
		}
		schemaOf := func(v int) *types.Schema {
			if v < 0 || v >= len(l.lt.Schemas) {
				return nil
			}
			return l.lt.Schemas[v]
		}
		return mine, binding, schemaOf
	}
	{
		l, err := pinned(sp.replay.raiseTrigger)
		if err != nil {
			return rr, err
		}
		mine, binding, schemaOf := bind(l)
		if len(mine) == 0 {
			return rr, fmt.Errorf("replay: no sample token for trigger %s", sp.replay.raiseTrigger)
		}
		rr.raise = timeCalls(len(mine), func(i int) { exe.Execute(l.id, l.lt.Action, binding(i), schemaOf) })
		rr.allocsPerAction = testing.AllocsPerRun(200, func() { exe.Execute(l.id, l.lt.Action, binding(0), schemaOf) })
		args := types.Tuple{types.NewInt(-1)}
		rr.busRaise = timeCalls(len(toks), func(int) { sys.Bus().Raise("t", args, l.id) })
		l.unpin()
	}
	if name := sp.replay.execTrigger; name != "" {
		l, err := pinned(name)
		if err != nil {
			return rr, err
		}
		mine, binding, schemaOf := bind(l)
		stmt := l.lt.Action.(*parser.ExecSQL).Stmt
		bound := make([]parser.Statement, len(mine))
		rr.substitute = timeCalls(len(mine), func(i int) { bound[i], _ = exec.SubstituteStatement(stmt, binding(i), schemaOf) })
		rr.execStmt = timeCalls(len(mine), func(i int) { sys.DB().ExecStmt(bound[i]) })
		// The dominant action here is the execSQL one. It is run through the
		// bare database: no capture, so no cascade is started.
		rr.allocsPerAction = testing.AllocsPerRun(200, func() { exe.Execute(l.id, l.lt.Action, binding(0), schemaOf) })
		l.unpin()
	}

	// parser and the catalog's create path.
	rr.parse = timeCalls(len(toks), func(i int) { parser.Parse(sp.ddl[i%len(sp.ddl)]) })
	const ddlPairs = 100
	names := make([]string, ddlPairs)
	texts := make([]string, ddlPairs)
	for i := range names {
		names[i] = fmt.Sprintf("zz_replay_%d", i)
		texts[i] = fmt.Sprintf(sp.replay.ddlTrigger, names[i])
	}
	var ddlErr error
	rr.createUs = timeCalls(ddlPairs, func(i int) {
		if err := sys.CreateTrigger(texts[i]); err != nil {
			ddlErr = err
		}
	}) / 1e3
	rr.dropUs = timeCalls(ddlPairs, func(i int) {
		if err := sys.DropTrigger(names[i]); err != nil {
			ddlErr = err
		}
	}) / 1e3
	if ddlErr != nil {
		return rr, fmt.Errorf("replay: ddl: %w", ddlErr)
	}

	for _, id := range cat.TriggerIDs() {
		if shape, ok := cat.NetworkShape(id); ok {
			rr.memoryRows += int64(shape.AlphaTuples)
		}
	}
	for _, sd := range sp.sources {
		if n := int64(sys.SignatureCountFor(sd.name)); n > rr.signatures {
			rr.signatures = n
		}
	}
	return rr, nil
}

// layerCosts are ns per generator token, by layer, over the saturation
// phase: a layer's replay median times how often the run called it.
type layerCosts map[string]float64

func (c layerCosts) share(layers ...string) float64 {
	total, part := 0.0, 0.0
	for _, v := range c {
		total += v
	}
	for _, l := range layers {
		part += c[l]
	}
	if total == 0 {
		return 0
	}
	return part / total
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
