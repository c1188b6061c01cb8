package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"triggerman"
	"triggerman/internal/catalog"
	"triggerman/internal/trace"
)

// loaded is a trigger pinned in the trigger cache for the replay pass.
type loaded struct {
	id    uint64
	lt    *catalog.LoadedTrigger
	unpin func()
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runConfig is one invocation's parameters.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	quick    bool
	breakOne bool
	workdir  string
	traceOut string
	// tweak, when a test sets it, adjusts the generated spec before the run.
	tweak func(*spec)
}

// runOutput is everything one run of one workload reports.
type runOutput struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Traced    bool              `json:"traced"`
	InputHash string            `json:"input_hash"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	EndToEnd  map[string]metric `json:"end_to_end,omitempty"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	// Samples gives the sample count behind each timing and, for the
	// tail, which percentile the sample supported.
	Samples  map[string]string `json:"samples,omitempty"`
	Failures []string          `json:"failures,omitempty"`
}

// setupRepeats is how often an end-to-end run sets the system up; the
// reported setup_s is the median, and the last set-up is the one used.
const setupRepeats = 3

// hardDeadline bounds one run of one workload (the contract allows 180 s).
const hardDeadline = 140 * time.Second

// mainResult is what the four phases on one instance yield.
type mainResult struct {
	r             *runner
	sat, lo, hi   phaseResult
	end           counters
	failures      []string
	dropped       int64
	ddlPairUs     []float64
	liveHeapBytes uint64
	smp           *sampler
}

// runPhases drives a set-up instance through warm-up, saturation, the
// two paced windows, the final Drain and the output check.
func runPhases(in *instance, cfg runConfig, abort chan struct{}) (*mainResult, error) {
	sp := in.sp
	res := &mainResult{r: newRunner(in, cfg.traced, cfg.breakOne, abort)}
	r := res.r
	defer r.stop()
	if cfg.traced {
		res.smp = startSampler(in.sys)
		defer res.smp.halt()
	}
	p := splitPhases(cfg.seconds)
	var err error
	if _, err = r.closedPhase(p.warm); err != nil { // warm-up: discarded
		return res, err
	}
	if res.sat, err = r.closedPhase(p.sat); err != nil {
		return res, err
	}
	if res.lo, err = r.pacedPhase(sp.rateLo, p.lo); err != nil {
		return res, err
	}
	if res.hi, err = r.pacedPhase(sp.rateHi, p.hi); err != nil {
		return res, err
	}
	sent := r.next
	res.failures = append(res.failures, sp.check(r, sent)...)
	if r.exhausted {
		res.failures = append(res.failures, "the pre-generated stream ran out: raise the workload's capRate")
	}
	res.end = r.snapshot()
	res.dropped = in.sub.Dropped()
	res.ddlPairUs = r.ddlPairs()
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.liveHeapBytes = ms.HeapInuse
	return res, nil
}

// failedOps adds up the failed operations the counters show; failed
// output checks are added by the caller.
func (m *mainResult) failedOps() int64 {
	st := m.end.stats
	return m.r.refused + m.r.mismatched() + m.dropped + int64(st.DeadLetters) + st.DeadLettered + st.Errors
}

// endToEnd computes the gated end-to-end metrics of a finished run.
func (m *mainResult) endToEnd(setupSeconds float64, out *runOutput) {
	sat := m.sat
	tokens := math.Max(1, float64(sat.tokens()))
	put := func(name string, v float64, unit string) { out.EndToEnd[name] = metric{v, unit} }
	put("tokens_per_s", tokens/sat.seconds(), "1/s")
	put("allocs_per_token", float64(sat.to.mem.Mallocs-sat.from.mem.Mallocs)/tokens, "count")
	put("bytes_per_token", float64(sat.to.mem.TotalAlloc-sat.from.mem.TotalAlloc)/tokens, "B")
	put("live_heap_mb", float64(m.liveHeapBytes)/(1<<20), "MB")
	put("setup_s", setupSeconds, "s")
}

// ungated reports what is measured end to end but does not repeat well
// enough on the reference box to carry a bound: CPU per token, the
// capture call's and the paced windows' latencies (due instant to last
// terminal event), and DDL beside traffic.
func (m *mainResult) ungated(out *runOutput) {
	sat := m.sat
	tokens := math.Max(1, float64(sat.tokens()))
	out.PerLayer["pipeline.cpu_us_per_token"] = metric{float64(sat.to.cpuNs-sat.from.cpuNs) / 1e3 / tokens, "us"}
	caps := m.r.captures(sat)
	out.PerLayer["datasource.capture_p50_us"] = metric{percentile(caps, 0.5), "us"}
	out.PerLayer["datasource.capture_p99_us"] = metric{percentile(caps, 0.99), "us"}
	out.Samples["datasource.capture_p50_us"] = fmt.Sprintf("n=%d", len(caps))
	lo, _ := m.r.latencies(m.lo)
	hi, _ := m.r.latencies(m.hi)
	out.PerLayer["latency.fire_lo_p50_us"] = metric{percentile(lo, 0.5), "us"}
	out.PerLayer["latency.fire_hi_p50_us"] = metric{percentile(hi, 0.5), "us"}
	out.Samples["latency.fire_lo_p50_us"] = fmt.Sprintf("n=%d", len(lo))
	out.Samples["latency.fire_hi_p50_us"] = fmt.Sprintf("n=%d", len(hi))
	// DDL beside traffic (churn_mixed only; 0 elsewhere): one sample is a
	// trigger's CreateTrigger plus its DropTrigger, because the two differ
	// and a median over both kinds would sit between two modes.
	out.PerLayer["parser.ddl_p50_us"] = metric{percentile(m.ddlPairUs, 0.5), "us"}
	out.Samples["parser.ddl_p50_us"] = fmt.Sprintf("n=%d", len(m.ddlPairUs))
	out.PerLayer["latency.fire_hi_p99_us"] = metric{percentile(hi, 0.99), "us"}
	// The highest percentile with at least ten samples beyond it.
	q := highestSupported(len(hi))
	out.PerLayer["latency.fire_hi_tail_us"] = metric{percentile(hi, q), "us"}
	out.Samples["latency.fire_hi_tail_us"] = fmt.Sprintf("n=%d p%g", len(hi), q*100)
}

// runWorkload performs one run of one workload: an end-to-end run
// (three set-ups, the phases, the output check) or, traced, the same
// phases with tracing on followed by the replay pass and the sub-runs.
func runWorkload(cfg runConfig) (*runOutput, error) {
	began := time.Now()
	sp, err := buildSpec(cfg.workload, cfg.seed, scale{quick: cfg.quick, seconds: cfg.seconds})
	if err != nil {
		return nil, err
	}
	if cfg.tweak != nil {
		cfg.tweak(sp)
	}
	out := &runOutput{
		Workload: sp.name, Seed: cfg.seed, Traced: cfg.traced, InputHash: sp.inputHash(),
		EndToEnd: map[string]metric{}, PerLayer: map[string]metric{}, Samples: map[string]string{},
	}
	abort := make(chan struct{})
	guard := time.AfterFunc(hardDeadline, func() { close(abort) })
	defer guard.Stop()
	// stage writes the run's timeline to standard error, so that a run
	// that is slow or stuck says where.
	stage := func(what string) {
		fmt.Fprintf(os.Stderr, "bench: %7.2fs %s %s\n", time.Since(began).Seconds(), sp.name, what)
	}
	stage("inputs generated")

	var in *instance
	setups := make([]float64, 0, setupRepeats)
	repeats := setupRepeats
	mutate := func(*triggerman.Options) {}
	if cfg.traced {
		repeats = 1
		mutate = func(o *triggerman.Options) { o.TraceSampleEvery = 1 }
	}
	for k := 0; k < repeats; k++ {
		if in != nil {
			in.close()
			runtime.GC()
		}
		if in, err = openInstance(sp, cfg.workdir, cfg.traced, mutate); err != nil {
			return nil, err
		}
		setups = append(setups, in.setupSeconds)
		stage(fmt.Sprintf("set-up %d of %d done", k+1, repeats))
	}
	defer func() {
		in.close()
		stage("closed")
	}()

	m, err := runPhases(in, cfg, abort)
	if err != nil {
		return nil, err
	}
	stage("phases and output check done")
	out.Failures = append(out.Failures, m.failures...)
	if !cfg.quick && math.Abs(sp.meanFirings-faninMeanFirings) > 0.1*faninMeanFirings && sp.name == "fanin_match" {
		out.Failures = append(out.Failures, fmt.Sprintf("mean firings per token is %.3f, want %g +- 10%%", sp.meanFirings, faninMeanFirings))
	}
	out.Attempted = m.r.sentTokens
	m.endToEnd(median(setups), out)
	m.ungated(out)
	if cfg.traced {
		if err := tracedExtras(in, cfg, m, out, abort); err != nil {
			return nil, err
		}
	}
	out.Failed = m.failedOps() + int64(len(out.Failures))
	out.PerLayer["pipeline.failed_ops_ratio"] = metric{float64(out.Failed) / math.Max(1, float64(out.Attempted)), "ratio"}
	out.Correct = out.Failed == 0
	describeFailures(m, out)
	return out, nil
}

// describeFailures says in words what the failure count is made of.
func describeFailures(m *mainResult, out *runOutput) {
	st := m.end.stats
	shown := 0
	for i := 0; i < m.r.next && shown < 5; i++ {
		o := &m.r.ops[i]
		if rem := m.r.remaining[i]; rem != 0 && rem != refused && !o.isDDL() {
			out.Failures = append(out.Failures, fmt.Sprintf(
				"token %d (kind %d on %s, fields %v): expected %d events, %d still missing",
				i, o.kind, m.r.in.sp.sources[o.src].name, o.f, o.expect, rem))
			shown++
		}
	}
	for _, c := range []struct {
		n    int64
		what string
	}{
		{m.r.refused, "capture or DDL calls refused"},
		{m.r.mismatched(), "tokens whose received event count differs from the expected one"},
		{m.dropped, "subscription events dropped"},
		{int64(st.DeadLetters) + st.DeadLettered, "dead letters"},
		{st.Errors, "asynchronous processing errors"},
	} {
		if c.n > 0 {
			out.Failures = append(out.Failures, fmt.Sprintf("%d %s", c.n, c.what))
		}
	}
}

// subRun runs a short closed-loop saturation on a fresh instance whose
// options mutate adjusts, and returns its throughput.
func subRun(sp *spec, cfg runConfig, abort chan struct{}, mutate func(*triggerman.Options), sync bool) (float64, []string, error) {
	in, err := openInstance(sp, cfg.workdir, false, mutate)
	if err != nil {
		return 0, nil, err
	}
	defer in.close()
	r := newRunner(in, false, false, abort)
	defer r.stop()
	p := splitPhases(cfg.seconds)
	if _, err := r.closedPhase(p.warm / 3); err != nil {
		return 0, nil, err
	}
	res, err := r.closedPhase(p.sat / 3)
	if err != nil {
		return 0, nil, err
	}
	var bad []string
	if n := r.mismatched(); n > 0 {
		bad = append(bad, fmt.Sprintf("sub-run: %d tokens with a wrong event count", n))
	}
	if sync && sp.syncCheck != nil {
		bad = append(bad, sp.syncCheck(r, r.next)...)
	}
	return float64(res.tokens()) / res.seconds(), bad, nil
}

// tracedExtras adds everything only the traced run produces: boundary
// counters, the replay pass, the three sub-runs and the span file.
func tracedExtras(in *instance, cfg runConfig, m *mainResult, out *runOutput, abort chan struct{}) error {
	sp, r, sat := in.sp, m.r, m.sat
	tokens := math.Max(1, float64(sat.tokens()))
	put := func(name string, v float64, unit string) { out.PerLayer[name] = metric{v, unit} }
	per := func(delta int64) float64 { return float64(delta) / tokens }
	a, b := sat.from.stats, sat.to.stats
	ratio := func(num, den int64, empty float64) float64 {
		if den == 0 {
			return empty
		}
		return float64(num) / float64(den)
	}

	rr, err := replay(in, sat.first, sat.last)
	if err != nil {
		return err
	}

	// datasource
	put("datasource.enqueue_ns", rr.enqueue, "ns")
	put("datasource.dequeue_ns", rr.dequeue, "ns")
	put("datasource.codec_ns", rr.codec, "ns")
	put("datasource.queue_depth_max", float64(m.smp.queueMax), "count")
	// storage
	d0, d1 := sat.from.disk, sat.to.disk
	put("storage.page_reads_per_ktoken", 1000*per(d1.reads-d0.reads), "count")
	put("storage.page_writes_per_ktoken", 1000*per(d1.writes-d0.writes), "count")
	put("storage.syncs_per_ktoken", 1000*per(d1.syncs-d0.syncs), "count")
	put("storage.disk_busy_share", float64(d1.busyNs-d0.busyNs)/(sat.seconds()*1e9*2), "ratio")
	hits, misses := int64(b.BufferPool.Hits-a.BufferPool.Hits), int64(b.BufferPool.Misses-a.BufferPool.Misses)
	put("storage.pool_hit_ratio", ratio(hits, hits+misses, 1), "ratio")
	put("storage.evictions_per_ktoken", 1000*per(int64(b.BufferPool.Evictions-a.BufferPool.Evictions)), "count")
	// taskq
	put("taskq.submit_ns", rr.submit, "ns")
	put("taskq.run_wait_p50_us", rr.runWaitUs, "us")
	put("taskq.tasks_per_token", per(b.Pool.Enqueued-a.Pool.Enqueued), "count")
	put("taskq.steals_per_ktoken", 1000*per(b.Pool.Steals-a.Pool.Steals), "count")
	put("taskq.parks_per_ktoken", 1000*per(b.Pool.Parks-a.Pool.Parks), "count")
	put("taskq.retries", float64(b.Pool.Retries-a.Pool.Retries), "count")
	// predindex
	put("predindex.match_ns", rr.match, "ns")
	put("predindex.sig_probes_per_token", per(b.Index.SigProbes-a.Index.SigProbes), "count")
	put("predindex.const_compares_per_token", per(b.Index.ConstCompares-a.Index.ConstCompares), "count")
	put("predindex.rest_tests_per_token", per(b.Index.RestTests-a.Index.RestTests), "count")
	put("predindex.matches_per_token", per(b.Index.Matches-a.Index.Matches), "count")
	put("predindex.useful_ratio", ratio(b.Index.Matches-a.Index.Matches, b.Index.ConstCompares-a.Index.ConstCompares, 0), "ratio")
	put("predindex.reorgs", float64(r.reorgs.count), "count")
	// cache
	ch, cm := b.TriggerCache.Hits-a.TriggerCache.Hits, b.TriggerCache.Misses-a.TriggerCache.Misses
	put("cache.pin_ns", rr.pin, "ns")
	put("cache.miss_load_us", rr.missLoadUs, "us")
	put("cache.hit_ratio", ratio(ch, ch+cm, 1), "ratio")
	put("cache.evictions_per_ktoken", 1000*per(b.TriggerCache.Evictions-a.TriggerCache.Evictions), "count")
	// discrim and agg
	put("discrim.notify_ns", rr.notify, "ns")
	put("discrim.add_ns", rr.add, "ns")
	put("discrim.remove_ns", rr.remove, "ns")
	put("discrim.combos_per_token", float64(r.tally.total["j"])/math.Max(1, float64(r.sentTokens)), "count")
	put("discrim.memory_rows", float64(rr.memoryRows), "count")
	put("agg.apply_ns", rr.apply, "ns")
	put("agg.groups", float64(rr.groups), "count")
	put("agg.transitions_per_ktoken", 1000*float64(r.tally.total["a"])/math.Max(1, float64(r.sentTokens)), "count")
	// exec and event
	actions, raised := b.ActionsRun-a.ActionsRun, b.EventsRaised-a.EventsRaised
	put("exec.substitute_ns", rr.substitute, "ns")
	put("exec.exec_stmt_ns", rr.execStmt, "ns")
	put("exec.raise_ns", rr.raise, "ns")
	put("exec.actions_per_token", per(actions), "count")
	put("exec.allocs_per_action", rr.allocsPerAction, "count")
	put("event.bus_raise_ns", rr.busRaise, "ns")
	put("event.delivered_ratio", ratio(b.EventsDelivered-a.EventsDelivered, raised, 1), "ratio")
	put("event.dropped", float64(m.dropped), "count")
	// parser
	put("parser.parse_ns", rr.parse, "ns")
	put("parser.create_trigger_us", rr.createUs, "us")
	put("parser.drop_trigger_us", rr.dropUs, "us")
	put("parser.signatures", float64(rr.signatures), "count")
	// runtime
	cpuNs := float64(sat.to.cpuNs - sat.from.cpuNs)
	put("runtime.gc_cycles", float64(sat.to.mem.NumGC-sat.from.mem.NumGC), "count")
	put("runtime.gc_pause_total_ms", float64(sat.to.mem.PauseTotalNs-sat.from.mem.PauseTotalNs)/1e6, "ms")
	put("runtime.gc_cpu_share", (sat.to.gcCPU-sat.from.gcCPU)*1e9/math.Max(1, cpuNs), "ratio")
	put("runtime.goroutines_max", float64(m.smp.goroMax), "count")
	// generator
	lag := append(append([]float64(nil), m.lo.lagNs...), m.hi.lagNs...)
	sort.Float64s(lag)
	put("generator.lag_p99_us", percentile(lag, 0.99)/1e3, "us")
	put("generator.window_full_share", float64(sat.blockedNs)/(sat.seconds()*1e9), "ratio")
	put("generator.backlog_lo", float64(m.lo.backlog), "count")
	put("generator.backlog_hi", float64(m.hi.backlog), "count")

	// The stage ledger, from the system's own tracer: the series an
	// operator sees in production are the ones the benchmark reports.
	for name, st := range map[string]trace.Stage{
		"capture": trace.StageCapture, "dequeue": trace.StageDequeue, "taskwait": trace.StageTaskWait,
		"match": trace.StageMatch, "propagate": trace.StagePropagate, "action": trace.StageAction,
		"deliver": trace.StageDeliver,
	} {
		d, _ := in.sys.Tracer().StageQuantile(st, 0.5)
		put("telemetry.stage_"+name+"_p50_us", float64(d)/1e3, "us")
	}

	// Layer costs per generator token: replay median x calls per token.
	persistent := in.opts.Queue == triggerman.PersistentQueue
	queueNs := rr.enqueue + rr.dequeue
	if persistent {
		queueNs += rr.codec
	}
	execs := actions - raised
	if execs < 0 {
		execs = 0
	}
	costs := layerCosts{
		"datasource": queueNs * per(b.TokensIn-a.TokensIn),
		"storage":    float64(d1.busyNs-d0.busyNs) / tokens,
		"taskq":      rr.submit * per(b.Pool.Enqueued-a.Pool.Enqueued),
		"predindex":  rr.match * per(b.Index.Tokens-a.Index.Tokens),
		"cache":      rr.pin * per(ch+cm),
		"exec":       math.Max(0, rr.raise-rr.busRaise)*per(raised) + (rr.substitute+rr.execStmt)*per(execs),
		"event":      rr.busRaise * per(raised),
	}
	if sp.stateCalls != nil {
		c := sp.stateCalls(sat.first, sat.last)
		costs["discrim"] = (rr.notify*float64(c.notify) + rr.add*float64(c.add) + rr.remove*float64(c.remove)) / tokens
		costs["agg"] = rr.apply * float64(c.apply) / tokens
	}
	if len(r.ddlNs) > 0 {
		// DDL beside traffic is measured where it happens, not replayed.
		total := 0.0
		for _, ns := range r.ddlNs {
			total += ns
		}
		costs["parser"] = total / math.Max(1, float64(r.sentTokens))
	}
	put("layers.index_cache_event_share", costs.share("predindex", "cache", "event"), "ratio")
	put("layers.queue_storage_exec_share", costs.share("datasource", "storage", "exec"), "ratio")
	put("layers.discrim_agg_share", costs.share("discrim", "agg"), "ratio")
	cpuLayers := 0.0
	for l, v := range costs {
		if l != "storage" { // device time is waiting, not CPU
			cpuLayers += v
		}
	}
	put("pipeline.self_us_per_token", out.PerLayer["pipeline.cpu_us_per_token"].Value-cpuLayers/1e3, "us")
	put("pipeline.dead_letters", float64(b.DeadLetters)+float64(b.DeadLettered), "count")
	put("pipeline.errors", float64(m.end.stats.Errors), "count")
	put("pipeline.batch_fill", ratio(sat.to.batchToks-sat.from.batchToks, sat.to.batches-sat.from.batches, 0), "count")

	if err := writeSpans(cfg, in, r); err != nil {
		return err
	}

	// The sub-runs, each a short saturation on a fresh system: the
	// single-threaded Synchronous baseline, then shipped defaults,
	// telemetry off, and every token traced. The last three are compared
	// with each other only — like with like; the main phases ran longer
	// and warmer.
	in.close()
	runtime.GC()
	rates := make([]float64, 4)
	for k, mutate := range []func(*triggerman.Options){
		func(o *triggerman.Options) { o.Synchronous = true },
		nil,
		func(o *triggerman.Options) { o.TraceSampleEvery, o.DisableProfiling, o.DisableSLO = -1, true, true },
		func(o *triggerman.Options) { o.TraceSampleEvery = 1 },
	} {
		rate, bad, err := subRun(sp, cfg, abort, mutate, k == 0)
		if err != nil {
			return err
		}
		rates[k] = rate
		out.Failures = append(out.Failures, bad...)
	}
	syncRate, base, quiet, traced := rates[0], rates[1], rates[2], rates[3]
	put("telemetry.tax_pct", 100*(quiet-base)/quiet, "%")
	put("telemetry.trace_all_pct", 100*(base-traced)/base, "%")
	put("pipeline.sync_tokens_per_s", syncRate, "1/s")
	return nil
}

// writeSpans writes the harness's own spans, one JSON object per line:
// capture (around each call into the system), disk.read|write|sync
// (from the wrapped disk manager) and event.receive (in the consumer).
// Spans of one token share its ts as id; the token is their parent.
func writeSpans(cfg runConfig, in *instance, r *runner) error {
	path := cfg.traceOut
	if path == "" {
		path = fmt.Sprintf("%s/spans-%s-%d.jsonl", cfg.workdir, in.sp.name, os.Getpid())
		defer os.Remove(path) // nothing generated is kept unless asked for
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := newSpanWriter(f)
	for i := 0; i < r.next; i++ {
		if r.ops[i].isDDL() {
			continue
		}
		w.span("capture", r.due[i], r.due[i]+int64(r.capNs[i]), int64(i))
	}
	for _, s := range r.recv {
		w.span("event.receive", s.at, s.at, s.ts)
	}
	offset := int64(in.disk.epoch.Sub(r.epoch))
	in.disk.mu.Lock()
	for _, s := range in.disk.spans {
		w.span([]string{"disk.read", "disk.write", "disk.sync"}[s.kind], s.start+offset, s.end+offset, -1)
	}
	in.disk.mu.Unlock()
	return w.close()
}
