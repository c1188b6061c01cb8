// Package slo evaluates declarative latency objectives against the
// metrics registry with multi-window burn-rate alerting: it measures
// whether a latency contract holds and enforces nothing.
//
// An Objective names a latency contract — "interactive capture→deliver
// under 25ms for 99% of tokens" — backed by a cumulative histogram.
// The engine snapshots each objective's (total, good) counts at a fixed
// tick and derives the burn rate over sliding windows: the ratio of the
// observed bad fraction to the budgeted bad fraction (1 − target).
// Burn 1.0 spends the error budget exactly at the sustainable pace;
// burn 14.4 exhausts a 3-day budget in 5 hours.
//
// Alerting uses the standard multi-window pairing: a pair fires only
// when BOTH its short and long window exceed the pair's burn threshold
// — the short window makes the alert fast to resolve, the long window
// keeps a brief spike from paging. The defaults are a fast pair
// (5m/1h at 14.4×) and a slow pair (6h/3d at 1×).
package slo

import (
	"fmt"
	"sync"
	"time"

	"triggerman/internal/metrics"
)

// Source supplies an objective's cumulative counts: how many events
// total, and how many met the objective ("good"). Counts must be
// monotone; the engine works on deltas.
type Source interface {
	Totals() (total, good int64)
}

// HistogramSource adapts a latency histogram: good = observations in
// buckets provably at or under Cutoff (conservative — see
// Histogram.CountAtOrBelow).
type HistogramSource struct {
	H      *metrics.Histogram
	Cutoff time.Duration
}

// Totals implements Source.
func (s HistogramSource) Totals() (total, good int64) {
	return s.H.Count(), s.H.CountAtOrBelow(s.Cutoff)
}

// FuncSource adapts a closure — the fleet layer uses it to evaluate
// objectives over merged cross-node histogram snapshots, which have no
// live *metrics.Histogram to hand to HistogramSource.
type FuncSource func() (total, good int64)

// Totals implements Source.
func (f FuncSource) Totals() (total, good int64) { return f() }

// Objective is one declarative latency contract.
type Objective struct {
	// Name identifies the objective in metrics, /sloz, and events
	// (e.g. "interactive-p99").
	Name string
	// Class is the priority class whose histogram feeds the objective
	// (informational; shown in /sloz).
	Class string
	// Target is the good fraction the contract promises, e.g. 0.99.
	Target float64
	// Threshold is the latency cutoff defining "good".
	Threshold time.Duration
	// Source supplies the counts. Required.
	Source Source
}

// WindowPair is one multi-window alerting rule: the pair is burning
// when the burn rate over BOTH windows exceeds Burn.
type WindowPair struct {
	Name  string        `json:"name"`
	Short time.Duration `json:"short_ns"`
	Long  time.Duration `json:"long_ns"`
	// Burn is the rate threshold (1.0 = spending the budget exactly at
	// the sustainable pace).
	Burn float64 `json:"burn_threshold"`
}

// DefaultWindows returns the standard fast-page / slow-ticket pairs.
func DefaultWindows() []WindowPair {
	return []WindowPair{
		{Name: "fast", Short: 5 * time.Minute, Long: time.Hour, Burn: 14.4},
		{Name: "slow", Short: 6 * time.Hour, Long: 72 * time.Hour, Burn: 1.0},
	}
}

// Config tunes an Engine.
type Config struct {
	// Registry receives the tman_slo_* instruments; nil disables
	// metric export (evaluation still works).
	Registry *metrics.Registry
	// Tick is the snapshot resolution (default 10s). Burn rates cannot
	// resolve faster than this.
	Tick time.Duration
	// Windows overrides the alerting pairs (default DefaultWindows).
	Windows []WindowPair
	// Now overrides the clock (tests). Default time.Now.
	Now func() time.Time
	// OnEvent receives burn-state transitions for the event log:
	// OnEvent("slo.burn", "objective", name, "window", pair, "state",
	// "firing"|"resolved", ...). Nil drops them.
	OnEvent func(event string, args ...any)
}

// sample is one objective's counts at one tick.
type sample struct {
	at          time.Time
	total, good int64
}

// maxRing bounds per-objective history regardless of window/tick
// ratio; at the default 10s tick it holds 3.8 days.
const maxRing = 32768

// objState is one tracked objective plus its evaluation state.
type objState struct {
	Objective
	ring  []sample // bounded history ring
	next  int
	count int
	// burning tracks per-pair alert state (index matches cfg.Windows);
	// transitions emit slo.burn events.
	burning []bool
	// last evaluation, for Snapshot.
	status ObjectiveStatus

	gBurn    []*metrics.Gauge // per pair, short window burn (milli)
	gBurning *metrics.Gauge
	gBudget  *metrics.Gauge
}

// WindowStatus reports one pair's evaluation.
type WindowStatus struct {
	Name           string  `json:"name"`
	ShortBurnMilli int64   `json:"short_burn_milli"`
	LongBurnMilli  int64   `json:"long_burn_milli"`
	BurnThreshold  float64 `json:"burn_threshold"`
	Burning        bool    `json:"burning"`
}

// ObjectiveStatus is one objective's current verdict, JSON-shaped for
// /sloz.
type ObjectiveStatus struct {
	Name      string         `json:"name"`
	Class     string         `json:"class,omitempty"`
	Target    float64        `json:"target"`
	Threshold time.Duration  `json:"threshold_ns"`
	Total     int64          `json:"total"`
	Good      int64          `json:"good"`
	Windows   []WindowStatus `json:"windows"`
	Burning   bool           `json:"burning"`
	// BudgetRemainingMilli is the unspent error budget over the longest
	// window, in thousandths (1000 = untouched, 0 = exhausted).
	BudgetRemainingMilli int64 `json:"budget_remaining_milli"`
}

// Engine evaluates objectives on a tick.
type Engine struct {
	cfg Config

	mu   sync.Mutex
	objs []*objState

	started  bool
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// New builds an engine. Call Add for each objective, then Start (or
// drive Tick manually).
func New(cfg Config) *Engine {
	if cfg.Tick <= 0 {
		cfg.Tick = 10 * time.Second
	}
	if len(cfg.Windows) == 0 {
		cfg.Windows = DefaultWindows()
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Engine{cfg: cfg, stop: make(chan struct{}), done: make(chan struct{})}
}

// Windows reports the engine's alerting pairs.
func (e *Engine) Windows() []WindowPair { return e.cfg.Windows }

// Add registers an objective. The first evaluation happens at the next
// Tick.
func (e *Engine) Add(obj Objective) error {
	if obj.Name == "" || obj.Source == nil {
		return fmt.Errorf("slo: objective needs a name and a source")
	}
	if obj.Target <= 0 || obj.Target >= 1 {
		return fmt.Errorf("slo: objective %q target %v outside (0,1)", obj.Name, obj.Target)
	}
	// Ring sized to cover the longest window at tick resolution.
	var longest time.Duration
	for _, w := range e.cfg.Windows {
		if w.Long > longest {
			longest = w.Long
		}
	}
	n := int(longest/e.cfg.Tick) + 2
	if n > maxRing {
		n = maxRing
	}
	st := &objState{
		Objective: obj,
		ring:      make([]sample, n),
		burning:   make([]bool, len(e.cfg.Windows)),
	}
	if reg := e.cfg.Registry; reg != nil {
		for _, w := range e.cfg.Windows {
			st.gBurn = append(st.gBurn, reg.Gauge("tman_slo_burn_rate_milli",
				"short-window burn rate in thousandths (1000 = sustainable pace)",
				metrics.L("objective", obj.Name), metrics.L("window", w.Name)))
		}
		st.gBurning = reg.Gauge("tman_slo_burning",
			"1 while any window pair exceeds its burn threshold",
			metrics.L("objective", obj.Name))
		st.gBudget = reg.Gauge("tman_slo_budget_remaining_milli",
			"unspent error budget over the longest window, in thousandths",
			metrics.L("objective", obj.Name))
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, have := range e.objs {
		if have.Name == obj.Name {
			return fmt.Errorf("slo: duplicate objective %q", obj.Name)
		}
	}
	e.objs = append(e.objs, st)
	return nil
}

// Tick snapshots every objective and re-evaluates burn state. Called
// by the Start loop; tests call it directly with an injected clock.
func (e *Engine) Tick() {
	now := e.cfg.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, st := range e.objs {
		e.evalLocked(st, now)
	}
}

// evalLocked appends one sample and recomputes st.status.
func (e *Engine) evalLocked(st *objState, now time.Time) {
	total, good := st.Source.Totals()
	st.ring[st.next] = sample{at: now, total: total, good: good}
	st.next = (st.next + 1) % len(st.ring)
	if st.count < len(st.ring) {
		st.count++
	}

	status := ObjectiveStatus{
		Name:      st.Name,
		Class:     st.Class,
		Target:    st.Target,
		Threshold: st.Threshold,
		Total:     total,
		Good:      good,
	}
	var longest time.Duration
	var longestBurn float64
	anyBurning := false
	for i, w := range e.cfg.Windows {
		shortBurn := e.burnOver(st, now, w.Short, total, good)
		longBurn := e.burnOver(st, now, w.Long, total, good)
		burning := shortBurn > w.Burn && longBurn > w.Burn
		if burning != st.burning[i] {
			st.burning[i] = burning
			state := "resolved"
			if burning {
				state = "firing"
			}
			if e.cfg.OnEvent != nil {
				e.cfg.OnEvent("slo.burn",
					"objective", st.Name,
					"window", w.Name,
					"state", state,
					"short_burn_milli", int64(shortBurn*1000),
					"long_burn_milli", int64(longBurn*1000),
					"threshold_milli", int64(w.Burn*1000))
			}
		}
		if burning {
			anyBurning = true
		}
		if w.Long > longest {
			longest, longestBurn = w.Long, longBurn
		}
		status.Windows = append(status.Windows, WindowStatus{
			Name:           w.Name,
			ShortBurnMilli: int64(shortBurn * 1000),
			LongBurnMilli:  int64(longBurn * 1000),
			BurnThreshold:  w.Burn,
			Burning:        burning,
		})
		if i < len(st.gBurn) {
			st.gBurn[i].Set(int64(shortBurn * 1000))
		}
	}
	status.Burning = anyBurning
	// Budget remaining: burn over the longest window IS the spend rate;
	// spent fraction = burn (burn 1.0 over the whole window = budget
	// exactly gone at window end).
	rem := int64((1 - longestBurn) * 1000)
	if rem < 0 {
		rem = 0
	}
	status.BudgetRemainingMilli = rem
	if st.gBurning != nil {
		v := int64(0)
		if anyBurning {
			v = 1
		}
		st.gBurning.Set(v)
		st.gBudget.Set(rem)
	}
	st.status = status
}

// burnOver computes the burn rate over the trailing window: the bad
// fraction of events in the window divided by the budgeted bad
// fraction. An engine younger than the window evaluates over its whole
// history (standard burn-rate behavior: better a conservative early
// answer than none).
func (e *Engine) burnOver(st *objState, now time.Time, window time.Duration, total, good int64) float64 {
	base, ok := st.sampleAtOrBefore(now.Add(-window))
	if !ok {
		// No history yet: the whole lifetime is the window.
		base = sample{}
	}
	dTotal := total - base.total
	dGood := good - base.good
	if dTotal <= 0 {
		return 0
	}
	badFrac := float64(dTotal-dGood) / float64(dTotal)
	return badFrac / (1 - st.Target)
}

// sampleAtOrBefore finds the newest sample at or before t — the
// baseline for a window ending now. ok is false when every retained
// sample is newer than t.
func (st *objState) sampleAtOrBefore(t time.Time) (sample, bool) {
	for i := 0; i < st.count; i++ {
		s := st.ring[(st.next-1-i+len(st.ring))%len(st.ring)]
		if !s.at.After(t) {
			return s, true
		}
	}
	return sample{}, false
}

// Snapshot returns every objective's latest verdict (objectives added
// but not yet ticked report zero counts).
func (e *Engine) Snapshot() []ObjectiveStatus {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]ObjectiveStatus, 0, len(e.objs))
	for _, st := range e.objs {
		s := st.status
		if s.Name == "" { // never evaluated
			s = ObjectiveStatus{Name: st.Name, Class: st.Class, Target: st.Target, Threshold: st.Threshold, BudgetRemainingMilli: 1000}
		}
		out = append(out, s)
	}
	return out
}

// Start launches the tick loop. Stop ends it; Start after Stop is not
// supported.
func (e *Engine) Start() {
	e.mu.Lock()
	if e.started {
		e.mu.Unlock()
		return
	}
	e.started = true
	e.mu.Unlock()
	go func() {
		defer close(e.done)
		tk := time.NewTicker(e.cfg.Tick)
		defer tk.Stop()
		for {
			select {
			case <-tk.C:
				e.Tick()
			case <-e.stop:
				return
			}
		}
	}()
}

// Stop ends the tick loop and waits for it to exit (idempotent; a
// no-op when Start never ran).
func (e *Engine) Stop() {
	if e == nil {
		return
	}
	e.mu.Lock()
	started := e.started
	e.mu.Unlock()
	e.stopOnce.Do(func() { close(e.stop) })
	if started {
		<-e.done
	}
}
