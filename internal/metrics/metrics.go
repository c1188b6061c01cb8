// Package metrics is a dependency-free, allocation-light
// instrumentation layer for the trigger processor: sharded atomic
// counters, gauges, callback instruments, and fixed-bucket latency
// histograms, organized into a process-wide Registry of named, labeled
// instruments.
//
// The paper's architecture (§5 predicate index, §5.1 trigger cache, §6
// task queue) is a set of performance claims; this package is how a
// live system observes them. Counters sit on token and match hot paths,
// so Add is a single atomic increment on one of several padded shards —
// no locks, no maps, no allocation. Registry lookups (by name + label
// set) happen once at wiring time; hot paths hold instrument pointers.
//
// The registry renders in Prometheus text exposition format (see
// prometheus.go) for the tmand ops listener's /metrics endpoint.
package metrics

import (
	"fmt"
	mrand "math/rand/v2"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// counterShards stripes a Counter to keep concurrent drivers off one
// cache line. Must be a power of two.
const counterShards = 8

// shard is one padded counter cell; the padding keeps neighbouring
// shards on separate cache lines.
type shard struct {
	v atomic.Int64
	_ [56]byte
}

// Counter is a monotonically increasing sharded atomic counter.
type Counter struct {
	shards [counterShards]shard
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds delta. The shard is picked by the runtime's per-thread fast
// random source, spreading concurrent writers across cache lines.
func (c *Counter) Add(delta int64) {
	c.shards[mrand.Uint32()&(counterShards-1)].v.Add(delta)
}

// Value sums the shards.
func (c *Counter) Value() int64 {
	var total int64
	for i := range c.shards {
		total += c.shards[i].v.Load()
	}
	return total
}

// Gauge is a settable instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value loads the value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Label is one name="value" pair identifying an instrument within its
// family.
type Label struct {
	Key, Value string
}

// L builds a label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// instrument kinds, which double as the Prometheus TYPE line.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// instrument is one registered time series (or histogram).
type instrument struct {
	labels string // rendered {k="v",...}, "" for unlabeled

	counter *Counter
	gauge   *Gauge
	fn      func() int64 // callback counter/gauge view
	hist    *Histogram
}

// family groups the instruments sharing one metric name.
type family struct {
	name string
	help string
	kind string

	insts map[string]*instrument // keyed by rendered labels
	order []string               // rendered labels, sorted for output
}

// Registry is a process-wide set of named, labeled instruments.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	names    []string // sorted family names
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// renderLabels produces the canonical `{k="v",...}` form: keys sorted,
// values escaped. Empty input renders as "".
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// register interns (name, labels) and returns the slot, creating the
// family on first sight. It panics on a kind conflict — instruments are
// wired once at Open, so a conflict is a programming error, not an
// operational condition.
func (r *Registry) register(name, help, kind string, labels []Label) *instrument {
	rendered := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	fam, ok := r.families[name]
	if !ok {
		fam = &family{name: name, help: help, kind: kind, insts: make(map[string]*instrument)}
		r.families[name] = fam
		r.names = append(r.names, name)
		sort.Strings(r.names)
	}
	if fam.kind != kind {
		panic(fmt.Sprintf("metrics: %s registered as %s, requested as %s", name, fam.kind, kind))
	}
	inst, ok := fam.insts[rendered]
	if !ok {
		inst = &instrument{labels: rendered}
		fam.insts[rendered] = inst
		fam.order = append(fam.order, rendered)
		sort.Strings(fam.order)
	}
	return inst
}

// Counter interns and returns the counter (name, labels...). Repeated
// calls with the same identity return the same instrument.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	inst := r.register(name, help, kindCounter, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if inst.counter == nil && inst.fn == nil {
		inst.counter = &Counter{}
	}
	if inst.counter == nil {
		panic(fmt.Sprintf("metrics: %s%s registered as a callback", name, inst.labels))
	}
	return inst.counter
}

// Gauge interns and returns the gauge (name, labels...).
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	inst := r.register(name, help, kindGauge, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if inst.gauge == nil && inst.fn == nil {
		inst.gauge = &Gauge{}
	}
	if inst.gauge == nil {
		panic(fmt.Sprintf("metrics: %s%s registered as a callback", name, inst.labels))
	}
	return inst.gauge
}

// CounterFunc registers a callback-backed counter view: fn is invoked
// at scrape time. Use it to export counters that already live in a
// subsystem's own Stats struct, so the registry and the struct cannot
// drift.
func (r *Registry) CounterFunc(name, help string, fn func() int64, labels ...Label) {
	inst := r.register(name, help, kindCounter, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	inst.fn = fn
}

// GaugeFunc registers a callback-backed gauge view (queue depths,
// resident counts).
func (r *Registry) GaugeFunc(name, help string, fn func() int64, labels ...Label) {
	inst := r.register(name, help, kindGauge, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	inst.fn = fn
}

// Histogram interns and returns a fixed-bucket latency histogram. Nil
// or empty bounds take DefaultLatencyBounds.
func (r *Registry) Histogram(name, help string, bounds []int64, labels ...Label) *Histogram {
	inst := r.register(name, help, kindHistogram, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if inst.hist == nil {
		inst.hist = NewHistogram(bounds)
	}
	return inst.hist
}

// value reads an instrument's current scalar (counters and gauges).
func (i *instrument) value() int64 {
	switch {
	case i.fn != nil:
		return i.fn()
	case i.counter != nil:
		return i.counter.Value()
	case i.gauge != nil:
		return i.gauge.Value()
	default:
		return 0
	}
}

// Value looks up a registered scalar instrument's current value — the
// equivalence tests use this to compare registry contents against
// legacy Stats fields.
func (r *Registry) Value(name string, labels ...Label) (int64, bool) {
	rendered := renderLabels(labels)
	r.mu.RLock()
	defer r.mu.RUnlock()
	fam, ok := r.families[name]
	if !ok {
		return 0, false
	}
	inst, ok := fam.insts[rendered]
	if !ok || inst.hist != nil {
		return 0, false
	}
	return inst.value(), true
}
