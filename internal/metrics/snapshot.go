package metrics

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Snapshot is a point-in-time, JSON-serializable copy of a Registry —
// the unit of metrics federation. A node serializes its registry with
// Registry.Snapshot, ships it over the wire as JSON, and the fleet
// layer merges the per-node snapshots with Merge. Histograms carry raw
// (non-cumulative) bucket counts so bucket-wise merging is a plain
// elementwise sum.
type Snapshot struct {
	Node     string       `json:"node,omitempty"`
	Families []FamilySnap `json:"families"`
}

// FamilySnap is one metric family: every instrument sharing a name.
type FamilySnap struct {
	Name  string     `json:"name"`
	Help  string     `json:"help,omitempty"`
	Kind  string     `json:"kind"`
	Insts []InstSnap `json:"instruments"`
}

// InstSnap is one instrument. Labels is the canonical rendered
// `{k="v",...}` form ("" for unlabeled); exactly one of Value (scalar
// kinds) or Hist is meaningful.
type InstSnap struct {
	Labels string    `json:"labels,omitempty"`
	Value  int64     `json:"value,omitempty"`
	Hist   *HistSnap `json:"hist,omitempty"`
}

// HistSnap is a histogram's raw state: per-bucket counts (len
// bounds+1, last is +Inf overflow), NOT cumulative.
type HistSnap struct {
	BoundsNs []int64 `json:"bounds_ns"`
	Buckets  []int64 `json:"buckets"`
	SumNs    int64   `json:"sum_ns"`
	Count    int64   `json:"count"`
}

// LabelString renders labels in the registry's canonical form — the
// key callers need to look instruments up inside a Snapshot.
func LabelString(labels ...Label) string { return renderLabels(labels) }

// Snapshot copies the registry's current state. Counter/gauge reads
// and per-bucket histogram loads are individually atomic but not
// mutually consistent — fine for federation, which is a scrape, not a
// transaction.
func (r *Registry) Snapshot() *Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := &Snapshot{Families: make([]FamilySnap, 0, len(r.names))}
	for _, name := range r.names {
		fam := r.families[name]
		fs := FamilySnap{Name: fam.name, Help: fam.help, Kind: fam.kind,
			Insts: make([]InstSnap, 0, len(fam.order))}
		for _, l := range fam.order {
			inst := fam.insts[l]
			is := InstSnap{Labels: l}
			if h := inst.hist; h != nil {
				hs := &HistSnap{
					BoundsNs: append([]int64(nil), h.bounds...),
					Buckets:  make([]int64, len(h.buckets)),
					SumNs:    h.sum.Load(),
					Count:    h.count.Load(),
				}
				for i := range h.buckets {
					hs.Buckets[i] = h.buckets[i].Load()
				}
				is.Hist = hs
			} else {
				is.Value = inst.value()
			}
			fs.Insts = append(fs.Insts, is)
		}
		s.Families = append(s.Families, fs)
	}
	return s
}

// Family finds a family by name.
func (s *Snapshot) Family(name string) (FamilySnap, bool) {
	for _, f := range s.Families {
		if f.Name == name {
			return f, true
		}
	}
	return FamilySnap{}, false
}

// Value finds a scalar instrument by family name and rendered labels.
func (s *Snapshot) Value(name, labels string) (int64, bool) {
	f, ok := s.Family(name)
	if !ok {
		return 0, false
	}
	for _, inst := range f.Insts {
		if inst.Labels == labels && inst.Hist == nil {
			return inst.Value, true
		}
	}
	return 0, false
}

// Histogram finds a histogram instrument by family name and rendered
// labels.
func (s *Snapshot) Histogram(name, labels string) (*HistSnap, bool) {
	f, ok := s.Family(name)
	if !ok {
		return nil, false
	}
	for _, inst := range f.Insts {
		if inst.Labels == labels && inst.Hist != nil {
			return inst.Hist, true
		}
	}
	return nil, false
}

// FamilyTotal sums every scalar instrument in a family — the headline
// number for a labeled counter like tman_tokens_total across all its
// label sets.
func (s *Snapshot) FamilyTotal(name string) int64 {
	f, ok := s.Family(name)
	if !ok {
		return 0
	}
	var total int64
	for _, inst := range f.Insts {
		if inst.Hist == nil {
			total += inst.Value
		}
	}
	return total
}

// CountAtOrBelow counts observations known to be ≤ d: whole buckets
// whose upper bound is ≤ d (conservative, matching
// Histogram.CountAtOrBelow).
func (h *HistSnap) CountAtOrBelow(d time.Duration) int64 {
	var n int64
	for i, b := range h.BoundsNs {
		if b > int64(d) {
			break
		}
		if i < len(h.Buckets) {
			n += h.Buckets[i]
		}
	}
	return n
}

// boundsEqual reports whether two histograms share a bucket layout and
// can be merged bucket-wise.
func boundsEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Merge folds per-node snapshots into one fleet-scope snapshot with
// the federation semantics per metric kind:
//
//   - counters: summed across nodes (totals are totals);
//   - gauges: NOT summed — an instantaneous value from three nodes is
//     three facts, so each instance is re-labeled with node="<id>";
//   - histograms: merged bucket-wise when every node shares the bucket
//     layout (all latency histograms use DefaultLatencyBounds, so this
//     is the common case); on a layout mismatch they degrade to
//     per-node labeled series rather than summing incomparable buckets.
//
// Ordering is deterministic: families sorted by name, instruments by
// rendered labels, node labels in sorted node-id order.
func Merge(snaps map[string]*Snapshot) *Snapshot {
	nodes := make([]string, 0, len(snaps))
	for id, s := range snaps {
		if s != nil {
			nodes = append(nodes, id)
		}
	}
	sort.Strings(nodes)

	type instKey struct{ fam, labels string }
	famMeta := map[string]*FamilySnap{}
	var famOrder []string
	scalars := map[instKey]int64{}           // summed counters
	perNode := map[instKey][]InstSnap{}      // node-labeled gauges (and mismatched hists)
	hists := map[instKey]*HistSnap{}         // bucket-wise merged histograms
	histSources := map[instKey][]histEntry{} // raw per-node hists, to detect mismatches
	var keyOrder []instKey
	seenKey := map[instKey]bool{}

	for _, id := range nodes {
		for _, f := range snaps[id].Families {
			if famMeta[f.Name] == nil {
				famMeta[f.Name] = &FamilySnap{Name: f.Name, Help: f.Help, Kind: f.Kind}
				famOrder = append(famOrder, f.Name)
			}
			meta := famMeta[f.Name]
			for _, inst := range f.Insts {
				k := instKey{f.Name, inst.Labels}
				if !seenKey[k] {
					seenKey[k] = true
					keyOrder = append(keyOrder, k)
				}
				switch {
				case inst.Hist != nil && meta.Kind == kindHistogram:
					histSources[k] = append(histSources[k], histEntry{node: id, h: inst.Hist})
				case meta.Kind == kindGauge:
					perNode[k] = append(perNode[k], InstSnap{
						Labels: mergeLabels(inst.Labels, "node", id),
						Value:  inst.Value,
					})
				default:
					scalars[k] += inst.Value
				}
			}
		}
	}

	// Resolve histograms: bucket-wise merge when layouts agree,
	// per-node labels when they don't.
	for k, entries := range histSources {
		mergeable := true
		for _, e := range entries[1:] {
			if !boundsEqual(e.h.BoundsNs, entries[0].h.BoundsNs) {
				mergeable = false
				break
			}
		}
		if !mergeable {
			for _, e := range entries {
				perNode[k] = append(perNode[k], InstSnap{
					Labels: mergeLabels(k.labels, "node", e.node),
					Hist:   e.h,
				})
			}
			continue
		}
		m := &HistSnap{
			BoundsNs: append([]int64(nil), entries[0].h.BoundsNs...),
			Buckets:  make([]int64, len(entries[0].h.Buckets)),
		}
		for _, e := range entries {
			m.SumNs += e.h.SumNs
			m.Count += e.h.Count
			for i, c := range e.h.Buckets {
				if i < len(m.Buckets) {
					m.Buckets[i] += c
				}
			}
		}
		hists[k] = m
	}

	sort.Strings(famOrder)
	out := &Snapshot{Families: make([]FamilySnap, 0, len(famOrder))}
	for _, name := range famOrder {
		meta := famMeta[name]
		fs := FamilySnap{Name: name, Help: meta.Help, Kind: meta.Kind}
		for _, k := range keyOrder {
			if k.fam != name {
				continue
			}
			if h, ok := hists[k]; ok {
				fs.Insts = append(fs.Insts, InstSnap{Labels: k.labels, Hist: h})
			}
			if insts, ok := perNode[k]; ok {
				fs.Insts = append(fs.Insts, insts...)
			}
			if v, ok := scalars[k]; ok {
				fs.Insts = append(fs.Insts, InstSnap{Labels: k.labels, Value: v})
			}
		}
		sort.SliceStable(fs.Insts, func(i, j int) bool { return fs.Insts[i].Labels < fs.Insts[j].Labels })
		out.Families = append(out.Families, fs)
	}
	return out
}

type histEntry struct {
	node string
	h    *HistSnap
}

// WritePrometheus renders the snapshot in the same text exposition
// format Registry.WritePrometheus produces, so /metrics?scope=cluster
// is scrapeable by the same collectors as /metrics.
func (s *Snapshot) WritePrometheus(w io.Writer) error {
	for _, f := range s.Families {
		help := f.Help
		if help == "" {
			help = f.Name
		}
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.Name, escapeHelp(help)); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.Name, f.Kind); err != nil {
			return err
		}
		for _, inst := range f.Insts {
			if h := inst.Hist; h != nil {
				var cum int64
				for i, c := range h.Buckets {
					cum += c
					le := "+Inf"
					if i < len(h.BoundsNs) {
						le = formatSeconds(h.BoundsNs[i])
					}
					if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.Name, mergeLabels(inst.Labels, "le", le), cum); err != nil {
						return err
					}
				}
				if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.Name, inst.Labels, formatSeconds(h.SumNs)); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s_count%s %d\n", f.Name, inst.Labels, h.Count); err != nil {
					return err
				}
				continue
			}
			if _, err := fmt.Fprintf(w, "%s%s %d\n", f.Name, inst.Labels, inst.Value); err != nil {
				return err
			}
		}
	}
	return nil
}
