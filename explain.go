package triggerman

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"triggerman/internal/catalog"
	"triggerman/internal/predindex"
	"triggerman/internal/profile"
	"triggerman/internal/types"
)

// TriggerCost is one trigger's attributed cost snapshot, built from the
// space-saving sketch (counts may under-estimate by at most RankErr
// after a slot replacement; see internal/profile).
type TriggerCost struct {
	TriggerID   uint64  `json:"trigger_id"`
	Name        string  `json:"name,omitempty"`
	Probes      int64   `json:"probes"`
	Matches     int64   `json:"matches"`
	Selectivity float64 `json:"selectivity"`
	ActionNs    int64   `json:"action_ns"`
	ActionRuns  int64   `json:"action_runs"`
	Failures    int64   `json:"failures"`
	Retries     int64   `json:"retries"`
	CacheHits   int64   `json:"cache_hits"`
	CacheMisses int64   `json:"cache_misses"`
	RankWeight  int64   `json:"rank_weight"`
	RankErr     int64   `json:"rank_err,omitempty"`

	Network *catalog.NetworkShape `json:"network,omitempty"`
}

// triggerzPayload is the /triggerz JSON shape.
type triggerzPayload struct {
	ProfilingOff bool `json:"profiling_off,omitempty"`
	// Tracked / Capacity / Evictions describe the sketch itself, so a
	// reader can judge how trustworthy the rankings are: zero evictions
	// means every listed count is exact.
	Tracked   int           `json:"tracked"`
	Capacity  int           `json:"capacity"`
	Evictions int64         `json:"evictions"`
	Hot       []TriggerCost `json:"hot"`
	Slow      []TriggerCost `json:"slow"`
	Failing   []TriggerCost `json:"failing"`
}

// indexzPayload is the /indexz JSON shape.
type indexzPayload struct {
	Signatures []predindex.SigSnapshot `json:"signatures"`
	// Hot ranks signature IDs by their exact probe counters, descending
	// (top 10, zero-probe signatures omitted).
	Hot []uint64 `json:"hot_signatures,omitempty"`
}

func (s *System) costOf(e profile.Entry) TriggerCost {
	tc := TriggerCost{
		TriggerID:   e.Key,
		Probes:      e.Counts[profile.Probes],
		Matches:     e.Counts[profile.Matches],
		Selectivity: e.Selectivity(),
		ActionNs:    e.Counts[profile.ActionNanos],
		ActionRuns:  e.Counts[profile.ActionRuns],
		Failures:    e.Counts[profile.Failures],
		Retries:     e.Counts[profile.Retries],
		CacheHits:   e.Counts[profile.CacheHits],
		CacheMisses: e.Counts[profile.CacheMisses],
		RankWeight:  e.Weight,
		RankErr:     e.Err,
	}
	if name, ok := s.cat.TriggerName(e.Key); ok {
		tc.Name = name
	}
	if shape, ok := s.cat.NetworkShape(e.Key); ok && shape.Kind != "" {
		tc.Network = &shape
	}
	return tc
}

func (s *System) triggerzPayload(k int) triggerzPayload {
	p := triggerzPayload{Hot: []TriggerCost{}, Slow: []TriggerCost{}, Failing: []TriggerCost{}}
	prof := s.prof
	if prof == nil {
		p.ProfilingOff = true
		return p
	}
	p.Tracked = prof.Triggers.Len()
	p.Capacity = prof.Triggers.Capacity()
	p.Evictions = prof.Triggers.Evictions()
	for _, e := range prof.Triggers.TopK(profile.Probes, k) {
		p.Hot = append(p.Hot, s.costOf(e))
	}
	for _, e := range prof.Triggers.TopK(profile.ActionNanos, k) {
		p.Slow = append(p.Slow, s.costOf(e))
	}
	for _, e := range prof.Triggers.TopK(profile.Failures, k) {
		p.Failing = append(p.Failing, s.costOf(e))
	}
	return p
}

func (s *System) indexzPayload() indexzPayload {
	p := indexzPayload{Signatures: s.pidx.Snapshot()}
	ranked := append([]predindex.SigSnapshot(nil), p.Signatures...)
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].Probes != ranked[j].Probes {
			return ranked[i].Probes > ranked[j].Probes
		}
		return ranked[i].ID < ranked[j].ID
	})
	for _, sn := range ranked {
		if sn.Probes == 0 || len(p.Hot) == 10 {
			break
		}
		p.Hot = append(p.Hot, sn.ID)
	}
	return p
}

// ExplainTrigger renders a human-readable cost and placement report for
// one trigger: its predicate-index registrations (signature, constant-
// set organization, estimated probe cost), discrimination-network
// shape, cache residency, and attributed costs since Open. This backs
// the console/wire "explain <trigger>" verb.
func (s *System) ExplainTrigger(name string) (string, error) {
	if s.isClosed() {
		return "", errClosed
	}
	name = strings.TrimSpace(name)
	if name == "" {
		return "", fmt.Errorf("explain: usage: explain <trigger-name>")
	}
	id, ok := s.cat.TriggerByName(name)
	if !ok {
		return "", fmt.Errorf("explain: unknown trigger %q", name)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trigger %s (id %d)", name, id)
	if !s.cat.IsFireable(id) {
		b.WriteString(" [not fireable: disabled trigger or set]")
	}
	b.WriteByte('\n')
	if text, ok := s.cat.TriggerText(id); ok {
		for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
			fmt.Fprintf(&b, "  | %s\n", strings.TrimSpace(line))
		}
	}

	// Predicate-index placement: where each selection predicate lives
	// and what one probe of that signature's constant set costs.
	snaps := make(map[uint64]predindex.SigSnapshot)
	for _, sn := range s.pidx.Snapshot() {
		snaps[sn.ID] = sn
	}
	regs := s.cat.TriggerRegistrations(id)
	if len(regs) == 0 {
		b.WriteString("predicate index: no registrations (multi-variable or catch-all condition)\n")
	} else {
		b.WriteString("predicate index:\n")
		for _, reg := range regs {
			fmt.Fprintf(&b, "  sig %d on source %d: %s, constant %s", reg.SigID, reg.Source, reg.Expr, types.Tuple(reg.Consts))
			if sn, ok := snaps[reg.SigID]; ok {
				fmt.Fprintf(&b, "\n    organization %s (%s), %d instance(s), %d partition(s), est probe %.0fns, probes=%d matches=%d",
					sn.Org, sn.Structure, sn.Size, sn.Partitions, sn.EstProbeCostNs, sn.Probes, sn.Matches)
			}
			b.WriteByte('\n')
		}
	}

	if shape, ok := s.cat.NetworkShape(id); ok && shape.Kind != "" {
		fmt.Fprintf(&b, "network: %s, %d node(s) (%d var(s), %d beta(s)), %d alpha tuple(s), %d beta tuple(s)\n",
			shape.Kind, shape.Nodes(), shape.Vars, shape.Betas, shape.AlphaTuples, shape.BetaTuples)
	}
	fmt.Fprintf(&b, "trigger cache: resident=%v\n", s.cat.Cache().Resident(id))

	if s.prof == nil {
		b.WriteString("cost attribution: profiling disabled (Options.DisableProfiling)\n")
		return b.String(), nil
	}
	e, tracked := s.prof.TriggerEntry(id)
	if !tracked {
		b.WriteString("cost attribution: not tracked (no activity, or displaced from the top-K sketch)\n")
		return b.String(), nil
	}
	tc := s.costOf(e)
	fmt.Fprintf(&b, "cost attribution since open (sketch rank weight %d, overcount bound %d):\n", tc.RankWeight, tc.RankErr)
	fmt.Fprintf(&b, "  match probes=%d matches=%d selectivity=%.4f\n", tc.Probes, tc.Matches, tc.Selectivity)
	mean := time.Duration(0)
	if tc.ActionRuns > 0 {
		mean = time.Duration(tc.ActionNs / tc.ActionRuns)
	}
	fmt.Fprintf(&b, "  actions=%d total=%s mean=%s\n", tc.ActionRuns, time.Duration(tc.ActionNs), mean)
	fmt.Fprintf(&b, "  failures=%d retries=%d\n", tc.Failures, tc.Retries)
	fmt.Fprintf(&b, "  cache hits=%d misses=%d\n", tc.CacheHits, tc.CacheMisses)
	return b.String(), nil
}

// explainIndexText renders the /indexz signature table as text for the
// console's bare "explain" (no trigger) form.
func (s *System) explainIndexText() string {
	snaps := s.pidx.Snapshot()
	if len(snaps) == 0 {
		return "predicate index is empty"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d expression signature(s):\n", len(snaps))
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].ID < snaps[j].ID })
	for _, sn := range snaps {
		fmt.Fprintf(&b, "  sig %d source %d %s: %s (%s), %d instance(s), probes=%d matches=%d\n",
			sn.ID, sn.Source, sn.Expr, sn.Org, sn.Structure, sn.Size, sn.Probes, sn.Matches)
	}
	return strings.TrimRight(b.String(), "\n")
}
