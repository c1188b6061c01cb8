package triggerman

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"triggerman/internal/eventlog"
	"triggerman/internal/metrics"
	"triggerman/internal/slo"
	"triggerman/internal/trace"
)

// opsServer is the optional operations HTTP listener: Prometheus
// /metrics, JSON /statusz (counters, recent errors, recent token
// traces), and /debug/pprof.
type opsServer struct {
	ln  net.Listener
	srv *http.Server
	mux *http.ServeMux
}

func (o *opsServer) shutdown() {
	// Close (not Shutdown): scrapes are short, and a hung handler must
	// not stall System.Close.
	o.srv.Close()
}

// ListenOps starts the ops HTTP listener on addr (e.g. ":9090" or
// "127.0.0.1:0") and returns the bound address. Starting twice returns
// the existing listener's address; a closed system refuses.
func (s *System) ListenOps(addr string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return "", errClosed
	}
	if s.ops != nil {
		return s.ops.ln.Addr().String(), nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/statusz", s.handleStatusz)
	mux.HandleFunc("/indexz", s.handleIndexz)
	mux.HandleFunc("/triggerz", s.handleTriggerz)
	mux.HandleFunc("/eventz", s.handleEventz)
	mux.HandleFunc("/sloz", s.handleSloz)
	for pattern, h := range s.extraOps {
		mux.HandleFunc(pattern, h)
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	s.ops = &opsServer{ln: ln, srv: srv, mux: mux}
	go srv.Serve(ln)
	s.elog.Emit("ops.listen", "addr", ln.Addr().String())
	return ln.Addr().String(), nil
}

// RegisterOpsHandler mounts an additional handler on the ops listener
// (internal/cluster mounts /clusterz here). Handlers registered before
// ListenOps are picked up at listen time; registering after the
// listener is up adds the route live.
func (s *System) RegisterOpsHandler(pattern string, h http.HandlerFunc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.extraOps == nil {
		s.extraOps = make(map[string]http.HandlerFunc)
	}
	s.extraOps[pattern] = h
	if s.ops != nil {
		// ServeMux registration is mutex-safe even while serving.
		s.ops.mux.HandleFunc(pattern, h)
	}
}

// OpsAddr reports the ops listener's bound address, or "" when it is
// not running.
func (s *System) OpsAddr() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.ops == nil {
		return ""
	}
	return s.ops.ln.Addr().String()
}

// MetricsText renders the registry in Prometheus text exposition
// format (the console's metrics verb and the /metrics endpoint).
func (s *System) MetricsText() (string, error) {
	if s.isClosed() {
		return "", errClosed
	}
	var sb strings.Builder
	if err := s.met.WritePrometheus(&sb); err != nil {
		return "", err
	}
	return sb.String(), nil
}

func (s *System) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// ?scope=cluster answers with the fleet-merged registry when a
	// federation provider is installed (internal/fleet). Branching here
	// keeps one route: collectors scrape the same path per node or per
	// fleet and only the query parameter differs.
	if r.URL.Query().Get("scope") == "cluster" {
		fed := s.federation()
		if fed == nil {
			http.Error(w, "triggerman: scope=cluster needs fleet federation (standalone node)", http.StatusNotImplemented)
			return
		}
		text, err := fed.ClusterMetrics()
		if err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprint(w, text)
		return
	}
	text, err := s.MetricsText()
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, text)
}

// statuszPayload is the /statusz JSON shape.
type statuszPayload struct {
	// Node identifies which instance answered: multi-node scrapes of
	// /statusz must be attributable ("local" for standalone systems).
	Node            string         `json:"node"`
	Triggers        int            `json:"triggers"`
	TokensIn        int64          `json:"tokens_in"`
	TokensMatched   int64          `json:"tokens_matched"`
	ActionsRun      int64          `json:"actions_run"`
	QueueDepth      int            `json:"queue_depth"`
	DeadLetters     int            `json:"dead_letters"`
	DeadLettered    int64          `json:"dead_lettered"`
	EventsRaised    int64          `json:"events_raised"`
	EventsDelivered int64          `json:"events_delivered"`
	Errors          int64          `json:"errors"`
	RecentErrors    []string       `json:"recent_errors"`
	ActiveTraces    int            `json:"active_traces"`
	TracesDropped   int64          `json:"traces_dropped"`
	TracesSwept     int64          `json:"traces_swept"`
	RecentTraces    []trace.Record `json:"recent_traces"`
	// Exemplars links end-to-end latency buckets to concrete recent
	// traces: each entry is one populated histogram bucket's most recent
	// traced observation, with the full trace record when it is still in
	// the ring.
	Exemplars []exemplarView `json:"exemplars"`
	// Runtime is the latest runtime telemetry sample (zero when the
	// sampler is disabled).
	Runtime slo.RuntimeStats `json:"runtime"`
}

// exemplarView is one histogram bucket's exemplar resolved against the
// trace ring: a p999 bucket becomes a trace you can actually read.
type exemplarView struct {
	metrics.Exemplar
	// Trace is the exemplar's full record when seq is still in the
	// ring (exemplars outlive the ring, so it can be absent).
	Trace *trace.Record `json:"trace,omitempty"`
}

// Default /statusz bounds: scrapes want a glance, not a dump. Larger
// windows are available via ?traces=N&errors=N.
const (
	defaultStatuszTraces = 8
	defaultStatuszErrors = 16
	maxStatuszWindow     = 1024
)

// queryBound reads a non-negative integer query parameter, applying the
// default when absent or malformed and clamping to maxStatuszWindow.
func queryBound(r *http.Request, key string, def int) int {
	raw := r.URL.Query().Get(key)
	if raw == "" {
		return def
	}
	n, err := strconv.Atoi(raw)
	if err != nil || n < 0 {
		return def
	}
	if n > maxStatuszWindow {
		return maxStatuszWindow
	}
	return n
}

func (s *System) handleStatusz(w http.ResponseWriter, r *http.Request) {
	if s.isClosed() {
		http.Error(w, errClosed.Error(), http.StatusServiceUnavailable)
		return
	}
	maxTraces := queryBound(r, "traces", defaultStatuszTraces)
	maxErrors := queryBound(r, "errors", defaultStatuszErrors)
	st := s.Stats()
	recentErrs := st.RecentErrors
	if len(recentErrs) > maxErrors {
		// Rings are oldest-first; the tail is the most recent.
		recentErrs = recentErrs[len(recentErrs)-maxErrors:]
	}
	traces := s.tracer.Recent()
	if len(traces) > maxTraces {
		traces = traces[len(traces)-maxTraces:]
	}
	p := statuszPayload{
		Node:            s.NodeID(),
		Triggers:        st.Triggers,
		TokensIn:        st.TokensIn,
		TokensMatched:   st.TokensMatched,
		ActionsRun:      st.ActionsRun,
		QueueDepth:      st.QueueDepth,
		DeadLetters:     st.DeadLetters,
		DeadLettered:    st.DeadLettered,
		EventsRaised:    st.EventsRaised,
		EventsDelivered: st.EventsDelivered,
		Errors:          st.Errors,
		RecentErrors:    make([]string, 0, len(recentErrs)),
		ActiveTraces:    s.tracer.ActiveCount(),
		TracesDropped:   s.tracer.Dropped(),
		TracesSwept:     s.tracer.Swept(),
		RecentTraces:    traces,
		Exemplars:       []exemplarView{},
		Runtime:         s.rts.Snapshot(),
	}
	for _, rec := range recentErrs {
		p.RecentErrors = append(p.RecentErrors, rec.String())
	}
	if h := s.tracer.TotalHistogram(); h != nil {
		for _, ex := range h.Exemplars() {
			v := exemplarView{Exemplar: ex}
			if rec, ok := s.tracer.RecordBySeq(ex.Seq); ok {
				rec := rec
				v.Trace = &rec
			}
			p.Exemplars = append(p.Exemplars, v)
		}
	}
	writeJSON(w, p)
}

// slozPayload is the /sloz JSON shape: the engine's window pairs and
// one verdict per objective.
type slozPayload struct {
	Enabled    bool                  `json:"enabled"`
	Windows    []slo.WindowPair      `json:"windows"`
	Objectives []slo.ObjectiveStatus `json:"objectives"`
}

// handleSloz reports each objective's burn-rate verdict. With the SLO
// engine disabled it returns {"enabled": false} so dashboards can
// probe unconditionally.
func (s *System) handleSloz(w http.ResponseWriter, r *http.Request) {
	if s.isClosed() {
		http.Error(w, errClosed.Error(), http.StatusServiceUnavailable)
		return
	}
	// ?scope=cluster: burn verdicts over the fleet-merged per-class
	// histograms. The default (node-scope) payload shape is a pinned
	// ops contract, so cluster scope returns its own payload instead of
	// mutating this one.
	if r.URL.Query().Get("scope") == "cluster" {
		fed := s.federation()
		if fed == nil {
			http.Error(w, "triggerman: scope=cluster needs fleet federation (standalone node)", http.StatusNotImplemented)
			return
		}
		payload, err := fed.ClusterSloz()
		if err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		writeJSON(w, payload)
		return
	}
	if s.sloEng == nil {
		writeJSON(w, slozPayload{Windows: []slo.WindowPair{}, Objectives: []slo.ObjectiveStatus{}})
		return
	}
	// Evaluate on demand so a scrape never reads a verdict staler than
	// the request (the tick loop still drives event transitions between
	// scrapes).
	s.sloEng.Tick()
	writeJSON(w, slozPayload{
		Enabled:    true,
		Windows:    s.sloEng.Windows(),
		Objectives: s.sloEng.Snapshot(),
	})
}

// writeJSON renders one indented JSON payload.
func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// handleIndexz dumps the live predicate-index shape: every expression
// signature with its constant-set organization, size, partitioning, and
// exact probe/match counters.
func (s *System) handleIndexz(w http.ResponseWriter, r *http.Request) {
	if s.isClosed() {
		http.Error(w, errClosed.Error(), http.StatusServiceUnavailable)
		return
	}
	writeJSON(w, s.indexzPayload())
}

// handleTriggerz dumps per-trigger cost attribution: the top-K hottest
// (match probes), slowest (action wall time), and most-failing triggers
// from the space-saving sketch. ?k=N sizes the lists (default 10).
func (s *System) handleTriggerz(w http.ResponseWriter, r *http.Request) {
	if s.isClosed() {
		http.Error(w, errClosed.Error(), http.StatusServiceUnavailable)
		return
	}
	k := queryBound(r, "k", 10)
	writeJSON(w, s.triggerzPayload(k))
}

// eventzPayload is the /eventz JSON shape.
type eventzPayload struct {
	Total   int64             `json:"total"`
	Records []eventlog.Record `json:"records"`
}

// handleEventz serves the bounded structured event ring, oldest first.
// ?n=N trims to the most recent N records.
func (s *System) handleEventz(w http.ResponseWriter, r *http.Request) {
	if s.isClosed() {
		http.Error(w, errClosed.Error(), http.StatusServiceUnavailable)
		return
	}
	recs := s.elog.Recent()
	if n := queryBound(r, "n", maxStatuszWindow); len(recs) > n {
		recs = recs[len(recs)-n:]
	}
	writeJSON(w, eventzPayload{Total: s.elog.Total(), Records: recs})
}
