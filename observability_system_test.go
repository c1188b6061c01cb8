package triggerman

// System-level observability tests: the registry stays equivalent to
// the legacy Stats view, the ops HTTP endpoints serve scrapes, closed
// systems refuse telemetry work, and — the acceptance bar — a chaos run
// is diagnosable from telemetry alone: /metrics shows the retries and
// dead letters, /statusz carries complete token traces with every
// lifecycle stage.

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"triggerman/internal/faults"
	"triggerman/internal/metrics"
	"triggerman/internal/retry"
	"triggerman/internal/storage"
	"triggerman/internal/trace"
	"triggerman/internal/types"
)

// promSum sums every sample of a Prometheus family in text exposition
// output (all label sets), so tests can assert on scrape text the way an
// alert rule would.
func promSum(t *testing.T, text, family string) float64 {
	t.Helper()
	var sum float64
	found := false
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, family) {
			continue
		}
		rest := line[len(family):]
		if rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue // family is a prefix of a longer name
		}
		i := strings.LastIndexByte(rest, ' ')
		v, err := strconv.ParseFloat(strings.TrimSpace(rest[i+1:]), 64)
		if err != nil {
			t.Fatalf("unparseable sample %q: %v", line, err)
		}
		sum += v
		found = true
	}
	if !found {
		t.Fatalf("family %q absent from scrape", family)
	}
	return sum
}

// TestStatsRegistryEquivalence: Stats() and the registry are two views
// of the same instruments, so every scalar they share must agree after
// the system quiesces.
func TestStatsRegistryEquivalence(t *testing.T) {
	sys, err := Open(Options{Drivers: 2, Queue: MemoryQueue})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	src, err := sys.DefineStreamSource("s", types.Column{Name: "v", Kind: types.KindInt})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.CreateTrigger(`create trigger x from s when s.v >= 0 do raise event X(s.v)`); err != nil {
		t.Fatal(err)
	}
	// One poisoned trigger so the error/dead-letter counters move too.
	if err := sys.CreateTrigger(`create trigger bad from s when s.v = 3 do raise event Bad(s.v)`); err != nil {
		t.Fatal(err)
	}
	inj := faults.NewActionInjector(17)
	badID, ok := sys.cat.TriggerByName("bad")
	if !ok {
		t.Fatal("no id for bad")
	}
	inj.Poison(badID)
	sys.exe.Inject = inj.Hook()
	for i := 0; i < 50; i++ {
		if err := src.Insert(types.Tuple{types.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	sys.Drain()

	st := sys.Stats()
	reg := sys.Metrics()
	if st.TokensIn == 0 || st.ActionsRun == 0 || st.DeadLettered == 0 || st.Errors == 0 {
		t.Fatalf("test drove no load: %+v", st)
	}
	checks := []struct {
		name   string
		labels []metrics.Label
		want   int64
	}{
		{"tman_tokens_total", nil, st.TokensIn},
		{"tman_matches_total", nil, st.TokensMatched},
		{"tman_actions_total", nil, st.ActionsRun},
		{"tman_dead_letters_total", nil, st.DeadLettered},
		{"tman_queue_depth", nil, int64(st.QueueDepth)},
		{"tman_dead_letter_depth", nil, int64(st.DeadLetters)},
		{"tman_triggers", nil, int64(st.Triggers)},
		{"tman_errors_total", nil, st.Errors},
		{"tman_events_total", []metrics.Label{metrics.L("kind", "raised")}, st.EventsRaised},
		{"tman_events_total", []metrics.Label{metrics.L("kind", "delivered")}, st.EventsDelivered},
		{"tman_trigger_cache_total", []metrics.Label{metrics.L("event", "hit")}, int64(st.TriggerCache.Hits)},
		{"tman_trigger_cache_total", []metrics.Label{metrics.L("event", "miss")}, int64(st.TriggerCache.Misses)},
		{"tman_trigger_cache_total", []metrics.Label{metrics.L("event", "eviction")}, int64(st.TriggerCache.Evictions)},
		{"tman_buffer_pool_total", []metrics.Label{metrics.L("event", "hit")}, int64(st.BufferPool.Hits)},
		{"tman_buffer_pool_total", []metrics.Label{metrics.L("event", "miss")}, int64(st.BufferPool.Misses)},
		{"tman_index_total", []metrics.Label{metrics.L("counter", "tokens")}, st.Index.Tokens},
		{"tman_index_total", []metrics.Label{metrics.L("counter", "matches")}, st.Index.Matches},
		{"tman_pool_total", []metrics.Label{metrics.L("counter", "enqueued")}, st.Pool.Enqueued},
		{"tman_pool_total", []metrics.Label{metrics.L("counter", "executed")}, st.Pool.Executed},
	}
	for _, c := range checks {
		got, ok := reg.Value(c.name, c.labels...)
		if !ok {
			t.Errorf("%s%v not registered", c.name, c.labels)
			continue
		}
		if got != c.want {
			t.Errorf("%s%v = %d, Stats says %d", c.name, c.labels, got, c.want)
		}
	}
}

// TestOpsEndpoints: the ops listener serves /metrics and /statusz, and a
// second ListenOps is idempotent.
func TestOpsEndpoints(t *testing.T) {
	sys, err := Open(Options{Drivers: 2, Queue: MemoryQueue, TraceSampleEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	addr, err := sys.ListenOps("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if again, err := sys.ListenOps("127.0.0.1:0"); err != nil || again != addr {
		t.Fatalf("second ListenOps = %q, %v; want %q", again, err, addr)
	}
	if sys.OpsAddr() != addr {
		t.Fatalf("OpsAddr = %q, want %q", sys.OpsAddr(), addr)
	}

	src, err := sys.DefineStreamSource("s", types.Column{Name: "v", Kind: types.KindInt})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.CreateTrigger(`create trigger x from s when s.v >= 0 do raise event X(s.v)`); err != nil {
		t.Fatal(err)
	}
	const n = 25
	for i := 0; i < n; i++ {
		if err := src.Insert(types.Tuple{types.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	sys.Drain()

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("/metrics content type = %q", ct)
	}
	if got := promSum(t, string(body), "tman_tokens_total"); got != n {
		t.Errorf("scraped tman_tokens_total = %v, want %d", got, n)
	}
	// The verb and the endpoint serve the same text modulo live gauges.
	if text, err := sys.MetricsText(); err != nil || !strings.Contains(text, "tman_tokens_total") {
		t.Errorf("MetricsText: %v (has headline counter: %v)", err, strings.Contains(text, "tman_tokens_total"))
	}

	resp, err = http.Get("http://" + addr + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/statusz status = %d", resp.StatusCode)
	}
	var p statuszPayload
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		t.Fatal(err)
	}
	if p.TokensIn != n || p.Triggers != 1 {
		t.Errorf("/statusz tokens_in=%d triggers=%d, want %d and 1", p.TokensIn, p.Triggers, n)
	}
	if len(p.RecentTraces) == 0 {
		t.Error("/statusz carries no traces despite SampleEvery=1")
	}
}

// TestOpsClosedGuard: after Close the telemetry surface refuses work —
// the listener is down, ListenOps and the metrics verb return the
// closed error, and a racing /statusz request gets 503.
func TestOpsClosedGuard(t *testing.T) {
	sys, err := Open(Options{Synchronous: true, Queue: MemoryQueue})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := sys.ListenOps("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := sys.ListenOps("127.0.0.1:0"); err != errClosed {
		t.Errorf("ListenOps after close = %v, want errClosed", err)
	}
	if _, err := sys.MetricsText(); err != errClosed {
		t.Errorf("MetricsText after close = %v, want errClosed", err)
	}
	if _, err := sys.Command("metrics"); err != errClosed {
		t.Errorf("Command(metrics) after close = %v, want errClosed", err)
	}
	// The handler itself guards too (covers a request racing Close).
	rec := httptest.NewRecorder()
	sys.handleStatusz(rec, httptest.NewRequest("GET", "/statusz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("/statusz after close = %d, want 503", rec.Code)
	}
	rec = httptest.NewRecorder()
	sys.handleMetrics(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("/metrics after close = %d, want 503", rec.Code)
	}
	// And the listener is actually gone.
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Error("ops listener still accepting after Close")
	}
}

// TestChaosTelemetry is the acceptance test: run the pipeline under
// injected disk and action faults and diagnose the storm from telemetry
// alone — nonzero retry and dead-letter counters on /metrics, complete
// token traces with every lifecycle stage on /statusz, and sane stage
// p99s from the registry histograms.
func TestChaosTelemetry(t *testing.T) {
	const total = 4000
	fd := faults.NewDisk(storage.NewMem(), 21)
	fast := func(attempts int) *retry.Policy {
		return &retry.Policy{MaxAttempts: attempts, BaseDelay: 20 * time.Microsecond, MaxDelay: 500 * time.Microsecond}
	}
	sys, err := Open(Options{
		Disk:             fd,
		Drivers:          4,
		BufferPoolPages:  64,
		QueueRetry:       fast(15),
		ActionRetry:      fast(8),
		TraceSampleEvery: 1,
		MetricsAddr:      "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	src, err := sys.DefineStreamSource("chaos", types.Column{Name: "v", Kind: types.KindInt})
	if err != nil {
		t.Fatal(err)
	}
	// One healthy trigger (delivers, so traces reach the deliver stage)
	// and one poisoned trigger (every firing dead-letters).
	if err := sys.CreateTrigger(`create trigger ok from chaos when chaos.v >= 0 do raise event Hit(chaos.v)`); err != nil {
		t.Fatal(err)
	}
	if err := sys.CreateTrigger(`create trigger bad from chaos when chaos.v = 13 do raise event Boom(chaos.v)`); err != nil {
		t.Fatal(err)
	}
	badID, ok := sys.cat.TriggerByName("bad")
	if !ok {
		t.Fatal("no id for bad")
	}
	inj := faults.NewActionInjector(22)
	inj.SetErrorRate(0.2)
	inj.Poison(badID)
	sys.exe.Inject = inj.Hook()
	fd.SetErrorRate(0.10)

	for i := 0; i < total; i++ {
		if err := src.Insert(types.Tuple{types.NewInt(int64(i % 100))}); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	sys.Drain()
	fd.SetErrorRate(0)
	inj.SetErrorRate(0)
	if fd.Injected() == 0 || inj.InjectedErrors() == 0 || inj.InjectedPanics() == 0 {
		t.Fatalf("harness injected nothing: disk=%d errs=%d panics=%d",
			fd.Injected(), inj.InjectedErrors(), inj.InjectedPanics())
	}

	// Diagnose from /metrics alone: the storm must be visible as retry
	// attempts and dead letters.
	resp, err := http.Get("http://" + sys.OpsAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	scrape := string(body)
	if got := promSum(t, scrape, "tman_retry_attempts_total"); got == 0 {
		t.Error("scrape shows zero retry attempts despite injected transient faults")
	}
	if got := promSum(t, scrape, "tman_dead_letters_total"); got == 0 {
		t.Error("scrape shows zero dead letters despite a poisoned trigger")
	}
	if got := promSum(t, scrape, "tman_stage_duration_seconds_count"); got == 0 {
		t.Error("scrape shows no stage observations")
	}

	// Diagnose from /statusz alone: at least one retained trace must
	// cover the complete lifecycle.
	resp, err = http.Get("http://" + sys.OpsAddr() + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	var p statuszPayload
	err = json.NewDecoder(resp.Body).Decode(&p)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if p.DeadLettered == 0 || len(p.RecentErrors) == 0 {
		t.Errorf("/statusz hides the damage: dead_lettered=%d recent_errors=%d",
			p.DeadLettered, len(p.RecentErrors))
	}
	allStages := []string{"capture", "dequeue", "match", "propagate", "action", "deliver"}
	complete := 0
	for _, rec := range p.RecentTraces {
		has := true
		for _, st := range allStages {
			if !slices.ContainsFunc(rec.Stages, func(s trace.StageStat) bool { return s.Stage == st }) {
				has = false
				break
			}
		}
		if has {
			complete++
		}
	}
	if complete == 0 {
		var sample interface{}
		if len(p.RecentTraces) > 0 {
			sample = p.RecentTraces[len(p.RecentTraces)-1]
		}
		t.Fatalf("no complete token trace among %d retained (last: %+v)", len(p.RecentTraces), sample)
	}

	// Stage p99s must exist and be sane (well under the histogram's
	// 10s overflow bound for a microsecond-scale pipeline).
	for _, st := range trace.Stages() {
		if st == trace.StageTaskWait {
			// Only stamped by per-token task fan-out (SourceFIFO,
			// partitions, ActionTasks); this config batches tokens
			// through one task, so the stage is legitimately empty.
			continue
		}
		if st == trace.StageForward {
			// Only recorded when a cluster node forwards a token to a
			// remote owner; this is a single-node system.
			continue
		}
		p99, ok := sys.Tracer().StageQuantile(st, 0.99)
		if !ok {
			t.Errorf("stage %s has no recorded durations", st)
			continue
		}
		if p99 <= 0 || p99 > 10*time.Second {
			t.Errorf("stage %s p99 = %v, not sane", st, p99)
		}
	}
	t.Logf("chaos telemetry: disk faults=%d action errs=%d panics=%d complete traces=%d/%d",
		fd.Injected(), inj.InjectedErrors(), inj.InjectedPanics(), complete, len(p.RecentTraces))
}
