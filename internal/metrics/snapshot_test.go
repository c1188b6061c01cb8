package metrics

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// buildRegistry makes a small registry resembling a node's: a labeled
// counter, a gauge, and a class-labeled latency histogram.
func buildRegistry(tokens, depth int64, lat time.Duration, n int) *Registry {
	r := NewRegistry()
	r.Counter("tman_tokens_total", "tokens captured").Add(tokens)
	r.Gauge("tman_queue_depth", "queue depth").Set(depth)
	h := r.Histogram("tman_token_duration_seconds", "end to end", nil, L("class", "interactive"))
	for i := 0; i < n; i++ {
		h.Observe(lat)
	}
	return r
}

func TestSnapshotRoundTrip(t *testing.T) {
	r := buildRegistry(7, 3, 2*time.Millisecond, 5)
	snap := r.Snapshot()
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Snapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if v, ok := back.Value("tman_tokens_total", ""); !ok || v != 7 {
		t.Fatalf("tokens after round trip = %d, %v", v, ok)
	}
	h, ok := back.Histogram("tman_token_duration_seconds", LabelString(L("class", "interactive")))
	if !ok || h.Count != 5 {
		t.Fatalf("histogram after round trip: ok=%v count=%d", ok, h.Count)
	}
	if h.CountAtOrBelow(5*time.Millisecond) != 5 {
		t.Fatalf("CountAtOrBelow(5ms) = %d, want 5", h.CountAtOrBelow(5*time.Millisecond))
	}
	if h.CountAtOrBelow(time.Microsecond) != 0 {
		t.Fatalf("CountAtOrBelow(1µs) = %d, want 0", h.CountAtOrBelow(time.Microsecond))
	}
}

func TestMergeSemanticsPerKind(t *testing.T) {
	snaps := map[string]*Snapshot{
		"A": buildRegistry(10, 2, time.Millisecond, 3).Snapshot(),
		"B": buildRegistry(5, 9, 100*time.Millisecond, 4).Snapshot(),
	}
	m := Merge(snaps)

	// Counters sum.
	if v, ok := m.Value("tman_tokens_total", ""); !ok || v != 15 {
		t.Fatalf("merged counter = %d, %v; want 15", v, ok)
	}
	// Gauges are labeled per node, never summed.
	if _, ok := m.Value("tman_queue_depth", ""); ok {
		t.Fatalf("merged gauge kept an unlabeled (summed) instance")
	}
	if v, ok := m.Value("tman_queue_depth", LabelString(L("node", "A"))); !ok || v != 2 {
		t.Fatalf("gauge node=A = %d, %v; want 2", v, ok)
	}
	if v, ok := m.Value("tman_queue_depth", LabelString(L("node", "B"))); !ok || v != 9 {
		t.Fatalf("gauge node=B = %d, %v; want 9", v, ok)
	}
	// Histograms merge bucket-wise: counts add, per-bucket placement
	// preserved.
	h, ok := m.Histogram("tman_token_duration_seconds", LabelString(L("class", "interactive")))
	if !ok {
		t.Fatalf("merged histogram missing")
	}
	if h.Count != 7 {
		t.Fatalf("merged count = %d, want 7", h.Count)
	}
	if got := h.CountAtOrBelow(10 * time.Millisecond); got != 3 {
		t.Fatalf("fast bucket mass = %d, want 3 (A's 1ms observations)", got)
	}
	var bucketSum int64
	for _, c := range h.Buckets {
		bucketSum += c
	}
	if bucketSum != h.Count {
		t.Fatalf("bucket sum %d != count %d", bucketSum, h.Count)
	}
}

func TestMergeMismatchedBoundsDegradesToPerNode(t *testing.T) {
	a := NewRegistry()
	a.Histogram("odd_hist", "", []int64{10, 20}).Observe(5)
	b := NewRegistry()
	b.Histogram("odd_hist", "", []int64{100}).Observe(5)
	m := Merge(map[string]*Snapshot{"A": a.Snapshot(), "B": b.Snapshot()})
	if _, ok := m.Histogram("odd_hist", ""); ok {
		t.Fatalf("mismatched bounds were merged bucket-wise")
	}
	if _, ok := m.Histogram("odd_hist", LabelString(L("node", "A"))); !ok {
		t.Fatalf("mismatched histogram lost node A's series")
	}
}

func TestMergedExpositionIsValid(t *testing.T) {
	snaps := map[string]*Snapshot{
		"A": buildRegistry(10, 2, time.Millisecond, 3).Snapshot(),
		"B": buildRegistry(5, 9, 100*time.Millisecond, 4).Snapshot(),
	}
	var b strings.Builder
	if err := Merge(snaps).WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	if err := CheckExposition(text); err != nil {
		t.Fatalf("merged exposition invalid: %v\n%s", err, text)
	}
	if !strings.Contains(text, `tman_queue_depth{node="A"} 2`) {
		t.Fatalf("per-node gauge missing from exposition:\n%s", text)
	}
	if !strings.Contains(text, "tman_tokens_total 15") {
		t.Fatalf("summed counter missing from exposition:\n%s", text)
	}
}

func TestCheckExpositionCatchesGarbage(t *testing.T) {
	for _, bad := range []string{
		"no_type_line 3\n",
		"# TYPE x counter\nx notanumber\n",
		"# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_count 2\n",
		"# TYPE y counter\n9leading_digit 1\n",
	} {
		if err := CheckExposition(bad); err == nil {
			t.Fatalf("CheckExposition accepted %q", bad)
		}
	}
	r := buildRegistry(1, 1, time.Millisecond, 1)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := CheckExposition(sb.String()); err != nil {
		t.Fatalf("CheckExposition rejected registry output: %v", err)
	}
}
