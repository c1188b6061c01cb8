package trace

import (
	"slices"
	"sync"
	"testing"
	"time"

	"triggerman/internal/metrics"
)

// TestSpanLifecycle walks one token through every stage and checks the
// completed record.
func TestSpanLifecycle(t *testing.T) {
	reg := metrics.NewRegistry()
	tr := New(Config{Registry: reg})
	sp := tr.Begin(3, "insert")
	if sp == nil {
		t.Fatal("span not sampled at SampleEvery=1")
	}
	sp.Mark(StageCapture)
	tr.Attach(42, sp)
	got := tr.Dequeued(42)
	if got != sp {
		t.Fatalf("Dequeued returned %p, want %p", got, sp)
	}
	sp.Observe(StageTaskWait, 3*time.Microsecond)
	sp.Observe(StageMatch, 5*time.Microsecond)
	sp.Observe(StagePropagate, time.Microsecond)
	sp.Observe(StageAction, 10*time.Microsecond)
	sp.Observe(StageDeliver, 2*time.Microsecond)
	sp.Finish()

	recs := tr.Recent()
	if len(recs) != 1 {
		t.Fatalf("ring has %d records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.Seq != 42 || rec.Source != 3 || rec.Op != "insert" {
		t.Fatalf("record identity = %+v", rec)
	}
	for _, st := range Stages() {
		if st == StageForward {
			// Origin-side synthesized for forwarded tokens only; a
			// locally-processed span never marks it.
			continue
		}
		if !slices.ContainsFunc(rec.Stages, func(s StageStat) bool { return s.Stage == st.String() }) {
			t.Fatalf("record missing stage %s: %+v", st, rec.Stages)
		}
	}
	if tr.ActiveCount() != 0 {
		t.Fatalf("active = %d after finish", tr.ActiveCount())
	}
	if d, ok := tr.StageQuantile(StageMatch, 0.99); !ok || d <= 0 {
		t.Fatalf("stage quantile = %v ok=%v", d, ok)
	}
	if v, ok := reg.Value("tman_traces_started_total"); !ok || v != 1 {
		t.Fatalf("traces started = %d ok=%v", v, ok)
	}
	// Decomposition: dequeue+taskwait are wait, everything else service.
	if rec.QueueWaitNs <= 0 || rec.ServiceNs <= 0 {
		t.Fatalf("decomposition wait=%d service=%d, want both > 0", rec.QueueWaitNs, rec.ServiceNs)
	}
	var wantWait, wantSvc int64
	for _, st := range rec.Stages {
		if st.Stage == "dequeue" || st.Stage == "taskwait" {
			wantWait += int64(st.Total)
		} else {
			wantSvc += int64(st.Total)
		}
	}
	if rec.QueueWaitNs != wantWait || rec.ServiceNs != wantSvc {
		t.Fatalf("decomposition wait=%d/%d service=%d/%d", rec.QueueWaitNs, wantWait, rec.ServiceNs, wantSvc)
	}
	// The end-to-end histogram carries an exemplar pointing back at the
	// span's seq.
	exs := tr.TotalHistogram().Exemplars()
	if len(exs) != 1 || exs[0].Seq != 42 {
		t.Fatalf("exemplars = %+v, want one with seq 42", exs)
	}
	if r, ok := tr.RecordBySeq(42); !ok || r.Seq != 42 {
		t.Fatalf("RecordBySeq(42) = %+v ok=%v", r, ok)
	}
}

// TestClassHistogram checks ClassOf labels records and routes durations
// into per-class histograms.
func TestClassHistogram(t *testing.T) {
	reg := metrics.NewRegistry()
	tr := New(Config{Registry: reg, ClassOf: func(src int32) string {
		if src == 1 {
			return "interactive"
		}
		return "batch"
	}})
	for seq, src := range map[uint64]int32{10: 1, 11: 2, 12: 1} {
		sp := tr.Begin(src, "insert")
		tr.Attach(seq, sp)
		sp.Finish()
	}
	if n := tr.ClassHistogram("interactive").Count(); n != 2 {
		t.Fatalf("interactive count = %d, want 2", n)
	}
	if n := tr.ClassHistogram("batch").Count(); n != 1 {
		t.Fatalf("batch count = %d, want 1", n)
	}
	for _, rec := range tr.Recent() {
		want := "batch"
		if rec.Source == 1 {
			want = "interactive"
		}
		if rec.Class != want {
			t.Fatalf("seq %d class = %q, want %q", rec.Seq, rec.Class, want)
		}
	}
}

// TestBeginRemote checks a sampled wire context forces tracing and the
// parent id survives into the record and onward context.
func TestBeginRemote(t *testing.T) {
	tr := New(Config{SampleEvery: 1000}) // would sample almost nothing locally
	id := NewTraceID()
	sp := tr.BeginRemote(1, "insert", id, FlagSampled)
	if sp == nil {
		t.Fatal("sampled remote parent did not force a span")
	}
	tr.Attach(7, sp)
	sp.Finish()
	rec, ok := tr.RecordBySeq(7)
	if !ok || rec.TraceParent != FormatContext(id, FlagSampled) {
		t.Fatalf("record = %+v ok=%v, want traceparent %s", rec, ok, FormatContext(id, FlagSampled))
	}
	// Unsampled parent falls back to normal sampling (1-in-1000 → nil).
	if sp := tr.BeginRemote(1, "insert", id, 0); sp != nil {
		t.Fatal("unsampled parent bypassed sampling")
	}
	// Disabled tracing wins over a sampled parent.
	off := New(Config{SampleEvery: -1})
	if sp := off.BeginRemote(1, "insert", id, FlagSampled); sp != nil {
		t.Fatal("disabled tracer produced a remote span")
	}
}

// TestSampling checks 1-in-N sampling and the disabled mode.
func TestSampling(t *testing.T) {
	tr := New(Config{SampleEvery: 4})
	sampled := 0
	for i := 0; i < 40; i++ {
		if sp := tr.Begin(1, "insert"); sp != nil {
			sampled++
			sp.Finish()
		}
	}
	if sampled != 10 {
		t.Fatalf("sampled %d of 40, want 10", sampled)
	}
	off := New(Config{SampleEvery: -1})
	if off.Begin(1, "insert") != nil {
		t.Fatal("disabled tracer produced a span")
	}
}

// TestRingBound checks the completed ring stays bounded, oldest
// evicted first.
func TestRingBound(t *testing.T) {
	tr := New(Config{RingSize: 4})
	for i := uint64(1); i <= 10; i++ {
		sp := tr.Begin(1, "insert")
		tr.Attach(i, sp)
		sp.Finish()
	}
	recs := tr.Recent()
	if len(recs) != 4 {
		t.Fatalf("ring has %d records, want 4", len(recs))
	}
	if recs[0].Seq != 7 || recs[3].Seq != 10 {
		t.Fatalf("ring order wrong: first=%d last=%d", recs[0].Seq, recs[3].Seq)
	}
}

// TestMaxActive checks the in-flight bound drops, not blocks.
func TestMaxActive(t *testing.T) {
	reg := metrics.NewRegistry()
	tr := New(Config{Registry: reg, MaxActive: 2})
	a := tr.Begin(1, "insert")
	tr.Attach(1, a)
	b := tr.Begin(1, "insert")
	tr.Attach(2, b)
	if c := tr.Begin(1, "insert"); c != nil {
		t.Fatal("span allocated beyond MaxActive")
	}
	if v, _ := reg.Value("tman_traces_dropped_total"); v != 1 {
		t.Fatalf("dropped = %d, want 1", v)
	}
	a.Finish()
	if d := tr.Begin(1, "insert"); d == nil {
		t.Fatal("span denied after slot freed")
	}
	b.Finish()
}

// TestConcurrentStamping has partition-style concurrent stage
// recording on one span, plus refcounted completion.
func TestConcurrentStamping(t *testing.T) {
	tr := New(Config{})
	sp := tr.Begin(1, "insert")
	tr.Attach(9, sp)
	const parts = 8
	var wg sync.WaitGroup
	for p := 0; p < parts; p++ {
		sp.Retain()
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp.Observe(StageMatch, time.Microsecond)
			sp.Finish()
		}()
	}
	wg.Wait()
	sp.Finish()
	recs := tr.Recent()
	if len(recs) != 1 {
		t.Fatalf("ring has %d records, want 1", len(recs))
	}
	for _, st := range recs[0].Stages {
		if st.Stage == "match" && st.Count != parts {
			t.Fatalf("match count = %d, want %d", st.Count, parts)
		}
	}
}
