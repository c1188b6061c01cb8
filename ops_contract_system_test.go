package triggerman

// Ops-contract tests: the JSON shapes of /sloz, /statusz?traces= and
// /indexz are dashboards' wire format, so their field sets
// are pinned here as golden lists. Renaming or dropping a field fails
// these tests before it silently breaks a Grafana panel; adding one
// fails them too, on purpose — new fields are cheap to add to the
// golden list and expensive to discover missing from it.

import (
	"encoding/json"
	"fmt"
	"sort"
	"testing"

	"triggerman/internal/datasource"
	"triggerman/internal/types"
)

// fieldSet decodes one JSON object and returns its sorted key list.
func fieldSet(t *testing.T, raw json.RawMessage) []string {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("not a JSON object: %v\n%s", err, raw)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func wantFields(t *testing.T, what string, raw json.RawMessage, want []string) {
	t.Helper()
	got := fieldSet(t, raw)
	sort.Strings(want)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("%s fields changed:\n  got  %v\n  want %v", what, got, want)
	}
}

// TestOpsContract drives traffic through a system with tracing and
// the SLO engine enabled, then pins the top-level and
// nested field sets of the three diagnosis endpoints.
func TestOpsContract(t *testing.T) {
	sys, err := Open(Options{
		Synchronous:      true,
		Queue:            MemoryQueue,
		TraceSampleEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	src, err := sys.DefineStreamSource("s", types.Column{Name: "v", Kind: types.KindInt})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.CreateTrigger(
		`create trigger x from s when s.v >= 0 do raise event X(s.v)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := src.Push(datasource.Token{Op: datasource.OpInsert,
			New: types.Tuple{types.NewInt(int64(i))}}); err != nil {
			t.Fatal(err)
		}
	}
	sys.Drain()
	addr, err := sys.ListenOps("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr

	t.Run("sloz", func(t *testing.T) {
		var raw json.RawMessage
		getJSON(t, base+"/sloz", &raw)
		wantFields(t, "/sloz", raw, []string{"enabled", "windows", "objectives"})
		var p struct {
			Enabled    bool              `json:"enabled"`
			Windows    []json.RawMessage `json:"windows"`
			Objectives []json.RawMessage `json:"objectives"`
		}
		if err := json.Unmarshal(raw, &p); err != nil {
			t.Fatal(err)
		}
		if !p.Enabled {
			t.Fatal("/sloz reports enabled=false with the default SLO engine")
		}
		if len(p.Windows) == 0 || len(p.Objectives) == 0 {
			t.Fatalf("/sloz empty: %d windows, %d objectives", len(p.Windows), len(p.Objectives))
		}
		wantFields(t, "/sloz window pair", p.Windows[0], []string{
			"name", "short_ns", "long_ns", "burn_threshold",
		})
		wantFields(t, "/sloz objective", p.Objectives[0], []string{
			"name", "class", "target", "threshold_ns", "total", "good",
			"windows", "burning", "budget_remaining_milli",
		})
		var obj struct {
			Windows []json.RawMessage `json:"windows"`
		}
		if err := json.Unmarshal(p.Objectives[0], &obj); err != nil {
			t.Fatal(err)
		}
		if len(obj.Windows) == 0 {
			t.Fatal("/sloz objective has no window verdicts")
		}
		wantFields(t, "/sloz window verdict", obj.Windows[0], []string{
			"name", "short_burn_milli", "long_burn_milli", "burn_threshold", "burning",
		})
	})

	t.Run("statusz", func(t *testing.T) {
		var raw json.RawMessage
		getJSON(t, base+"/statusz?traces=16", &raw)
		wantFields(t, "/statusz", raw, []string{
			"node", "triggers", "tokens_in", "tokens_matched", "actions_run",
			"queue_depth", "dead_letters", "dead_lettered",
			"events_raised", "events_delivered", "errors", "recent_errors",
			"active_traces", "traces_dropped", "traces_swept",
			"recent_traces", "exemplars", "runtime",
		})
		var p struct {
			RecentTraces []json.RawMessage `json:"recent_traces"`
			Exemplars    []json.RawMessage `json:"exemplars"`
			Runtime      json.RawMessage   `json:"runtime"`
		}
		if err := json.Unmarshal(raw, &p); err != nil {
			t.Fatal(err)
		}
		if len(p.RecentTraces) == 0 {
			t.Fatal("/statusz has no recent traces at SampleEvery=1")
		}
		// class/traceparent are omitempty: assert against the fields the
		// record always carries plus the decomposition pair.
		got := fieldSet(t, p.RecentTraces[0])
		for _, must := range []string{"seq", "source", "op", "start", "total_ns",
			"queue_wait_ns", "service_ns", "stages"} {
			found := false
			for _, k := range got {
				if k == must {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("/statusz trace record missing %q (got %v)", must, got)
			}
		}
		if len(p.Exemplars) == 0 {
			t.Fatal("/statusz has no exemplars after traced traffic")
		}
		exFields := fieldSet(t, p.Exemplars[0])
		for _, must := range []string{"seq", "value_ns", "at_unix_ns", "bucket_upper_ns"} {
			found := false
			for _, k := range exFields {
				if k == must {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("/statusz exemplar missing %q (got %v)", must, exFields)
			}
		}
		wantFields(t, "/statusz runtime", p.Runtime, []string{
			"heap_alloc_bytes", "heap_sys_bytes", "goroutines", "gc_total",
			"gc_pause_total_ns", "gc_pause_last_ns", "mallocs_total",
			"allocs_per_token_milli", "sampled_at_unix_ns",
		})
	})

	t.Run("indexz", func(t *testing.T) {
		var raw json.RawMessage
		getJSON(t, base+"/indexz", &raw)
		wantFields(t, "/indexz", raw, []string{
			"signatures", "hot_signatures",
		})
		var p struct {
			Signatures []json.RawMessage `json:"signatures"`
		}
		if err := json.Unmarshal(raw, &p); err != nil {
			t.Fatal(err)
		}
		if len(p.Signatures) == 0 {
			t.Fatal("/indexz lists no signatures with a trigger registered")
		}
		wantFields(t, "/indexz signature row", p.Signatures[0], []string{
			"sig_id", "source_id", "mask", "expr", "organization", "structure",
			"size", "partitions", "probes", "matches", "est_probe_cost_ns",
		})
	})

	// The trace window parameter must actually bound the response.
	t.Run("statusz-traces-bound", func(t *testing.T) {
		var p struct {
			RecentTraces []json.RawMessage `json:"recent_traces"`
		}
		getJSON(t, base+"/statusz?traces=2", &p)
		if len(p.RecentTraces) > 2 {
			t.Fatalf("?traces=2 returned %d traces", len(p.RecentTraces))
		}
	})
}
