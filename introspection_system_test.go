package triggerman

// System-level introspection tests: the Prometheus exposition is
// well-formed family by family, /statusz is bounded, the new /indexz,
// /triggerz, and /eventz endpoints plus the explain verb report live
// index shape and per-trigger attributed costs, and — the acceptance
// bar — with 100k triggers over ten signatures /triggerz returns the
// true top-10 hottest triggers with exact counts while the event log
// carries the constant-set organization transitions that got them
// there.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"triggerman/internal/eventlog"
	"triggerman/internal/predindex"
	"triggerman/internal/types"
)

func getJSON(t *testing.T, url string, v interface{}) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: bad JSON: %v", url, err)
	}
}

// TestPrometheusExpositionComplete parses the live /metrics output and
// fails on any family missing # HELP or # TYPE, on duplicate family
// declarations, and on samples for undeclared families.
func TestPrometheusExpositionComplete(t *testing.T) {
	sys, err := Open(Options{Synchronous: true, Queue: MemoryQueue})
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
	if err := src.Insert(types.Tuple{types.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	// A family registered with empty help must still get a HELP line.
	sys.Metrics().Counter("tman_helpless_total", "").Inc()

	addr, err := sys.ListenOps("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()

	helped := map[string]bool{}
	typed := map[string]bool{}
	sampled := map[string]bool{}
	for ln, line := range strings.Split(string(body), "\n") {
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			name := rest[0]
			if len(rest) < 2 || strings.TrimSpace(rest[1]) == "" {
				t.Errorf("line %d: HELP for %s has no text", ln+1, name)
			}
			if helped[name] {
				t.Errorf("line %d: duplicate # HELP for %s", ln+1, name)
			}
			helped[name] = true
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				t.Fatalf("line %d: malformed TYPE line %q", ln+1, line)
			}
			name, kind := fields[0], fields[1]
			if typed[name] {
				t.Errorf("line %d: duplicate # TYPE for %s", ln+1, name)
			}
			if !helped[name] {
				t.Errorf("line %d: # TYPE %s before its # HELP", ln+1, name)
			}
			switch kind {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Errorf("line %d: invalid type %q for %s", ln+1, kind, name)
			}
			typed[name] = true
		case strings.HasPrefix(line, "#"):
			// comment
		default:
			name := line
			if i := strings.IndexAny(name, "{ "); i >= 0 {
				name = name[:i]
			}
			family := name
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base := strings.TrimSuffix(name, suffix); base != name && typed[base] {
					family = base
					break
				}
			}
			if !typed[family] || !helped[family] {
				t.Errorf("line %d: sample %q for undeclared family %q", ln+1, line, family)
			}
			sampled[family] = true
		}
	}
	for name := range typed {
		if !sampled[name] {
			t.Errorf("family %s declared but has no samples", name)
		}
	}
	if !typed["tman_helpless_total"] || !helped["tman_helpless_total"] {
		t.Error("family with empty help text missing HELP/TYPE declarations")
	}
}

// TestStatuszBounded: /statusz defaults to a bounded glance and honors
// ?traces=N&errors=N.
func TestStatuszBounded(t *testing.T) {
	sys, err := Open(Options{Synchronous: true, Queue: MemoryQueue, TraceSampleEvery: 1})
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
	// Drive more errors and traces than the default windows hold: a
	// trigger whose action divides by zero fails every firing.
	if err := sys.CreateTrigger(`create trigger bad from s when s.v >= 0 do raise event Bad(s.v / 0)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := src.Insert(types.Tuple{types.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if sys.Errors() <= int64(defaultStatuszErrors) {
		t.Fatalf("drove only %d errors, need > %d", sys.Errors(), defaultStatuszErrors)
	}
	addr, err := sys.ListenOps("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var p struct {
		RecentErrors []string          `json:"recent_errors"`
		RecentTraces []json.RawMessage `json:"recent_traces"`
	}
	getJSON(t, "http://"+addr+"/statusz", &p)
	if len(p.RecentErrors) != defaultStatuszErrors {
		t.Errorf("default /statusz carries %d errors, want %d", len(p.RecentErrors), defaultStatuszErrors)
	}
	if len(p.RecentTraces) > defaultStatuszTraces {
		t.Errorf("default /statusz carries %d traces, want <= %d", len(p.RecentTraces), defaultStatuszTraces)
	}
	getJSON(t, "http://"+addr+"/statusz?traces=2&errors=3", &p)
	if len(p.RecentErrors) != 3 || len(p.RecentTraces) > 2 {
		t.Errorf("bounded /statusz carries %d errors / %d traces, want 3 / <=2",
			len(p.RecentErrors), len(p.RecentTraces))
	}
	// Malformed values fall back to the defaults rather than erroring.
	getJSON(t, "http://"+addr+"/statusz?traces=bogus&errors=-4", &p)
	if len(p.RecentErrors) != defaultStatuszErrors {
		t.Errorf("malformed params: %d errors, want default %d", len(p.RecentErrors), defaultStatuszErrors)
	}
}

// TestExplainVerb: the console/wire explain verb reports placement,
// organization, and attributed costs for one trigger.
func TestExplainVerb(t *testing.T) {
	sys, err := Open(Options{Synchronous: true, Queue: MemoryQueue})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	src, err := sys.DefineStreamSource("emp",
		types.Column{Name: "name", Kind: types.KindVarchar},
		types.Column{Name: "salary", Kind: types.KindInt})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.CreateTrigger(`create trigger hot from emp when emp.name = 'ada' do raise event Hot(emp.salary)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := src.Insert(types.Tuple{types.NewString("ada"), types.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	out, err := sys.Command("explain hot")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"trigger hot (id",
		"predicate index:",
		"organization mm-list",
		"constant ('ada')",
		"match probes=5 matches=5",
		"actions=5",
		"cache hits=",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}
	// Bare explain dumps the signature table.
	out, err = sys.Command("explain")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "expression signature(s)") || !strings.Contains(out, "probes=5") {
		t.Errorf("bare explain missing signature table:\n%s", out)
	}
	if _, err := sys.Command("explain nosuch"); err == nil {
		t.Error("explain of unknown trigger should fail")
	}
	// Disabled triggers are reported as such.
	if err := sys.DisableTrigger("hot"); err != nil {
		t.Fatal(err)
	}
	out, err = sys.Command("explain hot")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "not fireable") {
		t.Errorf("explain of disabled trigger missing fireable note:\n%s", out)
	}
}

// TestEventLogMirror: Options.EventLogOut mirrors structured events as
// JSON lines, and /eventz serves the bounded ring.
func TestEventLogMirror(t *testing.T) {
	var sb strings.Builder
	sys, err := Open(Options{Synchronous: true, Queue: MemoryQueue, EventLogOut: &sb})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	src, err := sys.DefineStreamSource("s", types.Column{Name: "v", Kind: types.KindInt})
	if err != nil {
		t.Fatal(err)
	}
	// A failing action must produce a deadletter.quarantine event.
	if err := sys.CreateTrigger(`create trigger bad from s when s.v >= 0 do raise event Bad(s.v / 0)`); err != nil {
		t.Fatal(err)
	}
	if err := src.Insert(types.Tuple{types.NewInt(7)}); err != nil {
		t.Fatal(err)
	}
	addr, err := sys.ListenOps("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var ez struct {
		Total   int64             `json:"total"`
		Records []eventlog.Record `json:"records"`
	}
	getJSON(t, "http://"+addr+"/eventz", &ez)
	events := map[string]int{}
	for _, rec := range ez.Records {
		events[rec.Event]++
	}
	if events["deadletter.quarantine"] == 0 {
		t.Errorf("no quarantine event in /eventz: %v", events)
	}
	if events["ops.listen"] == 0 {
		t.Errorf("no ops.listen event in /eventz: %v", events)
	}
	if ez.Total < int64(len(ez.Records)) {
		t.Errorf("total %d < records %d", ez.Total, len(ez.Records))
	}
	if !strings.Contains(sb.String(), `"msg":"deadletter.quarantine"`) {
		t.Errorf("JSON mirror missing quarantine line:\n%s", sb.String())
	}
}

// TestIntrospectionAtScale is the acceptance bar: 100k triggers over
// ten expression signatures; /triggerz must return the true top-10
// hottest triggers with exact probe counts, /indexz must report every
// signature's constant-set organization, and the structured event log
// must carry at least one cost-model organization transition.
func TestIntrospectionAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-trigger scale test")
	}
	sys, err := Open(Options{Synchronous: true, Queue: MemoryQueue})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	src, err := sys.DefineStreamSource("emp",
		types.Column{Name: "name", Kind: types.KindVarchar},
		types.Column{Name: "salary", Kind: types.KindInt},
		types.Column{Name: "dept", Kind: types.KindVarchar})
	if err != nil {
		t.Fatal(err)
	}

	// Ten signature shapes. Cold constants are chosen so the pushed
	// tokens (name hK, salary 500000, dept nodept) probe only the hot
	// triggers: equality constants never pushed, ranges that exclude
	// 500000. That keeps every sketch count exact and the true top-10
	// known in closed form.
	const total = 100_000
	const hot = 10
	shapes := []func(i int) string{
		func(i int) string { return fmt.Sprintf("emp.name = 'c%07d'", i) },
		func(i int) string { return fmt.Sprintf("emp.dept = 'd%07d'", i) },
		func(i int) string { return fmt.Sprintf("emp.salary > %d", 1_000_000+i) },
		func(i int) string { return fmt.Sprintf("emp.salary < %d", i%400_000) },
		func(i int) string { return fmt.Sprintf("emp.salary >= %d", 1_000_000+i) },
		func(i int) string { return fmt.Sprintf("emp.salary <= %d", i%400_000) },
		func(i int) string { return fmt.Sprintf("emp.name = 'c%07d' and emp.salary > 1000000", i) },
		func(i int) string { return fmt.Sprintf("emp.dept = 'd%07d' and emp.salary < 400000", i) },
		func(i int) string { return fmt.Sprintf("emp.name = 'c%07d' and emp.dept = 'd%07d'", i, i) },
		func(i int) string { return fmt.Sprintf("emp.dept = 'd%07d' and emp.salary >= 1000000", i) },
	}
	for k := 0; k < hot; k++ {
		stmt := fmt.Sprintf(
			"create trigger h%d from emp when emp.name = 'h%d' do raise event Hot(emp.salary)", k, k)
		if err := sys.CreateTrigger(stmt); err != nil {
			t.Fatal(err)
		}
	}
	for i := hot; i < total; i++ {
		stmt := fmt.Sprintf("create trigger t%06d from emp when %s do raise event Cold(emp.salary)",
			i, shapes[i%len(shapes)](i))
		if err := sys.CreateTrigger(stmt); err != nil {
			t.Fatalf("trigger %d: %v", i, err)
		}
	}
	if got := sys.Stats().Triggers; got != total {
		t.Fatalf("trigger count = %d, want %d", got, total)
	}

	// Push a known workload: hot trigger h(K) receives 20*(10-K)
	// tokens, so the exact hotness order is h0 > h1 > ... > h9.
	want := make(map[string]int64, hot)
	for k := 0; k < hot; k++ {
		n := int64(20 * (hot - k))
		want[fmt.Sprintf("h%d", k)] = n
		for j := int64(0); j < n; j++ {
			tok := types.Tuple{
				types.NewString(fmt.Sprintf("h%d", k)),
				types.NewInt(500_000),
				types.NewString("nodept"),
			}
			if err := src.Insert(tok); err != nil {
				t.Fatal(err)
			}
		}
	}

	addr, err := sys.ListenOps("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// /triggerz: the hot list is exactly h0..h9 with exact counts.
	var tz struct {
		Evictions int64         `json:"evictions"`
		Hot       []TriggerCost `json:"hot"`
	}
	getJSON(t, "http://"+addr+"/triggerz?k=10", &tz)
	if tz.Evictions != 0 {
		t.Errorf("sketch evicted %d entries; counts no longer exact", tz.Evictions)
	}
	if len(tz.Hot) != hot {
		t.Fatalf("/triggerz hot list has %d entries, want %d: %+v", len(tz.Hot), hot, tz.Hot)
	}
	for rank, tc := range tz.Hot {
		wantName := fmt.Sprintf("h%d", rank)
		if tc.Name != wantName {
			t.Errorf("hot[%d] = %s, want %s", rank, tc.Name, wantName)
			continue
		}
		if tc.Probes != want[wantName] || tc.Matches != want[wantName] {
			t.Errorf("%s: probes=%d matches=%d, want exactly %d",
				wantName, tc.Probes, tc.Matches, want[wantName])
		}
		if tc.ActionRuns != want[wantName] {
			t.Errorf("%s: action_runs=%d, want %d", wantName, tc.ActionRuns, want[wantName])
		}
	}

	// /indexz: every signature reports its live organization; the big
	// equality classes must have migrated off the linear list.
	var iz struct {
		Signatures []predindex.SigSnapshot `json:"signatures"`
	}
	getJSON(t, "http://"+addr+"/indexz", &iz)
	if len(iz.Signatures) < 10 {
		t.Fatalf("/indexz reports %d signatures, want >= 10", len(iz.Signatures))
	}
	validOrgs := map[string]bool{"mm-list": true, "mm-index": true, "table": true, "indexed-table": true}
	var migrated bool
	for _, sn := range iz.Signatures {
		if !validOrgs[sn.Org] {
			t.Errorf("sig %d (%s): organization %q not a live organization", sn.ID, sn.Expr, sn.Org)
		}
		if sn.Structure == "" {
			t.Errorf("sig %d (%s): empty structure description", sn.ID, sn.Expr)
		}
		if sn.Org != "mm-list" {
			migrated = true
		}
	}
	if !migrated {
		t.Error("no signature migrated off mm-list at 100k triggers")
	}

	// The structured event log must carry at least one cost-model
	// organization transition with both cost estimates.
	var ez struct {
		Records []eventlog.Record `json:"records"`
	}
	getJSON(t, "http://"+addr+"/eventz", &ez)
	var reorgs int
	for _, rec := range ez.Records {
		if rec.Event != "predindex.reorganize" {
			continue
		}
		reorgs++
		if rec.Attrs["from"] == rec.Attrs["to"] {
			t.Errorf("reorg event with from == to: %+v", rec)
		}
		if _, ok := rec.Attrs["from_cost_ns"]; !ok {
			t.Errorf("reorg event missing cost estimates: %+v", rec)
		}
	}
	if reorgs == 0 {
		t.Error("no predindex.reorganize event in the structured log")
	}

	// The explain verb agrees with the sketch for the hottest trigger.
	out, err := sys.Command("explain h0")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, fmt.Sprintf("match probes=%d", want["h0"])) {
		t.Errorf("explain h0 disagrees with sketch:\n%s", out)
	}
}
