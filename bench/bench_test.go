package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"triggerman/internal/predindex"
	"triggerman/internal/storage"
	"triggerman/internal/types"
)

func TestPercentileHandCases(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 5}, {0.9, 9}, {0.91, 10}, {0.99, 10}, {0.1, 1}, {0, 1}, {1, 10}} {
		if got := percentile(ten, c.q); got != c.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
	// The highest percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {10000, 0.999}, {100000, 0.9999}} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles = %g %g %g, want 1 2 3", q1, q2, q3)
	}
	if got := spread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); got != 1 {
		t.Errorf("spread = %g, want 1", got)
	}
}

func quickSpec(t *testing.T, name string) *spec {
	t.Helper()
	sp, err := buildSpec(name, 1, scale{quick: true, seconds: quickSeconds})
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func quickInstance(t *testing.T, sp *spec) *instance {
	t.Helper()
	in, err := openInstance(sp, t.TempDir(), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(in.close)
	return in
}

// The reference matcher and the system's predicate index must name the
// same triggers for the same token.
func TestReferenceMatcherAgainstPredIndex(t *testing.T) {
	for _, name := range []string{"fanin_match", "churn_mixed"} {
		sp := quickSpec(t, name)
		in := quickInstance(t, sp)
		cat := in.sys.Catalog()
		checked := 0
		for i := 0; i < len(sp.stream) && checked < 1000; i++ {
			if sp.stream[i].isDDL() {
				continue
			}
			tok := in.token(i)
			fired := 0
			err := in.sys.PredIndex().MatchToken(tok, func(m predindex.Match) bool {
				if m.FireMask.Matches(tok) {
					if _, ok := cat.TriggerName(m.TriggerID); !ok {
						t.Errorf("match names unknown trigger %d", m.TriggerID)
					}
					fired++
				}
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			if want := int(sp.stream[i].expect); fired != want {
				t.Fatalf("%s token %d %v: index fires %d triggers, reference matcher %d", name, i, sp.stream[i].f, fired, want)
			}
			checked++
		}
		if checked < 1000 {
			t.Errorf("%s: only %d tokens checked", name, checked)
		}
	}
}

// The reference matcher, shape by shape, on a hand example.
func TestReferenceMatcherByHand(t *testing.T) {
	m := newRefMatcher()
	for i, tr := range []refTrigger{
		{shape: refAll},
		{shape: refAllDel},
		{shape: refEq, a: 0, c: 7},
		{shape: refEqGT, a: 0, c: 7, b: 1, d: 100},
		{shape: refEqLT, a: 0, c: 7, b: 1, d: 100},
		{shape: refEqEq, a: 0, c: 7, b: 2, d: 3},
		{shape: refGT, a: 1, c: 150},
		{shape: refLT, a: 1, c: 150},
		{shape: refGE, a: 1, c: 200},
	} {
		tr.id = int32(i)
		m.add(tr)
	}
	fired := func(f [4]int32, del bool) []int {
		var ids []int
		n := m.match(f, del, func(id int32) { ids = append(ids, int(id)) })
		if n != len(ids) || n != m.match(f, del, nil) {
			t.Errorf("match count disagrees with reported ids for %v", f)
		}
		sort.Ints(ids)
		return ids
	}
	for _, c := range []struct {
		f    [4]int32
		del  bool
		want []int
	}{
		{[4]int32{7, 200, 3, 0}, false, []int{0, 2, 3, 5, 6, 8}},
		{[4]int32{7, 50, 9, 0}, false, []int{0, 2, 4, 7}},
		{[4]int32{8, 150, 3, 0}, false, []int{0}},
		{[4]int32{8, 199, 3, 0}, false, []int{0, 6}},
		{[4]int32{7, 200, 3, 0}, true, []int{1}},
	} {
		if got := fired(c.f, c.del); fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("match(%v, del=%v) = %v, want %v", c.f, c.del, got, c.want)
		}
	}
}

// The nested-loop oracle on a three-row example worked by hand: one
// salesperson, one represents row, one house.
func TestNestedLoopOracleByHand(t *testing.T) {
	b := newBaseTables()
	b.sp[1] = spRow{spno: 1, name: 0}
	b.rep[0] = repRow{spno: 1, nno: 5}
	b.house[10] = houseRow{hno: 10, price: 1500, nno: 5}
	iris := joinTrigger{name: 0, minPrice: 1000}
	if got := b.memorySizes(iris); got != [3]int{1, 1, 1} {
		t.Errorf("memory sizes = %v, want [1 1 1]", got)
	}
	if got := b.joinFirings(iris, b.house[10]); got != 1 {
		t.Errorf("firings = %d, want 1", got)
	}
	for what, c := range map[string]struct {
		t joinTrigger
		h houseRow
	}{
		"another neighbourhood": {iris, houseRow{11, 1500, 6}},
		"below the threshold":   {iris, houseRow{12, 900, 5}},
		"another salesperson":   {joinTrigger{name: 1, minPrice: 1000}, b.house[10]},
	} {
		if got := b.joinFirings(c.t, c.h); got != 0 {
			t.Errorf("%s: firings = %d, want 0", what, got)
		}
	}
	// A second represents row for the same pair doubles the combinations.
	b.rep[1] = repRow{spno: 1, nno: 5}
	if got := b.joinFirings(iris, b.house[10]); got != 2 {
		t.Errorf("firings with two represents rows = %d, want 2", got)
	}
	if got := b.memorySizes(joinTrigger{name: 0, minPrice: 1600}); got != [3]int{1, 0, 2} {
		t.Errorf("memory sizes = %v, want [1 0 2]", got)
	}
	b.sale[0], b.sale[1], b.sale[2] = saleRow{0, 10}, saleRow{0, 30}, saleRow{1, 5}
	if c, s := b.groupState(0); c != 2 || s != 40 || b.groups() != 2 {
		t.Errorf("group 0 = (%d, %d) in %d groups, want (2, 40) in 2", c, s, b.groups())
	}
	g := aggTrigger{k: 1, m: 35}
	if !g.having(2, 40) || g.having(1, 40) || g.having(2, 35) {
		t.Error("having(count > 1 and sum > 35) is wrong")
	}
}

// The open loop must time a send from the instant it was due, not the
// instant it went out: a stall in one send is charged to the sends
// queued behind it.
func TestOpenLoopTimesFromDueInstant(t *testing.T) {
	sp := quickSpec(t, "fanin_match")
	const stallAt, stall = 20, 40 * time.Millisecond
	fill := sp.fill
	sp.fill = func(src uint8, f [4]int32, ts int64, dst types.Tuple) {
		if ts == stallAt {
			time.Sleep(stall)
		}
		fill(src, f, ts, dst)
	}
	in := quickInstance(t, sp)
	r := newRunner(in, false, false, make(chan struct{}))
	defer r.stop()
	const rate = 1000.0
	res, err := r.pacedPhase(rate, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.last-res.first != 100 {
		t.Fatalf("sent %d ops, want 100", res.last-res.first)
	}
	for k := res.first; k < res.last; k++ {
		want := res.from.at + int64(float64(k-res.first)*1e9/rate)
		if r.due[k] != want {
			t.Fatalf("op %d due at %d, want %d: the schedule moved", k, r.due[k], want)
		}
	}
	// The op behind the stalled one was due 1 ms after it and went out
	// about 39 ms late; its latency must include that wait.
	after := stallAt + 1
	if lag := time.Duration(res.lagNs[after-res.first]); lag < stall-5*time.Millisecond {
		t.Errorf("lag of the op behind the stall = %v, want about %v", lag, stall)
	}
	if lat := time.Duration(r.doneAt[after] - r.due[after]); lat < stall-5*time.Millisecond {
		t.Errorf("latency of the op behind the stall = %v: timed from the send, not the due instant", lat)
	}
	if got := r.mismatched(); got != 0 {
		t.Errorf("%d tokens with a wrong event count", got)
	}
}

func runQuick(t *testing.T, cfg runConfig) *runOutput {
	t.Helper()
	cfg.quick, cfg.seconds, cfg.seed, cfg.workdir = true, quickSeconds, 1, t.TempDir()
	res, err := runWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// Every workload, at -quick scale, passes its output check and prints
// every metric BENCHMARK.json names exactly once, and no other.
func TestQuickRunsPrintExactlyTheManifest(t *testing.T) {
	man, err := readJSON[benchManifest]("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Workloads) != len(workloadNames) {
		t.Fatalf("manifest names %d workloads, the harness %d", len(man.Workloads), len(workloadNames))
	}
	names := func(ms []manifestMetric) map[string]string {
		out := make(map[string]string)
		for _, m := range ms {
			if _, dup := out[m.Name]; dup {
				t.Errorf("manifest lists %s twice", m.Name)
			}
			out[m.Name] = m.Unit
		}
		return out
	}
	for i, w := range man.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("manifest workload %d is %q, the harness's is %q", i, w.Name, workloadNames[i])
		}
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			for _, traced := range []bool{false, true} {
				res := runQuick(t, runConfig{workload: w.Name, traced: traced})
				if !res.Correct {
					t.Errorf("traced=%v: run failed: %v", traced, res.Failures)
				}
				want := names(man.EndToEnd)
				if traced {
					want = names(man.PerLayer)
				}
				got := res.driverMetrics()
				for name, m := range got {
					unit, listed := want[name]
					if !listed {
						t.Errorf("traced=%v: prints %s, which the manifest does not list", traced, name)
					} else if unit != m.Unit {
						t.Errorf("traced=%v: %s has unit %q, the manifest says %q", traced, name, m.Unit, unit)
					}
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("traced=%v: %s = %v", traced, name, m.Value)
					}
				}
				for name := range want {
					if _, ok := got[name]; !ok {
						t.Errorf("traced=%v: does not print %s", traced, name)
					}
				}
			}
		})
	}
}

// A benchmark that can fail: one terminal event dropped in the consumer
// must fail the run.
func TestDroppedEventFailsTheRun(t *testing.T) {
	res := runQuick(t, runConfig{workload: "fanin_match", breakOne: true})
	if res.Correct || res.Failed == 0 {
		t.Fatalf("run with a dropped event passed: correct=%v failed=%d", res.Correct, res.Failed)
	}
	if r := res.PerLayer["pipeline.failed_ops_ratio"].Value; r <= 0 {
		t.Errorf("failed_ops_ratio = %g, want > 0", r)
	}
	if code := exitCode(res); code == 0 {
		t.Error("exit code is 0 for a failed run")
	}
}

// A wrong memory size in the oracle must trip the join workload's
// output check.
func TestWrongMemorySizeTripsTheOutputCheck(t *testing.T) {
	res := runQuick(t, runConfig{workload: "join_aggregate", tweak: func(sp *spec) {
		sp.perturb = func(b *baseTables) {
			b.house[-12345] = houseRow{hno: -12345, price: 2 * joinPriceCut, nno: 0}
		}
	}})
	if res.Correct {
		t.Fatal("the output check passed with a phantom house in the oracle's table")
	}
	found := false
	for _, f := range res.Failures {
		if strings.Contains(f, "memory") && strings.Contains(f, "recompute") {
			found = true
		}
	}
	if !found {
		t.Errorf("no memory-size failure among %v", res.Failures)
	}
}

// The same seed gives the same inputs: trigger texts, token stream and
// expected event counts hash to the same value on every build.
func TestInputsAreDeterministic(t *testing.T) {
	golden := map[string]string{
		"fanin_match":     quickHashFanin,
		"durable_cascade": quickHashCascade,
		"join_aggregate":  quickHashJoin,
		"churn_mixed":     quickHashChurn,
	}
	for _, name := range workloadNames {
		a := quickSpec(t, name).inputHash()
		if b := quickSpec(t, name).inputHash(); a != b {
			t.Errorf("%s: two builds from seed 1 hash to %s and %s", name, a, b)
		}
		other, err := buildSpec(name, 2, scale{quick: true, seconds: quickSeconds})
		if err != nil {
			t.Fatal(err)
		}
		if other.inputHash() == a {
			t.Errorf("%s: seeds 1 and 2 give the same inputs", name)
		}
		if a != golden[name] {
			t.Errorf("%s: seed 1 hashes to %s, pinned %s (update the pin only with the generator)", name, a, golden[name])
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name   string
		b      []float64
		better string
		bound  float64
		want   string
	}{
		{"same", []float64{100, 100, 101, 99, 100}, "lower", 0.05, "unchanged"},
		{"slower, lower is better", []float64{110, 111, 109, 110, 110}, "lower", 0.05, "worse"},
		{"slower, higher is better", []float64{110, 111, 109, 110, 110}, "higher", 0.05, "better"},
		{"less, higher is better", []float64{90, 91, 89, 90, 90}, "higher", 0.05, "worse"},
		{"within the bound", []float64{103, 104, 102, 103, 103}, "lower", 0.05, "unchanged"},
		{"too noisy to tell", []float64{80, 120, 100, 90, 140}, "lower", 0.05, "unresolved"},
	} {
		if _, _, _, got := verdict(base, c.b, c.better, c.bound); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

// syncCounter counts the Syncs that reach the device.
type syncCounter struct {
	storage.DiskManager
	syncs int
}

func (d *syncCounter) Sync() error {
	d.syncs++
	return nil
}

// The disk wrapper passes every Sync of a running system to the device
// and none of a system the harness is closing.
func TestClosingSyncStaysOffTheDevice(t *testing.T) {
	for _, timing := range []bool{false, true} {
		device := &syncCounter{DiskManager: storage.NewMem()}
		d := &timedDisk{DiskManager: device, timing: timing, epoch: time.Now()}
		d.Sync()
		d.closing.Store(true)
		d.Sync()
		if device.syncs != 1 {
			t.Errorf("timing=%v: %d Syncs reached the device, want 1", timing, device.syncs)
		}
	}
}

func TestMain(m *testing.M) {
	// The manifest test reads ../BENCHMARK.json; say so instead of failing
	// obscurely when the package is tested outside the repository.
	if _, err := os.Stat("../BENCHMARK.json"); err != nil {
		fmt.Fprintln(os.Stderr, "bench tests need ../BENCHMARK.json:", err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}
