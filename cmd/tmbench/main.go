// Command tmbench regenerates the experiments of EXPERIMENTS.md
// (E1–E12) at configurable scale and prints row-oriented results, one
// table per experiment. Unlike the testing.B benchmarks in
// bench_test.go (which favor statistical stability), tmbench favors
// large populations — up to the paper's "thousands or even millions"
// of triggers.
//
// Usage:
//
//	tmbench -exp all            run every experiment at default scale
//	tmbench -exp e1 -scale 3    run E1 with 10^3 x base population
//	tmbench -exp e1 -json       also write BENCH_e1.json (CI artifact)
//	tmbench -maxpop 10000       cap populations (CI smoke runs)
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"triggerman"
	"triggerman/internal/admission"
	"triggerman/internal/datasource"
	"triggerman/internal/discrim"
	"triggerman/internal/expr"
	"triggerman/internal/metrics"
	"triggerman/internal/minisql"
	"triggerman/internal/parser"
	"triggerman/internal/predindex"
	"triggerman/internal/profile"
	"triggerman/internal/slo"
	"triggerman/internal/storage"
	"triggerman/internal/types"
	"triggerman/internal/workload"
)

// benchRow is one machine-readable benchmark observation. CI smoke runs
// collect these as artifacts (no thresholds — trend data only).
type benchRow struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	Population  int     `json:"population"`
	// Counters carries named absolute counts for rows that are a
	// breakdown rather than a rate (the cluster experiment's per-node
	// rows: tokens in, forwards, dead letters).
	Counters map[string]int64 `json:"counters,omitempty"`
}

var (
	jsonMode    bool
	maxPop      int
	noProfile   bool
	driverSet   string
	syncLat     time.Duration
	arrivalSet  string
	openLoopDur time.Duration
	zipfExp     float64
	contention  float64
	benchRows   = map[string][]benchRow{}
)

// parseDriverCounts splits the -drivers list ("1,2,4,8") into counts.
func parseDriverCounts(s string) []int {
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n < 1 {
			log.Fatalf("tmbench: bad -drivers entry %q", f)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		log.Fatal("tmbench: -drivers lists no counts")
	}
	return out
}

// popCap applies the -maxpop ceiling (0 = unlimited).
func popCap(n int) int {
	if maxPop > 0 && n > maxPop {
		return maxPop
	}
	return n
}

// measure times fn (which performs ops operations over a structure of
// the given population) and returns the elapsed wall time. With -json it
// also records ns/op and allocs/op for the experiment's artifact file.
// Allocation figures come from runtime.MemStats deltas, so they include
// everything the run allocated — coarser than testing.B, but dependency
// free and good enough for trend lines.
func measure(exp, name string, population, ops int, fn func()) time.Duration {
	var before, after runtime.MemStats
	if jsonMode {
		runtime.ReadMemStats(&before)
	}
	start := time.Now()
	fn()
	el := time.Since(start)
	if jsonMode {
		runtime.ReadMemStats(&after)
		benchRows[exp] = append(benchRows[exp], benchRow{
			Name:        name,
			NsPerOp:     float64(el.Nanoseconds()) / float64(ops),
			AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(ops),
			Population:  population,
		})
	}
	return el
}

// flushBench writes BENCH_<exp>.json for every experiment that recorded
// rows this run.
func flushBench() {
	for exp, rows := range benchRows {
		body, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			log.Fatalf("tmbench: marshal %s: %v", exp, err)
		}
		name := fmt.Sprintf("BENCH_%s.json", exp)
		if err := os.WriteFile(name, append(body, '\n'), 0o644); err != nil {
			log.Fatalf("tmbench: %v", err)
		}
		fmt.Printf("wrote %s (%d rows)\n", name, len(rows))
	}
}

func main() {
	var (
		exp   = flag.String("exp", "all", "experiment id (e1..e12) or 'all'")
		scale = flag.Int("scale", 1, "population multiplier")
	)
	flag.BoolVar(&jsonMode, "json", false, "write BENCH_<exp>.json result files")
	flag.IntVar(&maxPop, "maxpop", 0, "cap per-experiment populations (0 = unlimited)")
	flag.BoolVar(&noProfile, "noprofile", false,
		"disable per-trigger cost attribution on the match path (overhead A/B runs)")
	flag.StringVar(&driverSet, "drivers", "1,2,4,8",
		"driver counts for the scaling sweep (comma-separated)")
	flag.DurationVar(&syncLat, "synclat", 2*time.Millisecond,
		"modelled per-commit disk latency for the scaling sweep (0 = raw fsync)")
	flag.StringVar(&arrivalSet, "arrival", "2000,8000",
		"open-loop arrival rates in tokens/s for -exp latency (comma-separated)")
	flag.DurationVar(&openLoopDur, "openloopdur", time.Second,
		"duration of each open-loop latency run")
	flag.Float64Var(&zipfExp, "zipf", workload.DefaultZipf,
		"zipf exponent for skewed draws (e5 cache skew, skew-sweep background)")
	flag.Float64Var(&contention, "contention", 0.5,
		"contended fraction for -exp skew: share of tokens carrying the one viral constant")
	flag.Parse()
	defer flushBench()
	experiments := map[string]func(int){
		"e1": e1, "e2": e2, "e3": e3, "e4": e4, "e5": e5, "e6": e6,
		"e7": e7, "e8": e8, "e9": e9, "e10": e10, "e11": e11, "e12": e12,
		"e13": e13, "scaling": scaling, "latency": latency, "slo": sloSmoke,
		"cluster": clusterExp, "skew": skew,
	}
	if *exp == "all" {
		keys := make([]string, 0, len(experiments))
		for k := range experiments {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if len(keys[i]) != len(keys[j]) {
				return len(keys[i]) < len(keys[j])
			}
			return keys[i] < keys[j]
		})
		for _, k := range keys {
			experiments[k](*scale)
		}
		return
	}
	fn, ok := experiments[strings.ToLower(*exp)]
	if !ok {
		log.Fatalf("tmbench: unknown experiment %q", *exp)
	}
	fn(*scale)
}

func header(id, title string) {
	fmt.Printf("\n=== %s: %s ===\n", strings.ToUpper(id), title)
}

// mkIndex builds a predicate index with n equality predicates over
// distinct constants, forced to org (OrgAuto = adaptive).
func mkIndex(n, distinct int, org predindex.Organization) *predindex.Index {
	bp := storage.NewBufferPool(storage.NewMem(), 8192)
	db, err := minisql.Create(bp)
	if err != nil {
		log.Fatal(err)
	}
	opts := []predindex.Option{predindex.WithDB(db)}
	if org != predindex.OrgAuto {
		opts = append(opts, predindex.WithForcedOrganization(org))
	}
	if !noProfile {
		// Mirrors the system default: attribution is always on unless
		// explicitly disabled, so E1 measures the shipped match path.
		opts = append(opts, predindex.WithProfile(profile.New(0, 0)))
	}
	ix := predindex.New(opts...)
	ix.AddSource(1, workload.EmpSchema)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("user%07d", i%distinct)
		sig, consts := eqSig(name)
		ref := predindex.Ref{ExprID: uint64(i + 1), TriggerID: uint64(i + 1),
			FireMask: predindex.EventMask{AnyOp: true}}
		if _, err := ix.AddPredicate(1, predindex.EventMask{AnyOp: true}, sig, consts, ref); err != nil {
			log.Fatal(err)
		}
	}
	return ix
}

func eqSig(name string) (*expr.Signature, []types.Value) {
	n := expr.Cmp(expr.OpEq, expr.Col("emp", "name"), expr.Str(name))
	if err := workload.BindEmp(n); err != nil {
		log.Fatal(err)
	}
	cnf, err := expr.ToCNF(n)
	if err != nil {
		log.Fatal(err)
	}
	sig, consts, err := expr.ExtractSignature(cnf)
	if err != nil {
		log.Fatal(err)
	}
	return sig, consts
}

func rangeSig(c int64) (*expr.Signature, []types.Value) {
	n := expr.Cmp(expr.OpGt, expr.Col("emp", "salary"), expr.Int(c))
	if err := workload.BindEmp(n); err != nil {
		log.Fatal(err)
	}
	cnf, err := expr.ToCNF(n)
	if err != nil {
		log.Fatal(err)
	}
	sig, consts, err := expr.ExtractSignature(cnf)
	if err != nil {
		log.Fatal(err)
	}
	return sig, consts
}

func tok(name string, salary int64) datasource.Token {
	return datasource.Token{SourceID: 1, Op: datasource.OpInsert,
		New: workload.EmpRow(name, salary, "d")}
}

// probeLatency measures mean match latency over probes tokens.
func probeLatency(ix *predindex.Index, n int, probes int, rng *rand.Rand) time.Duration {
	start := time.Now()
	for i := 0; i < probes; i++ {
		t := tok(fmt.Sprintf("user%07d", rng.Intn(n)), 1)
		ix.MatchToken(t, func(predindex.Match) bool { return true })
	}
	return time.Since(start) / time.Duration(probes)
}

func e1(scale int) {
	header("e1", "predicate index vs naive scan (Figures 3-4)")
	fmt.Printf("%-10s %14s %14s %10s\n", "triggers", "index/token", "naive/token", "speedup")
	prev := 0
	for _, n := range []int{1_000, 10_000, 100_000, 1_000_000 * scale / 1} {
		if n > 1_000_000 {
			n = 1_000_000
		}
		if n = popCap(n); n == prev {
			continue // -maxpop collapsed this class into the previous one
		}
		prev = n
		ix := mkIndex(n, n, predindex.OrgMemoryIndex)
		rng := rand.New(rand.NewSource(1))
		const idxProbes = 2000
		idxEl := measure("e1", fmt.Sprintf("index_probe/n=%d", n), n, idxProbes, func() {
			for i := 0; i < idxProbes; i++ {
				t := tok(fmt.Sprintf("user%07d", rng.Intn(n)), 1)
				ix.MatchToken(t, func(predindex.Match) bool { return true })
			}
		})
		idxLat := idxEl / idxProbes

		var nm workload.NaiveMatcher
		for i := 0; i < n; i++ {
			pred := expr.Cmp(expr.OpEq, expr.Col("emp", "name"), expr.Str(fmt.Sprintf("user%07d", i)))
			if err := workload.BindEmp(pred); err != nil {
				log.Fatal(err)
			}
			nm.Add(uint64(i+1), pred)
		}
		probes := 200000 / (n / 1000)
		if probes < 3 {
			probes = 3
		}
		el := measure("e1", fmt.Sprintf("naive_scan/n=%d", n), n, probes, func() {
			for i := 0; i < probes; i++ {
				t := tok(fmt.Sprintf("user%07d", rng.Intn(n)), 1)
				nm.Match(t, func(uint64) bool { return true })
			}
		})
		naiveLat := el / time.Duration(probes)
		fmt.Printf("%-10d %14s %14s %9.0fx\n", n, idxLat, naiveLat,
			float64(naiveLat)/float64(idxLat))
	}
}

func e2(scale int) {
	header("e2", "constant set organizations (§5.2)")
	fmt.Printf("%-16s %10s %14s\n", "organization", "class", "probe")
	orgs := []struct {
		org   predindex.Organization
		sizes []int
	}{
		{predindex.OrgMemoryList, []int{16, 1024, 65536}},
		{predindex.OrgMemoryIndex, []int{16, 1024, 65536, 262144 * scale}},
		{predindex.OrgTable, []int{16, 1024, 8192}},
		{predindex.OrgIndexedTable, []int{16, 1024, 65536}},
	}
	for _, c := range orgs {
		for _, size := range c.sizes {
			if size > 1_000_000 {
				size = 1_000_000
			}
			ix := mkIndex(size, size, c.org)
			rng := rand.New(rand.NewSource(2))
			probes := 2000
			if c.org == predindex.OrgTable || c.org == predindex.OrgMemoryList {
				probes = 200000 / size
				if probes < 3 {
					probes = 3
				}
			}
			lat := probeLatency(ix, size, probes, rng)
			fmt.Printf("%-16s %10d %14s\n", c.org, size, lat)
		}
	}
}

func sysWith(opts triggerman.Options) *triggerman.System {
	if opts.Queue == 0 {
		opts.Queue = triggerman.MemoryQueue
	}
	if opts.Threshold == 0 {
		opts.Threshold = time.Millisecond
	}
	sys, err := triggerman.Open(opts)
	if err != nil {
		log.Fatal(err)
	}
	return sys
}

func load(sys *triggerman.System, stmts []string) {
	for _, s := range stmts {
		if err := sys.CreateTrigger(s); err != nil {
			log.Fatal(err)
		}
	}
}

func e3(scale int) {
	header("e3", "partitioned triggerID sets (Figure 5)")
	m := 5000 * scale
	fmt.Printf("shared-condition triggers: %d, drivers: 8\n", m)
	fmt.Printf("%-12s %14s %10s\n", "partitions", "time/token", "speedup")
	var base time.Duration
	for _, parts := range []int{1, 2, 4, 8} {
		sys := sysWith(triggerman.Options{Drivers: 8, ConditionPartitions: parts})
		if _, err := sys.DefineStreamSource("emp", workload.EmpSchema.Columns...); err != nil {
			log.Fatal(err)
		}
		load(sys, workload.SameConditionTriggers(m))
		src := mustSource(sys, "emp")
		const toks = 30
		start := time.Now()
		for i := 0; i < toks; i++ {
			if err := src.Push(datasource.Token{Op: datasource.OpInsert,
				New: workload.EmpRow("x", 1, "PENDING")}); err != nil {
				log.Fatal(err)
			}
			sys.Drain()
		}
		lat := time.Since(start) / toks
		if parts == 1 {
			base = lat
		}
		fmt.Printf("%-12d %14s %9.2fx\n", parts, lat, float64(base)/float64(lat))
		sys.Close()
	}
}

func mustSource(sys *triggerman.System, name string) *triggerman.StreamSource {
	// DefineStreamSource returns the handle at definition time; for
	// reuse after load, re-wrap by pushing through a fresh handle.
	src, err := sys.StreamSourceByName(name)
	if err != nil {
		log.Fatal(err)
	}
	return src
}

func e4(scale int) {
	header("e4", "token-level concurrency (§6)")
	triggers := popCap(5000 * scale)
	const batch = 3000
	fmt.Printf("mixed triggers: %d, tokens per run: %d\n", triggers, batch)
	fmt.Printf("%-10s %14s %12s %10s\n", "drivers", "batch time", "tokens/s", "speedup")
	var base time.Duration
	for _, drivers := range []int{1, 2, 4, 8} {
		sys := sysWith(triggerman.Options{Drivers: drivers})
		if _, err := sys.DefineStreamSource("emp", workload.EmpSchema.Columns...); err != nil {
			log.Fatal(err)
		}
		load(sys, workload.MixedSignatureTriggers(triggers, 8))
		src := mustSource(sys, "emp")
		rng := rand.New(rand.NewSource(4))
		toks := workload.InsertTokens(rng, batch, triggers, 1_000_000, 0)
		el := measure("e4", fmt.Sprintf("drivers=%d", drivers), triggers, batch, func() {
			for _, t := range toks {
				if err := src.Push(t); err != nil {
					log.Fatal(err)
				}
			}
			sys.Drain()
		})
		if drivers == 1 {
			base = el
		}
		fmt.Printf("%-10d %14s %12.0f %9.2fx\n", drivers, el,
			batch/el.Seconds(), float64(base)/float64(el))
		sys.Close()
	}
}

func e5(scale int) {
	header("e5", "trigger cache (§5.1)")
	triggers := 8000 * scale
	fmt.Printf("triggers: %d, zipf(%.2f)-skewed firings\n", triggers, zipfExp)
	fmt.Printf("%-12s %12s %14s\n", "capacity", "hit-ratio", "time/firing")
	for _, capacity := range []int{triggers / 16, triggers / 4, triggers} {
		sys := sysWith(triggerman.Options{Synchronous: true, TriggerCacheSize: capacity})
		if _, err := sys.DefineStreamSource("emp", workload.EmpSchema.Columns...); err != nil {
			log.Fatal(err)
		}
		load(sys, workload.EqualityTriggers(triggers, triggers))
		src := mustSource(sys, "emp")
		rng := rand.New(rand.NewSource(5))
		ids := workload.ZipfIDs(rng, 40000, triggers, zipfExp)
		start := time.Now()
		for _, id := range ids {
			src.Push(datasource.Token{Op: datasource.OpInsert,
				New: workload.EmpRow(fmt.Sprintf("user%07d", id-1), 1, "d")})
		}
		el := time.Since(start) / time.Duration(len(ids))
		st := sys.Stats().TriggerCache
		ratio := float64(st.Hits) / float64(st.Hits+st.Misses)
		fmt.Printf("%-12d %12.3f %14s\n", capacity, ratio, el)
		sys.Close()
	}
}

func e6(scale int) {
	header("e6", "create trigger scaling and signature interning (§5)")
	fmt.Printf("%-12s %12s %14s\n", "existing", "signatures", "create time")
	for _, n := range []int{1_000, 10_000, 100_000 * scale} {
		sys := sysWith(triggerman.Options{Synchronous: true})
		if _, err := sys.DefineStreamSource("emp", workload.EmpSchema.Columns...); err != nil {
			log.Fatal(err)
		}
		load(sys, workload.MixedSignatureTriggers(n, 8))
		sigs := sys.SignatureCountFor("emp")
		const creates = 200
		start := time.Now()
		for i := 0; i < creates; i++ {
			stmt := fmt.Sprintf(
				"create trigger xb%09d from emp when emp.name = 'xb%09d' do raise event B()", i, i)
			if err := sys.CreateTrigger(stmt); err != nil {
				log.Fatal(err)
			}
		}
		el := time.Since(start) / creates
		fmt.Printf("%-12d %12d %14s\n", n, sigs, el)
		sys.Close()
	}
}

func e7(scale int) {
	header("e7", "join triggers through A-TREAT (§2-3)")
	fmt.Printf("%-14s %16s\n", "represents", "house-insert")
	for _, reps := range []int{10, 100, 1000 * scale} {
		sys := sysWith(triggerman.Options{Synchronous: true})
		mustDefine := func(name string, cols ...types.Column) *triggerman.StreamSource {
			s, err := sys.DefineStreamSource(name, cols...)
			if err != nil {
				log.Fatal(err)
			}
			return s
		}
		sp := mustDefine("salesperson",
			types.Column{Name: "spno", Kind: types.KindInt},
			types.Column{Name: "name", Kind: types.KindVarchar})
		house := mustDefine("house",
			types.Column{Name: "hno", Kind: types.KindInt},
			types.Column{Name: "nno", Kind: types.KindInt})
		rep := mustDefine("represents",
			types.Column{Name: "spno", Kind: types.KindInt},
			types.Column{Name: "nno", Kind: types.KindInt})
		err := sys.CreateTrigger(`create trigger iris on insert to house
			from salesperson s, house h, represents r
			when s.name = 'Iris' and s.spno = r.spno and r.nno = h.nno
			do raise event Hit(h.hno)`)
		if err != nil {
			log.Fatal(err)
		}
		sp.Insert(types.Tuple{types.NewInt(7), types.NewString("Iris")})
		for i := 0; i < reps; i++ {
			rep.Insert(types.Tuple{types.NewInt(7), types.NewInt(int64(i))})
		}
		const inserts = 2000
		start := time.Now()
		for i := 0; i < inserts; i++ {
			house.Insert(types.Tuple{types.NewInt(int64(i)), types.NewInt(int64(i % reps))})
		}
		fmt.Printf("%-14d %16s\n", reps, time.Since(start)/inserts)
		sys.Close()
	}
}

func e8(scale int) {
	header("e8", "common sub-expression elimination (§5.3)")
	fmt.Printf("%-10s %16s %16s %10s\n", "triggers", "normalized", "denormalized", "factor")
	for _, n := range []int{100, 1_000, 10_000, 100_000 * scale} {
		ix := mkIndex(n, 1, predindex.OrgMemoryIndex) // one shared constant
		miss := tok("nobody", 1)
		const probes = 5000
		start := time.Now()
		for i := 0; i < probes; i++ {
			ix.MatchToken(miss, func(predindex.Match) bool { return true })
		}
		normLat := time.Since(start) / probes

		var nm workload.NaiveMatcher
		for i := 0; i < n; i++ {
			pred := expr.Cmp(expr.OpEq, expr.Col("emp", "name"), expr.Str("user0000000"))
			if err := workload.BindEmp(pred); err != nil {
				log.Fatal(err)
			}
			nm.Add(uint64(i+1), pred)
		}
		dp := 500000 / n
		if dp < 3 {
			dp = 3
		}
		start = time.Now()
		for i := 0; i < dp; i++ {
			nm.Match(miss, func(uint64) bool { return true })
		}
		denLat := time.Since(start) / time.Duration(dp)
		fmt.Printf("%-10d %16s %16s %9.0fx\n", n, normLat, denLat,
			float64(denLat)/float64(normLat))
	}
}

func e9(scale int) {
	header("e9", "rule action concurrency (§6)")
	m := 500 * scale
	fmt.Printf("actions per token: %d (execSQL inserts)\n", m)
	fmt.Printf("%-10s %14s %12s %10s\n", "drivers", "time/token", "actions/s", "speedup")
	var base time.Duration
	for _, drivers := range []int{1, 2, 4, 8} {
		sys := sysWith(triggerman.Options{Drivers: drivers, ActionTasks: true})
		emp, err := sys.DefineTableSource("emp", workload.EmpSchema.Columns...)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := sys.DB().CreateTable("audit", types.MustSchema(
			types.Column{Name: "who", Kind: types.KindVarchar},
			types.Column{Name: "amount", Kind: types.KindInt})); err != nil {
			log.Fatal(err)
		}
		for i := 0; i < m; i++ {
			err := sys.CreateTrigger(fmt.Sprintf(
				`create trigger act%05d from emp when emp.dept = 'PENDING'
				 do execSQL 'insert into audit values (:NEW.emp.name, :NEW.emp.salary)'`, i))
			if err != nil {
				log.Fatal(err)
			}
		}
		const toks = 10
		start := time.Now()
		for i := 0; i < toks; i++ {
			if err := emp.Insert(workload.EmpRow(fmt.Sprintf("u%d", i), 1, "PENDING")); err != nil {
				log.Fatal(err)
			}
			sys.Drain()
		}
		el := time.Since(start) / toks
		if drivers == 1 {
			base = el
		}
		fmt.Printf("%-10d %14s %12.0f %9.2fx\n", drivers, el,
			float64(m)/el.Seconds(), float64(base)/float64(el))
		sys.Close()
	}
}

func e10(scale int) {
	header("e10", "range predicates: interval skip list vs list ([Hans96b])")
	fmt.Printf("%-16s %10s %14s\n", "organization", "class", "probe")
	for _, n := range []int{1_000, 10_000, 100_000 * scale} {
		for _, org := range []predindex.Organization{predindex.OrgMemoryList, predindex.OrgMemoryIndex} {
			ix := predindex.New(predindex.WithForcedOrganization(org))
			ix.AddSource(1, workload.EmpSchema)
			for i := 0; i < n; i++ {
				sig, consts := rangeSig(int64(i))
				ref := predindex.Ref{ExprID: uint64(i + 1), TriggerID: uint64(i + 1),
					FireMask: predindex.EventMask{AnyOp: true}}
				if _, err := ix.AddPredicate(1, predindex.EventMask{AnyOp: true}, sig, consts, ref); err != nil {
					log.Fatal(err)
				}
			}
			probe := tok("x", int64(n/100)) // matches ~1%
			probes := 2000
			if org == predindex.OrgMemoryList {
				probes = 200000 / n
				if probes < 3 {
					probes = 3
				}
			}
			start := time.Now()
			for i := 0; i < probes; i++ {
				ix.MatchToken(probe, func(predindex.Match) bool { return true })
			}
			fmt.Printf("%-16s %10d %14s\n", org, n, time.Since(start)/time.Duration(probes))
		}
	}
}

func e11(scale int) {
	header("e11", "end-to-end path, queue transports (Figure 1)")
	n := popCap(1000 * scale)
	fmt.Printf("triggers: %d\n", n)
	fmt.Printf("%-18s %14s\n", "queue", "time/token")
	for _, q := range []struct {
		name string
		kind triggerman.QueueKind
	}{{"memory", triggerman.MemoryQueue}, {"persistent", triggerman.PersistentQueue}} {
		sys := sysWith(triggerman.Options{Synchronous: true, Queue: q.kind})
		if _, err := sys.DefineStreamSource("emp", workload.EmpSchema.Columns...); err != nil {
			log.Fatal(err)
		}
		load(sys, workload.EqualityTriggers(n, n))
		src := mustSource(sys, "emp")
		rng := rand.New(rand.NewSource(11))
		const toks = 20000
		el := measure("e11", "queue="+q.name, n, toks, func() {
			for i := 0; i < toks; i++ {
				src.Push(datasource.Token{Op: datasource.OpInsert,
					New: workload.EmpRow(fmt.Sprintf("user%07d", rng.Intn(n)), 1, "d")})
			}
		})
		fmt.Printf("%-18s %14s\n", q.name, el/toks)
		sys.Close()
	}
}

func e12(scale int) {
	header("e12", "adaptive constant-set organization ([Hans98b])")
	fmt.Printf("%-10s %-16s %14s\n", "class", "organization", "probe")
	for _, size := range []int{10, 1_000, 100_000 * scale} {
		ix := mkIndex(size, size, predindex.OrgAuto)
		entries := ix.Signatures(1)
		rng := rand.New(rand.NewSource(12))
		lat := probeLatency(ix, size, 2000, rng)
		fmt.Printf("%-10d %-16s %14s\n", size, entries[0].Organization(), lat)
	}
	_ = os.Stdout
}

func e13(scale int) {
	header("e13", "Gator networks vs A-TREAT ([Hans97b])")
	rows := 300 * scale
	fmt.Printf("x ⋈ y ⋈ z with %d y/z rows; (y ⋈ z) cached in a beta under Gator\n", rows)
	fmt.Printf("%-12s %-10s %14s %14s\n", "workload", "network", "x-token", "combos/token")
	for _, w := range []struct{ name, pred string }{
		{"band-join", "y.a < z.b and z.b <= y.a + 3"},
		{"wide-join", "y.a < z.b"},
	} {
		for _, gator := range []bool{false, true} {
			lat, combos := runE13(rows, w.pred, gator)
			kind := "treat"
			if gator {
				kind = "gator"
			}
			fmt.Printf("%-12s %-10s %14s %14.1f\n", w.name, kind, lat, combos)
		}
	}
}

func runE13(rows int, yzPred string, gator bool) (time.Duration, float64) {
	xSchema := types.MustSchema(types.Column{Name: "k", Kind: types.KindInt})
	ySchema := types.MustSchema(
		types.Column{Name: "k", Kind: types.KindInt},
		types.Column{Name: "a", Kind: types.KindInt})
	zSchema := types.MustSchema(types.Column{Name: "b", Kind: types.KindInt})
	schemas := []*types.Schema{xSchema, ySchema, zSchema}
	bind := func(src string) expr.CNF {
		n, err := parser.ParseExpr(src)
		if err != nil {
			log.Fatal(err)
		}
		bd := &expr.Binder{
			VarIndex:    map[string]int{"x": 0, "y": 1, "z": 2},
			DefaultVar:  -1,
			ColumnIndex: func(v int, col string) int { return schemas[v].ColumnIndex(col) },
		}
		if err := bd.Bind(n); err != nil {
			log.Fatal(err)
		}
		cnf, err := expr.ToCNF(n)
		if err != nil {
			log.Fatal(err)
		}
		return cnf
	}
	vars := []discrim.Var{{Name: "x", SourceID: 1}, {Name: "y", SourceID: 2}, {Name: "z", SourceID: 3}}
	edges := []discrim.JoinEdge{
		{A: 0, B: 1, Pred: bind("x.k = y.k")},
		{A: 1, B: 2, Pred: bind(yzPred)},
	}
	var notify func(int, datasource.Token, discrim.PNode) error
	if gator {
		g, err := discrim.NewGatorNetwork(1, vars, edges, expr.CNF{},
			discrim.NodeShape(discrim.NodeShape(discrim.LeafShape(1), discrim.LeafShape(2)), discrim.LeafShape(0)))
		if err != nil {
			log.Fatal(err)
		}
		notify = g.NotifyToken
	} else {
		n, err := discrim.NewNetwork(1, vars, edges, expr.CNF{})
		if err != nil {
			log.Fatal(err)
		}
		notify = n.NotifyToken
	}
	for i := 0; i < rows; i++ {
		notify(1, datasource.Token{SourceID: 2, Op: datasource.OpInsert,
			New: types.Tuple{types.NewInt(int64(i)), types.NewInt(int64(i))}}, nil)
		notify(2, datasource.Token{SourceID: 3, Op: datasource.OpInsert,
			New: types.Tuple{types.NewInt(int64(i + 3))}}, nil)
	}
	const toks = 200
	fired := 0
	start := time.Now()
	for i := 0; i < toks; i++ {
		notify(0, datasource.Token{SourceID: 1, Op: datasource.OpInsert,
			New: types.Tuple{types.NewInt(int64(i % rows))}},
			func(discrim.Combo) bool { fired++; return true })
	}
	return time.Since(start) / toks, float64(fired) / toks
}

// skew is the viral-entity sweep for the phase-reconciled match spine:
// a population of single-constant equality triggers takes a token
// stream in which a contended fraction f of tokens all carry one name
// ("user0000000" goes viral) while the rest spread over the background
// — zipf when the exponent > 1, uniform otherwise. Every hot token
// probes the same constant-set entry, so that entry's probe/match
// counters are exactly the cache lines the per-driver slices protect.
// The sweep crosses background-exponent x contended-fraction x driver
// count; f=0 rows are the uniform baseline the acceptance bar compares
// hot rows against (hot ns/op within 2x of uniform at f=0.5, 8
// drivers). Counters on each row report how many counters went sliced
// and how many reconcile epochs ran, so a flat row with zero
// promotions is visibly a detection failure rather than a win.
func skew(scale int) {
	header("skew", "hot-constant skew sweep: phase-reconciled counters")
	counts := parseDriverCounts(driverSet)
	triggers := popCap(4000 * scale)
	const batch = 4000
	fracs := []float64{0, contention / 2, contention}
	exps := []float64{0, zipfExp} // 0 = uniform background
	fmt.Printf("triggers: %d, tokens per cell: %d, contended fractions %v, background exps %v\n",
		triggers, batch, fracs, exps)
	fmt.Printf("%-10s %-8s %-8s %14s %12s %8s %8s\n",
		"drivers", "frac", "zipf", "time/token", "tokens/s", "sliced", "recons")
	for _, d := range counts {
		var base time.Duration
		for _, s := range exps {
			for _, f := range fracs {
				sys := sysWith(triggerman.Options{Drivers: d})
				if _, err := sys.DefineStreamSource("emp", workload.EmpSchema.Columns...); err != nil {
					log.Fatal(err)
				}
				load(sys, workload.EqualityTriggers(triggers, triggers))
				src := mustSource(sys, "emp")
				rng := rand.New(rand.NewSource(42))
				push := func(toks []datasource.Token) {
					for i := range toks {
						if err := src.Push(toks[i]); err != nil {
							log.Fatal(err)
						}
					}
					sys.Drain()
				}
				push(workload.ContendedTokens(rng, batch/4, triggers, f, s, 1_000_000, 0)) // warmup
				toks := workload.ContendedTokens(rng, batch, triggers, f, s, 1_000_000, 0)
				name := fmt.Sprintf("drivers=%d/frac=%.2f/zipf=%.2f", d, f, s)
				el := measure("skew", name, triggers, batch, func() { push(toks) })
				sys.Reconcile() // fold straggler deltas so the row's counters are current
				cs := sys.Contention()
				if jsonMode {
					rows := benchRows["skew"]
					rows[len(rows)-1].Counters = map[string]int64{
						"index_sliced":     int64(cs.Index.Sliced),
						"index_promotions": cs.Index.Promotions,
						"index_reconciles": cs.Index.Reconciles,
						"sketch_sliced":    int64(cs.Profile.Sliced),
					}
				}
				if f == 0 && s == 0 {
					base = el
				}
				ratio := ""
				if base > 0 && el != base {
					ratio = fmt.Sprintf(" (%.2fx uniform)", float64(el)/float64(base))
				}
				fmt.Printf("%-10d %-8.2f %-8.2f %14s %12.0f %8d %8d%s\n",
					d, f, s, el/batch, batch/el.Seconds(),
					cs.Index.Sliced, cs.Index.Reconciles, ratio)
				sys.Close()
			}
		}
	}
}

// commitLatDisk adds a fixed commit latency in front of every Sync,
// modelling the rotational / networked storage the paper assumes for
// the persistent update queue. A raw fsync on a local SSD returns in
// ~100µs — faster than the Go scheduler hands a 1-CPU container's P to
// another goroutine — so without the modelled stall the sweep measures
// scheduler quirks, not the architecture. The sleep parks the driver
// properly, letting the others run and the commit group coalesce.
type commitLatDisk struct {
	storage.DiskManager
	lat time.Duration
}

func (d commitLatDisk) Sync() error {
	time.Sleep(d.lat)
	return d.DiskManager.Sync()
}

// scaling is the driver-count scaling sweep for the sharded execution
// core: tokens fan out to execSQL triggers whose cascaded inserts land
// in a durable (group-committed) persistent queue, so each driver
// spends most of its time blocked in commit stalls. More drivers
// overlap those stalls and coalesce more enqueues per flush round —
// throughput should rise monotonically with the driver count even on a
// single CPU.
func scaling(scale int) {
	header("scaling", "driver-count sweep: sharded pool + group-committed durable queue")
	counts := parseDriverCounts(driverSet)
	tokens := 32 * scale
	const fanout = 8
	fmt.Printf("tokens: %d, execSQL fan-out per token: %d, durable persistent queue, %s commit latency\n",
		tokens, fanout, syncLat)
	fmt.Printf("%-10s %14s %12s %10s %8s\n", "drivers", "batch time", "tokens/s", "speedup", "steals")
	var base time.Duration
	for i, d := range counts {
		dir, err := os.MkdirTemp("", "tmscale")
		if err != nil {
			log.Fatal(err)
		}
		disk, err := storage.OpenFile(filepath.Join(dir, "scale.db"))
		if err != nil {
			log.Fatal(err)
		}
		// Open directly — sysWith would rewrite Queue, since
		// PersistentQueue is the QueueKind zero value.
		sys, err := triggerman.Open(triggerman.Options{
			Disk:         commitLatDisk{DiskManager: disk, lat: syncLat},
			Queue:        triggerman.PersistentQueue,
			DurableQueue: true,
			Drivers:      d,
			ActionTasks:  true,
			Threshold:    time.Millisecond,
		})
		if err != nil {
			log.Fatal(err)
		}
		if _, err := sys.DefineStreamSource("emp", workload.EmpSchema.Columns...); err != nil {
			log.Fatal(err)
		}
		// audit is a *table source*: execSQL inserts into it are captured
		// as cascaded tokens, each a durable enqueue inside a driver.
		if _, err := sys.DefineTableSource("audit",
			types.Column{Name: "who", Kind: types.KindVarchar},
			types.Column{Name: "amount", Kind: types.KindInt}); err != nil {
			log.Fatal(err)
		}
		for t := 0; t < fanout; t++ {
			err := sys.CreateTrigger(fmt.Sprintf(
				`create trigger sc%02d from emp when emp.salary >= 0
				 do execSQL 'insert into audit values (:NEW.emp.name, :NEW.emp.salary)'`, t))
			if err != nil {
				log.Fatal(err)
			}
		}
		src := mustSource(sys, "emp")
		push := func(n int) {
			for j := 0; j < n; j++ {
				if err := src.Push(datasource.Token{Op: datasource.OpInsert,
					New: workload.EmpRow(fmt.Sprintf("u%d", j), int64(j), "d")}); err != nil {
					log.Fatal(err)
				}
			}
			sys.Drain()
		}
		push(tokens / 4) // warmup: page allocation, trigger cache, shard maps
		el := measure("scaling", fmt.Sprintf("drivers=%d", d), fanout, tokens, func() {
			push(tokens)
		})
		if i == 0 {
			base = el
		}
		fmt.Printf("%-10d %14s %12.0f %9.2fx %8d\n", d, el,
			float64(tokens)/el.Seconds(), float64(base)/float64(el), sys.Stats().Pool.Steals)
		sys.Close()
		os.RemoveAll(dir)
	}
}

// latClass is one priority class's latency summary within a latRow.
type latClass struct {
	Fired  int   `json:"fired"`
	P50Ns  int64 `json:"p50_ns"`
	P99Ns  int64 `json:"p99_ns"`
	P999Ns int64 `json:"p999_ns"`
}

// latRow is one open-loop latency observation for BENCH_latency.json.
// The aggregate percentiles cover both classes; the per-class blocks
// separate the interactive contract from batch background work.
type latRow struct {
	RatePerSec  float64  `json:"rate_per_s"`
	Sent        int      `json:"sent"`
	Fired       int      `json:"fired"`
	Rejected    int      `json:"rejected"`
	Shed        int64    `json:"shed"`
	P50Ns       int64    `json:"p50_ns"`
	P99Ns       int64    `json:"p99_ns"`
	P999Ns      int64    `json:"p999_ns"`
	Interactive latClass `json:"interactive"`
	Batch       latClass `json:"batch"`
}

// classSummary sorts one class's samples and reduces them to a
// latClass block.
func classSummary(lats []time.Duration) latClass {
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return latClass{
		Fired:  len(lats),
		P50Ns:  percentile(lats, 0.50).Nanoseconds(),
		P99Ns:  percentile(lats, 0.99).Nanoseconds(),
		P999Ns: percentile(lats, 0.999).Nanoseconds(),
	}
}

// percentile reads the q-quantile from a sorted duration slice.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

// latency runs the open-loop arrival experiment: a constant-rate
// generator (next send time computed from the start instant, never from
// the previous send, so a slow system accumulates queueing delay
// instead of silently slowing the load — the coordinated-omission-free
// protocol) drives one stream source while a FireHook timestamps each
// firing against the capture time carried in the tuple's salary column.
// Admission control is on, so overload shows up as rejected sends
// rather than unbounded queues. A second batch-class source runs at a
// quarter of the interactive rate so the report separates the
// interactive latency contract from background work (the two-class
// split /sloz monitors in production).
func latency(scale int) {
	header("latency", "open-loop arrival latency under admission control")
	var rates []float64
	for _, f := range strings.Split(arrivalSet, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		r, err := strconv.ParseFloat(f, 64)
		if err != nil || r <= 0 {
			log.Fatalf("tmbench: bad -arrival entry %q", f)
		}
		rates = append(rates, r)
	}
	if len(rates) == 0 {
		log.Fatal("tmbench: -arrival lists no rates")
	}
	fmt.Printf("open loop: %v per rate, drivers: 4, soft/hard watermarks 4096/16384, batch at rate/4\n", openLoopDur)
	fmt.Printf("%-12s %8s %8s %8s %12s %12s %12s %12s %12s\n",
		"rate/s", "sent", "fired", "rejected", "p50", "p99", "p999", "inter-p99", "batch-p99")
	var rows []latRow
	for _, rate := range rates {
		sys := sysWith(triggerman.Options{
			Drivers:         4,
			AdmissionConfig: &admission.Config{SoftDepth: 4096, HardDepth: 16384},
		})
		if _, err := sys.DefineStreamSource("emp", workload.EmpSchema.Columns...); err != nil {
			log.Fatal(err)
		}
		if _, err := sys.DefineStreamSource("bat",
			types.Column{Name: "v", Kind: types.KindInt}); err != nil {
			log.Fatal(err)
		}
		load(sys, workload.EqualityTriggers(1, 1))
		load(sys, []string{
			"create trigger lat_batch batch from bat when bat.v >= 0 do raise event LB(bat.v)",
		})
		batID, _ := sys.Catalog().TriggerByName("lat_batch")
		var (
			latMu    sync.Mutex
			interLat []time.Duration
			batchLat []time.Duration
		)
		sys.FireHook = func(id uint64, tuples []types.Tuple) {
			if len(tuples) == 0 {
				return
			}
			// Both sources carry the capture instant in a tuple column:
			// bat.v for the batch trigger, emp's salary column otherwise.
			var capture int64
			if id == batID {
				capture = tuples[0][0].Int()
			} else if len(tuples[0]) >= 2 {
				capture = tuples[0][1].Int()
			} else {
				return
			}
			d := time.Duration(time.Now().UnixNano() - capture)
			latMu.Lock()
			if id == batID {
				batchLat = append(batchLat, d)
			} else {
				interLat = append(interLat, d)
			}
			latMu.Unlock()
		}
		src := mustSource(sys, "emp")
		bat := mustSource(sys, "bat")
		interval := time.Duration(float64(time.Second) / rate)
		n := int(rate * openLoopDur.Seconds())
		rejected := 0
		start := time.Now()
		for i := 0; i < n; i++ {
			next := start.Add(time.Duration(i) * interval)
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
			err := src.Push(datasource.Token{Op: datasource.OpInsert,
				New: workload.EmpRow("user0000000", time.Now().UnixNano(), "d")})
			if err != nil {
				if errors.Is(err, admission.ErrOverload) {
					rejected++
				} else {
					log.Fatal(err)
				}
			}
			if i%4 == 0 {
				err := bat.Push(datasource.Token{Op: datasource.OpInsert,
					New: types.Tuple{types.NewInt(time.Now().UnixNano())}})
				if err != nil && !errors.Is(err, admission.ErrOverload) {
					log.Fatal(err)
				}
			}
		}
		sys.Drain()
		shed := sys.Stats().TokensShed
		latMu.Lock()
		all := append(append([]time.Duration(nil), interLat...), batchLat...)
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		p50 := percentile(all, 0.50)
		p99 := percentile(all, 0.99)
		p999 := percentile(all, 0.999)
		fired := len(all)
		inter := classSummary(interLat)
		batch := classSummary(batchLat)
		latMu.Unlock()
		fmt.Printf("%-12.0f %8d %8d %8d %12s %12s %12s %12s %12s\n",
			rate, n, fired, rejected, p50, p99, p999,
			time.Duration(inter.P99Ns), time.Duration(batch.P99Ns))
		if jsonMode {
			rows = append(rows, latRow{
				RatePerSec: rate, Sent: n, Fired: fired, Rejected: rejected, Shed: shed,
				P50Ns: p50.Nanoseconds(), P99Ns: p99.Nanoseconds(), P999Ns: p999.Nanoseconds(),
				Interactive: inter, Batch: batch,
			})
		}
		sys.Close()
	}
	if jsonMode {
		body, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			log.Fatalf("tmbench: marshal latency: %v", err)
		}
		if err := os.WriteFile("BENCH_latency.json", append(body, '\n'), 0o644); err != nil {
			log.Fatalf("tmbench: %v", err)
		}
		fmt.Printf("wrote BENCH_latency.json (%d rows)\n", len(rows))
	}
}

// sloRow is the SLO-evaluation smoke artifact (BENCH_slo.json): one
// synthetic objective with a known bad fraction and the engine's
// verdict on it.
type sloRow struct {
	Objective     string `json:"objective"`
	Total         int64  `json:"total"`
	Good          int64  `json:"good"`
	FastBurnMilli int64  `json:"fast_burn_milli"`
	Burning       bool   `json:"burning"`
	ExpectedMilli int64  `json:"expected_milli"`
}

// sloSmoke checks the burn-rate math end to end with a synthetic
// histogram: 5% of observations blow a 50ms cutoff against a 99%
// target, so the burn rate must come out at 0.05/0.01 = 5x and the
// fast window (threshold 2x here) must fire. A wrong verdict is a
// fatal error — this experiment is the CI guard for the SLO engine,
// not a measurement.
func sloSmoke(scale int) {
	header("slo", "SLO burn-rate evaluation smoke (synthetic histogram)")
	ms := int64(time.Millisecond)
	h := metrics.NewHistogram([]int64{1 * ms, 5 * ms, 10 * ms, 50 * ms, 100 * ms, 500 * ms})
	n := 100 * scale
	for i := 0; i < n; i++ {
		if i%20 == 19 { // 5% bad
			h.Observe(200 * time.Millisecond)
		} else {
			h.Observe(2 * time.Millisecond)
		}
	}
	clock := time.Unix(1_000_000, 0)
	eng := slo.New(slo.Config{
		Tick:    time.Second,
		Windows: []slo.WindowPair{{Name: "fast", Short: 10 * time.Second, Long: time.Minute, Burn: 2.0}},
		Now:     func() time.Time { return clock },
	})
	if err := eng.Add(slo.Objective{
		Name:      "smoke-p99",
		Target:    0.99,
		Threshold: 50 * time.Millisecond,
		Source:    slo.HistogramSource{H: h, Cutoff: 50 * time.Millisecond},
	}); err != nil {
		log.Fatal(err)
	}
	// Two ticks: a baseline snapshot, then one a tick later so the
	// window has a delta to evaluate.
	eng.Tick()
	clock = clock.Add(time.Second)
	eng.Tick()
	st := eng.Snapshot()[0]
	fast := st.Windows[0]
	fmt.Printf("%-12s %8s %8s %12s %8s\n", "objective", "total", "good", "fast-burn", "burning")
	fmt.Printf("%-12s %8d %8d %11.2fx %8v\n",
		st.Name, st.Total, st.Good, float64(fast.ShortBurnMilli)/1000, st.Burning)
	const expect = 5000 // 5% bad / 1% budget, milli
	if fast.ShortBurnMilli < expect-100 || fast.ShortBurnMilli > expect+100 {
		log.Fatalf("tmbench: slo smoke: fast burn %d milli, want ~%d", fast.ShortBurnMilli, expect)
	}
	if !st.Burning {
		log.Fatal("tmbench: slo smoke: objective not burning at 5x over a 2x threshold")
	}
	if jsonMode {
		row := sloRow{Objective: st.Name, Total: st.Total, Good: st.Good,
			FastBurnMilli: fast.ShortBurnMilli, Burning: st.Burning, ExpectedMilli: expect}
		body, err := json.MarshalIndent([]sloRow{row}, "", "  ")
		if err != nil {
			log.Fatalf("tmbench: marshal slo: %v", err)
		}
		if err := os.WriteFile("BENCH_slo.json", append(body, '\n'), 0o644); err != nil {
			log.Fatalf("tmbench: %v", err)
		}
		fmt.Println("wrote BENCH_slo.json (1 row)")
	}
}
