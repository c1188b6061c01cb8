// Experiment harness: one benchmark per experiment in EXPERIMENTS.md
// (E1–E12), each reproducing a figure or scalability claim of the
// paper. cmd/tmbench re-runs the same experiments with larger
// populations and prints row-oriented results.
package triggerman

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"triggerman/internal/datasource"
	"triggerman/internal/expr"
	"triggerman/internal/metrics"
	"triggerman/internal/minisql"
	"triggerman/internal/predindex"
	"triggerman/internal/profile"
	"triggerman/internal/storage"
	"triggerman/internal/types"
	"triggerman/internal/workload"
)

// --- shared setup helpers ---

// benchIndex builds a predicate index over the emp schema with n
// equality predicates ("emp.name = 'userNNN'"), forced to org.
func benchIndex(b *testing.B, n int, distinct int, org predindex.Organization) *predindex.Index {
	b.Helper()
	var opts []predindex.Option
	if org == predindex.OrgTable || org == predindex.OrgIndexedTable || org == predindex.OrgAuto {
		bp := storage.NewBufferPool(storage.NewMem(), 4096)
		db, err := minisql.Create(bp)
		if err != nil {
			b.Fatal(err)
		}
		opts = append(opts, predindex.WithDB(db))
	}
	if org != predindex.OrgAuto {
		opts = append(opts, predindex.WithForcedOrganization(org))
	}
	ix := predindex.New(opts...)
	ix.AddSource(1, workload.EmpSchema)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("user%07d", i%distinct)
		sig, consts := benchEqSig(b, name)
		ref := predindex.Ref{
			ExprID: uint64(i + 1), TriggerID: uint64(i + 1),
			FireMask: predindex.EventMask{AnyOp: true},
		}
		if _, err := ix.AddPredicate(1, predindex.EventMask{AnyOp: true}, sig, consts, ref); err != nil {
			b.Fatal(err)
		}
	}
	return ix
}

// benchEqSig builds the signature and constants for emp.name = <name>.
func benchEqSig(b *testing.B, name string) (*expr.Signature, []types.Value) {
	b.Helper()
	n := expr.Cmp(expr.OpEq, expr.Col("emp", "name"), expr.Str(name))
	if err := workload.BindEmp(n); err != nil {
		b.Fatal(err)
	}
	cnf, err := expr.ToCNF(n)
	if err != nil {
		b.Fatal(err)
	}
	sig, consts, err := expr.ExtractSignature(cnf)
	if err != nil {
		b.Fatal(err)
	}
	return sig, consts
}

// benchRangeSig builds the signature for emp.salary > <c>.
func benchRangeSig(b *testing.B, c int64) (*expr.Signature, []types.Value) {
	b.Helper()
	n := expr.Cmp(expr.OpGt, expr.Col("emp", "salary"), expr.Int(c))
	if err := workload.BindEmp(n); err != nil {
		b.Fatal(err)
	}
	cnf, err := expr.ToCNF(n)
	if err != nil {
		b.Fatal(err)
	}
	sig, consts, err := expr.ExtractSignature(cnf)
	if err != nil {
		b.Fatal(err)
	}
	return sig, consts
}

func benchToken(name string, salary int64) datasource.Token {
	return datasource.Token{
		SourceID: 1, Op: datasource.OpInsert,
		New: workload.EmpRow(name, salary, "d"),
	}
}

func benchSystem(b *testing.B, opts Options) *System {
	b.Helper()
	if opts.Queue == 0 {
		opts.Queue = MemoryQueue
	}
	if opts.Threshold == 0 {
		opts.Threshold = time.Millisecond
	}
	sys, err := Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { sys.Close() })
	return sys
}

func loadTriggers(b *testing.B, sys *System, stmts []string) {
	b.Helper()
	for _, s := range stmts {
		if err := sys.CreateTrigger(s); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E1: predicate index vs naive per-trigger scan (Figures 3–4) ---

// BenchmarkE1_PredicateIndexVsNaive measures per-token match cost as the
// trigger population grows. The predicate index stays ~flat (one hash
// probe per signature); the naive ECA-style scan is linear.
func BenchmarkE1_PredicateIndexVsNaive(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("index/n=%d", n), func(b *testing.B) {
			ix := benchIndex(b, n, n, predindex.OrgMemoryIndex)
			rng := rand.New(rand.NewSource(1))
			b.ResetTimer()
			matched := 0
			for i := 0; i < b.N; i++ {
				tok := benchToken(fmt.Sprintf("user%07d", rng.Intn(n)), 1)
				ix.MatchToken(tok, func(predindex.Match) bool { matched++; return true })
			}
			if matched != b.N {
				b.Fatalf("matched %d of %d", matched, b.N)
			}
		})
		b.Run(fmt.Sprintf("naive/n=%d", n), func(b *testing.B) {
			var nm workload.NaiveMatcher
			for i := 0; i < n; i++ {
				pred := expr.Cmp(expr.OpEq, expr.Col("emp", "name"), expr.Str(fmt.Sprintf("user%07d", i)))
				if err := workload.BindEmp(pred); err != nil {
					b.Fatal(err)
				}
				nm.Add(uint64(i+1), pred)
			}
			rng := rand.New(rand.NewSource(1))
			b.ResetTimer()
			matched := 0
			for i := 0; i < b.N; i++ {
				tok := benchToken(fmt.Sprintf("user%07d", rng.Intn(n)), 1)
				nm.Match(tok, func(uint64) bool { matched++; return true })
			}
			if matched != b.N {
				b.Fatalf("matched %d of %d", matched, b.N)
			}
		})
	}
}

// BenchmarkE1_ProfilingOverhead isolates the cost-attribution sketch's
// tax on the E1 match path: the same probe workload with and without a
// profiler attached. The sketch charges one lookup per matching
// candidate (MatchHit folds probe+match into a single cell scan), so
// the delta should stay within a few percent of the bare probe.
func BenchmarkE1_ProfilingOverhead(b *testing.B) {
	const n = 10000
	for _, profiled := range []bool{false, true} {
		name := "profile=off"
		if profiled {
			name = "profile=on"
		}
		b.Run(name, func(b *testing.B) {
			ix := benchIndex(b, n, n, predindex.OrgMemoryIndex)
			if profiled {
				ix2 := predindex.New(predindex.WithForcedOrganization(predindex.OrgMemoryIndex),
					predindex.WithProfile(profile.New(0, 0)))
				ix2.AddSource(1, workload.EmpSchema)
				for i := 0; i < n; i++ {
					sig, consts := benchEqSig(b, fmt.Sprintf("user%07d", i))
					ref := predindex.Ref{
						ExprID: uint64(i + 1), TriggerID: uint64(i + 1),
						FireMask: predindex.EventMask{AnyOp: true},
					}
					if _, err := ix2.AddPredicate(1, predindex.EventMask{AnyOp: true}, sig, consts, ref); err != nil {
						b.Fatal(err)
					}
				}
				ix = ix2
			}
			rng := rand.New(rand.NewSource(1))
			b.ResetTimer()
			matched := 0
			for i := 0; i < b.N; i++ {
				tok := benchToken(fmt.Sprintf("user%07d", rng.Intn(n)), 1)
				ix.MatchToken(tok, func(predindex.Match) bool { matched++; return true })
			}
			if matched != b.N {
				b.Fatalf("matched %d of %d", matched, b.N)
			}
		})
	}
}

// --- E2: four constant-set organizations (§5.2) ---

// BenchmarkE2_ConstantSetOrganizations measures point-probe cost per
// organization as the equivalence class grows. Lists win tiny classes,
// memory indexes the mid range; tables pay page I/O and the non-indexed
// table degrades linearly.
func BenchmarkE2_ConstantSetOrganizations(b *testing.B) {
	cases := []struct {
		org   predindex.Organization
		sizes []int
	}{
		{predindex.OrgMemoryList, []int{16, 256, 4096, 65536}},
		{predindex.OrgMemoryIndex, []int{16, 256, 4096, 65536}},
		{predindex.OrgTable, []int{16, 256, 4096}},
		{predindex.OrgIndexedTable, []int{16, 256, 4096, 65536}},
	}
	for _, c := range cases {
		for _, size := range c.sizes {
			b.Run(fmt.Sprintf("%s/size=%d", c.org, size), func(b *testing.B) {
				ix := benchIndex(b, size, size, c.org)
				rng := rand.New(rand.NewSource(2))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tok := benchToken(fmt.Sprintf("user%07d", rng.Intn(size)), 1)
					found := false
					ix.MatchToken(tok, func(predindex.Match) bool { found = true; return true })
					if !found {
						b.Fatal("probe missed")
					}
				}
			})
		}
	}
}

// --- E3: partitioned triggerID sets (Figure 5) ---

// BenchmarkE3_PartitionedTriggerIDSets: M triggers share one condition;
// partitioned processing spreads the per-match work over drivers.
func BenchmarkE3_PartitionedTriggerIDSets(b *testing.B) {
	const m = 2000
	for _, parts := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("partitions=%d", parts), func(b *testing.B) {
			sys := benchSystem(b, Options{
				Drivers:             8,
				ConditionPartitions: parts,
			})
			if _, err := sys.DefineStreamSource("emp",
				workload.EmpSchema.Columns...); err != nil {
				b.Fatal(err)
			}
			loadTriggers(b, sys, workload.SameConditionTriggers(m))
			src, _ := sys.reg.ByName("emp")
			tok := datasource.Token{SourceID: src.ID, Op: datasource.OpInsert,
				New: workload.EmpRow("x", 1, "PENDING")}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sys.apply(tok); err != nil {
					b.Fatal(err)
				}
				sys.Drain()
			}
			b.StopTimer()
			if sys.Errors() > 0 {
				b.Fatalf("async errors: %v", sys.LastError())
			}
		})
	}
}

// --- E4: token-level concurrency (§6) ---

// BenchmarkE4_TokenLevelConcurrency processes a batch of tokens per
// iteration with N drivers; throughput should scale with N until cores
// saturate.
func BenchmarkE4_TokenLevelConcurrency(b *testing.B) {
	const triggers = 5000
	const batch = 500
	for _, drivers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("drivers=%d", drivers), func(b *testing.B) {
			sys := benchSystem(b, Options{Drivers: drivers})
			if _, err := sys.DefineStreamSource("emp",
				workload.EmpSchema.Columns...); err != nil {
				b.Fatal(err)
			}
			loadTriggers(b, sys, workload.MixedSignatureTriggers(triggers, 8))
			src, _ := sys.reg.ByName("emp")
			rng := rand.New(rand.NewSource(4))
			toks := workload.InsertTokens(rng, batch, triggers, 1_000_000, src.ID)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, tok := range toks {
					if err := sys.apply(tok); err != nil {
						b.Fatal(err)
					}
				}
				sys.Drain()
			}
			b.StopTimer()
			b.ReportMetric(float64(batch*b.N)/b.Elapsed().Seconds(), "tokens/s")
		})
	}
}

// --- E5: trigger cache (§5.1) ---

// BenchmarkE5_TriggerCache drives Zipf-skewed firings over more triggers
// than the cache holds; the hit ratio (reported) and per-firing cost
// degrade as capacity shrinks below the working set.
func BenchmarkE5_TriggerCache(b *testing.B) {
	const triggers = 8000
	for _, capacity := range []int{512, 2048, 8192} {
		b.Run(fmt.Sprintf("capacity=%d", capacity), func(b *testing.B) {
			sys := benchSystem(b, Options{
				Synchronous:      true,
				TriggerCacheSize: capacity,
			})
			if _, err := sys.DefineStreamSource("emp",
				workload.EmpSchema.Columns...); err != nil {
				b.Fatal(err)
			}
			loadTriggers(b, sys, workload.EqualityTriggers(triggers, triggers))
			src, _ := sys.reg.ByName("emp")
			rng := rand.New(rand.NewSource(5))
			ids := workload.ZipfIDs(rng, 65536, triggers, workload.DefaultZipfGoBench)
			// Warm to steady state so the measured window reflects the
			// capacity-dependent hit ratio, not cold-start misses.
			for i := 0; i < 16384; i++ {
				id := ids[i%len(ids)]
				tok := datasource.Token{SourceID: src.ID, Op: datasource.OpInsert,
					New: workload.EmpRow(fmt.Sprintf("user%07d", id-1), 1, "d")}
				if err := sys.apply(tok); err != nil {
					b.Fatal(err)
				}
			}
			warm := sys.Stats().TriggerCache
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := ids[i%len(ids)]
				tok := datasource.Token{SourceID: src.ID, Op: datasource.OpInsert,
					New: workload.EmpRow(fmt.Sprintf("user%07d", id-1), 1, "d")}
				if err := sys.apply(tok); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := sys.Stats().TriggerCache
			hits, misses := st.Hits-warm.Hits, st.Misses-warm.Misses
			if hits+misses > 0 {
				b.ReportMetric(float64(hits)/float64(hits+misses), "hit-ratio")
			}
		})
	}
}

// --- E6: create trigger scaling (§5, §5.1) ---

// BenchmarkE6_CreateTriggerScaling measures trigger creation cost with
// N triggers already defined; signature interning keeps it ~flat, and
// the signature count stays at the pool size regardless of N.
func BenchmarkE6_CreateTriggerScaling(b *testing.B) {
	for _, n := range []int{1000, 10000, 50000} {
		b.Run(fmt.Sprintf("existing=%d", n), func(b *testing.B) {
			sys := benchSystem(b, Options{Synchronous: true})
			if _, err := sys.DefineStreamSource("emp",
				workload.EmpSchema.Columns...); err != nil {
				b.Fatal(err)
			}
			loadTriggers(b, sys, workload.MixedSignatureTriggers(n, 8))
			src, _ := sys.reg.ByName("emp")
			if sigs := sys.pidx.SignatureCount(src.ID); sigs > 16 {
				b.Fatalf("signature count %d exploded", sigs)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				stmt := fmt.Sprintf(
					"create trigger bench%09d from emp when emp.name = 'bench%09d' do raise event B()",
					i, i)
				if err := sys.CreateTrigger(stmt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E7: multi-table (join) triggers through A-TREAT (§2, §3) ---

// BenchmarkE7_JoinTriggers drives the IrisHouseAlert join with varying
// represents-memory sizes; cost grows with the join fan-out, not the
// trigger population.
func BenchmarkE7_JoinTriggers(b *testing.B) {
	for _, reps := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("represents=%d", reps), func(b *testing.B) {
			sys := benchSystem(b, Options{Synchronous: true})
			sp, err := sys.DefineStreamSource("salesperson",
				types.Column{Name: "spno", Kind: types.KindInt},
				types.Column{Name: "name", Kind: types.KindVarchar})
			if err != nil {
				b.Fatal(err)
			}
			house, err := sys.DefineStreamSource("house",
				types.Column{Name: "hno", Kind: types.KindInt},
				types.Column{Name: "nno", Kind: types.KindInt})
			if err != nil {
				b.Fatal(err)
			}
			rep, err := sys.DefineStreamSource("represents",
				types.Column{Name: "spno", Kind: types.KindInt},
				types.Column{Name: "nno", Kind: types.KindInt})
			if err != nil {
				b.Fatal(err)
			}
			err = sys.CreateTrigger(`create trigger iris
				on insert to house
				from salesperson s, house h, represents r
				when s.name = 'Iris' and s.spno = r.spno and r.nno = h.nno
				do raise event Hit(h.hno)`)
			if err != nil {
				b.Fatal(err)
			}
			sp.Insert(types.Tuple{types.NewInt(7), types.NewString("Iris")})
			for i := 0; i < reps; i++ {
				rep.Insert(types.Tuple{types.NewInt(7), types.NewInt(int64(i))})
			}
			fired := 0
			sys.FireHook = func(uint64, []types.Tuple) { fired++ }
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Each house insert joins against one represents row.
				house.Insert(types.Tuple{types.NewInt(int64(i)), types.NewInt(int64(i % reps))})
			}
			b.StopTimer()
			if fired != b.N {
				b.Fatalf("fired %d of %d", fired, b.N)
			}
		})
	}
}

// --- E8: common sub-expression elimination (§5.3) ---

// BenchmarkE8_CSENormalized: N triggers share ONE predicate constant.
// Normalized (the paper's design) tests the constant once; the
// denormalized baseline re-evaluates N predicates. The non-matching
// token case is the dramatic one: O(1) vs O(N).
func BenchmarkE8_CSENormalized(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("normalized/n=%d/miss", n), func(b *testing.B) {
			ix := benchIndex(b, n, 1, predindex.OrgMemoryIndex) // all same constant
			tok := benchToken("nobody", 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix.MatchToken(tok, func(predindex.Match) bool { return true })
			}
		})
		b.Run(fmt.Sprintf("denormalized/n=%d/miss", n), func(b *testing.B) {
			var nm workload.NaiveMatcher
			for i := 0; i < n; i++ {
				pred := expr.Cmp(expr.OpEq, expr.Col("emp", "name"), expr.Str("user0000000"))
				if err := workload.BindEmp(pred); err != nil {
					b.Fatal(err)
				}
				nm.Add(uint64(i+1), pred)
			}
			tok := benchToken("nobody", 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				nm.Match(tok, func(uint64) bool { return true })
			}
		})
	}
}

// --- E9: rule action concurrency (§6) ---

// BenchmarkE9_ActionConcurrency: each token fires M execSQL actions;
// action tasks run on N drivers.
func BenchmarkE9_ActionConcurrency(b *testing.B) {
	const m = 200
	for _, drivers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("drivers=%d", drivers), func(b *testing.B) {
			sys := benchSystem(b, Options{Drivers: drivers, ActionTasks: true})
			emp, err := sys.DefineTableSource("emp", workload.EmpSchema.Columns...)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sys.DB().CreateTable("audit", types.MustSchema(
				types.Column{Name: "who", Kind: types.KindVarchar},
				types.Column{Name: "amount", Kind: types.KindInt},
			)); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < m; i++ {
				err := sys.CreateTrigger(fmt.Sprintf(
					`create trigger act%04d from emp when emp.dept = 'PENDING'
					 do execSQL 'insert into audit values (:NEW.emp.name, :NEW.emp.salary)'`, i))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := emp.Insert(workload.EmpRow(fmt.Sprintf("u%d", i), 1, "PENDING")); err != nil {
					b.Fatal(err)
				}
				sys.Drain()
			}
			b.StopTimer()
			if sys.Errors() > 0 {
				b.Fatalf("async errors: %v", sys.LastError())
			}
			b.ReportMetric(float64(m*b.N)/b.Elapsed().Seconds(), "actions/s")
		})
	}
}

// --- E10: range predicates via interval skip list ([Hans96b], §8) ---

// BenchmarkE10_RangePredicates compares the interval skip list
// organization against the linear list for "salary > C" populations.
// The token matches ~1% of predicates.
func BenchmarkE10_RangePredicates(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		for _, org := range []predindex.Organization{predindex.OrgMemoryList, predindex.OrgMemoryIndex} {
			b.Run(fmt.Sprintf("%s/n=%d", org, n), func(b *testing.B) {
				ix := predindex.New(predindex.WithForcedOrganization(org))
				ix.AddSource(1, workload.EmpSchema)
				for i := 0; i < n; i++ {
					sig, consts := benchRangeSig(b, int64(i))
					ref := predindex.Ref{ExprID: uint64(i + 1), TriggerID: uint64(i + 1),
						FireMask: predindex.EventMask{AnyOp: true}}
					if _, err := ix.AddPredicate(1, predindex.EventMask{AnyOp: true}, sig, consts, ref); err != nil {
						b.Fatal(err)
					}
				}
				// salary value matching the lowest 1% of thresholds.
				tok := benchToken("x", int64(n/100))
				b.ResetTimer()
				matched := 0
				for i := 0; i < b.N; i++ {
					ix.MatchToken(tok, func(predindex.Match) bool { matched++; return true })
				}
				if matched == 0 {
					b.Fatal("no matches")
				}
			})
		}
	}
}

// --- E11: end-to-end path incl. persistent queue (Figure 1) ---

// BenchmarkE11_EndToEnd pushes tokens through capture, queue, match and
// action with both queue transports.
func BenchmarkE11_EndToEnd(b *testing.B) {
	for _, q := range []struct {
		name    string
		kind    QueueKind
		disk    bool
		durable bool
	}{
		{"memory-queue", MemoryQueue, false, false},
		{"persistent-queue", PersistentQueue, true, false},
		{"durable-queue", PersistentQueue, true, true},
	} {
		b.Run(q.name, func(b *testing.B) {
			opts := Options{Synchronous: true, Queue: q.kind, DurableQueue: q.durable}
			if q.disk {
				opts.DiskPath = b.TempDir() + "/tman.db"
			}
			sys := benchSystem(b, opts)
			if _, err := sys.DefineStreamSource("emp",
				workload.EmpSchema.Columns...); err != nil {
				b.Fatal(err)
			}
			loadTriggers(b, sys, workload.EqualityTriggers(1000, 1000))
			src, _ := sys.reg.ByName("emp")
			rng := rand.New(rand.NewSource(11))
			// Warm the trigger cache so both transports measure the
			// queue path rather than first-pin parse costs.
			for i := 0; i < 1000; i++ {
				tok := datasource.Token{SourceID: src.ID, Op: datasource.OpInsert,
					New: workload.EmpRow(fmt.Sprintf("user%07d", i), 1, "d")}
				if err := sys.apply(tok); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tok := datasource.Token{SourceID: src.ID, Op: datasource.OpInsert,
					New: workload.EmpRow(fmt.Sprintf("user%07d", rng.Intn(1000)), 1, "d")}
				if err := sys.apply(tok); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E12: adaptive constant-set organization ([Hans98b] cost model) ---

// BenchmarkE12_AdaptiveOrganization probes classes that grew online
// under the adaptive policy; the structure in use at each size should
// track the best fixed choice.
func BenchmarkE12_AdaptiveOrganization(b *testing.B) {
	for _, size := range []int{10, 1000, 100000} {
		b.Run(fmt.Sprintf("adaptive/size=%d", size), func(b *testing.B) {
			ix := benchIndex(b, size, size, predindex.OrgAuto)
			src := int32(1)
			entries := ix.Signatures(src)
			if len(entries) != 1 {
				b.Fatalf("signatures = %d", len(entries))
			}
			b.Logf("size=%d organization=%s", size, entries[0].Organization())
			rng := rand.New(rand.NewSource(12))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tok := benchToken(fmt.Sprintf("user%07d", rng.Intn(size)), 1)
				found := false
				ix.MatchToken(tok, func(predindex.Match) bool { found = true; return true })
				if !found {
					b.Fatal("probe missed")
				}
			}
		})
	}
}

// --- Telemetry overhead guard ---

// BenchmarkTelemetryOverhead is the E1-profiling-style A/B guard for
// the observability stack: the same end-to-end token path with
// tracing, the SLO engine, and the runtime sampler fully disabled
// versus the shipped defaults (1-in-64 trace sampling, per-class
// histograms, default objectives ticking) versus tracing every token.
// The default leg should stay within a few percent of the bare path —
// the SLO engine runs off the hot path entirely and an unsampled token
// costs one counter increment; trace=all prices the full stamp-every-
// stage mode a debugging session would switch on.
func BenchmarkTelemetryOverhead(b *testing.B) {
	for _, mode := range []string{"telemetry=off", "telemetry=default", "telemetry=all", "telemetry=federation"} {
		b.Run(mode, func(b *testing.B) {
			opts := Options{Synchronous: true, Queue: MemoryQueue}
			switch mode {
			case "telemetry=off":
				opts.TraceSampleEvery = -1
				opts.DisableSLO = true
			case "telemetry=default", "telemetry=federation":
				// Zero values: SampleEvery 64, SLO engine on defaults.
			case "telemetry=all":
				opts.TraceSampleEvery = 1
				opts.SLOTick = 100 * time.Millisecond
			}
			sys := benchSystem(b, opts)
			if mode == "telemetry=federation" {
				// Defaults plus an aggressive federation scrape loop
				// (registry snapshot + merge + render every 2ms — far
				// hotter than the fleet's 2s default) contending with the
				// token path. The leg should match telemetry=default:
				// scrapes only read atomics.
				sys.SetFederation(benchFederation{sys: sys})
				stopScrape := make(chan struct{})
				scrapeDone := make(chan struct{})
				go func() {
					defer close(scrapeDone)
					tick := time.NewTicker(2 * time.Millisecond)
					defer tick.Stop()
					for {
						select {
						case <-stopScrape:
							return
						case <-tick.C:
							snaps := map[string]*metrics.Snapshot{"self": sys.met.Snapshot()}
							_ = metrics.Merge(snaps).Render()
						}
					}
				}()
				b.Cleanup(func() { close(stopScrape); <-scrapeDone })
			}
			if _, err := sys.DefineStreamSource("emp",
				workload.EmpSchema.Columns...); err != nil {
				b.Fatal(err)
			}
			loadTriggers(b, sys, workload.EqualityTriggers(1000, 1000))
			src, _ := sys.reg.ByName("emp")
			rng := rand.New(rand.NewSource(17))
			for i := 0; i < 1000; i++ {
				tok := datasource.Token{SourceID: src.ID, Op: datasource.OpInsert,
					New: workload.EmpRow(fmt.Sprintf("user%07d", i), 1, "d")}
				if err := sys.apply(tok); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tok := datasource.Token{SourceID: src.ID, Op: datasource.OpInsert,
					New: workload.EmpRow(fmt.Sprintf("user%07d", rng.Intn(1000)), 1, "d")}
				if err := sys.apply(tok); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
