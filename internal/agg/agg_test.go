package agg

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"triggerman/internal/expr"
	"triggerman/internal/parser"
	"triggerman/internal/types"
)

// sales schema: region(0) varchar, amount(1) int, rep(2) varchar.
var salesSchema = types.MustSchema(
	types.Column{Name: "region", Kind: types.KindVarchar},
	types.Column{Name: "amount", Kind: types.KindInt},
	types.Column{Name: "rep", Kind: types.KindVarchar},
)

func saleRow(region string, amount int64, rep string) types.Tuple {
	return types.Tuple{types.NewString(region), types.NewInt(amount), types.NewString(rep)}
}

func bindSales(t *testing.T, src string) expr.Node {
	t.Helper()
	n, err := parser.ParseExpr(src)
	if err != nil {
		t.Fatal(err)
	}
	b := &expr.Binder{
		VarIndex:    map[string]int{"sales": 0},
		DefaultVar:  0,
		ColumnIndex: func(_ int, col string) int { return salesSchema.ColumnIndex(col) },
	}
	if err := b.Bind(n); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestFuncFromName(t *testing.T) {
	for name, want := range map[string]Func{
		"count": Count, "SUM": Sum, "Avg": Avg, "min": Min, "MAX": Max,
	} {
		got, ok := FuncFromName(name)
		if !ok || got != want {
			t.Errorf("FuncFromName(%q) = %v, %v", name, got, ok)
		}
	}
	if _, ok := FuncFromName("median"); ok {
		t.Error("median should be unknown")
	}
	if Count.String() != "count" || Max.String() != "max" {
		t.Error("names")
	}
}

// compile compiles a having over sales grouped by region, for a trigger
// whose action reads no aggregate.
func compile(t testing.TB, having expr.Node) (*State, func(groupKey, aggs types.Tuple) (bool, error)) {
	t.Helper()
	st, holds, err := Compile(having, &parser.RaiseEvent{Name: "E"}, []int{0}, salesSchema)
	if err != nil {
		t.Fatal(err)
	}
	return st, holds
}

func TestRewriteHaving(t *testing.T) {
	st, ev := compile(t, bindSales(t, "count(amount) > 2 and region <> 'x'"))
	if specs := st.Specs; len(specs) != 1 || specs[0].Func != Count || specs[0].Col != 1 {
		t.Fatalf("specs = %v", specs)
	}
	// Evaluable with (groupKey, aggs), and without allocating.
	key, aggs := types.Tuple{types.NewString("north")}, types.Tuple{types.NewInt(3)}
	ok, err := ev(key, aggs)
	if err != nil || !ok {
		t.Fatalf("eval = %v %v", ok, err)
	}
	if n := testing.AllocsPerRun(100, func() { ev(key, aggs) }); n != 0 {
		t.Errorf("judging a group allocates %.1f objects", n)
	}
	ok, _ = ev(types.Tuple{types.NewString("x")}, types.Tuple{types.NewInt(3)})
	if ok {
		t.Error("region <> 'x' should fail for group x")
	}
	// Duplicate aggregates are shared.
	if st, _ := compile(t, bindSales(t, "sum(amount) > 10 and sum(amount) < 100")); len(st.Specs) != 1 {
		t.Fatalf("dedup: %v", st.Specs)
	}
	for having, want := range map[string]string{
		"amount > 5":          `column "amount" must appear in group by`,
		"sum(amount * 2) > 5": "sum expects a column argument",
		"max(amount, 1) > 5":  "max expects one column argument",
	} {
		_, _, err := Compile(bindSales(t, having), &parser.RaiseEvent{Name: "E"}, []int{0}, salesSchema)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("having %s: error %v, want %q", having, err, want)
		}
	}
}

// The having keeps one environment for every call; callers judging
// groups at once, each with its own key and aggregates, must each get
// their own answer.
func TestHavingConcurrentCalls(t *testing.T) {
	_, ev := compile(t, bindSales(t, "count(amount) > 2 and region = 'a'"))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := types.Tuple{types.NewString([]string{"a", "b"}[g%2])}
			for i := 0; i < 2000; i++ {
				aggs := types.Tuple{types.NewInt(int64(i % 5))}
				ok, err := ev(key, aggs)
				if want := g%2 == 0 && i%5 > 2; err != nil || ok != want {
					t.Errorf("goroutine %d, count %d: %v %v, want %v", g, i%5, ok, err, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// An action's aggregate calls join the having's specs when the trigger is
// compiled, and a loaded action reads them by slot: the aggregate tuple
// is variable AggVar, the representative row stays variable 0.
func TestResolveAction(t *testing.T) {
	act := func(text string) parser.Action {
		st, err := parser.Parse("create trigger x from sales do " + text)
		if err != nil {
			t.Fatal(err)
		}
		return st.(*parser.CreateTrigger).Do
	}
	raise := act("raise event E(sales.region, abs(max(amount)) + count(region), sum(amount))")
	st, _, err := Compile(bindSales(t, "sum(amount) > 10"), raise, []int{0}, salesSchema)
	if err != nil {
		t.Fatal(err)
	}
	want := []Spec{{Sum, 1}, {Max, 1}, {Count, 0}}
	if !slices.Equal(st.Specs, want) {
		t.Fatalf("specs = %v, want %v", st.Specs, want)
	}
	before := raise.(*parser.RaiseEvent).Args[1].String()
	loaded, err := st.ResolveAction(raise, salesSchema)
	if err != nil {
		t.Fatal(err)
	}
	if after := raise.(*parser.RaiseEvent).Args[1].String(); after != before {
		t.Errorf("resolving changed the action it read: %s, was %s", after, before)
	}
	// No row: the arguments read only the aggregate tuple (sum, max, count).
	env := expr.MultiEnv{Tuples: []types.Tuple{nil, {types.NewFloat(30), types.NewInt(-7), types.NewInt(4)}}}
	var got []string
	for _, arg := range loaded.(*parser.RaiseEvent).Args[1:] {
		v, err := expr.EvalScalar(arg, env)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, v.String())
	}
	if strings.Join(got, " ") != "11 30" {
		t.Errorf("resolved arguments = %v, want [11 30]", got)
	}
	sql := act("execSQL 'update t set v = min(amount) where k = count(region)'")
	if _, err := st.ResolveAction(sql, salesSchema); err == nil || !strings.Contains(err.Error(), "min(amount) not maintained") {
		t.Errorf("a call the state does not keep: %v", err)
	}
	if _, _, err := Compile(bindSales(t, "count(region) > 1"), act("raise event E(sum(nosuch))"), []int{0}, salesSchema); err == nil ||
		!strings.Contains(err.Error(), `unknown column "nosuch" in aggregate`) {
		t.Errorf("an aggregate over an unknown column: %v", err)
	}
}

// run applies a sequence of inserts and returns fire counts.
func applyInsert(t *testing.T, st *State, having func(a, b types.Tuple) (bool, error), tu types.Tuple) []Fire {
	t.Helper()
	fires, err := st.Apply(OpInsert, nil, tu, false, true, having)
	if err != nil {
		t.Fatal(err)
	}
	return fires
}

func TestCountTransitionFiring(t *testing.T) {
	st, ev := compile(t, bindSales(t, "count(amount) > 2"))

	var total int
	for i := 0; i < 5; i++ {
		fires := applyInsert(t, st, ev, saleRow("north", 10, "a"))
		total += len(fires)
		if i == 2 && len(fires) != 1 {
			t.Fatalf("insert %d: fires = %d", i, len(fires))
		}
	}
	// Fires exactly once (at count 3), not again at 4, 5.
	if total != 1 {
		t.Fatalf("total fires = %d", total)
	}
	// A different group is independent.
	fires := applyInsert(t, st, ev, saleRow("south", 10, "a"))
	if len(fires) != 0 {
		t.Fatal("south should not fire at count 1")
	}
	// Deletions re-arm only once the condition drops to false: delete
	// three of the five rows (count 5 -> 2, condition false), then rise
	// back above the threshold.
	for i := 0; i < 3; i++ {
		if _, err := st.Apply(OpDelete, saleRow("north", 10, "a"), nil, true, false, ev); err != nil {
			t.Fatal(err)
		}
	}
	fires = applyInsert(t, st, ev, saleRow("north", 10, "a"))
	if len(fires) != 1 {
		t.Fatalf("re-armed fire = %d", len(fires))
	}
}

func TestSumAvgMinMax(t *testing.T) {
	st, ev := compile(t, bindSales(t, "sum(amount) >= 100 and avg(amount) >= 25 and max(amount) >= 50 and min(amount) > 0"))
	if len(st.Specs) != 4 {
		t.Fatalf("specs = %v", st.Specs)
	}

	applyInsert(t, st, ev, saleRow("n", 30, "a"))
	applyInsert(t, st, ev, saleRow("n", 20, "a"))
	fires := applyInsert(t, st, ev, saleRow("n", 60, "a")) // sum=110 avg≈36.7 max=60 min=20
	if len(fires) != 1 {
		t.Fatalf("fires = %d", len(fires))
	}
	f := fires[0]
	if f.GroupKey[0].Str() != "n" {
		t.Errorf("group = %v", f.GroupKey)
	}
	if f.Aggregates[0].Float() != 110 {
		t.Errorf("sum = %v", f.Aggregates[0])
	}
	if f.Aggregates[2].Int() != 60 || f.Aggregates[3].Int() != 20 {
		t.Errorf("max/min = %v %v", f.Aggregates[2], f.Aggregates[3])
	}
	// Deleting the max re-arms (max drops to 30 -> condition false).
	if _, err := st.Apply(OpDelete, saleRow("n", 60, "a"), nil, true, false, ev); err != nil {
		t.Fatal(err)
	}
	fires = applyInsert(t, st, ev, saleRow("n", 55, "a"))
	if len(fires) != 1 {
		t.Fatalf("fires after max removal = %d", len(fires))
	}
}

func TestUpdateMovesBetweenGroups(t *testing.T) {
	st, ev := compile(t, bindSales(t, "count(amount) > 1"))

	applyInsert(t, st, ev, saleRow("a", 1, "r"))
	applyInsert(t, st, ev, saleRow("b", 1, "r"))
	// Move the b row into group a: a reaches count 2 -> fires.
	fires, err := st.Apply(OpUpdate, saleRow("b", 1, "r"), saleRow("a", 1, "r"), true, true, ev)
	if err != nil {
		t.Fatal(err)
	}
	if len(fires) != 1 || fires[0].GroupKey[0].Str() != "a" {
		t.Fatalf("fires = %+v", fires)
	}
	// Group b is now empty and garbage-collected.
	if st.Groups() != 1 {
		t.Errorf("groups = %d", st.Groups())
	}
}

// An update that moves a row between two groups judges, and fires, the
// group it leaves before the group it joins — every time, so the
// token's actions run in one order.
func TestUpdateFiresLeftGroupFirst(t *testing.T) {
	for i := 0; i < 200; i++ {
		st, ev := compile(t, bindSales(t, "count(amount) < 2"))
		applyInsert(t, st, ev, saleRow("a", 1, "r"))
		applyInsert(t, st, ev, saleRow("a", 2, "r")) // a: count 2, false
		// a drops to 1 and b is born at 1: both cross to true.
		fires, err := st.Apply(OpUpdate, saleRow("a", 2, "r"), saleRow("b", 2, "r"), true, true, ev)
		if err != nil {
			t.Fatal(err)
		}
		if len(fires) != 2 || fires[0].GroupKey[0].Str() != "a" || fires[1].GroupKey[0].Str() != "b" {
			t.Fatalf("run %d: fires %+v, want group a then group b", i, fires)
		}
	}
}

func TestSelectionFiltering(t *testing.T) {
	// Tokens whose image fails the selection do not contribute.
	st, ev := compile(t, bindSales(t, "count(amount) > 1"))
	if fires, _ := st.Apply(OpInsert, nil, saleRow("n", 1, "r"), false, false, ev); len(fires) != 0 {
		t.Fatal("non-matching insert should be a no-op")
	}
	if st.Groups() != 0 {
		t.Error("no group should exist")
	}
}

func TestRandomizedAgainstRecompute(t *testing.T) {
	// Incremental aggregates equal a from-scratch recomputation after
	// every step; firing happens exactly on false->true transitions of
	// the recomputed condition.
	st, ev := compile(t, bindSales(t, "sum(amount) > 100 and count(amount) > 2"))

	rng := rand.New(rand.NewSource(13))
	regions := []string{"a", "b", "c"}
	var rows []types.Tuple
	condWas := map[string]bool{}
	for step := 0; step < 2000; step++ {
		var fires []Fire
		var err error
		var old, tu types.Tuple
		switch op := rng.Intn(4); {
		case len(rows) == 0 || op < 2:
			tu = saleRow(regions[rng.Intn(3)], int64(rng.Intn(60)), "r")
			rows = append(rows, tu)
			fires, err = st.Apply(OpInsert, nil, tu, false, true, ev)
		case op < 3:
			i := rng.Intn(len(rows))
			old = rows[i]
			rows = append(rows[:i], rows[i+1:]...)
			fires, err = st.Apply(OpDelete, old, nil, true, false, ev)
		default: // an update, often moving the row to another group
			i := rng.Intn(len(rows))
			old, tu = rows[i], saleRow(regions[rng.Intn(3)], int64(rng.Intn(60)), "r")
			rows[i] = tu
			fires, err = st.Apply(OpUpdate, old, tu, true, true, ev)
		}
		if err != nil {
			t.Fatal(err)
		}
		// Recompute per group from rows.
		sums := map[string]int64{}
		counts := map[string]int64{}
		for _, r := range rows {
			sums[r[0].Str()] += r[1].Int()
			counts[r[0].Str()]++
		}
		condNow := map[string]bool{}
		for g := range sums {
			condNow[g] = sums[g] > 100 && counts[g] > 2
		}
		if st.Groups() != len(counts) {
			t.Fatalf("step %d: %d groups, recompute has %d", step, st.Groups(), len(counts))
		}
		firedGroups := map[string]bool{}
		for _, f := range fires {
			firedGroups[f.GroupKey[0].Str()] = true
			// The representative is the image in the fired group, the new
			// one when both are.
			if rep := tu; rep == nil || rep[0].Str() != f.GroupKey[0].Str() {
				if !f.Representative.Equal(old) {
					t.Fatalf("step %d: group %s fired with %v, want the old image %v", step, f.GroupKey, f.Representative, old)
				}
			} else if !f.Representative.Equal(rep) {
				t.Fatalf("step %d: group %s fired with %v, want the new image %v", step, f.GroupKey, f.Representative, rep)
			}
		}
		for g, now := range condNow {
			if now && !condWas[g] && !firedGroups[g] {
				t.Fatalf("step %d: group %s transitioned true but did not fire", step, g)
			}
		}
		for g := range firedGroups {
			if !condNow[g] {
				t.Fatalf("step %d: group %s fired while condition false", step, g)
			}
			if condWas[g] {
				t.Fatalf("step %d: group %s fired without a transition", step, g)
			}
		}
		condWas = condNow
	}
}

// TestMinMaxAgainstRecompute drives random insert and delete histories
// through min and max — duplicate values, NULLs, and ints and floats
// that compare equal (2 and 2.0) — and after every step holds each
// judged group's min and max to a scan of the values its rows hold.
func TestMinMaxAgainstRecompute(t *testing.T) {
	pool := []types.Value{types.Null(), types.NewInt(-3), types.NewInt(0), types.NewInt(2),
		types.NewFloat(2), types.NewFloat(-0.5), types.NewFloat(7.25), types.NewInt(7), types.NewFloat(-3)}
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		st := NewState([]int{0}, []Spec{{Func: Min, Col: 1}, {Func: Max, Col: 1}})
		judged := map[string][2]types.Value{}
		having := func(key, aggs types.Tuple) (bool, error) {
			judged[key[0].Str()] = [2]types.Value{aggs[0], aggs[1]}
			return false, nil
		}
		var rows []types.Tuple
		for step := 0; step < 3000; step++ {
			clear(judged)
			if i := rng.Intn(len(rows) + 1); i < len(rows) && rng.Intn(2) == 0 {
				old := rows[i]
				rows = slices.Delete(rows, i, i+1)
				if _, err := st.Apply(OpDelete, old, nil, true, false, having); err != nil {
					t.Fatal(err)
				}
			} else {
				tu := types.Tuple{types.NewString(fmt.Sprint(rng.Intn(2))), pool[rng.Intn(len(pool))]}
				rows = append(rows, tu)
				if _, err := st.Apply(OpInsert, nil, tu, false, true, having); err != nil {
					t.Fatal(err)
				}
			}
			for g, got := range judged {
				var lo, hi types.Value // NULL for a group without a value
				for _, r := range rows {
					if v := r[1]; r[0].Str() == g && !v.IsNull() {
						if lo.IsNull() || types.Compare(v, lo) < 0 {
							lo = v
						}
						if hi.IsNull() || types.Compare(v, hi) > 0 {
							hi = v
						}
					}
				}
				if !types.Equal(got[0], lo) || !types.Equal(got[1], hi) {
					t.Fatalf("seed %d step %d: group %s min, max = %v, %v; recompute %v, %v", seed, step, g, got[0], got[1], lo, hi)
				}
			}
		}
	}
}

// Ablation: incremental aggregate maintenance vs recomputing the group
// from its rows on every token (what a query-based trigger system would
// do, per the paper's §8 critique of RPL/DIPS).
func BenchmarkIncrementalVsRecompute(b *testing.B) {
	n := expr.Cmp(expr.OpGt,
		&expr.FuncCall{Name: "sum", Args: []expr.Node{&expr.ColumnRef{Column: "amount", VarIdx: 0, ColIdx: 1}}},
		expr.Int(1_000_000))
	for _, rows := range []int{100, 10000} {
		b.Run("incremental/group="+itoa(rows), func(b *testing.B) {
			st, ev := compile(b, n)
			for i := 0; i < rows; i++ {
				st.Apply(OpInsert, nil, saleRow("g", int64(i), "r"), false, true, ev)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := st.Apply(OpInsert, nil, saleRow("g", 1, "r"), false, true, ev); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("recompute/group="+itoa(rows), func(b *testing.B) {
			var all []types.Tuple
			for i := 0; i < rows; i++ {
				all = append(all, saleRow("g", int64(i), "r"))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				all = append(all, saleRow("g", 1, "r"))
				var sum int64
				for _, r := range all {
					sum += r[1].Int()
				}
				if sum < 0 {
					b.Fatal("impossible")
				}
				all = all[:len(all)-1]
			}
		})
	}
}

func itoa(n int) string { return fmt.Sprintf("%d", n) }
