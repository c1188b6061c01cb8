package triggerman

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"triggerman/internal/types"
)

// aggStats is one group's aggregates, recomputed from its live rows.
type aggStats struct {
	n, min, max int64
	sum         float64
}

// aggExpr is an expression over a group's aggregates: its trigger text
// and its value, NULL as nil.
type aggExpr struct {
	text string
	eval func(a aggStats) *float64
}

func some(f float64) *float64 { return &f }

var aggExprs = []aggExpr{
	{"count(region)", func(a aggStats) *float64 { return some(float64(a.n)) }},
	{"sum(amount)", func(a aggStats) *float64 { return some(a.sum) }},
	{"abs(sum(amount) - 100)", func(a aggStats) *float64 { return some(math.Abs(a.sum - 100)) }},
	{"max(amount) - min(amount)", func(a aggStats) *float64 {
		if a.n == 0 {
			return nil
		}
		return some(float64(a.max - a.min))
	}},
	{"avg(amount) * 2", func(a aggStats) *float64 {
		if a.n == 0 {
			return nil
		}
		return some(a.sum / float64(a.n) * 2)
	}},
	{"count(rep) * 10 + min(amount)", func(a aggStats) *float64 {
		if a.n == 0 {
			return nil
		}
		return some(float64(a.n*10 + a.min))
	}},
}

// aggOracleTrigger is one generated group-by/having trigger and the
// model of it the recompute runs.
type aggOracleTrigger struct {
	id       int
	byRep    bool // group by region, rep (else region)
	selected bool // when sales.amount >= 20
	having   string
	holds    func(a aggStats) bool
	on       string
	fires    func(op string, old, new types.Tuple) bool
	action   string // "raise", "insert" or "update"
	v1, v2   aggExpr
}

func (tr *aggOracleTrigger) ddl() string {
	var b strings.Builder
	fmt.Fprintf(&b, "create trigger g%d from sales", tr.id)
	if tr.on != "" {
		b.WriteString(" on " + tr.on)
	}
	if tr.selected {
		b.WriteString(" when sales.amount >= 20")
	}
	b.WriteString(" group by region")
	if tr.byRep {
		b.WriteString(", rep")
	}
	b.WriteString(" having " + tr.having + " do ")
	switch tr.action {
	case "raise":
		fmt.Fprintf(&b, "raise event F(%d, sales.region, sales.rep, %s, %s)", tr.id, tr.v1.text, tr.v2.text)
	case "insert":
		fmt.Fprintf(&b, "execSQL 'insert into firelog values (%d, :NEW.sales.region, %s, %s)'", tr.id, tr.v1.text, tr.v2.text)
	case "update":
		// The where clause skips firings of an emptied group.
		fmt.Fprintf(&b, "execSQL 'update tally set n = n + 1, v = %s where trig = %d and grp = :NEW.sales.region and count(region) > 0'", tr.v2.text, tr.id)
	}
	return b.String()
}

// genAggTriggers draws n triggers: every having, on clause and action
// shape the recompute models, aggregates in event arguments, in scalar
// functions, and in an execSQL statement's values, set and where.
func genAggTriggers(rng *rand.Rand, n int) []*aggOracleTrigger {
	havings := []func() (string, func(aggStats) bool){
		func() (string, func(aggStats) bool) {
			k := int64(1 + rng.Intn(3))
			return fmt.Sprintf("count(region) > %d", k), func(a aggStats) bool { return a.n > k }
		},
		func() (string, func(aggStats) bool) {
			k := int64(1 + rng.Intn(2))
			return fmt.Sprintf("count(rep) < %d", k), func(a aggStats) bool { return a.n < k }
		},
		func() (string, func(aggStats) bool) {
			s := float64(100 * (1 + rng.Intn(2)))
			return fmt.Sprintf("sum(amount) > %g", s), func(a aggStats) bool { return a.sum > s }
		},
		func() (string, func(aggStats) bool) {
			return "avg(amount) >= 30", func(a aggStats) bool { return a.n > 0 && a.sum/float64(a.n) >= 30 }
		},
		func() (string, func(aggStats) bool) {
			return "max(amount) - min(amount) > 25", func(a aggStats) bool { return a.n > 0 && a.max-a.min > 25 }
		},
		func() (string, func(aggStats) bool) {
			return "count(rep) > 1 and sum(amount) < 150", func(a aggStats) bool { return a.n > 1 && a.sum < 150 }
		},
	}
	ons := []struct {
		text  string
		fires func(op string, old, new types.Tuple) bool
	}{
		{"", func(string, types.Tuple, types.Tuple) bool { return true }},
		{"insert", func(op string, _, _ types.Tuple) bool { return op == "insert" }},
		{"delete", func(op string, _, _ types.Tuple) bool { return op == "delete" }},
		{"update(sales.amount)", func(op string, old, new types.Tuple) bool {
			return op == "update" && old[1].Int() != new[1].Int()
		}},
	}
	var out []*aggOracleTrigger
	for i := 0; i < n; i++ {
		tr := &aggOracleTrigger{id: i, selected: rng.Intn(3) == 0}
		tr.having, tr.holds = havings[i%len(havings)]()
		on := ons[0]
		if rng.Intn(2) == 0 {
			on = ons[rng.Intn(len(ons))]
		}
		tr.on, tr.fires = on.text, on.fires
		tr.action = []string{"raise", "raise", "insert", "update"}[rng.Intn(4)]
		tr.byRep = tr.action == "raise" && rng.Intn(3) == 0
		tr.v1, tr.v2 = aggExprs[rng.Intn(len(aggExprs))], aggExprs[rng.Intn(len(aggExprs))]
		out = append(out, tr)
	}
	return out
}

// canon renders a value for comparison: ints and floats alike.
func canon(v *float64) string {
	if v == nil {
		return "NULL"
	}
	return strconv.FormatFloat(*v, 'g', -1, 64)
}

func canonValue(v types.Value) string {
	if f, ok := v.AsFloat(); ok {
		return canon(&f)
	}
	return "NULL"
}

// TestAggregateFiringsEqualRecompute drives random histories of inserts,
// deletes and updates — many of them moving a row to another group —
// through 40 generated group-by/having triggers, with a trigger cache
// of one description per shard so that firings keep reloading, and so
// recompiling, the triggers that share a shard. What the actions leave
// — raised events, rows inserted, counters updated — must equal what a
// recompute over the live rows predicts after every token: which
// (trigger, group) pairs fire and with which aggregate values.
func TestAggregateFiringsEqualRecompute(t *testing.T) {
	for _, mode := range []struct {
		name string
		opts Options
	}{
		{"Synchronous", Options{Synchronous: true}},
		{"SourceFIFO", Options{Drivers: 4, SourceFIFO: true}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			opts := mode.opts
			opts.Queue, opts.TriggerCacheSize = MemoryQueue, 1
			sys, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			runAggOracle(t, sys, rand.New(rand.NewSource(7)))
		})
	}
}

func runAggOracle(t *testing.T, sys *System, rng *rand.Rand) {
	sales, err := sys.DefineStreamSource("sales",
		types.Column{Name: "region", Kind: types.KindVarchar},
		types.Column{Name: "amount", Kind: types.KindInt},
		types.Column{Name: "rep", Kind: types.KindVarchar})
	if err != nil {
		t.Fatal(err)
	}
	regions, reps := []string{"a", "b", "c", "d"}, []string{"x", "y"}
	for _, tab := range []struct {
		name string
		cols []types.Column
	}{
		{"firelog", []types.Column{{Name: "trig", Kind: types.KindInt}, {Name: "grp", Kind: types.KindVarchar},
			{Name: "v1", Kind: types.KindFloat}, {Name: "v2", Kind: types.KindFloat}}},
		{"tally", []types.Column{{Name: "trig", Kind: types.KindInt}, {Name: "grp", Kind: types.KindVarchar},
			{Name: "n", Kind: types.KindInt}, {Name: "v", Kind: types.KindFloat}}},
	} {
		if _, err := sys.DB().CreateTable(tab.name, types.MustSchema(tab.cols...)); err != nil {
			t.Fatal(err)
		}
	}
	triggers := genAggTriggers(rng, 40)
	for _, tr := range triggers {
		if err := sys.CreateTrigger(tr.ddl()); err != nil {
			t.Fatalf("%s: %v", tr.ddl(), err)
		}
		if tr.action == "update" {
			for _, r := range regions {
				if _, err := sys.Exec(fmt.Sprintf("insert into tally values (%d, '%s', 0, 0)", tr.id, r)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	sub, err := sys.Subscribe("F", 1<<14)
	if err != nil {
		t.Fatal(err)
	}

	// The model: the live rows, and the (trigger, group) pairs whose
	// having held when last judged, which a transition cannot fire; a
	// group that loses its last row is forgotten, and armed again.
	var live []types.Tuple
	disarmed := map[string]bool{}
	var want []string
	tally := map[string][2]string{} // trig|grp -> firings counted, last value
	groupOf := func(tr *aggOracleTrigger, row types.Tuple) string {
		if tr.byRep {
			return row[0].Str() + "|" + row[2].Str()
		}
		return row[0].Str()
	}
	selected := func(tr *aggOracleTrigger, row types.Tuple) bool {
		return row != nil && (!tr.selected || row[1].Int() >= 20)
	}
	stats := func(tr *aggOracleTrigger, g string) aggStats {
		var a aggStats
		for _, r := range live {
			if !selected(tr, r) || groupOf(tr, r) != g {
				continue
			}
			v := r[1].Int()
			if a.n == 0 || v < a.min {
				a.min = v
			}
			if a.n == 0 || v > a.max {
				a.max = v
			}
			a.n++
			a.sum += float64(v)
		}
		return a
	}
	judge := func(tr *aggOracleTrigger, op string, old, new, rep types.Tuple) {
		g := groupOf(tr, rep)
		a := stats(tr, g)
		key := fmt.Sprint(tr.id, "|", g)
		switch holds := tr.holds(a); {
		case holds && !disarmed[key]:
			disarmed[key] = true
			if !tr.fires(op, old, new) {
				break
			}
			v1, v2 := canon(tr.v1.eval(a)), canon(tr.v2.eval(a))
			if tr.action != "update" {
				want = append(want, fmt.Sprintf("%d %s %s %s", tr.id, g, v1, v2))
			} else if a.n > 0 {
				n, _ := strconv.Atoi(tally[key][0])
				tally[key] = [2]string{strconv.Itoa(n + 1), v2}
			}
		case !holds:
			delete(disarmed, key)
		}
		if a.n == 0 {
			delete(disarmed, key)
		}
	}
	row := func() types.Tuple {
		return types.Tuple{types.NewString(regions[rng.Intn(len(regions))]), types.NewInt(int64(rng.Intn(60))),
			types.NewString(reps[rng.Intn(len(reps))])}
	}
	for step := 0; step < 600; step++ {
		var op string
		var old, new types.Tuple
		switch k := rng.Intn(10); {
		case len(live) < 4 || k < 4:
			op, new = "insert", row()
			live = append(live, new)
			err = sales.Insert(new)
		case k < 7:
			i := rng.Intn(len(live))
			op, old = "delete", live[i]
			live = slices.Delete(live, i, i+1)
			err = sales.Delete(old)
		default:
			i := rng.Intn(len(live))
			op, old, new = "update", live[i], row()
			if rng.Intn(2) == 0 { // the same group, another amount
				new[0], new[2] = old[0], old[2]
			}
			live[i] = new
			err = sales.Update(old, new)
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range triggers {
			left, joined := selected(tr, old), selected(tr, new)
			if left && (!joined || groupOf(tr, old) != groupOf(tr, new)) {
				judge(tr, op, old, new, old)
			}
			if joined {
				judge(tr, op, old, new, new)
			}
		}
	}
	sys.Drain()
	if n := sys.Errors(); n != 0 {
		t.Fatalf("%d errors, last: %v", n, sys.LastError())
	}
	if ev := sys.Stats().TriggerCache.Evictions; ev == 0 {
		t.Fatal("no trigger-cache evictions: firings never reloaded a description")
	}

	var got []string
	for len(sub.C()) > 0 {
		n := <-sub.C()
		got = append(got, fmt.Sprintf("%d %s %s %s", n.Args[0].Int(), groupKey(n.Args[1], n.Args[2], triggers[n.Args[0].Int()].byRep),
			canonValue(n.Args[3]), canonValue(n.Args[4])))
	}
	res, err := sys.Exec("select trig, grp, v1, v2 from firelog")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		got = append(got, fmt.Sprintf("%d %s %s %s", r[0].Int(), r[1].Str(), canonValue(r[2]), canonValue(r[3])))
	}
	slices.Sort(got)
	slices.Sort(want)
	if len(want) < 100 {
		t.Fatalf("only %d firings predicted: the history exercises too little", len(want))
	}
	t.Logf("%d firings, %d tallied (trigger, group) pairs, %d trigger-cache evictions", len(want), len(tally), sys.Stats().TriggerCache.Evictions)
	if !slices.Equal(got, want) {
		t.Errorf("%d firings recorded, %d predicted by recompute; first differences:\n%s", len(got), len(want), firstDiffs(got, want, 10))
	}

	res, err = sys.Exec("select trig, grp, n, v from tally where n > 0")
	if err != nil {
		t.Fatal(err)
	}
	gotTally := map[string][2]string{}
	for _, r := range res.Rows {
		gotTally[fmt.Sprint(r[0].Int(), "|", r[1].Str())] = [2]string{strconv.FormatInt(r[2].Int(), 10), canonValue(r[3])}
	}
	if fmt.Sprint(gotTally) != fmt.Sprint(tally) {
		t.Errorf("tally\n got  %v\n want %v", gotTally, tally)
	}
}

func groupKey(region, rep types.Value, byRep bool) string {
	if byRep {
		return region.Str() + "|" + rep.Str()
	}
	return region.Str()
}

// firstDiffs lists up to n entries that are in one sorted list only.
func firstDiffs(got, want []string, n int) string {
	var out []string
	i, j := 0, 0
	for (i < len(got) || j < len(want)) && len(out) < n {
		switch {
		case j == len(want) || (i < len(got) && got[i] < want[j]):
			out = append(out, "  recorded only:  "+got[i])
			i++
		case i == len(got) || want[j] < got[i]:
			out = append(out, "  predicted only: "+want[j])
			j++
		default:
			i, j = i+1, j+1
		}
	}
	return strings.Join(out, "\n")
}
