package predindex

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"triggerman/internal/datasource"
	"triggerman/internal/expr"
	"triggerman/internal/minisql"
	"triggerman/internal/parser"
	"triggerman/internal/storage"
	"triggerman/internal/types"
)

var empSchema = types.MustSchema(
	types.Column{Name: "name", Kind: types.KindVarchar},
	types.Column{Name: "salary", Kind: types.KindInt},
	types.Column{Name: "dept", Kind: types.KindVarchar},
)

const empSrc = int32(1)

// buildSig parses a when-clause, binds it against emp, and extracts the
// signature — the same pipeline trigger creation uses.
func buildSig(t testing.TB, when string) (*expr.Signature, []types.Value) {
	t.Helper()
	n, err := parser.ParseExpr(when)
	if err != nil {
		t.Fatal(err)
	}
	b := &expr.Binder{
		VarIndex:   map[string]int{"emp": 0},
		DefaultVar: 0,
		ColumnIndex: func(_ int, col string) int {
			return empSchema.ColumnIndex(col)
		},
	}
	if err := b.Bind(n); err != nil {
		t.Fatal(err)
	}
	cnf, err := expr.ToCNF(n)
	if err != nil {
		t.Fatal(err)
	}
	sig, consts, err := expr.ExtractSignature(cnf)
	if err != nil {
		t.Fatal(err)
	}
	return sig, consts
}

func refFor(t testing.TB, sig *expr.Signature, consts []types.Value, exprID, trigID uint64) Ref {
	t.Helper()
	rest, err := expr.InstantiateCNF(sig.Rest, consts)
	if err != nil {
		t.Fatal(err)
	}
	return Ref{ExprID: exprID, TriggerID: trigID, NextNode: int32(exprID), Rest: rest}
}

func insertTok(name string, salary int64, dept string) datasource.Token {
	return datasource.Token{
		SourceID: empSrc,
		Op:       datasource.OpInsert,
		New:      types.Tuple{types.NewString(name), types.NewInt(salary), types.NewString(dept)},
	}
}

func matchAll(t testing.TB, ix *Index, tok datasource.Token) []Match {
	t.Helper()
	var out []Match
	if err := ix.MatchToken(tok, func(m Match) bool {
		out = append(out, m)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func triggerIDs(ms []Match) map[uint64]bool {
	out := map[uint64]bool{}
	for _, m := range ms {
		out[m.TriggerID] = true
	}
	return out
}

func newIx(t testing.TB, opts ...Option) *Index {
	t.Helper()
	ix := New(opts...)
	ix.AddSource(empSrc, empSchema)
	return ix
}

// TestSignatureInterning checks that a signature is a shape: constants
// and trigger count do not make new ones, but a new shape or event mask
// does. It then checks E6's plateau (§5: "only a relatively small
// number of unique expression signatures will ever be observed"):
// triggers drawn from an 8-shape pool leave exactly 8 signatures at 10²
// triggers and still 8 at 10³.
//
// Planted regression: signatures interned by their instance text, with
// the constants left in, make one signature per trigger and fail at 100.
func TestSignatureInterning(t *testing.T) {
	shapes := []string{
		"emp.name = 'u%[1]d'",
		"emp.salary > %[1]d",
		"emp.dept = 'd%[1]d'",
		"emp.salary < %[1]d",
		"emp.name = 'u%[1]d' and emp.salary > %[1]d",
		"emp.dept = 'd%[1]d' and emp.salary < %[1]d",
		"emp.salary >= %[1]d",
		"emp.name = 'u%[1]d' and emp.dept = 'd%[1]d'",
	}
	pool := newIx(t)
	added := 0
	for _, n := range []int{100, 1_000} {
		for ; added < n; added++ {
			sig, consts := buildSig(t, fmt.Sprintf(shapes[added%len(shapes)], added))
			id := uint64(added + 1)
			if _, err := pool.AddPredicate(empSrc, EventMask{AnyOp: true}, sig, consts, refFor(t, sig, consts, id, id)); err != nil {
				t.Fatal(err)
			}
		}
		if got := pool.SignatureCount(empSrc); got != len(shapes) {
			t.Fatalf("%d triggers from %d shapes: signatures = %d", n, len(shapes), got)
		}
	}

	ix := newIx(t)
	mask := EventMask{AnyOp: true}
	// 100 triggers, same shape, different constants -> ONE signature.
	for i := 0; i < 100; i++ {
		sig, consts := buildSig(t, fmt.Sprintf("emp.salary > %d", i*1000))
		if _, err := ix.AddPredicate(empSrc, mask, sig, consts, refFor(t, sig, consts, uint64(i+1), uint64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if got := ix.SignatureCount(empSrc); got != 1 {
		t.Fatalf("signatures = %d, want 1", got)
	}
	// A different shape adds a second signature.
	sig, consts := buildSig(t, "emp.name = 'Bob'")
	ix.AddPredicate(empSrc, mask, sig, consts, refFor(t, sig, consts, 1000, 1000))
	if got := ix.SignatureCount(empSrc); got != 2 {
		t.Fatalf("signatures = %d, want 2", got)
	}
	// Same shape but different event mask is a distinct signature (the
	// signature triple includes the operation code).
	sig2, consts2 := buildSig(t, "emp.name = 'Bob'")
	ix.AddPredicate(empSrc, EventMask{Op: datasource.OpDelete}, sig2, consts2, refFor(t, sig2, consts2, 1001, 1001))
	if got := ix.SignatureCount(empSrc); got != 3 {
		t.Fatalf("signatures = %d, want 3", got)
	}
}

func TestMatchEquality(t *testing.T) {
	for _, org := range []Organization{OrgMemoryList, OrgMemoryIndex} {
		t.Run(org.String(), func(t *testing.T) {
			ix := newIx(t, WithForcedOrganization(org))
			mask := EventMask{AnyOp: true}
			for i := uint64(1); i <= 50; i++ {
				sig, consts := buildSig(t, fmt.Sprintf("emp.name = 'user%02d'", i))
				ix.AddPredicate(empSrc, mask, sig, consts, refFor(t, sig, consts, i, i))
			}
			ms := matchAll(t, ix, insertTok("user07", 1, "eng"))
			if len(ms) != 1 || ms[0].TriggerID != 7 {
				t.Fatalf("matches = %+v", ms)
			}
			if len(matchAll(t, ix, insertTok("nobody", 1, "eng"))) != 0 {
				t.Error("spurious match")
			}
		})
	}
}

func TestMatchRange(t *testing.T) {
	for _, org := range []Organization{OrgMemoryList, OrgMemoryIndex} {
		t.Run(org.String(), func(t *testing.T) {
			ix := newIx(t, WithForcedOrganization(org))
			mask := EventMask{AnyOp: true}
			for i := uint64(1); i <= 10; i++ {
				sig, consts := buildSig(t, fmt.Sprintf("emp.salary > %d", i*10000))
				ix.AddPredicate(empSrc, mask, sig, consts, refFor(t, sig, consts, i, i))
			}
			ms := matchAll(t, ix, insertTok("x", 55000, "d"))
			if len(ms) != 5 { // thresholds 10k..50k
				t.Fatalf("matched %d, want 5", len(ms))
			}
			if len(matchAll(t, ix, insertTok("x", 5000, "d"))) != 0 {
				t.Error("below all thresholds should not match")
			}
		})
	}
}

func TestMatchRestOfPredicate(t *testing.T) {
	ix := newIx(t)
	mask := EventMask{AnyOp: true}
	// dept='eng' indexable; salary > 50000 is the rest.
	sig, consts := buildSig(t, "emp.dept = 'eng' and emp.salary > 50000")
	ix.AddPredicate(empSrc, mask, sig, consts, refFor(t, sig, consts, 1, 1))
	if len(matchAll(t, ix, insertTok("a", 60000, "eng"))) != 1 {
		t.Error("should match")
	}
	if len(matchAll(t, ix, insertTok("a", 40000, "eng"))) != 0 {
		t.Error("rest should reject low salary")
	}
	if len(matchAll(t, ix, insertTok("a", 60000, "ops"))) != 0 {
		t.Error("index should reject wrong dept")
	}
	st := ix.Stats()
	if st.RestTests == 0 {
		t.Error("rest tests not counted")
	}
}

func TestEventMaskFiltering(t *testing.T) {
	ix := newIx(t)
	sig, consts := buildSig(t, "emp.salary > 0")
	// insert-only trigger
	ix.AddPredicate(empSrc, EventMask{Op: datasource.OpInsert}, sig, consts, refFor(t, sig, consts, 1, 1))
	// delete-only trigger
	sig2, consts2 := buildSig(t, "emp.salary > 0")
	ix.AddPredicate(empSrc, EventMask{Op: datasource.OpDelete}, sig2, consts2, refFor(t, sig2, consts2, 2, 2))
	// update(salary) trigger
	sig3, consts3 := buildSig(t, "emp.salary > 0")
	ix.AddPredicate(empSrc, EventMask{Op: datasource.OpUpdate, Columns: []int{1}}, sig3, consts3, refFor(t, sig3, consts3, 3, 3))

	ins := insertTok("a", 10, "d")
	if ids := triggerIDs(matchAll(t, ix, ins)); !ids[1] || ids[2] || ids[3] {
		t.Errorf("insert matched %v", ids)
	}
	del := datasource.Token{SourceID: empSrc, Op: datasource.OpDelete,
		Old: types.Tuple{types.NewString("a"), types.NewInt(10), types.NewString("d")}}
	if ids := triggerIDs(matchAll(t, ix, del)); ids[1] || !ids[2] || ids[3] {
		t.Errorf("delete matched %v", ids)
	}
	// update changing salary fires the update(salary) trigger
	upd := datasource.Token{SourceID: empSrc, Op: datasource.OpUpdate,
		Old: types.Tuple{types.NewString("a"), types.NewInt(10), types.NewString("d")},
		New: types.Tuple{types.NewString("a"), types.NewInt(20), types.NewString("d")}}
	if ids := triggerIDs(matchAll(t, ix, upd)); ids[1] || ids[2] || !ids[3] {
		t.Errorf("update(salary) matched %v", ids)
	}
	// update changing only dept does NOT fire update(salary)
	upd2 := datasource.Token{SourceID: empSrc, Op: datasource.OpUpdate,
		Old: types.Tuple{types.NewString("a"), types.NewInt(10), types.NewString("d")},
		New: types.Tuple{types.NewString("a"), types.NewInt(10), types.NewString("e")}}
	if ids := triggerIDs(matchAll(t, ix, upd2)); ids[3] {
		t.Errorf("update(dept) wrongly fired update(salary) trigger: %v", ids)
	}
}

func TestImplicitInsertOrUpdate(t *testing.T) {
	ix := newIx(t)
	sig, consts := buildSig(t, "emp.salary > 0")
	ix.AddPredicate(empSrc, EventMask{AnyOp: true}, sig, consts, refFor(t, sig, consts, 1, 1))
	if len(matchAll(t, ix, insertTok("a", 5, "d"))) != 1 {
		t.Error("insert should match AnyOp")
	}
	del := datasource.Token{SourceID: empSrc, Op: datasource.OpDelete,
		Old: types.Tuple{types.NewString("a"), types.NewInt(5), types.NewString("d")}}
	if len(matchAll(t, ix, del)) != 0 {
		t.Error("delete should not match AnyOp (insert-or-update)")
	}
}

// TestNormalizedSharedConstant is E8 (§5.3, Figure 4): N triggers with
// the SAME constant share one constant entry with an N-element
// triggerID set, so a matching probe and a non-matching probe each cost
// one constant compare at every N, in the list as in the hash index.
//
// Planted regression: a list that gives each shared constant its own
// entry (memList.add skipping its dedup lookup) compares N constants,
// and the mm-list case fails from N = 10 on.
func TestNormalizedSharedConstant(t *testing.T) {
	for _, org := range []Organization{OrgMemoryList, OrgMemoryIndex} {
		for _, n := range []int{10, 100, 1_000} {
			ix := newIx(t, WithForcedOrganization(org))
			addConstants(t, ix, "emp.name = 'x'", n, func(int) types.Value { return types.NewString("shared") })
			if got, want := costOf(t, ix, insertTok("shared", 1, "d")), (probeCost{1, 1, 0, int64(n)}); got != want {
				t.Errorf("%s N=%d matching probe: cost %+v, want %+v", org, n, got, want)
			}
			if got, want := costOf(t, ix, insertTok("other", 1, "d")), (probeCost{1, 1, 0, 0}); got != want {
				t.Errorf("%s N=%d non-matching probe: cost %+v, want %+v", org, n, got, want)
			}
		}
	}
}

func TestPartitionedTriggerIDSets(t *testing.T) {
	ix := newIx(t)
	mask := EventMask{AnyOp: true}
	var entry *SignatureEntry
	for i := uint64(1); i <= 40; i++ {
		sig, consts := buildSig(t, "emp.name = 'hot'")
		e, err := ix.AddPredicate(empSrc, mask, sig, consts, refFor(t, sig, consts, i, i))
		if err != nil {
			t.Fatal(err)
		}
		entry = e
	}
	if err := entry.SetPartitions(4); err != nil {
		t.Fatal(err)
	}
	if snap := ix.Snapshot(); len(snap) != 1 || snap[0].Partitions != 4 {
		t.Errorf("partition count: %+v", snap)
	}
	tok := insertTok("hot", 1, "d")
	seen := map[uint64]int{}
	total := 0
	for p := 0; p < 4; p++ {
		var buf Buffer
		if err := ix.Match(&buf, tok, MatchCtx{Part: p, Slot: NoSlot}); err != nil {
			t.Fatal(err)
		}
		ms := buf.Matches
		if len(ms) != 10 {
			t.Errorf("partition %d matched %d, want 10", p, len(ms))
		}
		for _, m := range ms {
			seen[m.TriggerID]++
			total++
		}
	}
	if total != 40 || len(seen) != 40 {
		t.Fatalf("partitions cover %d unique of %d total", len(seen), total)
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("trigger %d seen %d times", id, n)
		}
	}
}

func TestRemovePredicate(t *testing.T) {
	ix := newIx(t)
	mask := EventMask{AnyOp: true}
	sig, consts := buildSig(t, "emp.name = 'x'")
	entry, err := ix.AddPredicate(empSrc, mask, sig, consts, refFor(t, sig, consts, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.RemovePredicate(entry, consts, 1); err != nil {
		t.Fatal(err)
	}
	if len(matchAll(t, ix, insertTok("x", 1, "d"))) != 0 {
		t.Error("removed predicate still matches")
	}
	if err := ix.RemovePredicate(entry, consts, 1); err == nil {
		t.Error("double remove should fail")
	}
}

// TestAdaptiveReorganization grows one class online from 1 to 40
// constants and checks E12's shape: at every class size the
// organization the index holds is the one its cost model's Choose
// prices cheapest. The model's crossovers (list up to 4, hash index up
// to 20, then the indexed table) put all three in the sweep, and every
// constant still matches after two migrations.
//
// Planted regression: a list threshold tested with < instead of <= in
// maybeReorganize migrates at 4 constants, and the test fails there
// with "size 4: org mm-index, cost model chooses mm-list".
func TestAdaptiveReorganization(t *testing.T) {
	bp := storage.NewBufferPool(storage.NewMem(), 512)
	db, err := minisql.Create(bp)
	if err != nil {
		t.Fatal(err)
	}
	model := DefaultCostModel
	model.ListPerEntry = 25       // list ≤ hash probe up to (600-500)/25 = 4 constants
	model.MemoryBudget = 20 * 256 // 20 constants of 256 B fit in memory
	if p := model.Policy(); p != (Policy{ListMax: 4, MemMax: 20}) {
		t.Fatalf("model policy = %+v", p)
	}
	ix := newIx(t, WithDB(db), WithCostModel(model))
	mask := EventMask{AnyOp: true}
	seen := map[Organization]bool{}
	var entry *SignatureEntry
	for i := uint64(1); i <= 40; i++ {
		sig, consts := buildSig(t, fmt.Sprintf("emp.name = 'u%04d'", i))
		e, err := ix.AddPredicate(empSrc, mask, sig, consts, refFor(t, sig, consts, i, i))
		if err != nil {
			t.Fatal(err)
		}
		entry = e
		if got, want := entry.Organization(), model.Choose(entry.Size()); got != want {
			t.Fatalf("size %d: org %s, cost model chooses %s", entry.Size(), got, want)
		}
		seen[entry.Organization()] = true
	}
	if len(seen) != 3 {
		t.Fatalf("organizations over the sweep = %v, want list, hash index and indexed table", seen)
	}
	// All 40 still matchable after two migrations.
	for _, probe := range []uint64{1, 10, 25, 40} {
		ms := matchAll(t, ix, insertTok(fmt.Sprintf("u%04d", probe), 1, "d"))
		if len(ms) != 1 || ms[0].TriggerID != probe {
			t.Fatalf("probe %d after migration: %+v", probe, ms)
		}
	}
	if entry.Size() != 40 {
		t.Errorf("size = %d", entry.Size())
	}
}

// TestTableOrganizations checks both table organizations (§5.2) for
// matching, rest tests, range signatures and removal, and then E2's
// page-read shape: behind an 8-page buffer pool, a probe of the
// clustered-index table fetches 3 pages at 256 constants and at 4,096,
// while the scan fetches 6 and 96. The indexed table may grow by at
// most one fetch per 16× more constants; the scan must grow in
// proportion to its full pages.
//
// Planted regression: an indexed table built without its index
// (newTableSet called with indexed = false) scans, and the
// indexed-table case fails with 96 fetches against a bound of 7.
func TestTableOrganizations(t *testing.T) {
	for _, org := range []Organization{OrgTable, OrgIndexedTable} {
		t.Run(org.String(), func(t *testing.T) {
			small, large := pageFetchesPerProbe(t, org, 256), pageFetchesPerProbe(t, org, 4096)
			if org == OrgIndexedTable && large > small+1 {
				t.Errorf("indexed-table page fetches per probe %.1f at 256 constants, %.1f at 4,096: want at most one more", small, large)
			}
			if org == OrgTable && large < 16*(small-1) {
				t.Errorf("table-scan page fetches per probe %.1f at 256 constants, %.1f at 4,096: want at least 16x the full pages", small, large)
			}

			bp := storage.NewBufferPool(storage.NewMem(), 512)
			db, _ := minisql.Create(bp)
			ix := newIx(t, WithDB(db), WithForcedOrganization(org))
			mask := EventMask{AnyOp: true}
			var entry *SignatureEntry
			for i := uint64(1); i <= 60; i++ {
				// include a rest clause to exercise text roundtrip
				sig, consts := buildSig(t, fmt.Sprintf("emp.name = 'u%02d' and emp.salary > %d", i, i*100))
				e, err := ix.AddPredicate(empSrc, mask, sig, consts, refFor(t, sig, consts, i, i))
				if err != nil {
					t.Fatal(err)
				}
				entry = e
			}
			if entry.Organization() != org {
				t.Fatalf("org = %s", entry.Organization())
			}
			ms := matchAll(t, ix, insertTok("u07", 100000, "d"))
			if len(ms) != 1 || ms[0].TriggerID != 7 {
				t.Fatalf("matches = %+v", ms)
			}
			// rest rejects low salary (u07 requires > 700)
			if len(matchAll(t, ix, insertTok("u07", 500, "d"))) != 0 {
				t.Error("rest should reject")
			}
			// range-indexable signature through a table
			sigR, constsR := buildSig(t, "emp.salary > 100000")
			if _, err := ix.AddPredicate(empSrc, mask, sigR, constsR, refFor(t, sigR, constsR, 1000, 1000)); err != nil {
				t.Fatal(err)
			}
			ms = matchAll(t, ix, insertTok("nobody", 150000, "d"))
			if len(ms) != 1 || ms[0].TriggerID != 1000 {
				t.Fatalf("range table matches = %+v", ms)
			}
			// removal
			if err := ix.RemovePredicate(entry, mustConsts(t, "u07", 700), 7); err != nil {
				t.Fatal(err)
			}
			if len(matchAll(t, ix, insertTok("u07", 100000, "d"))) != 0 {
				t.Error("removed row still matches")
			}
		})
	}
}

func mustConsts(t *testing.T, name string, sal int64) []types.Value {
	t.Helper()
	return []types.Value{types.NewString(name), types.NewInt(sal)}
}

func TestTableOrgRequiresDB(t *testing.T) {
	ix := newIx(t, WithForcedOrganization(OrgIndexedTable))
	sig, consts := buildSig(t, "emp.name = 'x'")
	if _, err := ix.AddPredicate(empSrc, EventMask{AnyOp: true}, sig, consts, Ref{ExprID: 1}); err == nil {
		t.Error("table org without DB should fail")
	}
}

func TestUnknownSource(t *testing.T) {
	ix := New()
	sig, consts := buildSig(t, "emp.name = 'x'")
	if _, err := ix.AddPredicate(99, EventMask{}, sig, consts, Ref{}); err == nil {
		t.Error("unknown source add should fail")
	}
	tok := datasource.Token{SourceID: 99, Op: datasource.OpInsert, New: types.Tuple{}}
	if err := ix.MatchToken(tok, func(Match) bool { return true }); err == nil {
		t.Error("unknown source probe should fail")
	}
}

func TestNonIndexableSignature(t *testing.T) {
	// (name='a' OR dept='b'): disjunction, nothing indexable; matching
	// relies on rest tests for every member.
	ix := newIx(t)
	mask := EventMask{AnyOp: true}
	for i := uint64(1); i <= 5; i++ {
		sig, consts := buildSig(t, fmt.Sprintf("emp.name = 'n%d' or emp.dept = 'd%d'", i, i))
		ix.AddPredicate(empSrc, mask, sig, consts, refFor(t, sig, consts, i, i))
	}
	ms := matchAll(t, ix, insertTok("n3", 1, "d5"))
	if ids := triggerIDs(ms); len(ids) != 2 || !ids[3] || !ids[5] {
		t.Fatalf("matched %v, want {3,5}", ids)
	}
}

func TestMatchEarlyStop(t *testing.T) {
	ix := newIx(t)
	mask := EventMask{AnyOp: true}
	for i := uint64(1); i <= 20; i++ {
		sig, consts := buildSig(t, "emp.name = 'x'")
		ix.AddPredicate(empSrc, mask, sig, consts, refFor(t, sig, consts, i, i))
	}
	n := 0
	ix.MatchToken(insertTok("x", 1, "d"), func(Match) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Errorf("early stop saw %d", n)
	}
}

func TestStatsCounting(t *testing.T) {
	ix := newIx(t)
	sig, consts := buildSig(t, "emp.name = 'x'")
	ix.AddPredicate(empSrc, EventMask{AnyOp: true}, sig, consts, refFor(t, sig, consts, 1, 1))
	matchAll(t, ix, insertTok("x", 1, "d"))
	matchAll(t, ix, insertTok("y", 1, "d"))
	st := ix.Stats()
	if st.Tokens != 2 || st.Matches != 1 || st.SigProbes != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestOrganizationString(t *testing.T) {
	for _, o := range []Organization{OrgAuto, OrgMemoryList, OrgMemoryIndex, OrgTable, OrgIndexedTable} {
		if o.String() == "" {
			t.Error("empty org name")
		}
	}
}

func TestEventMaskCodec(t *testing.T) {
	masks := []EventMask{
		{Op: datasource.OpInsert},
		{Op: datasource.OpDelete},
		{Op: datasource.OpUpdate, Columns: []int{1, 3}},
		{AnyOp: true},
		{AllOps: true},
	}
	for _, m := range masks {
		back, err := DecodeEventMask(m.Encode())
		if err != nil {
			t.Fatalf("%+v: %v", m, err)
		}
		if back.Encode() != m.Encode() {
			t.Errorf("roundtrip %+v -> %+v", m, back)
		}
	}
	for _, bad := range []string{"", "bogus|", "update|x", "insert"} {
		if _, err := DecodeEventMask(bad); err == nil {
			t.Errorf("%q should fail", bad)
		}
	}
}

func TestConcurrentProbesDuringWrites(t *testing.T) {
	// The match path must stay correct (and race-free) while writers
	// swap copy-on-write signature lists and the root source map
	// underneath it: probers, AddPredicate interning new signatures,
	// and AddSource registering fresh sources all run concurrently.
	ix := newIx(t)
	mask := EventMask{Op: datasource.OpInsert}
	sig, consts := buildSig(t, "emp.salary == 100")
	if _, err := ix.AddPredicate(empSrc, mask, sig, consts, refFor(t, sig, consts, 1, 1)); err != nil {
		t.Fatal(err)
	}
	tok := insertTok("ann", 100, "eng")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var n int
				if err := ix.MatchToken(tok, func(Match) bool { n++; return true }); err != nil {
					t.Error(err)
					return
				}
				if n < 1 {
					t.Errorf("probe lost the seed predicate: %d matches", n)
					return
				}
			}
		}()
	}
	// Writer 1: intern new signature entries on the probed source (COW
	// list swaps under the probers' feet). Constants generalize into
	// one signature, so distinct update-column masks force distinct
	// entries; inserts ignore the column filter, keeping every entry on
	// the probers' path.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			m := EventMask{Op: datasource.OpInsert, Columns: []int{i + 1}}
			s, c := buildSig(t, fmt.Sprintf("emp.salary == %d", 1000+i))
			if _, err := ix.AddPredicate(empSrc, m, s, c, refFor(t, s, c, uint64(100+i), uint64(100+i))); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// Writer 2: grow the root source map (root pointer swaps).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int32(2); i < 100; i++ {
			ix.AddSource(i, empSchema)
		}
	}()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	if got := ix.SignatureCount(empSrc); got != 201 {
		t.Errorf("signature count = %d, want 201", got)
	}
	if got := len(matchAll(t, ix, tok)); got != 1 {
		t.Errorf("final probe matched %d refs, want 1", got)
	}
}

func TestConcurrentAddPredicateSameSignature(t *testing.T) {
	// Concurrent adds that intern the SAME signature must not lose
	// instances or publish a duplicate entry.
	ix := newIx(t)
	mask := EventMask{Op: datasource.OpInsert}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				id := uint64(g*1000 + i + 1)
				s, c := buildSig(t, fmt.Sprintf("emp.salary == %d", id))
				if _, err := ix.AddPredicate(empSrc, mask, s, c, refFor(t, s, c, id, id)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := ix.SignatureCount(empSrc); got != 1 {
		t.Fatalf("signature count = %d, want 1 (same shape interned once)", got)
	}
	es := ix.Signatures(empSrc)
	if len(es) != 1 || es[0].Size() != 200 {
		t.Fatalf("entry size = %d, want 200 instances", es[0].Size())
	}
}
