package triggerman

import (
	"errors"
	"fmt"
	"testing"

	"triggerman/internal/agg"
	"triggerman/internal/cache"
	"triggerman/internal/catalog"
	"triggerman/internal/datasource"
	"triggerman/internal/discrim"
	"triggerman/internal/event"
	"triggerman/internal/exec"
	"triggerman/internal/expr"
	"triggerman/internal/minisql"
	"triggerman/internal/parser"
	"triggerman/internal/predindex"
	"triggerman/internal/retry"
	"triggerman/internal/storage"
	"triggerman/internal/types"
)

// TestAllocCeilings holds each stage of the token path to the heap
// objects it was measured to allocate per call, so the allocation
// budget (DESIGN.md, "Allocation budget and buffer ownership") cannot
// erode one closure at a time. A ceiling is the measured value, and the
// row says what the objects are; a row at 0 allocates nothing once its
// buffers have grown. AllocsPerRun counts every malloc in the process,
// so the rows run one after another on a quiet system, and not under
// the race detector, which allocates on its own.
func TestAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	for _, row := range allocRows(t) {
		for i := 0; i < 50; i++ {
			row.call() // grow buffers, fill caches
		}
		got := testing.AllocsPerRun(200, row.call)
		t.Logf("%-38s %5.1f allocs/call (ceiling %g)", row.stage, got, row.ceiling)
		if got > row.ceiling {
			t.Errorf("%s: %.1f allocs/call, ceiling %g — %s", row.stage, got, row.ceiling, row.what)
		}
	}
}

type allocRow struct {
	stage   string
	ceiling float64
	what    string // the objects a call at the ceiling allocates
	call    func()
}

var ceilingSchema = types.MustSchema(
	types.Column{Name: "name", Kind: types.KindVarchar},
	types.Column{Name: "salary", Kind: types.KindInt},
)

func allocRows(t *testing.T) []allocRow {
	rows := []allocRow{{
		stage: "retry.Policy.Do, success", ceiling: 0,
		call: func() func() {
			p := retry.Policy{Observe: func(int, error) {}}.WithDefaults()
			ok := func() error { return nil }
			return func() { p.Do(ok) }
		}(),
	}, {
		stage: "BufferPool.FetchPage+Unpin, hit", ceiling: 0,
		call: func() func() {
			bp := storage.NewBufferPool(storage.NewMem(), 8)
			p, err := bp.NewPage()
			if err != nil {
				t.Fatal(err)
			}
			bp.Unpin(p.ID, true)
			return func() {
				bp.FetchPage(p.ID)
				bp.Unpin(p.ID, false)
			}
		}(),
	}, {
		stage: "cache Pin+Unpin, hit", ceiling: 0,
		call: func() func() {
			c := cache.NewSharded(64, func(id uint64) (interface{}, error) { return id, nil })
			return func() {
				c.Pin(7)
				c.Unpin(7)
			}
		}(),
	}}

	// predindex: 40 constants per class, each organization, probed with
	// a caller-owned Buffer.
	for _, org := range []predindex.Organization{predindex.OrgMemoryList, predindex.OrgMemoryIndex, predindex.OrgTable, predindex.OrgIndexedTable} {
		for _, kind := range []string{"equality", "range"} {
			row := allocRow{stage: fmt.Sprintf("Index.Match, %s, %s", org, kind)}
			if org == predindex.OrgTable || org == predindex.OrgIndexedTable {
				// Organizations 3 and 4 ask the SQL processor ("queried as
				// needed", §5.2): the select statement and its where clause,
				// the plan, and per row the query reads — all 40 without the
				// index, else the 1 or 20 that pass — its record, its decoded
				// tuple and strings, the result row and the event mask parsed
				// back from it.
				row.what = "the constant table's select: statement, where clause, plan, and each row read"
				row.ceiling = map[string]float64{
					"table equality": 196, "table range": 200,
					"indexed-table equality": 45, "indexed-table range": 165,
				}[org.String()+" "+kind]
			}
			row.call = matchCall(t, org, kind)
			rows = append(rows, row)
		}
	}

	tok := datasource.Token{SourceID: 1, Op: datasource.OpUpdate,
		Old: types.Tuple{types.NewString("ann"), types.NewInt(10)},
		New: types.Tuple{types.NewString("ann"), types.NewInt(11)}}
	mq := datasource.NewMemQueue()
	tq, err := datasource.NewTableQueue(storage.NewBufferPool(storage.NewMem(), 64))
	if err != nil {
		t.Fatal(err)
	}
	rows = append(rows, allocRow{
		stage: "MemQueue Enqueue+DequeueBatch", ceiling: 1,
		what: "the batch slice handed to the caller",
		call: func() {
			mq.Enqueue(tok)
			mq.DequeueBatch(16)
		},
	}, allocRow{
		stage: "TableQueue Enqueue+DequeueBatch", ceiling: 5,
		what: "the batch slice, and what the decoded token owns: its two images and the string in each",
		call: func() {
			tq.Enqueue(tok)
			tq.DequeueBatch(16)
		},
	})

	// exec: a compiled action run over a caller-owned Env, as the pipeline
	// runs it.
	db, err := minisql.Create(storage.NewBufferPool(storage.NewMem(), 256))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("audit", ceilingSchema); err != nil {
		t.Fatal(err)
	}
	bus := event.NewBus()
	sub, err := bus.Subscribe("raised", 1)
	if err != nil {
		t.Fatal(err)
	}
	exe := &exec.Executor{DB: db, Bus: bus}
	varIndex := map[string]int{"emp": 0}
	schemas := []*types.Schema{ceilingSchema}
	env := &exec.Env{
		Binding:  exec.Binding{VarIndex: varIndex, Tuples: []types.Tuple{tok.New}, Olds: []types.Tuple{tok.Old}},
		SchemaOf: func(int) *types.Schema { return ceilingSchema },
	}
	action := func(text string) parser.Action {
		st, err := parser.Parse("create trigger x from emp do " + text)
		if err != nil {
			t.Fatal(err)
		}
		act := st.(*parser.CreateTrigger).Do
		exec.Compile(act, varIndex, schemas)
		return act
	}
	raise := action("raise event raised(emp.name, emp.salary + 1, :OLD.emp.salary)")
	insert := action("execSQL 'insert into audit values (:NEW.emp.name, :NEW.emp.salary)'")
	rows = append(rows, allocRow{
		stage: "Executor.Run, raise event", ceiling: 1,
		what: "the argument tuple the bus delivers to subscribers",
		call: func() {
			if err := exe.Run(1, raise, env); err != nil {
				t.Fatal(err)
			}
			<-sub.C()
		},
	}, allocRow{
		stage: "Executor.Run, execSQL insert", ceiling: 3,
		what: "the row, the Result and its one-element change list",
		call: func() {
			if err := exe.Run(1, insert, env); err != nil {
				t.Fatal(err)
			}
		},
	})

	rows = append(rows, allocRow{
		stage: "trigger-cache miss, single-variable raise event", ceiling: 25,
		what: "the row read by its RID (record copy, tuple, strings), the parse (tokens, statement, " +
			"when clause, action), the var index, source and schema slices, the description, and the cache entry",
		call: missCall(t),
	})

	// The whole path, Synchronous: capture, enqueue, dequeue, probe, pin,
	// fire, raise.
	sys, err := Open(Options{Synchronous: true, Queue: MemoryQueue,
		TraceSampleEvery: -1, DisableSLO: true, DisableProfiling: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	if _, err := sys.DefineStreamSource("emp", ceilingSchema.Columns...); err != nil {
		t.Fatal(err)
	}
	if err := sys.CreateTrigger("create trigger rich from emp when emp.salary > 5 do raise event rich(emp.name)"); err != nil {
		t.Fatal(err)
	}
	src, _ := sys.reg.ByName("emp")
	ins := datasource.Token{SourceID: src.ID, Op: datasource.OpInsert, New: tok.New}
	ok := func() error { return nil }
	// An aggregate trigger whose group "a" holds one row and group "b"
	// three: a second row crosses a's having and fires, a fourth leaves
	// b's true and fires nothing; deleting either row again fires nothing.
	if _, err := sys.DefineStreamSource("sale", ceilingSchema.Columns...); err != nil {
		t.Fatal(err)
	}
	if err := sys.CreateTrigger("create trigger pair from sale group by name having count(salary) > 1 do raise event pair(sale.name, sum(salary))"); err != nil {
		t.Fatal(err)
	}
	sale, _ := sys.reg.ByName("sale")
	saleTok := func(op datasource.Op, name string) datasource.Token {
		row := types.Tuple{types.NewString(name), types.NewInt(3)}
		if op == datasource.OpDelete {
			return datasource.Token{SourceID: sale.ID, Op: op, Old: row}
		}
		return datasource.Token{SourceID: sale.ID, Op: op, New: row}
	}
	for _, name := range []string{"a", "b", "b", "b"} {
		if err := sys.apply(saleTok(datasource.OpInsert, name)); err != nil {
			t.Fatal(err)
		}
	}
	insDel := func(name string) func() {
		ins, del := saleTok(datasource.OpInsert, name), saleTok(datasource.OpDelete, name)
		return func() {
			if err := errors.Join(sys.apply(ins), sys.apply(del)); err != nil {
				t.Fatal(err)
			}
		}
	}
	rows = append(rows, allocRow{
		// The retry observer once declared its errors.As target before
		// looking at err: one heap object per successful Do.
		stage: "System's action retry policy, success", ceiling: 0,
		call: func() { sys.actionRetry.Do(ok) },
	}, allocRow{
		stage: "System.apply, one single-variable firing", ceiling: 2,
		what: "the dequeued batch slice and the delivered argument tuple",
		call: func() {
			if err := sys.apply(ins); err != nil {
				t.Fatal(err)
			}
		},
	}, allocRow{
		stage: "System.apply, aggregate, no firing", ceiling: 2,
		what: "the two dequeued batch slices",
		call: insDel("b"),
	}, allocRow{
		stage: "System.apply, aggregate firing", ceiling: 5,
		what: "the two batch slices, and the firing's: the Fire list, its aggregate tuple, the delivered argument tuple",
		call: insDel("a"),
	})
	return append(rows, networkRows(t)...)
}

// missCall builds a catalog of 64 single-variable triggers behind a
// trigger cache of 16 and returns a pin+unpin that walks the triggers in
// id order: each shard holds one description and its next pin is 16 ids
// on, so every pin misses and loads a description.
func missCall(t *testing.T) func() {
	db, err := minisql.Create(storage.NewBufferPool(storage.NewMem(), 64))
	if err != nil {
		t.Fatal(err)
	}
	cat, err := catalog.New(catalog.Config{DB: db, Reg: datasource.NewRegistry(),
		Pidx: predindex.New(predindex.WithDB(db)), Cache: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cat.DefineDataSource("emp", ceilingSchema); err != nil {
		t.Fatal(err)
	}
	const n = 64
	for i := 0; i < n; i++ {
		if _, err := cat.CreateTrigger(fmt.Sprintf(
			"create trigger t%d from emp when emp.salary > %d do raise event E%d(emp.name)", i, i, i)); err != nil {
			t.Fatal(err)
		}
	}
	misses0 := cat.Cache().Stats().Misses
	var pins int64
	t.Cleanup(func() {
		if missed := cat.Cache().Stats().Misses - misses0; missed != pins {
			t.Errorf("trigger-cache miss row: %d of %d pins missed", missed, pins)
		}
	})
	return func() {
		pins++
		id := uint64(pins-1)%n + 1
		if _, err := cat.PinTrigger(id); err != nil {
			t.Fatal(err)
		}
		cat.Unpin(id)
	}
}

var hashSink uint64

// networkRows hold the discrimination networks and the aggregates to
// their counts, on §2's salesperson ⋈ represents ⋈ house join with 64
// salespeople and 64 represents rows over 8 neighbourhoods, so a house
// joins 8 (s, r) pairs, and on a group-by/having trigger over houses.
func networkRows(t *testing.T) []allocRow {
	const ddl = `create trigger j from salesperson s, house h, represents r
		when s.spno=r.spno and r.nno=h.nno do raise event J(h.hno)`
	const aggDDL = `create trigger g from house group by nno having count(hno) > 1000 do raise event G(nno)`
	open := func(gator bool) *System {
		sys, err := Open(Options{Synchronous: true, Queue: MemoryQueue, GatorNetworks: gator,
			TraceSampleEvery: -1, DisableSLO: true, DisableProfiling: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sys.Close() })
		sp, house, rep := realEstate(t, sys)
		for _, ddl := range []string{ddl, aggDDL} {
			if err := sys.CreateTrigger(ddl); err != nil {
				t.Fatal(err)
			}
		}
		for i := int64(0); i < 64; i++ {
			if err := errors.Join(sp.Insert(spRow(i, "s")), rep.Insert(repRow(i, i%8))); err != nil {
				t.Fatal(err)
			}
		}
		if err := house.Insert(houseRow(1, "h", 3)); err != nil { // group nno = 3
			t.Fatal(err)
		}
		return sys
	}
	pin := func(sys *System, name string) *catalog.LoadedTrigger {
		id := triggerIDByName(t, sys, name)
		lt, err := sys.cat.PinTrigger(id)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sys.cat.Unpin(id) })
		return lt
	}
	sys := open(false)
	atreat, aggs := pin(sys, "j"), pin(sys, "g")
	gator := pin(open(true), "j")
	var combos int
	count := func(discrim.Combo) bool { combos++; return true }
	want := func(n int) {
		if combos != n {
			t.Fatalf("%d combinations, want %d", combos, n)
		}
		combos = 0
	}
	house := houseRow(2, "h", 3)
	ins := datasource.Token{Op: datasource.OpInsert, New: house}
	del := datasource.Token{Op: datasource.OpDelete, Old: house}
	lonely := datasource.Token{Op: datasource.OpInsert, New: houseRow(3, "h", 99)}
	rep := repRow(99, 3)
	hashed := types.Tuple{types.NewString("ann"), types.NewInt(10), types.NewFloat(-0.5)}
	var sc discrim.Scratch
	// max(v) grouped by g, over one group of 20 distinct values; mid falls
	// between two of them.
	maxOf := agg.NewState([]int{0}, []agg.Spec{{Func: agg.Max, Col: 1}})
	never := func(types.Tuple, types.Tuple) (bool, error) { return false, nil }
	for i := int64(0); i < 20; i++ {
		maxOf.Apply(agg.OpInsert, nil, types.Tuple{types.NewString("g"), types.NewInt(2 * i)}, false, true, never)
	}
	mid := types.Tuple{types.NewString("g"), types.NewInt(21)}
	return []allocRow{{
		stage: "Value.Hash+Tuple.Hash", ceiling: 0,
		call: func() { hashSink = hashed.Hash() ^ hashed[0].Hash() },
	}, {
		stage: "A-TREAT AddTuple+RemoveTuple", ceiling: 0,
		what: "nothing: the row is copied into a freed slot's own tuple, and its chains are resident",
		call: func() {
			atreat.Network.AddTuple(2, rep)
			atreat.Network.RemoveTuple(2, rep)
		},
	}, {
		stage: "A-TREAT Enumerate, no join partner", ceiling: 0,
		what: "nothing: the enumeration's state and combination are the caller's Scratch",
		call: func() {
			atreat.Network.Enumerate(&sc, 1, lonely, count)
			want(0)
		},
	}, {
		stage: "A-TREAT Enumerate, 8 combinations", ceiling: 0,
		what: "nothing: every combination reuses the Scratch",
		call: func() {
			atreat.Network.Enumerate(&sc, 1, ins, count)
			want(8)
		},
	}, {
		stage: "A-TREAT NotifyToken insert+delete", ceiling: 0,
		what: "nothing: the row takes a freed slot, and each token's enumeration a pooled Scratch",
		call: func() {
			atreat.Network.NotifyToken(1, ins, count)
			atreat.Network.NotifyToken(1, del, count)
			want(16)
		},
	}, {
		stage: "Gator NotifyToken insert+delete, catalog's order", ceiling: 38,
		what: "the insert's state and its three per-variable slices, 8 root partials (each a struct and " +
			"two slices; their rows are the seed's and the beta's below, so none copies a slot), the " +
			"growth of the new and the retracted partial lists, and the retraction's environment",
		call: func() {
			gator.Gator.NotifyToken(1, ins, count)
			gator.Gator.NotifyToken(1, del, count)
			want(16)
		},
	}, {
		stage: "State.Apply insert+delete, existing group", ceiling: 0,
		what: "nothing: a group is judged in scratch, and the having's environment is resident",
		call: func() {
			aggs.Agg.State.Apply(agg.OpInsert, nil, house, false, true, aggs.Agg.Having)
			aggs.Agg.State.Apply(agg.OpDelete, house, nil, true, false, aggs.Agg.Having)
		},
	}, {
		stage: "State.Apply insert+delete, max over 20 rows", ceiling: 0,
		what: "nothing: the value goes into, and out of, the middle of the group's sorted multiset in place",
		call: func() {
			maxOf.Apply(agg.OpInsert, nil, mid, false, true, never)
			maxOf.Apply(agg.OpDelete, mid, nil, true, false, never)
		},
	}}
}

// matchCall builds an index of 40 single-constant predicates in one
// class under the given organization and returns a probe that matches
// one (equality) or twenty (range) of them.
func matchCall(t *testing.T, org predindex.Organization, kind string) func() {
	db, err := minisql.Create(storage.NewBufferPool(storage.NewMem(), 256))
	if err != nil {
		t.Fatal(err)
	}
	ix := predindex.New(predindex.WithDB(db), predindex.WithForcedOrganization(org))
	ix.AddSource(1, ceilingSchema)
	for i := 0; i < 40; i++ {
		when := fmt.Sprintf("emp.name = 'n%02d'", i)
		if kind == "range" {
			when = fmt.Sprintf("emp.salary > %d", i)
		}
		n, err := parser.ParseExpr(when)
		if err != nil {
			t.Fatal(err)
		}
		b := &expr.Binder{VarIndex: map[string]int{"emp": 0}, DefaultVar: 0,
			ColumnIndex: func(_ int, col string) int { return ceilingSchema.ColumnIndex(col) }}
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
		ref := predindex.Ref{ExprID: uint64(i + 1), TriggerID: uint64(i + 1)}
		if _, err := ix.AddPredicate(1, predindex.EventMask{AnyOp: true}, sig, consts, ref); err != nil {
			t.Fatal(err)
		}
	}
	tok := datasource.Token{SourceID: 1, Op: datasource.OpInsert,
		New: types.Tuple{types.NewString("n07"), types.NewInt(20)}}
	want := map[string]int{"equality": 1, "range": 20}[kind]
	var buf predindex.Buffer
	return func() {
		buf.Reset()
		if err := ix.Match(&buf, tok, predindex.MatchCtx{Part: predindex.AllParts, Slot: predindex.NoSlot}); err != nil {
			t.Fatal(err)
		}
		if len(buf.Matches) != want {
			t.Fatalf("%s %s: %d matches, want %d", org, kind, len(buf.Matches), want)
		}
	}
}
