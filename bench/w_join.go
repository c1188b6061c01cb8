package main

import (
	"fmt"

	"triggerman"
	"triggerman/internal/types"
)

// join_aggregate: the state-heavy workload. Four stream sources, 64
// three-variable A-TREAT triggers of the paper's IrisHouseAlert shape
// (each with its own selection constants) and 32 group-by/having
// triggers, processed through the ordered (per-source serial) dispatch
// path.
//
// The issue's mix inserts houses more often than it deletes them (50 %
// against 15 %) and asks that memory rows hover at the seeded level.
// Both hold because seven in ten inserted houses are priced below every
// trigger's threshold: they are probed, fire the catch-all and enter no
// memory. Deletes remove the oldest house that is in a memory.
const (
	joinRichShare = 0.30
	joinPriceCut  = 1000 // poor houses: [0, cut); rich houses and thresholds: [cut, 2*cut)
	joinHoods     = 50
	joinCapRate   = 30000
)

const (
	srcSP uint8 = iota
	srcHouse
	srcRep
	srcSale
)

// joinModel is the harness's own copy of the join workload's triggers
// and how ops change the base tables.
type joinModel struct {
	joins []joinTrigger
	aggs  []aggTrigger
}

// apply performs one op on the harness's base tables.
func (b *baseTables) apply(o *op) {
	switch o.src {
	case srcSP:
		b.sp[o.f[0]] = spRow{spno: o.f[0], name: o.f[1]}
	case srcHouse:
		if o.kind == opDelete {
			delete(b.house, o.old[0])
		} else {
			b.house[o.f[0]] = houseRow{hno: o.f[0], price: o.f[1], nno: o.f[2]}
		}
	case srcRep: // f[2] is the harness's row handle, not a column
		b.rep[o.f[2]] = repRow{spno: o.f[0], nno: o.f[1]}
	case srcSale:
		if o.kind == opDelete {
			delete(b.sale, o.old[2])
		} else {
			b.sale[o.f[2]] = saleRow{region: o.f[0], amount: o.f[1]}
		}
	}
}

func buildJoin(seed uint64, sc scale) *spec {
	r := newRNG(seed ^ 0x70)
	nJoin, nAgg := sc.pick(64, 8), sc.pick(32, 4)
	nSP, nRep := sc.pick(100, 16), sc.pick(200, 40)
	nHouse, nSale := sc.pick(1100, 150), sc.pick(640, 80)
	spNames := make([]string, nSP)
	for i := range spNames {
		spNames[i] = fmt.Sprintf("sp%03d", i)
	}
	regions := make([]string, nAgg)
	for i := range regions {
		regions[i] = fmt.Sprintf("region%02d", i)
	}

	sp := &spec{
		name: "join_aggregate",
		sources: []sourceDef{
			{name: "salesperson", cols: []types.Column{intCol("spno"), strCol("name"), intCol("ts")}},
			{name: "house", cols: []types.Column{intCol("hno"), intCol("price"), intCol("nno"), intCol("ts")}},
			{name: "represents", cols: []types.Column{intCol("spno"), intCol("nno"), intCol("ts")}},
			{name: "sale", cols: []types.Column{strCol("region"), intCol("amount"), intCol("ts")}},
		},
		options: func(string) triggerman.Options {
			return triggerman.Options{Queue: triggerman.MemoryQueue, SourceFIFO: true, Drivers: 2}
		},
		rateLo: joinRateLo, rateHi: joinRateHi,
		fill: func(src uint8, f [4]int32, ts int64, dst types.Tuple) {
			switch src {
			case srcSP:
				dst[0], dst[1] = types.NewInt(int64(f[0])), types.NewString(spNames[f[1]])
			case srcHouse:
				dst[0], dst[1], dst[2] = types.NewInt(int64(f[0])), types.NewInt(int64(f[1])), types.NewInt(int64(f[2]))
			case srcRep:
				dst[0], dst[1] = types.NewInt(int64(f[0])), types.NewInt(int64(f[1]))
			case srcSale:
				dst[0], dst[1] = types.NewString(regions[f[0]]), types.NewInt(int64(f[1]))
			}
			dst[len(dst)-1] = types.NewInt(ts)
		},
	}

	var model joinModel
	for i := 0; i < nJoin; i++ {
		t := joinTrigger{name: int32(i % nSP), minPrice: int32(joinPriceCut + r.intn(joinPriceCut))}
		model.joins = append(model.joins, t)
		sp.ddl = append(sp.ddl, fmt.Sprintf(
			"create trigger j%02d on insert to house from salesperson s, house h, represents r "+
				"when s.name = '%s' and s.spno = r.spno and r.nno = h.nno and h.price >= %d "+
				"do raise event j(h.ts, r.ts, s.ts)", i, spNames[t.name], t.minPrice))
	}
	for i := 0; i < nAgg; i++ {
		// Amounts are positive, so having turns true only on an insert, and
		// that insert's ts is then the group's max(ts).
		k := int32(10 + r.intn(20))
		t := aggTrigger{k: k, m: 45 * (k + 1)}
		model.aggs = append(model.aggs, t)
		sp.ddl = append(sp.ddl, fmt.Sprintf(
			"create trigger g%02d from sale group by region "+
				"having count(region) > %d and sum(amount) > %d do raise event a(max(ts))", i, t.k, t.m))
	}
	for _, s := range []string{"salesperson", "house", "represents", "sale"} {
		sp.ddl = append(sp.ddl,
			fmt.Sprintf("create trigger t_%s from %s do raise event t(%s.ts)", s, s, s),
			fmt.Sprintf("create trigger d_%s from %s on delete to %s do raise event d(%s.ts)", s, s, s, s))
	}

	// Seeding: the rows every alpha memory starts with. With 64 triggers,
	// 200 represents rows and half of 1,100 rich houses passing each
	// trigger's threshold, the memories hold 64 x (1 + 200 + 550) = 48,000
	// rows.
	type liveRow struct {
		f  [4]int32
		ts int32
	}
	var richHouses, sales []liveRow // oldest first
	var reps []liveRow
	nextTS := func(stream bool, i int) int32 {
		if stream {
			return int32(i)
		}
		return int32(-1 - i)
	}
	emit := func(ops *[]op, o op) *op {
		*ops = append(*ops, o)
		return &(*ops)[len(*ops)-1]
	}
	newHouse := func(ops *[]op, stream bool, hno int, rich bool) {
		price := r.intn(joinPriceCut)
		if rich {
			price += joinPriceCut
		}
		o := emit(ops, op{kind: opInsert, src: srcHouse, expect: 1,
			f: [4]int32{int32(hno), int32(price), int32(r.intn(joinHoods)), 0}})
		if rich {
			richHouses = append(richHouses, liveRow{o.f, nextTS(stream, len(*ops)-1)})
		}
	}
	newSale := func(ops *[]op, stream bool, handle int) {
		o := emit(ops, op{kind: opInsert, src: srcSale, expect: 1,
			f: [4]int32{int32(r.intn(nAgg)), int32(1 + r.intn(100)), int32(handle), 0}})
		sales = append(sales, liveRow{o.f, nextTS(stream, len(*ops)-1)})
	}
	for i := 0; i < nSP; i++ {
		emit(&sp.seedOps, op{kind: opInsert, src: srcSP, f: [4]int32{int32(i), int32(i), 0, 0}})
	}
	for i := 0; i < nRep; i++ {
		o := emit(&sp.seedOps, op{kind: opInsert, src: srcRep,
			f: [4]int32{int32(r.intn(nSP)), int32(r.intn(joinHoods)), int32(i), 0}})
		reps = append(reps, liveRow{o.f, nextTS(false, len(sp.seedOps)-1)})
	}
	for i := 0; i < nHouse; i++ {
		newHouse(&sp.seedOps, false, i, true)
	}
	for i := 0; i < nSale; i++ {
		newSale(&sp.seedOps, false, i)
	}

	// The stream: 50 % house insert, 15 % house delete, 10 % represents
	// update, 12.5 % sale insert, 12.5 % sale delete.
	n := streamLength(joinCapRate, sp.rateLo, sp.rateHi, sc.seconds)
	sp.stream = make([]op, 0, n)
	for i := 0; i < n; i++ {
		p := r.float()
		switch {
		case p < 0.50:
			newHouse(&sp.stream, true, 1<<20+i, r.float() < joinRichShare)
		case p < 0.65 && len(richHouses) > nHouse/2:
			h := richHouses[0]
			richHouses = richHouses[1:]
			emit(&sp.stream, op{kind: opDelete, src: srcHouse, expect: 1, old: h.f, oldTS: h.ts})
		case p < 0.75:
			row := &reps[r.intn(len(reps))]
			o := emit(&sp.stream, op{kind: opUpdate, src: srcRep, expect: 1, old: row.f, oldTS: row.ts})
			row.f[1] = int32(r.intn(joinHoods))
			row.ts = int32(i)
			o.f = row.f
		case p < 0.875 && len(sales) > nSale/2:
			s := sales[0]
			sales = sales[1:]
			emit(&sp.stream, op{kind: opDelete, src: srcSale, expect: 1, old: s.f, oldTS: s.ts})
		default:
			newSale(&sp.stream, true, 1<<20+i)
		}
	}
	sp.meanFirings = 1

	tablesAfter := func(sent int) *baseTables {
		b := newBaseTables()
		for i := range sp.seedOps {
			b.apply(&sp.seedOps[i])
		}
		for i := 0; i < sent; i++ {
			b.apply(&sp.stream[i])
		}
		return b
	}
	// Veldhuizen's criterion: after Drain, what the system maintained
	// incrementally equals a recompute from scratch over the base tables.
	sp.check = func(rn *runner, sent int) []string {
		b := tablesAfter(sent)
		if sp.perturb != nil {
			sp.perturb(b)
		}
		return model.compare(rn.in, b)
	}
	sp.stateCalls = func(first, last int) stateCalls {
		var c stateCalls
		for i := first; i < last; i++ {
			switch o := &sp.stream[i]; o.src {
			case srcHouse:
				price := o.f[1]
				if o.kind == opDelete {
					price = o.old[1]
				}
				for _, t := range model.joins {
					if price >= t.minPrice {
						if o.kind == opDelete {
							c.remove++
						} else {
							c.notify++
						}
					}
				}
			case srcRep:
				c.remove += int64(nJoin)
				c.notify += int64(nJoin)
			case srcSale:
				c.apply += int64(nAgg)
			}
		}
		return c
	}
	// In a Synchronous run tokens are processed in send order, so the
	// firings of every single token are determined: check them all.
	sp.syncCheck = func(rn *runner, sent int) []string {
		tally := &rn.tally
		b := newBaseTables()
		for i := range sp.seedOps {
			b.apply(&sp.seedOps[i])
		}
		var bad []string
		perTS := func(name string, i int) int {
			if per := tally.perTS[name]; per != nil {
				return int(per[i])
			}
			return 0
		}
		for i := 0; i < sent && len(bad) < 5; i++ {
			o := &sp.stream[i]
			wantJ, wantA := 0, 0
			if o.src == srcSale && o.kind == opInsert {
				c0, s0 := b.groupState(o.f[0])
				for _, t := range model.aggs {
					if !t.having(c0, s0) && t.having(c0+1, s0+int64(o.f[1])) {
						wantA++
					}
				}
			}
			b.apply(o)
			// "on insert to house" restricts only the house variable: an
			// insert or update arriving on another variable fires too, for
			// every combination it completes.
			switch {
			case o.src == srcHouse && o.kind == opInsert:
				h := b.house[o.f[0]]
				for _, t := range model.joins {
					wantJ += b.joinFirings(t, h)
				}
			case o.src == srcRep:
				for _, t := range model.joins {
					wantJ += b.repFirings(t, repRow{spno: o.f[0], nno: o.f[1]})
				}
			}
			if got := perTS("j", i); got != wantJ {
				bad = append(bad, fmt.Sprintf("token %d: %d join firings, the nested-loop recompute gives %d", i, got, wantJ))
			}
			if got := perTS("a", i); got != wantA {
				bad = append(bad, fmt.Sprintf("token %d: %d aggregate firings, the recompute gives %d", i, got, wantA))
			}
		}
		return bad
	}
	sp.replay = replayHints{
		raiseTrigger: "t_house", joinTrigger: "j00", joinVar: 1, joinSource: srcHouse,
		aggTrigger: "g00", aggSource: srcSale,
		ddlTrigger: "create trigger %s from house when house.price >= 123456 do raise event t(house.ts)",
	}
	return sp
}

// compare checks every alpha-memory size and every aggregate trigger's
// group count of the loaded system against the recompute over b.
func (m *joinModel) compare(in *instance, b *baseTables) []string {
	var bad []string
	cat := in.sys.Catalog()
	for i, t := range m.joins {
		name := fmt.Sprintf("j%02d", i)
		id, ok := cat.TriggerByName(name)
		if !ok {
			bad = append(bad, "trigger "+name+" is gone")
			continue
		}
		lt, unpin, err := cat.Pin(id)
		if err != nil || lt.Network == nil {
			bad = append(bad, fmt.Sprintf("trigger %s: no network (%v)", name, err))
			continue
		}
		want := b.memorySizes(t)
		for v := 0; v < 3; v++ {
			if got := lt.Network.MemorySize(v); got != want[v] {
				bad = append(bad, fmt.Sprintf("trigger %s memory %d holds %d rows, the recompute %d", name, v, got, want[v]))
			}
		}
		unpin()
	}
	wantGroups := b.groups()
	for i := range m.aggs {
		name := fmt.Sprintf("g%02d", i)
		id, _ := cat.TriggerByName(name)
		lt, unpin, err := cat.Pin(id)
		if err != nil || lt.Agg == nil {
			bad = append(bad, fmt.Sprintf("trigger %s: no aggregate state (%v)", name, err))
			continue
		}
		if got := lt.Agg.State.Groups(); got != wantGroups {
			bad = append(bad, fmt.Sprintf("trigger %s holds %d groups, the recompute %d", name, got, wantGroups))
		}
		unpin()
	}
	return bad
}
