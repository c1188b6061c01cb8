package main

import (
	"fmt"
	"path/filepath"

	"triggerman"
	"triggerman/internal/types"
)

// durable_cascade: the Figure 1 path with real page I/O and real Sync.
// A file-backed database with a 1 MB buffer pool, the persistent queue
// with every enqueue forced to stable storage, rule actions as their own
// tasks, and eight execSQL triggers that cascade into a second table
// source.
//
// This workload also carries ConditionPartitions: 2, which the issue
// put on churn_mixed: on the seed CreateTrigger repartitions every
// signature of the source, so set-up with partitions is quadratic in
// the population (10,000 triggers take 16 s) and only a workload with a
// handful of triggers can afford the partitioned dispatch path.
const (
	cascadeThresholds = 8
	cascadeAmountMax  = 8000 // uniform, so a token passes 4 of 8 thresholds on average
	cascadeUpdates    = 0.10
	cascadeDeletes    = 0.05
	cascadeCapRate    = 30000
	// cascadeSeedRows are inserted (and cascade) during set-up, so that
	// setup_s measures the durable path too and not just eleven
	// CreateTrigger calls.
	cascadeSeedRows = 6000
)

const (
	srcOrders uint8 = iota
	srcAudit
)

func cascadeThreshold(i int) int32 { return int32(500 + 1000*i) }

func cascadePasses(amount int32) int {
	n := 0
	for i := 0; i < cascadeThresholds; i++ {
		if amount >= cascadeThreshold(i) {
			n++
		}
	}
	return n
}

type orderRow struct {
	f  [4]int32
	ts int32
}

func buildCascade(seed uint64, sc scale) *spec {
	r := newRNG(seed ^ 0xca)
	sp := &spec{
		name: "durable_cascade",
		sources: []sourceDef{
			{name: "orders", table: true, cols: []types.Column{intCol("id"), intCol("cust"), intCol("amount"), intCol("ts")}},
			{name: "audit", table: true, cols: []types.Column{intCol("id"), intCol("amount"), intCol("ts")}},
		},
		options: func(dir string) triggerman.Options {
			return triggerman.Options{
				DiskPath: filepath.Join(dir, "db"), Queue: triggerman.PersistentQueue,
				BufferPoolPages: 256, ActionTasks: true,
				ConditionPartitions: 2, Drivers: 2,
			}
		},
		rateLo: cascadeRateLo, rateHi: cascadeRateHi,
		fill: func(src uint8, f [4]int32, ts int64, dst types.Tuple) {
			for k := 0; k < len(dst)-1; k++ {
				dst[k] = types.NewInt(int64(f[k]))
			}
			dst[len(dst)-1] = types.NewInt(ts)
		},
	}
	for i := 0; i < cascadeThresholds; i++ {
		sp.ddl = append(sp.ddl, fmt.Sprintf(
			"create trigger c%d from orders when orders.amount >= %d do execSQL "+
				"'insert into audit values (:NEW.orders.id, :NEW.orders.amount, :NEW.orders.ts)'",
			i, cascadeThreshold(i)))
	}
	sp.ddl = append(sp.ddl,
		"create trigger c_all from orders do raise event t(orders.ts)",
		"create trigger c_del from orders on delete to orders do raise event d(orders.ts)",
		"create trigger c_audit from audit do raise event t(audit.ts)")

	// The model of the orders table: live rows in insertion order. Updates
	// and deletes aim at the oldest rows because TableSource.Update and
	// Delete find their row by scanning the heap from its first page;
	// aiming anywhere else would make each one cost the table's length.
	capRate := float64(cascadeCapRate)
	sp.stream = make([]op, streamLength(capRate, sp.rateLo, sp.rateHi, sc.seconds))
	var live []orderRow
	head := 0
	var events, audits int64
	for i := 0; i < sc.pick(cascadeSeedRows, 40); i++ {
		f := [4]int32{int32(-1 - i), int32(r.intn(1000)), int32(r.intn(cascadeAmountMax)), 0}
		sp.seedOps = append(sp.seedOps, op{kind: opInsert, src: srcOrders, f: f})
		live = append(live, orderRow{f, int32(-1 - i)})
		audits += int64(cascadePasses(f[2]))
	}
	liveAt0, auditAt0 := int32(len(live)), audits
	liveAt := make([]int32, len(sp.stream)+1)  // live rows after i ops
	auditAt := make([]int64, len(sp.stream)+1) // audit rows after i ops
	for i := range sp.stream {
		o := &sp.stream[i]
		o.src = srcOrders
		p := r.float()
		switch {
		case p < cascadeDeletes && len(live)-head > 8:
			o.kind = opDelete
			o.old, o.oldTS = live[head].f, live[head].ts
			head++
			o.expect = 1
		case p < cascadeDeletes+cascadeUpdates && len(live)-head > 8:
			row := &live[head+r.intn(8)]
			o.kind = opUpdate
			o.old, o.oldTS = row.f, row.ts
			row.f[2] = int32(r.intn(cascadeAmountMax))
			row.ts = int32(i)
			o.f = row.f
			o.expect = uint16(1 + cascadePasses(o.f[2]))
			audits += int64(o.expect - 1)
		default:
			o.f = [4]int32{int32(i), int32(r.intn(1000)), int32(r.intn(cascadeAmountMax)), 0}
			live = append(live, orderRow{o.f, int32(i)})
			o.expect = uint16(1 + cascadePasses(o.f[2]))
			audits += int64(o.expect - 1)
		}
		events += int64(o.expect)
		liveAt[i+1], auditAt[i+1] = int32(len(live)-head), audits
	}
	liveAt[0], auditAt[0] = liveAt0, auditAt0
	sp.meanFirings = float64(events) / float64(len(sp.stream))
	// Output check beyond the event counts: both tables hold exactly the
	// rows the model says they must.
	sp.check = func(rn *runner, sent int) []string {
		in := rn.in
		var bad []string
		for src, want := range map[uint8]int64{srcOrders: int64(liveAt[sent]), srcAudit: auditAt[sent]} {
			tab := in.src[src].(*triggerman.TableSource).Table()
			if got := int64(tab.Count()); got != want {
				bad = append(bad, fmt.Sprintf("table %s holds %d rows, the model %d", in.sp.sources[src].name, got, want))
			}
		}
		return bad
	}
	sp.replay = replayHints{
		raiseTrigger: "c_all", execTrigger: "c3",
		ddlTrigger: "create trigger %s from orders when orders.amount >= 123456 do raise event t(orders.ts)",
	}
	return sp
}
