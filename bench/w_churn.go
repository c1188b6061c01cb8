package main

import (
	"fmt"

	"triggerman"
	"triggerman/internal/types"
)

// churn_mixed: the same predindex, cache and catalog as fanin_match,
// used differently: DDL beside traffic, a working set larger than both
// program caches, and a constant set that lives in an indexed table.
//
// What differs from the issue, and why:
//   - No ConditionPartitions here (it moved to durable_cascade): with it,
//     set-up is quadratic in the population on the seed.
//   - The big churned class stays below DefaultPolicy.MemMax instead of
//     crossing it. On the seed the crossing is one-way (a table-organized
//     class never returns to memory) and DropTrigger on a table-organized
//     class scans the table: 90 ms per drop at this size, which would
//     turn the workload into a DropTrigger benchmark with a few hundred
//     operations per run. The small class does cross ListMax on every
//     cycle, and the per-layer parser.drop_trigger_us replays a drop on
//     the table-organized class, so the cost stays visible.
//   - Populations are sized so that one set-up takes about 3 s.
const (
	churnClassA   = 70000 // above MemMax (65,536): lives in an indexed table
	churnClassB   = 20000 // churned, memory index
	churnCycleB   = 400   // creates, then as many drops
	churnClassC   = 8     // churned across ListMax (16): 8 -> 24 -> 8
	churnCycleC   = 16
	churnSameCond = 2000 // triggers sharing one condition (Figure 5)
	churnSalary   = 777777
	churnZipf     = 0.9
	churnDDLEvery = 50
	churnCapRate  = 25000
	churnProbes   = 1000
)

func buildChurn(seed uint64, sc scale) *spec {
	r := newRNG(seed ^ 0xc4)
	nA, nB, cycB := sc.pick(churnClassA, 600), sc.pick(churnClassB, 200), sc.pick(churnCycleB, 20)
	nS := sc.pick(churnSameCond, 50)
	names := make([]string, nA+1) // the last is a name no trigger has
	for k := range names {
		names[k] = fmt.Sprintf("a%06d", k)
	}
	depts := make([]string, nB+cycB+1) // base, churned, and one no trigger has
	for j := range depts {
		depts[j] = fmt.Sprintf("b%06d", j)
	}
	noName, noDept, noGrade := int32(nA), int32(nB+cycB), int32(-1)

	sp := &spec{
		name: "churn_mixed",
		sources: []sourceDef{{name: "emp", cols: []types.Column{
			strCol("name"), intCol("salary"), strCol("dept"), intCol("grade"), intCol("ts")}}},
		options: func(string) triggerman.Options {
			return triggerman.Options{BufferPoolPages: 512, TriggerCacheSize: 2048, Queue: triggerman.MemoryQueue, Drivers: 2}
		},
		rateLo: churnRateLo, rateHi: churnRateHi,
		fill: func(_ uint8, f [4]int32, ts int64, dst types.Tuple) {
			dst[0] = types.NewString(names[f[0]])
			dst[1] = types.NewInt(int64(f[1]))
			dst[2] = types.NewString(depts[f[2]])
			dst[3] = types.NewInt(int64(f[3]))
			dst[4] = types.NewInt(ts)
		},
	}
	const name, salary, dept, grade = 0, 1, 2, 3
	m := newRefMatcher()
	text := func(trig, when string) string {
		s := "create trigger " + trig + " from emp"
		if when != "" {
			s += " when " + when
		}
		return s + " do raise event t(emp.ts)"
	}
	m.add(refTrigger{shape: refAll})
	sp.ddl = append(sp.ddl, text("x_all", ""))
	for k := 0; k < nA; k++ {
		m.add(refTrigger{shape: refEq, a: name, c: int32(k)})
		sp.ddl = append(sp.ddl, text(fmt.Sprintf("xa%06d", k), fmt.Sprintf("emp.name = '%s'", names[k])))
	}
	for j := 0; j < nB; j++ {
		m.add(refTrigger{shape: refEq, a: dept, c: int32(j)})
		sp.ddl = append(sp.ddl, text(fmt.Sprintf("xb%06d", j), fmt.Sprintf("emp.dept = '%s'", depts[j])))
	}
	for g := 0; g < churnClassC; g++ {
		m.add(refTrigger{shape: refEq, a: grade, c: int32(g)})
		sp.ddl = append(sp.ddl, text(fmt.Sprintf("xc%02d", g), fmt.Sprintf("emp.grade = %d", g)))
	}
	for k := 0; k < nS; k++ {
		m.add(refTrigger{shape: refEq, a: salary, c: churnSalary})
		sp.ddl = append(sp.ddl, text(fmt.Sprintf("xs%04d", k), fmt.Sprintf("emp.salary = %d", churnSalary)))
	}
	// The churned triggers: ddl index [0, cycB) is class B, the rest C.
	probeOf := make([][4]int32, 0, cycB+churnCycleC) // the tuple that fires churned trigger i alone
	for j := 0; j < cycB; j++ {
		trig := fmt.Sprintf("yb%04d", j)
		sp.ddlName = append(sp.ddlName, trig)
		sp.ddlText = append(sp.ddlText, text(trig, fmt.Sprintf("emp.dept = '%s'", depts[nB+j])))
		probeOf = append(probeOf, [4]int32{noName, 0, int32(nB + j), noGrade})
	}
	for g := 0; g < churnCycleC; g++ {
		trig := fmt.Sprintf("yc%02d", g)
		sp.ddlName = append(sp.ddlName, trig)
		sp.ddlText = append(sp.ddlText, text(trig, fmt.Sprintf("emp.grade = %d", churnClassC+g)))
		probeOf = append(probeOf, [4]int32{noName, 0, noDept, int32(churnClassC + g)})
	}

	// The stream. Every 50th op is DDL, alternating between the two
	// churned classes; each class creates its whole cycle, then drops it.
	// Tokens are Zipf(0.9) over class A, half of them also probe a stable
	// constant of class B, one in twenty a stable constant of class C, and
	// one in nS carries the shared condition's salary. No token probes a
	// constant that is being churned.
	z := newZipf(nA, churnZipf)
	n := streamLength(churnCapRate, sp.rateLo, sp.rateHi, sc.seconds)
	sp.stream = make([]op, n)
	var events, tokens int64
	stepB, stepC := 0, 0
	for i := range sp.stream {
		o := &sp.stream[i]
		if i%churnDDLEvery == churnDDLEvery-1 {
			if (i/churnDDLEvery)%2 == 0 {
				o.kind, o.f[0] = cycleOp(stepB, cycB, 0)
				stepB++
			} else {
				o.kind, o.f[0] = cycleOp(stepC, churnCycleC, cycB)
				stepC++
			}
			continue
		}
		o.f = [4]int32{int32(z.draw(r)), int32(r.intn(churnSalary)), noDept, noGrade}
		if r.intn(2) == 0 {
			o.f[dept] = int32(r.intn(nB))
		}
		if r.intn(20) == 0 {
			o.f[grade] = int32(r.intn(churnClassC))
		}
		if r.intn(nS) == 0 {
			o.f[salary] = churnSalary
		}
		o.expect = uint16(m.match(o.f, false, nil))
		events += int64(o.expect)
		tokens++
	}
	sp.meanFirings = float64(events) / float64(tokens)

	// After the final Drain, one token per surviving churned trigger
	// (at most 1,000) must fire it exactly once: catch-all plus one.
	sp.check = func(rn *runner, sent int) []string {
		alive := make([]bool, len(sp.ddlName))
		for i := 0; i < sent; i++ {
			switch o := &sp.stream[i]; o.kind {
			case opCreate:
				alive[o.f[0]] = true
			case opDrop:
				alive[o.f[0]] = false
			}
		}
		var probes []op
		for i, ok := range alive {
			if ok && len(probes) < churnProbes {
				probes = append(probes, op{kind: opInsert, expect: 2, f: probeOf[i]})
			}
		}
		if bad := rn.probe(probes); bad > 0 {
			return []string{fmt.Sprintf("%d of %d surviving churned triggers did not fire exactly once", bad, len(probes))}
		}
		return nil
	}
	sp.replay = replayHints{
		raiseTrigger: "x_all",
		// The replayed create and drop land in class A, the table-organized
		// one at full scale.
		ddlTrigger: "create trigger %s from emp when emp.name = 'replay' do raise event t(emp.ts)",
	}
	return sp
}

// cycleOp returns the step-th DDL op of a class that creates `cycle`
// triggers and then drops them, over and over; base offsets the class
// in the ddl tables.
func cycleOp(step, cycle, base int) (uint8, int32) {
	pos := step % (2 * cycle)
	if pos < cycle {
		return opCreate, int32(base + pos)
	}
	return opDrop, int32(base + pos - cycle)
}
