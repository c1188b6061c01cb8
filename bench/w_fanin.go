package main

import (
	"fmt"
	"math"

	"triggerman"
	"triggerman/internal/types"
)

// fanin_match: the paper's headline. One stream source, a large
// population of single-variable triggers over eight signatures, all
// raising events; the trigger cache is smaller than the population.
//
// Sizes. The issue asked for 200,000 triggers; set-up runs three times
// per run to give setup_s a median and the whole benchmark has a
// 3,420 s cap, so the population is 100,000 (2.3 s per set-up on the
// reference box). It is still six times the trigger cache.
const (
	faninPopulation = 100000
	faninSalaryMax  = 1000000
	faninHotShare   = 0.25
	faninZipf       = 1.1
	faninUpdates    = 0.10
	// faninCapRate sizes the stream: well above the seed's measured
	// closed-loop rate, so a faster system does not exhaust it.
	faninCapRate = 90000
	// faninMeanFirings is the mean number of terminal events per token
	// the population is built for; a run asserts it within 10 %.
	faninMeanFirings = 3.0
)

func buildFanin(seed uint64, sc scale) *spec {
	pop := sc.pick(faninPopulation, 1000)
	r := newRNG(seed ^ 0xfa)
	nNames := pop * 35 / 100 // one name-equality trigger per name
	nDepts := pop / 10
	tokDepts := nDepts * 8 // tokens draw depts from a space 8x the registered one
	names := make([]string, nNames)
	for k := range names {
		names[k] = fmt.Sprintf("n%06d", k)
	}
	depts := make([]string, tokDepts)
	for j := range depts {
		depts[j] = fmt.Sprintf("d%06d", j)
	}

	sp := &spec{
		name: "fanin_match",
		sources: []sourceDef{{name: "emp", cols: []types.Column{
			strCol("name"), intCol("salary"), strCol("dept"), intCol("ts")}}},
		options: func(string) triggerman.Options {
			return triggerman.Options{Queue: triggerman.MemoryQueue, Drivers: 2}
		},
		rateLo: faninRateLo, rateHi: faninRateHi,
		fill: func(_ uint8, f [4]int32, ts int64, dst types.Tuple) {
			dst[0] = types.NewString(names[f[0]])
			dst[1] = types.NewInt(int64(f[1]))
			dst[2] = types.NewString(depts[f[2]])
			dst[3] = types.NewInt(ts)
		},
		check: func(*runner, int) []string { return nil },
	}

	m := newRefMatcher()
	add := func(t refTrigger, when string) {
		t.id = int32(len(sp.ddl))
		m.add(t)
		text := fmt.Sprintf("create trigger f%06d from emp", t.id)
		if when != "" {
			text += " when " + when
		}
		sp.ddl = append(sp.ddl, text+" do raise event t(emp.ts)")
	}
	const name, salary, dept = 0, 1, 2
	add(refTrigger{shape: refAll}, "") // the catch-all: every token yields an event
	// Eight signatures. Shares of the population: equality classes are
	// large and selective, range classes small because each range
	// trigger matches a band of salaries, not one constant.
	share := func(pct float64) int { return int(float64(pop) * pct / 100) }
	for k := 0; k < nNames; k++ {
		add(refTrigger{shape: refEq, a: name, c: int32(k)},
			fmt.Sprintf("emp.name = '%s'", names[k]))
	}
	for k := 0; k < share(20); k++ {
		j := k % nDepts
		add(refTrigger{shape: refEq, a: dept, c: int32(j)},
			fmt.Sprintf("emp.dept = '%s'", depts[j]))
	}
	// The salary thresholds of the two equality-plus-rest classes follow a
	// low-discrepancy sequence instead of the seed: a quarter of all tokens
	// carry name 0, so a random threshold on that one trigger alone would
	// move the mean firings per token by up to 0.25 from seed to seed.
	spreadOver := func(k int) int32 {
		_, frac := math.Modf(float64(k+1) * 0.6180339887498949)
		return int32(frac * faninSalaryMax)
	}
	for k := 0; k < share(15); k++ {
		c := spreadOver(k)
		add(refTrigger{shape: refEqGT, a: name, c: int32(k % nNames), b: salary, d: c},
			fmt.Sprintf("emp.name = '%s' and emp.salary > %d", names[k%nNames], c))
	}
	for k := 0; k < share(10); k++ {
		c, j := spreadOver(k), k%nDepts
		add(refTrigger{shape: refEqLT, a: dept, c: int32(j), b: salary, d: c},
			fmt.Sprintf("emp.dept = '%s' and emp.salary < %d", depts[j], c))
	}
	for k := 0; k < share(18.7); k++ {
		j := r.intn(nDepts)
		add(refTrigger{shape: refEqEq, a: name, c: int32(k % nNames), b: dept, d: int32(j)},
			fmt.Sprintf("emp.name = '%s' and emp.dept = '%s'", names[k%nNames], depts[j]))
	}
	band := faninSalaryMax / 1000 // range thresholds sit in the outer 0.1 % of salaries
	for k := 0; k < share(0.2); k++ {
		c := int32(faninSalaryMax - 1 - r.intn(band))
		add(refTrigger{shape: refGT, a: salary, c: c}, fmt.Sprintf("emp.salary > %d", c))
	}
	for k := 0; k < share(0.2); k++ {
		c := int32(1 + r.intn(band))
		add(refTrigger{shape: refLT, a: salary, c: c}, fmt.Sprintf("emp.salary < %d", c))
	}
	for len(sp.ddl) < pop {
		c := int32(r.intn(faninSalaryMax))
		add(refTrigger{shape: refEq, a: salary, c: c}, fmt.Sprintf("emp.salary = %d", c))
	}

	// The stream: 25 % of tokens carry the one hot name, the rest are
	// Zipf(1.1) over the other names; 10 % are updates.
	z := newZipf(nNames-1, faninZipf)
	draw := func() [4]int32 {
		k := 0
		if r.float() >= faninHotShare {
			k = 1 + z.draw(r)
		}
		return [4]int32{int32(k), int32(r.intn(faninSalaryMax)), int32(r.intn(tokDepts)), 0}
	}
	sp.stream = make([]op, streamLength(faninCapRate, sp.rateLo, sp.rateHi, sc.seconds))
	var events int64
	for i := range sp.stream {
		o := &sp.stream[i]
		o.f = draw()
		if r.float() < faninUpdates {
			o.kind, o.old, o.oldTS = opUpdate, draw(), int32(i)
		}
		o.expect = uint16(m.match(o.f, false, nil))
		events += int64(o.expect)
	}
	sp.meanFirings = float64(events) / float64(len(sp.stream))
	sp.replay = replayHints{
		raiseTrigger: "f000001",
		ddlTrigger:   "create trigger %s from emp when emp.name = 'replay' do raise event t(emp.ts)",
	}
	return sp
}
