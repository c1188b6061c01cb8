package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"triggerman"
	"triggerman/internal/types"
)

// Operation kinds of the generator's stream.
const (
	opInsert uint8 = iota
	opUpdate
	opDelete
	opCreate // DDL: CreateTrigger(spec.ddlText[f[0]])
	opDrop   // DDL: DropTrigger(spec.ddlName[f[0]])
)

// op is one pre-generated generator operation. It is pointer-free and
// 40 bytes so that a whole run's stream costs the collector nothing;
// the tuple it stands for is materialised into a scratch buffer at the
// instant it is sent.
type op struct {
	kind   uint8
	src    uint8  // index into spec.sources
	expect uint16 // terminal events a token must produce to be complete
	oldTS  int32  // ts column of the old image (update, delete)
	f      [4]int32
	old    [4]int32
}

// isDDL reports whether the op is a CreateTrigger or DropTrigger call
// rather than a token.
func (o *op) isDDL() bool { return o.kind == opCreate || o.kind == opDrop }

// sourceDef declares one data source of a workload.
type sourceDef struct {
	name  string
	table bool // table source (captured DML) or stream source
	cols  []types.Column
}

// scale is what differs between the full benchmark and the -quick
// scale the tests use: populations (quick: about 1,000 triggers) and the
// measured seconds, which size the pre-generated stream.
type scale struct {
	quick   bool
	seconds float64
}

// pick returns full, or quick at the -quick scale.
func (sc scale) pick(full, quick int) int {
	if sc.quick {
		return quick
	}
	return full
}

// spec is a workload with its inputs fully generated from the seed:
// trigger texts, seeding operations, the op stream and, per op, the
// number of terminal events the harness's own reference matcher says
// it must produce.
type spec struct {
	name    string
	sources []sourceDef
	// options returns the system options; dir is a fresh directory inside
	// the checkout for file-backed workloads.
	options func(dir string) triggerman.Options
	// ddl holds the set-up statements in order.
	ddl []string
	// seedOps are sent during set-up (before warm-up) to build state;
	// their ts values are negative so they never collide with the stream.
	seedOps []op
	stream  []op
	// ddlText / ddlName are indexed by opCreate / opDrop ops.
	ddlText, ddlName []string
	// delOfStream[x] / delOfSeed[x] is the stream index of the delete op
	// that removes the row image written by stream op x / seeding op x
	// (-1: none). finish fills them.
	delOfStream, delOfSeed []int32
	// rateLo and rateHi are the frozen open-loop rates (tokens/s).
	rateLo, rateHi float64
	// fill materialises source src's tuple from an op's fields.
	fill func(src uint8, f [4]int32, ts int64, dst types.Tuple)
	// check is the workload's output check, run after the final Drain on
	// the loaded system; it returns one line per failed check. sent is
	// the number of stream ops performed.
	check func(r *runner, sent int) []string
	// syncCheck, when set, additionally verifies a Synchronous sub-run,
	// where processing order equals send order.
	syncCheck func(r *runner, sent int) []string
	// stateCalls, when set, counts the discrim and agg calls the system
	// must make for stream ops [first, last), from the harness's model.
	stateCalls func(first, last int) stateCalls
	// perturb, when a test sets it, corrupts the oracle's base tables
	// before check compares them: the output check must then trip.
	perturb func(*baseTables)
	// meanFirings is the reference matcher's mean terminal events per
	// token over the stream.
	meanFirings float64
	// replay describes what the per-layer replay pass may use.
	replay replayHints
}

// Every terminal action raises one of two events whose first argument
// is the ts column of the firing tuple: countEvent from insert and update
// tokens (the tuple is the token's new image, so ts is the token's id),
// deleteEvent from delete tokens (the tuple is the old image, so ts is
// the id of the token that wrote it). Both count toward completion.
// Join and aggregate firings raise other names and are only tallied.
const (
	countEvent  = "t"
	deleteEvent = "d"
)

// finish derives what every workload needs from its generated ops.
func (s *spec) finish() *spec {
	s.delOfStream = make([]int32, len(s.stream))
	s.delOfSeed = make([]int32, len(s.seedOps))
	for i := range s.delOfStream {
		s.delOfStream[i] = -1
	}
	for i := range s.delOfSeed {
		s.delOfSeed[i] = -1
	}
	for i := range s.stream {
		if o := &s.stream[i]; o.kind == opDelete {
			if o.oldTS >= 0 {
				s.delOfStream[o.oldTS] = int32(i)
			} else {
				s.delOfSeed[-1-o.oldTS] = int32(i)
			}
		}
	}
	return s
}

// deleterOf maps the ts a delete event carries to the delete token.
func (s *spec) deleterOf(ts int64) int64 {
	switch {
	case ts >= 0 && ts < int64(len(s.delOfStream)):
		return int64(s.delOfStream[ts])
	case ts < 0 && -1-ts < int64(len(s.delOfSeed)):
		return int64(s.delOfSeed[-1-ts])
	}
	return -1
}

// stateCalls are the join-state operations a span of the stream implies.
type stateCalls struct{ notify, add, remove, apply int64 }

// replayHints tell the per-layer replay which trigger of the loaded
// system exemplifies each layer on this workload ("" = layer idle).
type replayHints struct {
	raiseTrigger string // a raise-event trigger
	execTrigger  string // an execSQL trigger
	joinTrigger  string // a multi-variable trigger
	joinVar      int    // the variable sample tokens arrive on
	joinSource   uint8  // source index feeding joinVar
	aggTrigger   string // a group-by/having trigger
	aggSource    uint8
	ddlTrigger   string // text template with %s for a fresh name
}

// inputHash digests everything the seed determines: the trigger texts,
// the seeding ops, the stream and the expected event counts.
func (s *spec) inputHash() string {
	h := fnv.New64a()
	for _, groups := range [][]string{s.ddl, s.ddlText, s.ddlName} {
		for _, t := range groups {
			h.Write([]byte(t))
			h.Write([]byte{0})
		}
	}
	var buf [40]byte
	for _, ops := range [][]op{s.seedOps, s.stream} {
		for i := range ops {
			o := &ops[i]
			buf[0], buf[1] = o.kind, o.src
			binary.LittleEndian.PutUint16(buf[2:], o.expect)
			binary.LittleEndian.PutUint32(buf[4:], uint32(o.oldTS))
			for k := 0; k < 4; k++ {
				binary.LittleEndian.PutUint32(buf[8+4*k:], uint32(o.f[k]))
				binary.LittleEndian.PutUint32(buf[24+4*k:], uint32(o.old[k]))
			}
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// workloadNames lists the benchmark's workloads in their fixed order.
var workloadNames = []string{"fanin_match", "durable_cascade", "join_aggregate", "churn_mixed"}

// buildSpec generates the named workload from the seed.
func buildSpec(name string, seed uint64, sc scale) (*spec, error) {
	switch name {
	case "fanin_match":
		return buildFanin(seed, sc).finish(), nil
	case "durable_cascade":
		return buildCascade(seed, sc).finish(), nil
	case "join_aggregate":
		return buildJoin(seed, sc).finish(), nil
	case "churn_mixed":
		return buildChurn(seed, sc).finish(), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

func intCol(name string) types.Column { return types.Column{Name: name, Kind: types.KindInt} }
func strCol(name string) types.Column { return types.Column{Name: name, Kind: types.KindVarchar} }

// streamLength sizes a stream for a run of the given length: the closed
// phases can consume at most capRate tokens/s, the paced phases exactly
// their rates.
func streamLength(capRate, rateLo, rateHi, seconds float64) int {
	p := splitPhases(seconds)
	if seconds <= quickSeconds {
		capRate *= 3 // the -quick populations are small, so tokens are cheap
	}
	n := capRate*(p.warm+p.sat).Seconds() + rateLo*p.lo.Seconds() + rateHi*p.hi.Seconds()
	return int(n) + 4096
}
