// Package agg implements aggregate trigger conditions — the paper's §9
// names "scalable trigger processing for trigger conditions involving
// aggregates" as a research topic, and §2's grammar reserves group by /
// having clauses for them. This package defines the execution semantics
// this repository adopts:
//
//   - the trigger's from clause names ONE data source; group by
//     partitions its update stream by the listed columns;
//   - count/sum/avg/min/max aggregates over stream columns are
//     maintained incrementally from insert, delete and update tokens
//     (deletes decrement, updates move rows between groups);
//   - after each token, the having condition is evaluated for every
//     touched group; the trigger fires on a false→true transition
//     ("alerting" semantics), and re-arms when the condition drops back
//     to false;
//   - the action may reference group-by columns and the aggregate
//     values in effect at firing time.
//
// An aggregate trigger is compiled once, like every other trigger: one
// resolver maps each aggregate call of its having and its action to the
// call's slot in the group's aggregate tuple (AggVar). Judging a group
// and firing the action then read the values by position; nothing is
// rewritten or copied per token.
package agg

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"triggerman/internal/expr"
	"triggerman/internal/parser"
	"triggerman/internal/types"
)

// Func enumerates supported aggregate functions.
type Func uint8

const (
	// Count counts rows in the group (column value ignored but must be
	// named, per SQL's count(col) form).
	Count Func = iota
	// Sum totals a numeric column.
	Sum
	// Avg averages a numeric column.
	Avg
	// Min tracks the minimum of a column.
	Min
	// Max tracks the maximum of a column.
	Max
)

// String names the function.
func (f Func) String() string {
	switch f {
	case Count:
		return "count"
	case Sum:
		return "sum"
	case Avg:
		return "avg"
	case Min:
		return "min"
	case Max:
		return "max"
	default:
		return fmt.Sprintf("agg(%d)", uint8(f))
	}
}

// FuncFromName resolves an aggregate function name.
func FuncFromName(name string) (Func, bool) {
	switch strings.ToLower(name) {
	case "count":
		return Count, true
	case "sum":
		return Sum, true
	case "avg":
		return Avg, true
	case "min":
		return Min, true
	case "max":
		return Max, true
	}
	return 0, false
}

// Spec is one aggregate to maintain: a function over a column position.
type Spec struct {
	Func Func
	Col  int
}

// String renders the spec.
func (s Spec) String() string { return fmt.Sprintf("%s(#%d)", s.Func, s.Col) }

// groupState holds one group's running aggregates.
type groupState struct {
	key   types.Tuple
	count int64
	sums  []float64  // per numeric spec (sum/avg)
	sets  []multiset // per min/max spec
	// armed reports whether the having condition was false after the
	// last evaluation (so the next true fires); a new group is armed.
	armed bool
}

// multiset is the values a min/max aggregate has seen, each with its
// count, sorted by types.Compare: min and max are its ends, and a row
// joining or leaving moves one count, or inserts or deletes one entry in
// place, so once it has grown it allocates nothing. Values Compare calls
// equal (int 2 and float 2.0) share the entry of the first to arrive.
type multiset []msEntry

type msEntry struct {
	val types.Value
	n   int
}

// add counts v in (sign +1) or out (sign -1) of the multiset.
func (ms *multiset) add(v types.Value, sign int) {
	i, found := slices.BinarySearchFunc(*ms, v, func(e msEntry, v types.Value) int { return types.Compare(e.val, v) })
	switch {
	case found:
	case sign < 0: // a value it never held: nothing to take out
		return
	default:
		*ms = slices.Insert(*ms, i, msEntry{val: v})
	}
	if (*ms)[i].n += sign; (*ms)[i].n <= 0 {
		*ms = slices.Delete(*ms, i, i+1)
	}
}

// State maintains every group of one aggregate trigger.
type State struct {
	mu sync.Mutex
	// GroupCols are the grouping column positions in the source schema.
	GroupCols []int
	Specs     []Spec
	// groups buckets the live groups by the hash of their key, which
	// lookups compute from a row's group columns in place.
	groups map[uint64][]*groupState
	live   int
	// vals is the aggregate tuple of the group being judged; a Fire
	// gets its own copy.
	vals types.Tuple
}

// NewState builds an empty aggregate state.
func NewState(groupCols []int, specs []Spec) *State {
	return &State{
		GroupCols: groupCols,
		Specs:     specs,
		groups:    make(map[uint64][]*groupState),
		vals:      make(types.Tuple, len(specs)),
	}
}

// Groups reports the number of live groups.
func (st *State) Groups() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.live
}

// group returns tu's group, creating it (and only then building its
// key) when tu is the first row of it.
func (st *State) group(tu types.Tuple) *groupState {
	h := tu.HashCols(st.GroupCols)
	for _, g := range st.groups[h] {
		if g.holds(tu, st.GroupCols) {
			return g
		}
	}
	g := &groupState{
		key:   make(types.Tuple, len(st.GroupCols)),
		sums:  make([]float64, len(st.Specs)),
		sets:  make([]multiset, len(st.Specs)),
		armed: true,
	}
	for i, c := range st.GroupCols {
		g.key[i] = tu.Get(c)
	}
	st.groups[h] = append(st.groups[h], g)
	st.live++
	return g
}

// holds reports whether tu's group columns equal g's key.
func (g *groupState) holds(tu types.Tuple, cols []int) bool {
	for i, c := range cols {
		if !types.Equal(g.key[i], tu.Get(c)) {
			return false
		}
	}
	return true
}

func (st *State) apply(g *groupState, tu types.Tuple, sign int64) {
	g.count += sign
	for i, s := range st.Specs {
		switch s.Func {
		case Sum, Avg:
			if f, ok := tu.Get(s.Col).AsFloat(); ok {
				g.sums[i] += float64(sign) * f
			}
		case Min, Max:
			if v := tu.Get(s.Col); !v.IsNull() {
				g.sets[i].add(v, int(sign))
			}
		}
	}
}

// values computes g's aggregate tuple into st.vals.
func (st *State) values(g *groupState) types.Tuple {
	out := st.vals
	for i, s := range st.Specs {
		switch s.Func {
		case Count:
			out[i] = types.NewInt(g.count)
		case Sum:
			out[i] = types.NewFloat(g.sums[i])
		case Avg:
			if g.count > 0 {
				out[i] = types.NewFloat(g.sums[i] / float64(g.count))
			} else {
				out[i] = types.Null()
			}
		case Min, Max:
			out[i] = types.Null() // an empty multiset's
			if ms := g.sets[i]; len(ms) > 0 {
				out[i] = ms[0].val
				if s.Func == Max {
					out[i] = ms[len(ms)-1].val
				}
			}
		}
	}
	return out
}

// Fire describes one group whose having condition transitioned to true.
type Fire struct {
	// GroupKey holds the group-by column values; it is the group's own
	// key, which nothing writes.
	GroupKey types.Tuple
	// Aggregates holds the aggregate values (Specs order) at firing.
	Aggregates types.Tuple
	// Representative is the token tuple that caused the transition.
	Representative types.Tuple
}

// Op mirrors the token operation for Apply.
type Op uint8

// Token operations.
const (
	OpInsert Op = iota
	OpDelete
	OpUpdate
)

// Apply folds one token into the state. oldMatch/newMatch report
// whether the old/new images passed the trigger's selection predicate
// (rows outside the selection do not contribute). having evaluates the
// having condition (see Compile) for a group; it is called with the
// group key and aggregates, which it may not keep, and returns the
// condition's truth. Fires are the false→true transitions produced by
// this token: an update touches at most two groups, and the one the row
// leaves is judged, and fires, before the one it joins.
func (st *State) Apply(op Op, old, new types.Tuple, oldMatch, newMatch bool,
	having func(groupKey, aggs types.Tuple) (bool, error)) ([]Fire, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	var left, joined *groupState
	if op != OpInsert && oldMatch && old != nil {
		left = st.group(old)
		st.apply(left, old, -1)
	}
	if op != OpDelete && newMatch && new != nil {
		joined = st.group(new)
		st.apply(joined, new, +1)
	}
	var fires []Fire
	var err error
	if left != nil && left != joined {
		fires, err = st.judge(left, old, having, fires)
	}
	if joined != nil && err == nil {
		fires, err = st.judge(joined, new, having, fires)
	}
	return fires, err
}

// judge evaluates having on g after a token, with rep the token image
// that touched it, appending a Fire on a false→true transition; a group
// left without rows is dropped.
func (st *State) judge(g *groupState, rep types.Tuple, having func(groupKey, aggs types.Tuple) (bool, error), fires []Fire) ([]Fire, error) {
	aggs := st.values(g)
	ok, err := having(g.key, aggs)
	if err != nil {
		return fires, err
	}
	switch {
	case ok && g.armed:
		g.armed = false
		fires = append(fires, Fire{GroupKey: g.key, Aggregates: aggs.Clone(), Representative: rep})
	case !ok:
		g.armed = true
	}
	if g.count <= 0 {
		h := g.key.Hash() // as a row's HashCols(GroupCols) found it
		if b := slices.DeleteFunc(st.groups[h], func(x *groupState) bool { return x == g }); len(b) > 0 {
			st.groups[h] = b
		} else {
			delete(st.groups, h)
		}
		st.live--
	}
	return fires, nil
}

// AggVar is the tuple variable a resolved aggregate call reads: the
// group's aggregate tuple, after variable 0 — the group key in a having,
// the representative row in an action.
const AggVar = 1

// resolver maps one trigger's aggregate calls count/sum/avg/min/max(col)
// to their slots in the group's aggregate tuple.
type resolver struct {
	schema *types.Schema // the source's; an aggregate names one of its columns
	specs  []Spec
	// frozen refuses a call that has no slot yet: a loaded action reads
	// the aggregates its state already keeps.
	frozen bool
	// keyCols, for a having, are the group-by columns: its plain
	// references must name one, and read it in the group key.
	keyCols []int
}

// resolve returns a copy of n with every aggregate call replaced by a
// parameter reference to its slot (AggVar, spec index), adding the specs
// it is the first to name. Constants, and an action's column references,
// are shared with n.
func (r *resolver) resolve(n expr.Node) (expr.Node, error) {
	var err error
	switch t := n.(type) {
	case *expr.ColumnRef:
		if r.keyCols == nil {
			return t, nil
		}
		pos := slices.Index(r.keyCols, t.ColIdx)
		if pos < 0 {
			return nil, fmt.Errorf("agg: column %q must appear in group by or inside an aggregate", t.Column)
		}
		return &expr.ColumnRef{Column: t.Column, VarIdx: 0, ColIdx: pos}, nil
	case *expr.FuncCall:
		f, isAgg := FuncFromName(t.Name)
		if !isAgg {
			out := &expr.FuncCall{Name: t.Name, Args: make([]expr.Node, len(t.Args))}
			for i, a := range t.Args {
				if out.Args[i], err = r.resolve(a); err != nil {
					return nil, err
				}
			}
			return out, nil
		}
		if len(t.Args) != 1 {
			return nil, fmt.Errorf("agg: %s expects one column argument", t.Name)
		}
		ref, ok := t.Args[0].(*expr.ColumnRef)
		if !ok {
			return nil, fmt.Errorf("agg: %s expects a column argument", t.Name)
		}
		col := r.schema.ColumnIndex(ref.Column)
		if col < 0 {
			return nil, fmt.Errorf("agg: unknown column %q in aggregate", ref.Column)
		}
		i := slices.Index(r.specs, Spec{Func: f, Col: col})
		if i < 0 && r.frozen {
			return nil, fmt.Errorf("agg: %s not maintained by this trigger", t)
		}
		if i < 0 {
			i, r.specs = len(r.specs), append(r.specs, Spec{Func: f, Col: col})
		}
		return &expr.ColumnRef{Column: t.String(), VarIdx: AggVar, ColIdx: i, Param: true}, nil
	case *expr.Unary:
		out := *t
		out.Child, err = r.resolve(t.Child)
		return &out, err
	case *expr.Binary:
		out := *t
		if out.Left, err = r.resolve(t.Left); err != nil {
			return nil, err
		}
		out.Right, err = r.resolve(t.Right)
		return &out, err
	}
	return n, nil
}

// action returns a copy of act with its aggregate calls resolved.
func (r *resolver) action(act parser.Action) (parser.Action, error) {
	switch a := act.(type) {
	case *parser.RaiseEvent:
		out := &parser.RaiseEvent{Name: a.Name, Args: make([]expr.Node, len(a.Args))}
		for i, arg := range a.Args {
			var err error
			if out.Args[i], err = r.resolve(arg); err != nil {
				return nil, err
			}
		}
		return out, nil
	case *parser.ExecSQL:
		st, err := parser.MapStatement(a.Stmt, r.resolve)
		if err != nil {
			return nil, err
		}
		return &parser.ExecSQL{SQL: a.SQL, Stmt: st}, nil
	}
	return act, nil
}

// Compile resolves an aggregate trigger's having condition — bound, its
// source as variable 0 — and its action against the source's schema,
// and returns the empty state that keeps every aggregate either reads,
// with the having as the callback Apply takes. The action is only read:
// each load of the trigger's description resolves its own copy
// (State.ResolveAction).
func Compile(having expr.Node, act parser.Action, groupCols []int, schema *types.Schema) (*State, func(groupKey, aggs types.Tuple) (bool, error), error) {
	r := &resolver{schema: schema, keyCols: groupCols}
	cond, err := r.resolve(having)
	if err != nil {
		return nil, nil, err
	}
	r.keyCols = nil
	if _, err := r.action(act); err != nil {
		return nil, nil, err
	}
	h := &havingEnv{cond: cond}
	h.env.Tuples = h.vars[:]
	return NewState(groupCols, r.specs), h.holds, nil
}

// ResolveAction returns a copy of act whose aggregate calls read their
// slots in the aggregate tuple a firing carries (AggVar). A call the
// state does not keep is an error.
func (st *State) ResolveAction(act parser.Action, schema *types.Schema) (parser.Action, error) {
	r := &resolver{schema: schema, specs: st.Specs, frozen: true}
	return r.action(act)
}

// havingEnv is a resolved having condition and the environment it is
// judged in, reused so that judging allocates nothing: variable 0 is
// the group key, variable 1 the aggregate tuple.
type havingEnv struct {
	cond expr.Node
	mu   sync.Mutex
	vars [2]types.Tuple
	env  expr.MultiEnv
}

func (h *havingEnv) holds(groupKey, aggs types.Tuple) (bool, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.vars = [2]types.Tuple{groupKey, aggs}
	res, err := expr.EvalPredicate(h.cond, &h.env)
	h.vars = [2]types.Tuple{}
	return res == expr.True, err
}
