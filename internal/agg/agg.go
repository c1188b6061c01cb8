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
	sums  []float64 // per numeric spec (sum/avg)
	// multisets per min/max spec: value hash -> (value, count) entries
	sets []map[uint64][]msEntry
	// armed reports whether the having condition was false after the
	// last evaluation (so the next true fires); a new group is armed.
	armed bool
}

type msEntry struct {
	val types.Value
	n   int
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
}

// NewState builds an empty aggregate state.
func NewState(groupCols []int, specs []Spec) *State {
	return &State{
		GroupCols: groupCols,
		Specs:     specs,
		groups:    make(map[uint64][]*groupState),
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
		sets:  make([]map[uint64][]msEntry, len(st.Specs)),
		armed: true,
	}
	for i, c := range st.GroupCols {
		g.key[i] = tu.Get(c)
	}
	for i, s := range st.Specs {
		if s.Func == Min || s.Func == Max {
			g.sets[i] = make(map[uint64][]msEntry)
		}
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
			v := tu.Get(s.Col)
			if v.IsNull() {
				continue
			}
			h := v.Hash()
			b := g.sets[i][h]
			e := slices.IndexFunc(b, func(e msEntry) bool { return types.Equal(e.val, v) })
			if e < 0 {
				b, e = append(b, msEntry{val: v}), len(b)
			}
			if b[e].n += int(sign); b[e].n <= 0 {
				b = slices.Delete(b, e, e+1)
			}
			if len(b) > 0 {
				g.sets[i][h] = b
			} else {
				delete(g.sets[i], h)
			}
		}
	}
}

// Values computes the current aggregate tuple for a group.
func (st *State) values(g *groupState) types.Tuple {
	out := make(types.Tuple, len(st.Specs))
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
			var best types.Value
			first := true
			for _, b := range g.sets[i] {
				for _, e := range b {
					if c := types.Compare(e.val, best); first || (s.Func == Min && c < 0) || (s.Func == Max && c > 0) {
						best, first = e.val, false
					}
				}
			}
			out[i] = best // NULL when the multiset is empty
		}
	}
	return out
}

// Fire describes one group whose having condition transitioned to true.
type Fire struct {
	// GroupKey holds the group-by column values.
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
// rewritten having condition for a group; it is called with the group
// key and aggregates and returns the condition's truth. Fires are the
// false→true transitions produced by this token: an update touches at
// most two groups, and the one the row leaves is judged, and fires,
// before the one it joins.
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
		fires = append(fires, Fire{GroupKey: g.key.Clone(), Aggregates: aggs, Representative: rep})
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

// RewriteHaving splits a having expression: every aggregate function
// call count/sum/avg/min/max over a single bound column reference is
// replaced by a reference to tuple-variable 1 ("the aggregate tuple"),
// and the list of Specs (deduplicated) is returned. Non-aggregate
// column references are rewritten to tuple-variable 0 positions of the
// group key when they name group-by columns; other plain references are
// rejected (SQL's "column must appear in GROUP BY" rule).
func RewriteHaving(n expr.Node, groupCols []int) (expr.Node, []Spec, error) {
	var specs []Spec
	specIndex := func(s Spec) int {
		for i, have := range specs {
			if have == s {
				return i
			}
		}
		specs = append(specs, s)
		return len(specs) - 1
	}
	groupPos := func(col int) int {
		for i, c := range groupCols {
			if c == col {
				return i
			}
		}
		return -1
	}
	var rewrite func(n expr.Node) (expr.Node, error)
	rewrite = func(n expr.Node) (expr.Node, error) {
		switch t := n.(type) {
		case nil:
			return nil, nil
		case *expr.Const:
			return expr.Clone(t), nil
		case *expr.ColumnRef:
			pos := groupPos(t.ColIdx)
			if pos < 0 {
				return nil, fmt.Errorf("agg: column %q must appear in group by or inside an aggregate", t.Column)
			}
			return &expr.ColumnRef{Column: t.Column, VarIdx: 0, ColIdx: pos}, nil
		case *expr.FuncCall:
			if f, ok := FuncFromName(t.Name); ok {
				if len(t.Args) != 1 {
					return nil, fmt.Errorf("agg: %s expects one column argument", t.Name)
				}
				ref, ok := t.Args[0].(*expr.ColumnRef)
				if !ok || ref.ColIdx < 0 {
					return nil, fmt.Errorf("agg: %s expects a column argument", t.Name)
				}
				idx := specIndex(Spec{Func: f, Col: ref.ColIdx})
				return &expr.ColumnRef{Column: t.Name, VarIdx: 1, ColIdx: idx}, nil
			}
			out := &expr.FuncCall{Name: t.Name}
			for _, a := range t.Args {
				ra, err := rewrite(a)
				if err != nil {
					return nil, err
				}
				out.Args = append(out.Args, ra)
			}
			return out, nil
		case *expr.Unary:
			c, err := rewrite(t.Child)
			if err != nil {
				return nil, err
			}
			return &expr.Unary{Op: t.Op, Child: c}, nil
		case *expr.Binary:
			l, err := rewrite(t.Left)
			if err != nil {
				return nil, err
			}
			r, err := rewrite(t.Right)
			if err != nil {
				return nil, err
			}
			return &expr.Binary{Op: t.Op, Left: l, Right: r}, nil
		default:
			return nil, fmt.Errorf("agg: cannot rewrite %T in having", n)
		}
	}
	out, err := rewrite(n)
	if err != nil {
		return nil, nil, err
	}
	return out, specs, nil
}

// HavingEvaluator binds a rewritten having tree into the callback shape
// Apply expects.
func HavingEvaluator(rewritten expr.Node) func(groupKey, aggs types.Tuple) (bool, error) {
	return func(groupKey, aggs types.Tuple) (bool, error) {
		env := expr.MultiEnv{Tuples: []types.Tuple{groupKey, aggs}}
		res, err := expr.EvalPredicate(rewritten, env)
		if err != nil {
			return false, err
		}
		return res == expr.True, nil
	}
}

// CollectActionSpecs walks an action's expressions, resolving aggregate
// calls (count/sum/... over one column of the source schema) into
// Specs, merged into the given list. It returns the extended list.
func CollectActionSpecs(action parser.Action, schema *types.Schema, specs []Spec) ([]Spec, error) {
	add := func(s Spec) {
		for _, have := range specs {
			if have == s {
				return
			}
		}
		specs = append(specs, s)
	}
	var scanNode func(n expr.Node) error
	scanNode = func(n expr.Node) error {
		fc, ok := n.(*expr.FuncCall)
		if !ok {
			switch t := n.(type) {
			case *expr.Unary:
				return scanNode(t.Child)
			case *expr.Binary:
				if err := scanNode(t.Left); err != nil {
					return err
				}
				return scanNode(t.Right)
			}
			return nil
		}
		f, isAgg := FuncFromName(fc.Name)
		if !isAgg {
			for _, a := range fc.Args {
				if err := scanNode(a); err != nil {
					return err
				}
			}
			return nil
		}
		if len(fc.Args) != 1 {
			return fmt.Errorf("agg: %s expects one column argument", fc.Name)
		}
		ref, ok := fc.Args[0].(*expr.ColumnRef)
		if !ok {
			return fmt.Errorf("agg: %s expects a column argument", fc.Name)
		}
		col := schema.ColumnIndex(ref.Column)
		if col < 0 {
			return fmt.Errorf("agg: unknown column %q in aggregate", ref.Column)
		}
		add(Spec{Func: f, Col: col})
		return nil
	}
	err := parser.WalkAction(action, scanNode)
	if err != nil {
		return nil, err
	}
	return specs, nil
}

// SubstituteAction clones an action with every aggregate call replaced
// by its current value (specs/values as produced at firing time).
func SubstituteAction(action parser.Action, schema *types.Schema, specs []Spec, values types.Tuple) (parser.Action, error) {
	lookup := func(f Func, col int) (types.Value, bool) {
		for i, s := range specs {
			if s.Func == f && s.Col == col {
				return values.Get(i), true
			}
		}
		return types.Null(), false
	}
	var sub func(n expr.Node) (expr.Node, error)
	sub = func(n expr.Node) (expr.Node, error) {
		switch t := n.(type) {
		case nil:
			return nil, nil
		case *expr.FuncCall:
			if f, isAgg := FuncFromName(t.Name); isAgg && len(t.Args) == 1 {
				if ref, ok := t.Args[0].(*expr.ColumnRef); ok {
					col := schema.ColumnIndex(ref.Column)
					if v, found := lookup(f, col); found {
						return expr.Lit(v), nil
					}
					return nil, fmt.Errorf("agg: %s(%s) not maintained by this trigger", t.Name, ref.Column)
				}
			}
			out := &expr.FuncCall{Name: t.Name}
			for _, a := range t.Args {
				ra, err := sub(a)
				if err != nil {
					return nil, err
				}
				out.Args = append(out.Args, ra)
			}
			return out, nil
		case *expr.Unary:
			c, err := sub(t.Child)
			if err != nil {
				return nil, err
			}
			return &expr.Unary{Op: t.Op, Child: c}, nil
		case *expr.Binary:
			l, err := sub(t.Left)
			if err != nil {
				return nil, err
			}
			r, err := sub(t.Right)
			if err != nil {
				return nil, err
			}
			return &expr.Binary{Op: t.Op, Left: l, Right: r}, nil
		default:
			return expr.Clone(n), nil
		}
	}
	switch a := action.(type) {
	case *parser.RaiseEvent:
		out := &parser.RaiseEvent{Name: a.Name}
		for _, arg := range a.Args {
			s, err := sub(arg)
			if err != nil {
				return nil, err
			}
			out.Args = append(out.Args, s)
		}
		return out, nil
	case *parser.ExecSQL:
		st, err := parser.MapStatement(a.Stmt, sub)
		if err != nil {
			return nil, err
		}
		return &parser.ExecSQL{SQL: a.SQL, Stmt: st}, nil
	default:
		return action, nil
	}
}
