// Package exec executes rule actions (§2, §5.4): when a trigger
// condition is satisfied for a tuple combination, the matched values
// take the place of the action's references to them — ":NEW notation
// ... allows reference to new updated data values ... Values matching
// the trigger condition are substituted into the trigger action using
// macro substitution. After substitution, the trigger action is
// evaluated."
//
// Substitution here is bind-by-slot: when a trigger description is
// loaded, Compile resolves each reference to its (variable, column,
// old-or-new) slot once, and a firing evaluates the action's
// expressions against the matched tuples through that slot (Env), where
// the paper's implementation rewrites the action's text per firing. The
// meaning is the macro substitution's: the same values reach the same
// places, and a reference that cannot be resolved fails the firing with
// the same error. An aggregate trigger's action reads its aggregate
// values the same way: internal/agg resolves each aggregate call, at the
// same load, to a slot in the aggregate tuple a firing carries
// (Binding.Aggregates). SubstituteStatement still produces the rewritten
// statement for callers that want to see or keep one.
//
// execSQL actions run against the embedded mini-SQL database; raise
// event actions publish on the event bus.
package exec

import (
	"fmt"
	"strings"
	"time"

	"triggerman/internal/event"
	"triggerman/internal/expr"
	"triggerman/internal/metrics"
	"triggerman/internal/minisql"
	"triggerman/internal/parser"
	"triggerman/internal/types"
)

// Binding carries the matched tuple combination for one firing.
type Binding struct {
	// VarIndex maps lower-cased tuple-variable names to combo positions.
	VarIndex map[string]int
	// Tuples holds the matched tuple per variable.
	Tuples []types.Tuple
	// Olds holds pre-update images (usually only the seed variable's).
	Olds []types.Tuple
	// Aggregates is an aggregate trigger's aggregate tuple at firing,
	// which its resolved aggregate calls read as the variable after the
	// last (agg.AggVar).
	Aggregates types.Tuple
}

// Resolve produces the value a column reference denotes under the
// binding. Unqualified references resolve only when there is exactly
// one tuple variable.
func (b Binding) Resolve(ref *expr.ColumnRef, schemaOf func(varIdx int) *types.Schema) (types.Value, error) {
	vi, ci, err := slotOf(ref, b.VarIndex, len(b.Tuples), schemaOf)
	if err != nil {
		return types.Null(), err
	}
	return b.tupleFor(vi, ref.Old).Get(ci), nil
}

// tupleFor is the image of variable vi a reference reads; an image the
// firing does not carry reads as NULLs.
func (b Binding) tupleFor(vi int, old bool) types.Tuple {
	tuples := b.Tuples
	switch {
	case old:
		tuples = b.Olds
	case vi == len(tuples):
		return b.Aggregates
	}
	if vi < 0 || vi >= len(tuples) {
		return nil
	}
	return tuples[vi]
}

// slotOf finds the (variable, column) position a reference names among
// nvars tuple variables. It is the one place action references are
// resolved by name: Compile calls it when a description is loaded, and a
// firing only for the references Compile had to leave, whose error is
// then the firing's.
func slotOf(ref *expr.ColumnRef, varIndex map[string]int, nvars int, schemaOf func(int) *types.Schema) (vi, ci int, err error) {
	if ref.Var == "" {
		if nvars != 1 {
			return -1, -1, fmt.Errorf("exec: unqualified reference %q is ambiguous over %d variables", ref.Column, nvars)
		}
	} else {
		idx, ok := varIndex[strings.ToLower(ref.Var)]
		if !ok {
			return -1, -1, fmt.Errorf("exec: unknown tuple variable %q in action", ref.Var)
		}
		vi = idx
	}
	schema := schemaOf(vi)
	if schema == nil {
		return -1, -1, fmt.Errorf("exec: no schema for variable %q", ref.Var)
	}
	ci = schema.ColumnIndex(ref.Column)
	if ci < 0 {
		return -1, -1, fmt.Errorf("exec: unknown column %q of %q in action", ref.Column, ref.Var)
	}
	return vi, ci, nil
}

// substituted reports whether a firing replaces ref by a matched value:
// in a raise event every column reference names a tuple variable; in an
// execSQL statement only :NEW/:OLD parameters do, and bare references
// address the statement's target table.
func substituted(act parser.Action, ref *expr.ColumnRef) bool {
	_, raise := act.(*parser.RaiseEvent)
	return raise || ref.Param
}

// Compile resolves, in place, every reference of the action that a
// firing substitutes to its slot among the trigger's tuple variables,
// so firings read matched values by position. It is index resolution
// only — nothing is parsed or copied — and it cannot fail: a reference
// it cannot resolve is left as written and fails each firing, as it
// always has. The catalog compiles a description's action once, when
// it loads it, before anything else can see the tree.
func Compile(act parser.Action, varIndex map[string]int, schemas []*types.Schema) {
	schemaOf := func(vi int) *types.Schema {
		if vi < 0 || vi >= len(schemas) {
			return nil
		}
		return schemas[vi]
	}
	parser.WalkAction(act, func(n expr.Node) error {
		expr.Walk(n, func(m expr.Node) bool {
			if ref, ok := m.(*expr.ColumnRef); ok && substituted(act, ref) {
				if vi, ci, err := slotOf(ref, varIndex, len(schemas), schemaOf); err == nil {
					ref.VarIdx, ref.ColIdx = vi, ci
				}
			}
			return true
		})
		return nil
	})
}

// Env is one firing as the expression evaluator sees it: compiled
// references read the binding by slot (TupleFor), and the ones Compile
// left are resolved by name, or refused, as they are met (Unbound). The
// pipeline keeps one in its per-token scratch; Execute builds one per
// call.
type Env struct {
	Binding
	SchemaOf func(varIdx int) *types.Schema
	// act is the action being run; Run sets it. refErr is the first
	// reference of this run that named nothing.
	act    parser.Action
	refErr error
}

// TupleFor implements expr.Env.
func (e *Env) TupleFor(i int, old bool) types.Tuple { return e.tupleFor(i, old) }

// Unbound implements expr.Resolver.
func (e *Env) Unbound(ref *expr.ColumnRef) (types.Value, error) {
	if !substituted(e.act, ref) {
		return types.Null(), expr.UnboundError(ref)
	}
	v, err := e.Resolve(ref, e.SchemaOf)
	if err != nil && e.refErr == nil {
		e.refErr = err
	}
	return v, err
}

// StmtRunner abstracts statement execution so the embedding system can
// wrap the database with update capture (actions that modify captured
// tables then produce new tokens — cascaded trigger firing).
type StmtRunner interface {
	ExecParams(st parser.Statement, params expr.Env) (*minisql.Result, error)
}

// Executor runs trigger actions.
type Executor struct {
	// DB executes execSQL statements; may be nil if no trigger uses
	// execSQL.
	DB StmtRunner
	// Bus receives raise event publications; may be nil likewise.
	Bus *event.Bus
	// Inject, when set, runs before every action execution; a non-nil
	// error aborts the action. The fault-injection harness
	// (internal/faults.ActionInjector) installs its hook here to make
	// actions fail or panic on demand.
	Inject func(triggerID uint64) error
	// Hist, when non-nil, records the latency of every Execute call
	// (one observation per attempt, including failed ones).
	Hist *metrics.Histogram
	// Observe, when set, receives the duration of each delivery-side
	// phase inside an action: "execsql" (statement execution against the
	// database) and "deliver" (event-bus publication). The token tracer
	// installs a per-firing hook here to stamp the deliver stage.
	Observe func(phase string, d time.Duration)
}

// Execute runs one action for one firing.
func (e *Executor) Execute(triggerID uint64, act parser.Action, b Binding, schemaOf func(int) *types.Schema) error {
	return e.Run(triggerID, act, &Env{Binding: b, SchemaOf: schemaOf})
}

// Run is Execute over a caller-owned Env, which it may reuse between
// firings: nothing reachable from env is kept once Run returns.
func (e *Executor) Run(triggerID uint64, act parser.Action, env *Env) error {
	if e.Hist != nil {
		begin := time.Now()
		defer func() { e.Hist.Observe(time.Since(begin)) }()
	}
	if e.Inject != nil {
		if err := e.Inject(triggerID); err != nil {
			return err
		}
	}
	env.act, env.refErr = act, nil
	switch a := act.(type) {
	case *parser.ExecSQL:
		if e.DB == nil {
			return fmt.Errorf("exec: execSQL action with no database configured")
		}
		begin := time.Now()
		_, err := e.DB.ExecParams(a.Stmt, env)
		if e.Observe != nil {
			e.Observe("execsql", time.Since(begin))
		}
		if env.refErr != nil {
			// A reference that names nothing fails the firing as it did when
			// substitution ran before the statement: with its own error, not
			// the executor's account of where it met it.
			return env.refErr
		}
		return err
	case *parser.RaiseEvent:
		if e.Bus == nil {
			return fmt.Errorf("exec: raise event action with no event bus configured")
		}
		// The bus hands each raise its own copy of the arguments, so they
		// are computed on the stack when there are few.
		var few [8]types.Value
		args := types.Tuple(few[:0])
		for _, arg := range a.Args {
			v, err := expr.EvalScalar(arg, env)
			if err != nil {
				return err
			}
			args = append(args, v)
		}
		begin := time.Now()
		e.Bus.Raise(a.Name, args, triggerID)
		if e.Observe != nil {
			e.Observe("deliver", time.Since(begin))
		}
		return nil
	default:
		return fmt.Errorf("exec: unsupported action %T", act)
	}
}

// SubstituteStatement copies an execSQL statement with every :NEW/:OLD
// parameter reference replaced by its bound value. Bare column
// references are left alone — they address the statement's target
// table.
func SubstituteStatement(st parser.Statement, b Binding, schemaOf func(int) *types.Schema) (parser.Statement, error) {
	env := &Env{Binding: b, SchemaOf: schemaOf}
	return parser.MapStatement(st, func(n expr.Node) (expr.Node, error) { return expr.BindParams(n, env) })
}
