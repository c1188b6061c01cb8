package expr

import (
	"fmt"
	"strings"

	"triggerman/internal/types"
)

// Tri is SQL three-valued logic: true, false, or unknown (from NULLs).
type Tri uint8

const (
	// False is definitely false.
	False Tri = iota
	// True is definitely true.
	True
	// Unknown arises when a NULL participates in a comparison.
	Unknown
)

// String renders the truth value.
func (t Tri) String() string {
	switch t {
	case True:
		return "true"
	case False:
		return "false"
	default:
		return "unknown"
	}
}

func triAnd(a, b Tri) Tri {
	if a == False || b == False {
		return False
	}
	if a == Unknown || b == Unknown {
		return Unknown
	}
	return True
}

func triOr(a, b Tri) Tri {
	if a == True || b == True {
		return True
	}
	if a == Unknown || b == Unknown {
		return Unknown
	}
	return False
}

func triNot(a Tri) Tri {
	switch a {
	case True:
		return False
	case False:
		return True
	default:
		return Unknown
	}
}

// Env supplies tuple values during evaluation. VarIdx selects the tuple
// for a bound ColumnRef; Old selects the pre-update image.
type Env interface {
	// TupleFor returns the tuple bound to tuple-variable index i,
	// choosing the old image if old is true. A nil return yields NULLs.
	TupleFor(i int, old bool) types.Tuple
}

// Resolver is an Env that also answers for column references nobody
// bound to a position: evaluation hands it each one it meets, and the
// value or the error it returns is the reference's. A rule action's
// environment resolves them by name against the firing's tuple
// variables; under a plain Env such a reference is an error.
type Resolver interface {
	Env
	Unbound(ref *ColumnRef) (types.Value, error)
}

// UnboundError is the error evaluating ref gives when nothing bound or
// resolves it.
func UnboundError(ref *ColumnRef) error {
	return fmt.Errorf("expr: unbound column reference %s", ref)
}

// refValue is the value a column reference denotes under env.
func refValue(ref *ColumnRef, env Env) (types.Value, error) {
	if ref.VarIdx < 0 || ref.ColIdx < 0 {
		if r, ok := env.(Resolver); ok {
			return r.Unbound(ref)
		}
		return types.Null(), UnboundError(ref)
	}
	return env.TupleFor(ref.VarIdx, ref.Old).Get(ref.ColIdx), nil
}

// BindParams returns a copy of n in which every parameter reference
// (one written :NEW.x or :OLD.x) is the constant it denotes under env:
// the paper's macro substitution, for the callers that need a tree to
// plan over or to keep. Other column references are copied as they are,
// for the caller to bind; constants are shared, not copied. A nil env
// leaves the parameters in place too (a plain copy).
func BindParams(n Node, env Env) (Node, error) {
	switch t := n.(type) {
	case nil:
		return nil, nil
	case *Const, *Placeholder:
		return t, nil
	case *ColumnRef:
		if t.Param && env != nil {
			v, err := refValue(t, env)
			if err != nil {
				return nil, err
			}
			return Lit(v), nil
		}
		c := *t
		return &c, nil
	case *Unary:
		c, err := BindParams(t.Child, env)
		if err != nil {
			return nil, err
		}
		return &Unary{Op: t.Op, Child: c}, nil
	case *Binary:
		l, err := BindParams(t.Left, env)
		if err != nil {
			return nil, err
		}
		r, err := BindParams(t.Right, env)
		if err != nil {
			return nil, err
		}
		return &Binary{Op: t.Op, Left: l, Right: r}, nil
	case *FuncCall:
		out := &FuncCall{Name: t.Name, Args: make([]Node, len(t.Args))}
		for i, a := range t.Args {
			arg, err := BindParams(a, env)
			if err != nil {
				return nil, err
			}
			out.Args[i] = arg
		}
		return out, nil
	default:
		return nil, fmt.Errorf("expr: cannot bind parameters in %T", n)
	}
}

// SingleEnv is an Env over exactly one tuple variable (index 0), as used
// during selection-predicate testing against a token.
type SingleEnv struct {
	New types.Tuple
	Old types.Tuple
}

// TupleFor implements Env.
func (e SingleEnv) TupleFor(i int, old bool) types.Tuple {
	if i != 0 {
		return nil
	}
	if old {
		return e.Old
	}
	return e.New
}

// MultiEnv is an Env over several tuple variables, used during join
// testing in the discrimination network.
type MultiEnv struct {
	Tuples []types.Tuple
	Olds   []types.Tuple
}

// TupleFor implements Env.
func (e MultiEnv) TupleFor(i int, old bool) types.Tuple {
	if old {
		if i >= 0 && i < len(e.Olds) {
			return e.Olds[i]
		}
		return nil
	}
	if i >= 0 && i < len(e.Tuples) {
		return e.Tuples[i]
	}
	return nil
}

// EvalPredicate evaluates a Boolean tree under env. Errors indicate a
// malformed tree (unbound references, type confusion), not data issues:
// NULL handling is expressed through Tri.
func EvalPredicate(n Node, env Env) (Tri, error) {
	switch t := n.(type) {
	case *Unary:
		if t.Op == OpNot {
			v, err := EvalPredicate(t.Child, env)
			if err != nil {
				return Unknown, err
			}
			return triNot(v), nil
		}
	case *Binary:
		switch t.Op {
		case OpAnd:
			l, err := EvalPredicate(t.Left, env)
			if err != nil {
				return Unknown, err
			}
			if l == False {
				return False, nil
			}
			r, err := EvalPredicate(t.Right, env)
			if err != nil {
				return Unknown, err
			}
			return triAnd(l, r), nil
		case OpOr:
			l, err := EvalPredicate(t.Left, env)
			if err != nil {
				return Unknown, err
			}
			if l == True {
				return True, nil
			}
			r, err := EvalPredicate(t.Right, env)
			if err != nil {
				return Unknown, err
			}
			return triOr(l, r), nil
		case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpLike:
			lv, err := EvalScalar(t.Left, env)
			if err != nil {
				return Unknown, err
			}
			rv, err := EvalScalar(t.Right, env)
			if err != nil {
				return Unknown, err
			}
			return compare(t.Op, lv, rv), nil
		}
	case *Const:
		// A bare constant used as a predicate: nonzero/nonempty = true.
		return truthiness(t.Val), nil
	}
	return Unknown, fmt.Errorf("expr: node %s is not a predicate", n)
}

func truthiness(v types.Value) Tri {
	switch {
	case v.IsNull():
		return Unknown
	case v.IsNumeric():
		f, _ := v.AsFloat()
		if f != 0 {
			return True
		}
		return False
	default:
		if v.Str() != "" {
			return True
		}
		return False
	}
}

func compare(op Op, l, r types.Value) Tri {
	if l.IsNull() || r.IsNull() {
		return Unknown
	}
	if op == OpLike {
		if !l.IsString() || !r.IsString() {
			return False
		}
		if matchLike(l.Str(), r.Str()) {
			return True
		}
		return False
	}
	c := types.Compare(l, r)
	var ok bool
	switch op {
	case OpEq:
		ok = c == 0
	case OpNe:
		ok = c != 0
	case OpLt:
		ok = c < 0
	case OpLe:
		ok = c <= 0
	case OpGt:
		ok = c > 0
	case OpGe:
		ok = c >= 0
	}
	if ok {
		return True
	}
	return False
}

// matchLike implements SQL LIKE with % (any run) and _ (any single
// character) wildcards, by backtracking on %.
func matchLike(s, pattern string) bool {
	var match func(si, pi int) bool
	match = func(si, pi int) bool {
		for pi < len(pattern) {
			switch pattern[pi] {
			case '%':
				// Collapse consecutive %.
				for pi < len(pattern) && pattern[pi] == '%' {
					pi++
				}
				if pi == len(pattern) {
					return true
				}
				for k := si; k <= len(s); k++ {
					if match(k, pi) {
						return true
					}
				}
				return false
			case '_':
				if si >= len(s) {
					return false
				}
				si++
				pi++
			default:
				if si >= len(s) || s[si] != pattern[pi] {
					return false
				}
				si++
				pi++
			}
		}
		return si == len(s)
	}
	return match(0, 0)
}

// EvalScalar evaluates a scalar (non-Boolean) tree to a value.
func EvalScalar(n Node, env Env) (types.Value, error) {
	switch t := n.(type) {
	case *Const:
		return t.Val, nil
	case *Placeholder:
		return types.Null(), fmt.Errorf("expr: placeholder CONSTANT_%d evaluated without instantiation", t.Num)
	case *ColumnRef:
		return refValue(t, env)
	case *Unary:
		if t.Op == OpNeg {
			v, err := EvalScalar(t.Child, env)
			if err != nil {
				return types.Null(), err
			}
			return negate(v)
		}
		// NOT as scalar: fold Tri to int for orthogonality.
		tr, err := EvalPredicate(t, env)
		if err != nil {
			return types.Null(), err
		}
		return triToValue(tr), nil
	case *Binary:
		switch t.Op {
		case OpAdd, OpSub, OpMul, OpDiv:
			lv, err := EvalScalar(t.Left, env)
			if err != nil {
				return types.Null(), err
			}
			rv, err := EvalScalar(t.Right, env)
			if err != nil {
				return types.Null(), err
			}
			return arith(t.Op, lv, rv)
		default:
			tr, err := EvalPredicate(t, env)
			if err != nil {
				return types.Null(), err
			}
			return triToValue(tr), nil
		}
	case *FuncCall:
		return evalFunc(t, env)
	}
	return types.Null(), fmt.Errorf("expr: cannot evaluate %T as scalar", n)
}

func triToValue(t Tri) types.Value {
	switch t {
	case True:
		return types.NewInt(1)
	case False:
		return types.NewInt(0)
	default:
		return types.Null()
	}
}

func negate(v types.Value) (types.Value, error) {
	switch v.Kind() {
	case types.KindNull:
		return types.Null(), nil
	case types.KindInt:
		return types.NewInt(-v.Int()), nil
	case types.KindFloat:
		return types.NewFloat(-v.Float()), nil
	default:
		return types.Null(), fmt.Errorf("expr: cannot negate %s", v.Kind())
	}
}

func arith(op Op, l, r types.Value) (types.Value, error) {
	if l.IsNull() || r.IsNull() {
		return types.Null(), nil
	}
	if op == OpAdd && l.IsString() && r.IsString() {
		return types.NewString(l.Str() + r.Str()), nil
	}
	lf, lok := l.AsFloat()
	rf, rok := r.AsFloat()
	if !lok || !rok {
		return types.Null(), fmt.Errorf("expr: %s applied to non-numeric operands (%s, %s)", op, l.Kind(), r.Kind())
	}
	// Integer arithmetic stays integral.
	if l.Kind() == types.KindInt && r.Kind() == types.KindInt {
		a, b := l.Int(), r.Int()
		switch op {
		case OpAdd:
			return types.NewInt(a + b), nil
		case OpSub:
			return types.NewInt(a - b), nil
		case OpMul:
			return types.NewInt(a * b), nil
		case OpDiv:
			if b == 0 {
				return types.Null(), fmt.Errorf("expr: integer division by zero")
			}
			return types.NewInt(a / b), nil
		}
	}
	switch op {
	case OpAdd:
		return types.NewFloat(lf + rf), nil
	case OpSub:
		return types.NewFloat(lf - rf), nil
	case OpMul:
		return types.NewFloat(lf * rf), nil
	case OpDiv:
		if rf == 0 {
			return types.Null(), fmt.Errorf("expr: division by zero")
		}
		return types.NewFloat(lf / rf), nil
	}
	return types.Null(), fmt.Errorf("expr: bad arithmetic op %s", op)
}

func evalFunc(f *FuncCall, env Env) (types.Value, error) {
	var few [4]types.Value // the built-ins take one argument
	args := few[:0]
	for _, a := range f.Args {
		v, err := EvalScalar(a, env)
		if err != nil {
			return types.Null(), err
		}
		args = append(args, v)
	}
	name := strings.ToLower(f.Name)
	wantArgs := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("expr: %s expects %d argument(s), got %d", name, n, len(args))
		}
		return nil
	}
	switch name {
	case "upper":
		if err := wantArgs(1); err != nil {
			return types.Null(), err
		}
		if args[0].IsNull() {
			return types.Null(), nil
		}
		if !args[0].IsString() {
			return types.Null(), fmt.Errorf("expr: upper on %s", args[0].Kind())
		}
		return types.NewString(strings.ToUpper(args[0].Str())), nil
	case "lower":
		if err := wantArgs(1); err != nil {
			return types.Null(), err
		}
		if args[0].IsNull() {
			return types.Null(), nil
		}
		if !args[0].IsString() {
			return types.Null(), fmt.Errorf("expr: lower on %s", args[0].Kind())
		}
		return types.NewString(strings.ToLower(args[0].Str())), nil
	case "length":
		if err := wantArgs(1); err != nil {
			return types.Null(), err
		}
		if args[0].IsNull() {
			return types.Null(), nil
		}
		if !args[0].IsString() {
			return types.Null(), fmt.Errorf("expr: length on %s", args[0].Kind())
		}
		return types.NewInt(int64(len(args[0].Str()))), nil
	case "abs":
		if err := wantArgs(1); err != nil {
			return types.Null(), err
		}
		switch args[0].Kind() {
		case types.KindNull:
			return types.Null(), nil
		case types.KindInt:
			v := args[0].Int()
			if v < 0 {
				v = -v
			}
			return types.NewInt(v), nil
		case types.KindFloat:
			v := args[0].Float()
			if v < 0 {
				v = -v
			}
			return types.NewFloat(v), nil
		default:
			return types.Null(), fmt.Errorf("expr: abs on %s", args[0].Kind())
		}
	default:
		return types.Null(), fmt.Errorf("expr: unknown function %q", f.Name)
	}
}
