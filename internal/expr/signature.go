package expr

import (
	"fmt"
	"hash/fnv"
	"strings"

	"triggerman/internal/types"
)

// Signature is an expression signature (§5): the generalized form of a
// selection predicate where every constant is replaced by a numbered
// placeholder, CONSTANT_1 .. CONSTANT_m, in left-to-right order. Two
// predicates with the same signature differ only in constant values and
// form one equivalence class.
//
// A Signature also records the split E = E_I AND E_NI (§5.1): the
// indexable part that can drive a constant-set lookup, and the
// non-indexable rest that must be tested per expression.
type Signature struct {
	// Generalized is the CNF of the predicate with placeholders at
	// constant positions.
	Generalized CNF
	// NumConstants is m, the number of placeholders.
	NumConstants int
	// canonical is the normalized text used for equality and hashing.
	canonical string

	// EqCols lists the bound column indexes of indexable equality atoms
	// (clauses of the single-atom form col = CONSTANT_k), in clause
	// order. When non-empty, the constant set is keyed by the composite
	// [const1..constK] as in the paper's clustered index.
	EqCols []int
	// EqConstNums holds, parallel to EqCols, the placeholder number
	// supplying each key component.
	EqConstNums []int
	// RangeCol, when EqCols is empty and a single-atom range clause
	// exists, is the bound column index of the first such clause;
	// otherwise -1.
	RangeCol int
	// RangeOp is the comparison of that clause, normalized so the column
	// is on the left (e.g. 50 < salary becomes salary > 50).
	RangeOp Op
	// RangeConstNum is the placeholder number of the range bound, or 0.
	RangeConstNum int
	// Rest is the generalized non-indexable remainder E_NI (clauses not
	// consumed by the indexable part). Empty means the whole predicate
	// is indexable.
	Rest CNF
}

// Indexability classifies how a signature's constant set can be probed.
type Indexability uint8

const (
	// IndexNone means no atom is indexable: every member expression must
	// be evaluated against the token.
	IndexNone Indexability = iota
	// IndexEquality means the composite equality key [const1..constK]
	// drives an exact-match lookup.
	IndexEquality
	// IndexRange means a single comparison bound drives an interval
	// stab query.
	IndexRange
)

// String names the indexability class.
func (i Indexability) String() string {
	switch i {
	case IndexEquality:
		return "equality"
	case IndexRange:
		return "range"
	default:
		return "none"
	}
}

// Indexability reports the signature's probe class.
func (s *Signature) Indexability() Indexability {
	switch {
	case len(s.EqCols) > 0:
		return IndexEquality
	case s.RangeCol >= 0:
		return IndexRange
	default:
		return IndexNone
	}
}

// Canonical returns the normalized text of the generalized expression.
// Signatures are equal iff their canonical forms are equal.
func (s *Signature) Canonical() string { return s.canonical }

// Hash returns a stable hash of the canonical form.
func (s *Signature) Hash() uint64 {
	h := fnv.New64a()
	h.Write([]byte(s.canonical))
	return h.Sum64()
}

// String implements fmt.Stringer.
func (s *Signature) String() string { return s.canonical }

// ExtractSignature generalizes a bound selection-predicate CNF: it
// replaces each constant with a numbered placeholder, records the
// extracted constants in order, and computes the indexable split. The
// input CNF must reference a single tuple variable (a selection
// predicate per §4); column references must already be bound.
func ExtractSignature(c CNF) (*Signature, []types.Value, error) {
	sig := &Signature{RangeCol: -1}
	var consts []types.Value
	next := 1

	gen := CNF{Clauses: make([]Clause, len(c.Clauses))}
	for i, cl := range c.Clauses {
		atoms := make([]Node, len(cl.Atoms))
		for j, a := range cl.Atoms {
			g, err := generalize(Clone(a), &next, &consts)
			if err != nil {
				return nil, nil, err
			}
			atoms[j] = g
		}
		gen.Clauses[i] = Clause{Atoms: atoms}
	}
	sig.Generalized = gen
	sig.NumConstants = next - 1

	// Indexable split: single-atom clauses of form col = CONSTANT_k form
	// a composite equality key. Failing that, the first single-atom
	// range clause col {<,<=,>,>=} CONSTANT_k is range-indexable.
	var rest []Clause
	for _, cl := range gen.Clauses {
		if col, op, num, ok := indexableAtom(cl); ok && op == OpEq {
			sig.EqCols = append(sig.EqCols, col)
			sig.EqConstNums = append(sig.EqConstNums, num)
			continue
		}
		rest = append(rest, cl)
	}
	if len(sig.EqCols) == 0 {
		kept := rest[:0]
		for _, cl := range rest {
			if sig.RangeCol < 0 {
				if col, op, num, ok := indexableAtom(cl); ok && op != OpEq && op != OpNe && op != OpLike {
					sig.RangeCol = col
					sig.RangeOp = op
					sig.RangeConstNum = num
					continue
				}
			}
			kept = append(kept, cl)
		}
		rest = kept
	}
	sig.Rest = CNF{Clauses: rest}
	sig.canonical = canonicalText(gen)
	return sig, consts, nil
}

// generalize replaces Const leaves with numbered placeholders, appending
// the extracted values to consts. Scalar sub-structure (arithmetic,
// functions) is preserved.
func generalize(n Node, next *int, consts *[]types.Value) (Node, error) {
	switch t := n.(type) {
	case *Const:
		*consts = append(*consts, t.Val)
		p := &Placeholder{Num: *next}
		*next++
		return p, nil
	case *ColumnRef, *Placeholder:
		return n, nil
	case *Unary:
		c, err := generalize(t.Child, next, consts)
		if err != nil {
			return nil, err
		}
		t.Child = c
		return t, nil
	case *Binary:
		l, err := generalize(t.Left, next, consts)
		if err != nil {
			return nil, err
		}
		r, err := generalize(t.Right, next, consts)
		if err != nil {
			return nil, err
		}
		t.Left, t.Right = l, r
		return t, nil
	case *FuncCall:
		for i, a := range t.Args {
			g, err := generalize(a, next, consts)
			if err != nil {
				return nil, err
			}
			t.Args[i] = g
		}
		return t, nil
	default:
		return nil, fmt.Errorf("expr: cannot generalize %T", n)
	}
}

// indexableAtom recognizes a single-atom clause of the form
// col <cmp> CONSTANT_k (or the flipped CONSTANT_k <cmp> col, which it
// normalizes). Returns the bound column index, operator (column on the
// left), and placeholder number.
func indexableAtom(cl Clause) (col int, op Op, constNum int, ok bool) {
	if len(cl.Atoms) != 1 {
		return 0, 0, 0, false
	}
	b, isBin := cl.Atoms[0].(*Binary)
	if !isBin || !b.Op.IsComparison() {
		return 0, 0, 0, false
	}
	if c, p, good := colAndPlaceholder(b.Left, b.Right); good {
		return c.ColIdx, b.Op, p.Num, c.ColIdx >= 0 && !c.Old
	}
	if c, p, good := colAndPlaceholder(b.Right, b.Left); good {
		return c.ColIdx, flip(b.Op), p.Num, c.ColIdx >= 0 && !c.Old
	}
	return 0, 0, 0, false
}

func colAndPlaceholder(a, b Node) (*ColumnRef, *Placeholder, bool) {
	c, ok1 := a.(*ColumnRef)
	p, ok2 := b.(*Placeholder)
	if ok1 && ok2 {
		return c, p, true
	}
	return nil, nil, false
}

// flip mirrors a comparison across its operands (a < b  <=>  b > a).
func flip(o Op) Op {
	switch o {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	default:
		return o
	}
}

// canonicalText renders the generalized CNF with normalized casing and
// positional (bound) column references so that textual equality means
// structural equality.
func canonicalText(c CNF) string {
	var b strings.Builder
	for i, cl := range c.Clauses {
		if i > 0 {
			b.WriteString(" AND ")
		}
		b.WriteByte('(')
		for j, a := range cl.Atoms {
			if j > 0 {
				b.WriteString(" OR ")
			}
			writeCanonical(&b, a)
		}
		b.WriteByte(')')
	}
	return b.String()
}

func writeCanonical(b *strings.Builder, n Node) {
	switch t := n.(type) {
	case *Const:
		b.WriteString(t.Val.String())
	case *Placeholder:
		fmt.Fprintf(b, "$%d", t.Num)
	case *ColumnRef:
		if t.Old {
			b.WriteString("old.")
		}
		if t.VarIdx >= 0 {
			fmt.Fprintf(b, "#%d.%d", t.VarIdx, t.ColIdx)
		} else {
			b.WriteString(strings.ToLower(t.Var))
			b.WriteByte('.')
			b.WriteString(strings.ToLower(t.Column))
		}
	case *Unary:
		b.WriteString(t.Op.String())
		b.WriteByte('(')
		writeCanonical(b, t.Child)
		b.WriteByte(')')
	case *Binary:
		b.WriteByte('(')
		writeCanonical(b, t.Left)
		b.WriteByte(' ')
		b.WriteString(t.Op.String())
		b.WriteByte(' ')
		writeCanonical(b, t.Right)
		b.WriteByte(')')
	case *FuncCall:
		b.WriteString(strings.ToLower(t.Name))
		b.WriteByte('(')
		for i, a := range t.Args {
			if i > 0 {
				b.WriteByte(',')
			}
			writeCanonical(b, a)
		}
		b.WriteByte(')')
	}
}

// Instantiate substitutes constants for placeholders in a generalized
// tree, returning a concrete copy. consts is indexed by placeholder
// number - 1.
func Instantiate(n Node, consts []types.Value) (Node, error) {
	switch t := n.(type) {
	case nil:
		return nil, nil
	case *Placeholder:
		if t.Num < 1 || t.Num > len(consts) {
			return nil, fmt.Errorf("expr: placeholder $%d out of range (have %d constants)", t.Num, len(consts))
		}
		return Lit(consts[t.Num-1]), nil
	case *Const, *ColumnRef:
		return Clone(t), nil
	case *Unary:
		c, err := Instantiate(t.Child, consts)
		if err != nil {
			return nil, err
		}
		return &Unary{Op: t.Op, Child: c}, nil
	case *Binary:
		l, err := Instantiate(t.Left, consts)
		if err != nil {
			return nil, err
		}
		r, err := Instantiate(t.Right, consts)
		if err != nil {
			return nil, err
		}
		return &Binary{Op: t.Op, Left: l, Right: r}, nil
	case *FuncCall:
		args := make([]Node, len(t.Args))
		for i, a := range t.Args {
			g, err := Instantiate(a, consts)
			if err != nil {
				return nil, err
			}
			args[i] = g
		}
		return &FuncCall{Name: t.Name, Args: args}, nil
	default:
		return nil, fmt.Errorf("expr: cannot instantiate %T", n)
	}
}

// InstantiateCNF applies Instantiate clause-wise.
func InstantiateCNF(c CNF, consts []types.Value) (CNF, error) {
	out := CNF{Clauses: make([]Clause, len(c.Clauses))}
	for i, cl := range c.Clauses {
		atoms := make([]Node, len(cl.Atoms))
		for j, a := range cl.Atoms {
			n, err := Instantiate(a, consts)
			if err != nil {
				return CNF{}, err
			}
			atoms[j] = n
		}
		out.Clauses[i] = Clause{Atoms: atoms}
	}
	return out, nil
}

// EqKey builds the composite equality key [const1..constK] for an
// expression in this signature's class, given its constant vector.
func (s *Signature) EqKey(consts []types.Value) (types.Tuple, error) {
	key := make(types.Tuple, len(s.EqConstNums))
	for i, num := range s.EqConstNums {
		if num < 1 || num > len(consts) {
			return nil, fmt.Errorf("expr: constant %d missing for equality key", num)
		}
		key[i] = consts[num-1]
	}
	return key, nil
}

// AppendTokenEqKey appends the encoded probe key for a token tuple — the
// values of the signature's equality columns in EqCols order, encoded as
// types.EncodeKey encodes the constants' EqKey — to dst, so a prober
// that keeps dst probes without allocating.
func (s *Signature) AppendTokenEqKey(dst []byte, tu types.Tuple) []byte {
	for _, col := range s.EqCols {
		one := [1]types.Value{tu.Get(col)}
		dst = types.EncodeKey(dst, one[:])
	}
	return dst
}
