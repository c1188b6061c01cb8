package expr

import (
	"bytes"
	"testing"

	"triggerman/internal/types"
)

// mkSelCNF builds and binds a single-variable CNF for signature tests.
func mkSelCNF(t *testing.T, n Node) CNF {
	t.Helper()
	bindSingle(t, n, empCols)
	c, err := ToCNF(n)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSignatureEquivalenceClass(t *testing.T) {
	// The paper's example: salary > 80000 and salary > 50000 share one
	// signature (Figure 2); salary = 80000 does not.
	s1, c1, err := ExtractSignature(mkSelCNF(t, Cmp(OpGt, Col("emp", "salary"), Int(80000))))
	if err != nil {
		t.Fatal(err)
	}
	s2, c2, err := ExtractSignature(mkSelCNF(t, Cmp(OpGt, Col("emp", "salary"), Int(50000))))
	if err != nil {
		t.Fatal(err)
	}
	s3, _, err := ExtractSignature(mkSelCNF(t, Cmp(OpEq, Col("emp", "salary"), Int(80000))))
	if err != nil {
		t.Fatal(err)
	}
	if s1.Canonical() != s2.Canonical() {
		t.Errorf("same-shape signatures differ: %q vs %q", s1, s2)
	}
	if s1.Canonical() == s3.Canonical() {
		t.Error("> and = should have different signatures")
	}
	if len(c1) != 1 || c1[0].Int() != 80000 {
		t.Errorf("constants 1 = %v", c1)
	}
	if len(c2) != 1 || c2[0].Int() != 50000 {
		t.Errorf("constants 2 = %v", c2)
	}
}

func TestSignatureEqualityIndexable(t *testing.T) {
	sig, consts, err := ExtractSignature(mkSelCNF(t, Cmp(OpEq, Col("emp", "name"), Str("Bob"))))
	if err != nil {
		t.Fatal(err)
	}
	if sig.Indexability() != IndexEquality {
		t.Fatalf("indexability = %s", sig.Indexability())
	}
	if len(sig.EqCols) != 1 || sig.EqCols[0] != empCols["name"] {
		t.Errorf("EqCols = %v", sig.EqCols)
	}
	if sig.NumConstants != 1 {
		t.Errorf("NumConstants = %d", sig.NumConstants)
	}
	if len(sig.Rest.Clauses) != 0 {
		t.Errorf("rest should be empty: %s", sig.Rest)
	}
	key, err := sig.EqKey(consts)
	if err != nil || len(key) != 1 || key[0].Str() != "Bob" {
		t.Errorf("EqKey = %v, %v", key, err)
	}
	tok := types.Tuple{types.NewString("Bob"), types.NewInt(1), types.NewString("d")}
	if probe := sig.AppendTokenEqKey(nil, tok); !bytes.Equal(probe, types.EncodeKey(nil, key)) {
		t.Errorf("probe %x != key %v", probe, key)
	}
}

func TestSignatureCompositeEquality(t *testing.T) {
	// name='Bob' AND dept='eng' -> composite [const1, const2] key.
	n := And(Cmp(OpEq, Col("emp", "name"), Str("Bob")),
		Cmp(OpEq, Col("emp", "dept"), Str("eng")))
	sig, consts, err := ExtractSignature(mkSelCNF(t, n))
	if err != nil {
		t.Fatal(err)
	}
	if len(sig.EqCols) != 2 {
		t.Fatalf("EqCols = %v", sig.EqCols)
	}
	key, _ := sig.EqKey(consts)
	if key.String() != "('Bob', 'eng')" {
		t.Errorf("key = %v", key)
	}
}

func TestSignatureRangeIndexable(t *testing.T) {
	sig, _, err := ExtractSignature(mkSelCNF(t, Cmp(OpGt, Col("emp", "salary"), Int(80000))))
	if err != nil {
		t.Fatal(err)
	}
	if sig.Indexability() != IndexRange {
		t.Fatalf("indexability = %s", sig.Indexability())
	}
	if sig.RangeCol != empCols["salary"] || sig.RangeOp != OpGt || sig.RangeConstNum != 1 {
		t.Errorf("range: col=%d op=%s num=%d", sig.RangeCol, sig.RangeOp, sig.RangeConstNum)
	}
}

func TestSignatureFlippedComparison(t *testing.T) {
	// 80000 < salary normalizes to salary > 80000.
	sig, _, err := ExtractSignature(mkSelCNF(t, Cmp(OpLt, Int(80000), Col("emp", "salary"))))
	if err != nil {
		t.Fatal(err)
	}
	if sig.Indexability() != IndexRange || sig.RangeOp != OpGt {
		t.Errorf("flip: %s op=%s", sig.Indexability(), sig.RangeOp)
	}
}

func TestSignatureMixedIndexableSplit(t *testing.T) {
	// dept='eng' AND salary > 50000: equality drives the index, range
	// clause becomes rest-of-predicate (E_NI).
	n := And(Cmp(OpEq, Col("emp", "dept"), Str("eng")),
		Cmp(OpGt, Col("emp", "salary"), Int(50000)))
	sig, consts, err := ExtractSignature(mkSelCNF(t, n))
	if err != nil {
		t.Fatal(err)
	}
	if sig.Indexability() != IndexEquality {
		t.Fatalf("indexability = %s", sig.Indexability())
	}
	if len(sig.Rest.Clauses) != 1 {
		t.Fatalf("rest = %s", sig.Rest)
	}
	// Instantiating rest with this expression's constants must yield a
	// predicate testable against tokens.
	rest, err := InstantiateCNF(sig.Rest, consts)
	if err != nil {
		t.Fatal(err)
	}
	env := SingleEnv{New: types.Tuple{types.NewString("Bob"), types.NewInt(60000), types.NewString("eng")}}
	got, err := EvalPredicate(rest.Node(), env)
	if err != nil || got != True {
		t.Errorf("rest eval = %s, %v", got, err)
	}
	env2 := SingleEnv{New: types.Tuple{types.NewString("Bob"), types.NewInt(40000), types.NewString("eng")}}
	if got, _ := EvalPredicate(rest.Node(), env2); got != False {
		t.Errorf("rest eval low salary = %s", got)
	}
}

func TestSignatureDisjunctionNotIndexable(t *testing.T) {
	// (name='Bob' OR dept='eng'): multi-atom clause, not indexable.
	n := Or(Cmp(OpEq, Col("emp", "name"), Str("Bob")),
		Cmp(OpEq, Col("emp", "dept"), Str("eng")))
	sig, consts, err := ExtractSignature(mkSelCNF(t, n))
	if err != nil {
		t.Fatal(err)
	}
	if sig.Indexability() != IndexNone {
		t.Errorf("indexability = %s", sig.Indexability())
	}
	if sig.NumConstants != 2 || len(consts) != 2 {
		t.Errorf("constants = %v", consts)
	}
	if len(sig.Rest.Clauses) != 1 {
		t.Errorf("rest = %s", sig.Rest)
	}
}

func TestSignatureNoConstants(t *testing.T) {
	// salary > :OLD.salary has no constants at all.
	oldRef := &ColumnRef{Var: "emp", Column: "salary", Old: true, VarIdx: -1, ColIdx: -1}
	sig, consts, err := ExtractSignature(mkSelCNF(t, Cmp(OpGt, Col("emp", "salary"), oldRef)))
	if err != nil {
		t.Fatal(err)
	}
	if sig.NumConstants != 0 || len(consts) != 0 {
		t.Errorf("constants = %v", consts)
	}
	if sig.Indexability() != IndexNone {
		t.Errorf("indexability = %s", sig.Indexability())
	}
}

func TestSignatureOldColumnNotIndexable(t *testing.T) {
	// :OLD.salary = 5 must not claim equality-indexability, because the
	// predicate index probes new-image values.
	oldRef := &ColumnRef{Var: "emp", Column: "salary", Old: true, VarIdx: -1, ColIdx: -1}
	sig, _, err := ExtractSignature(mkSelCNF(t, Cmp(OpEq, oldRef, Int(5))))
	if err != nil {
		t.Fatal(err)
	}
	if sig.Indexability() != IndexNone {
		t.Errorf("old-image equality should be IndexNone, got %s", sig.Indexability())
	}
}

func TestSignatureConstantNumbering(t *testing.T) {
	// Constants are numbered left to right (§5).
	n := And(Cmp(OpEq, Col("emp", "name"), Str("A")),
		And(Cmp(OpGt, Col("emp", "salary"), Int(10)),
			Cmp(OpLt, Col("emp", "salary"), Int(20))))
	sig, consts, err := ExtractSignature(mkSelCNF(t, n))
	if err != nil {
		t.Fatal(err)
	}
	if sig.NumConstants != 3 {
		t.Fatalf("NumConstants = %d", sig.NumConstants)
	}
	want := []types.Value{types.NewString("A"), types.NewInt(10), types.NewInt(20)}
	for i := range want {
		if !types.Equal(consts[i], want[i]) {
			t.Errorf("const %d = %v, want %v", i+1, consts[i], want[i])
		}
	}
}

func TestInstantiateRoundtrip(t *testing.T) {
	orig := And(Cmp(OpEq, Col("emp", "name"), Str("Bob")),
		Cmp(OpGt, &Binary{Op: OpMul, Left: Col("emp", "salary"), Right: Float(1.5)}, Int(100)))
	c := mkSelCNF(t, orig)
	sig, consts, err := ExtractSignature(c)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := InstantiateCNF(sig.Generalized, consts)
	if err != nil {
		t.Fatal(err)
	}
	if inst.String() != c.String() {
		t.Errorf("roundtrip: %q vs %q", inst.String(), c.String())
	}
}

func TestInstantiateErrors(t *testing.T) {
	if _, err := Instantiate(&Placeholder{Num: 3}, []types.Value{types.NewInt(1)}); err == nil {
		t.Error("out-of-range placeholder should error")
	}
	n, err := Instantiate(nil, nil)
	if n != nil || err != nil {
		t.Error("nil instantiate")
	}
}

func TestSignatureDifferentColumnsDiffer(t *testing.T) {
	s1, _, _ := ExtractSignature(mkSelCNF(t, Cmp(OpEq, Col("emp", "name"), Str("x"))))
	s2, _, _ := ExtractSignature(mkSelCNF(t, Cmp(OpEq, Col("emp", "dept"), Str("x"))))
	if s1.Canonical() == s2.Canonical() {
		t.Error("different columns should have different signatures")
	}
}

func TestEqKeyErrors(t *testing.T) {
	sig, _, err := ExtractSignature(mkSelCNF(t, Cmp(OpEq, Col("emp", "name"), Str("Bob"))))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sig.EqKey(nil); err == nil {
		t.Error("missing constants should error")
	}
}

func TestIndexabilityString(t *testing.T) {
	if IndexEquality.String() != "equality" || IndexRange.String() != "range" || IndexNone.String() != "none" {
		t.Error("Indexability strings")
	}
}

// Property-style: every generated equality predicate lands in the same
// class as any other with the same column, and instantiation restores
// the original text.
func TestSignatureClassProperty(t *testing.T) {
	var prev *Signature
	for i := int64(0); i < 50; i++ {
		n := Cmp(OpEq, Col("emp", "salary"), Int(i*100))
		sig, consts, err := ExtractSignature(mkSelCNF(t, n))
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil && sig.Canonical() != prev.Canonical() {
			t.Fatalf("iteration %d: signature changed", i)
		}
		prev = sig
		inst, err := InstantiateCNF(sig.Generalized, consts)
		if err != nil {
			t.Fatal(err)
		}
		env := SingleEnv{New: types.Tuple{types.NewString("x"), types.NewInt(i * 100), types.NewString("d")}}
		if got, _ := EvalPredicate(inst.Node(), env); got != True {
			t.Fatalf("instantiated predicate false for matching tuple at %d", i)
		}
	}
}
