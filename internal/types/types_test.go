package types

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "null", KindInt: "integer", KindFloat: "float",
		KindChar: "char", KindVarchar: "varchar",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestKindFromName(t *testing.T) {
	for name, want := range map[string]Kind{
		"int": KindInt, "INTEGER": KindInt, "float": KindFloat,
		"DOUBLE": KindFloat, "char": KindChar, "VarChar": KindVarchar,
		"text": KindVarchar,
	} {
		got, err := KindFromName(name)
		if err != nil || got != want {
			t.Errorf("KindFromName(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := KindFromName("blob"); err == nil {
		t.Error("KindFromName(blob) should fail")
	}
}

func TestValueAccessors(t *testing.T) {
	if !Null().IsNull() {
		t.Error("Null() not null")
	}
	if NewInt(7).Int() != 7 {
		t.Error("Int roundtrip")
	}
	if NewFloat(2.5).Float() != 2.5 {
		t.Error("Float roundtrip")
	}
	if NewString("x").Str() != "x" {
		t.Error("Str roundtrip")
	}
	if NewChar("c").Kind() != KindChar {
		t.Error("char kind")
	}
	if !NewInt(1).IsNumeric() || !NewFloat(1).IsNumeric() || NewString("a").IsNumeric() {
		t.Error("IsNumeric")
	}
	if !NewString("a").IsString() || NewInt(1).IsString() {
		t.Error("IsString")
	}
}

func TestValuePanicsOnWrongKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Int() on string should panic")
		}
	}()
	_ = NewString("a").Int()
}

func TestAsFloat(t *testing.T) {
	if f, ok := NewInt(3).AsFloat(); !ok || f != 3 {
		t.Errorf("AsFloat(int 3) = %v, %v", f, ok)
	}
	if f, ok := NewFloat(1.5).AsFloat(); !ok || f != 1.5 {
		t.Errorf("AsFloat(1.5) = %v, %v", f, ok)
	}
	if _, ok := NewString("x").AsFloat(); ok {
		t.Error("AsFloat(string) should fail")
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewInt(2), NewFloat(2.5), -1},
		{NewFloat(2.0), NewInt(2), 0},
		{NewString("a"), NewString("b"), -1},
		{NewString("b"), NewString("b"), 0},
		{NewChar("b"), NewString("b"), 0},
		{Null(), NewInt(0), -1},
		{NewInt(0), Null(), 1},
		{Null(), Null(), 0},
		{NewInt(1), NewString("1"), -1}, // numerics before strings
		{NewString("1"), NewInt(1), 1},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// Hash is the key of every in-memory value lookup (join indexes, groups,
// min/max multisets), so values Equal calls equal must hash equal, and
// hashing must not allocate.
func TestEqualAndHashConsistency(t *testing.T) {
	vals := []Value{
		Null(), NewInt(0), NewFloat(0), NewFloat(math.Copysign(0, -1)),
		NewInt(2), NewFloat(2.0), NewFloat(2.5), NewInt(-7),
		NewChar("x"), NewString("x"), NewString(""), NewString("2"),
	}
	for _, a := range vals {
		for _, b := range vals {
			eq := Equal(a, b)
			if eq && a.Hash() != b.Hash() {
				t.Errorf("%#v and %#v are Equal but hash differently", a, b)
			}
			if !eq && a.Hash() == b.Hash() {
				t.Errorf("%#v and %#v differ but hash alike: suspicious", a, b)
			}
			ta, tb := Tuple{a, NewString("k")}, Tuple{b, NewString("k")}
			if eq && ta.Hash() != tb.Hash() {
				t.Errorf("tuples %v and %v are Equal but hash differently", ta, tb)
			}
		}
	}
	tu := Tuple{NewString("a"), NewInt(1), NewFloat(1)}
	if got, want := tu.HashCols([]int{2, 0}), (Tuple{NewInt(1), NewString("a")}).Hash(); got != want {
		t.Errorf("HashCols %x, hash of the projection %x", got, want)
	}
	if (Tuple{NewString("a"), NewString("bc")}).Hash() == (Tuple{NewString("ab"), NewString("c")}).Hash() {
		t.Error("(a, bc) and (ab, c) hash alike: suspicious")
	}
	if n := testing.AllocsPerRun(100, func() { tu.Hash(); tu[0].Hash(); tu.HashCols([]int{1}) }); n != 0 {
		t.Errorf("hashing allocates %.0f objects", n)
	}
}

func TestValueString(t *testing.T) {
	for _, c := range []struct {
		v    Value
		want string
	}{
		{Null(), "NULL"},
		{NewInt(-5), "-5"},
		{NewFloat(1.5), "1.5"},
		{NewString("it's"), "'it''s'"},
	} {
		if got := c.v.String(); got != c.want {
			t.Errorf("%#v.String() = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestSchema(t *testing.T) {
	s, err := NewSchema(Column{"id", KindInt}, Column{"Name", KindVarchar})
	if err != nil {
		t.Fatal(err)
	}
	if s.Arity() != 2 {
		t.Errorf("arity = %d", s.Arity())
	}
	if s.ColumnIndex("name") != 1 || s.ColumnIndex("ID") != 0 {
		t.Error("case-insensitive lookup failed")
	}
	if s.ColumnIndex("missing") != -1 {
		t.Error("missing column should be -1")
	}
	if _, err := NewSchema(Column{"a", KindInt}, Column{"A", KindInt}); err == nil {
		t.Error("duplicate column should fail")
	}
	want := "(id integer, Name varchar)"
	if s.String() != want {
		t.Errorf("String() = %q, want %q", s.String(), want)
	}
}

func TestSchemaZeroValue(t *testing.T) {
	var s Schema
	if s.ColumnIndex("x") != -1 {
		t.Error("zero schema lookup should be -1")
	}
}

func TestTupleBasics(t *testing.T) {
	tu := Tuple{NewInt(1), NewString("a")}
	if !Equal(tu.Get(0), NewInt(1)) {
		t.Error("Get(0)")
	}
	if !tu.Get(5).IsNull() || !tu.Get(-1).IsNull() {
		t.Error("out-of-range Get should be NULL")
	}
	cl := tu.Clone()
	if !tu.Equal(cl) {
		t.Error("clone not equal")
	}
	cl[0] = NewInt(9)
	if tu.Equal(cl) {
		t.Error("clone aliases original")
	}
	if tu.Equal(Tuple{NewInt(1)}) {
		t.Error("length mismatch should be unequal")
	}
	if Tuple(nil).Clone() != nil {
		t.Error("nil clone should be nil")
	}
	if got := tu.String(); got != "(1, 'a')" {
		t.Errorf("String() = %q", got)
	}
}

func TestEncodeDecodeTuple(t *testing.T) {
	cases := []Tuple{
		{},
		{Null()},
		{NewInt(42), NewFloat(-1.25), NewString("hello"), NewChar("pad"), Null()},
		{NewString("")},
		{NewInt(math.MaxInt64), NewInt(math.MinInt64)},
	}
	for _, tu := range cases {
		enc := EncodeTuple(nil, tu)
		if len(enc) != EncodedSize(tu) {
			t.Errorf("EncodedSize(%v) = %d, actual %d", tu, EncodedSize(tu), len(enc))
		}
		dec, n, err := DecodeTuple(enc)
		if err != nil {
			t.Fatalf("decode %v: %v", tu, err)
		}
		if n != len(enc) {
			t.Errorf("consumed %d of %d", n, len(enc))
		}
		if !tu.Equal(dec) {
			t.Errorf("roundtrip %v -> %v", tu, dec)
		}
		// char/varchar distinction must survive.
		for i := range tu {
			if tu[i].Kind() != dec[i].Kind() {
				t.Errorf("kind changed at %d: %v -> %v", i, tu[i].Kind(), dec[i].Kind())
			}
		}
	}
}

func TestDecodeTupleErrors(t *testing.T) {
	enc := EncodeTuple(nil, Tuple{NewInt(1), NewString("abc")})
	for cut := 0; cut < len(enc); cut++ {
		if _, _, err := DecodeTuple(enc[:cut]); err == nil {
			t.Errorf("truncation at %d not detected", cut)
		}
	}
	bad := []byte{1, 0, 99} // one column, bogus kind tag
	if _, _, err := DecodeTuple(bad); err == nil {
		t.Error("bogus kind tag not detected")
	}
}

func TestEncodeKeyOrderPreserving(t *testing.T) {
	vals := []Value{
		Null(), NewFloat(math.Inf(-1)), NewInt(-1000), NewFloat(-0.5),
		NewInt(0), NewFloat(0.5), NewInt(7), NewFloat(7.5), NewInt(1000),
		NewFloat(math.Inf(1)),
		NewString(""), NewString("a"), NewString("a\x00b"), NewString("ab"),
		NewString("b"),
	}
	for i := 0; i < len(vals); i++ {
		for j := 0; j < len(vals); j++ {
			ka := EncodeKey(nil, Tuple{vals[i]})
			kb := EncodeKey(nil, Tuple{vals[j]})
			want := Compare(vals[i], vals[j])
			got := bytes.Compare(ka, kb)
			if sign(got) != sign(want) {
				t.Errorf("key order (%v, %v): bytes %d, values %d", vals[i], vals[j], got, want)
			}
		}
	}
}

func TestEncodeKeyComposite(t *testing.T) {
	// ("a", 2) must sort before ("ab", 1): first column decides.
	k1 := EncodeKey(nil, Tuple{NewString("a"), NewInt(2)})
	k2 := EncodeKey(nil, Tuple{NewString("ab"), NewInt(1)})
	if bytes.Compare(k1, k2) >= 0 {
		t.Error("composite key order broken by string terminator")
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

// Property: tuple encode/decode roundtrips for arbitrary int/float/string
// mixes.
func TestQuickTupleRoundtrip(t *testing.T) {
	f := func(ints []int64, floats []float64, strs []string) bool {
		var tu Tuple
		for _, v := range ints {
			tu = append(tu, NewInt(v))
		}
		for _, v := range floats {
			if math.IsNaN(v) {
				v = 0 // NaN breaks Compare reflexivity by design; skip
			}
			tu = append(tu, NewFloat(v))
		}
		for _, v := range strs {
			tu = append(tu, NewString(v))
		}
		if len(tu) > 65535 {
			return true
		}
		enc := EncodeTuple(nil, tu)
		dec, n, err := DecodeTuple(enc)
		return err == nil && n == len(enc) && tu.Equal(dec)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: EncodeKey ordering matches Compare ordering for int pairs.
func TestQuickKeyOrderInts(t *testing.T) {
	f := func(a, b int64) bool {
		ka := EncodeKey(nil, Tuple{NewInt(a)})
		kb := EncodeKey(nil, Tuple{NewInt(b)})
		return sign(bytes.Compare(ka, kb)) == sign(Compare(NewInt(a), NewInt(b)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: EncodeKey ordering matches Compare ordering for string pairs.
func TestQuickKeyOrderStrings(t *testing.T) {
	f := func(a, b string) bool {
		ka := EncodeKey(nil, Tuple{NewString(a)})
		kb := EncodeKey(nil, Tuple{NewString(b)})
		return sign(bytes.Compare(ka, kb)) == sign(Compare(NewString(a), NewString(b)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: sorting values by Compare then encoding yields sorted keys.
func TestQuickSortConsistency(t *testing.T) {
	f := func(xs []int64) bool {
		vals := make([]Value, len(xs))
		for i, x := range xs {
			vals[i] = NewInt(x)
		}
		sort.Slice(vals, func(i, j int) bool { return Compare(vals[i], vals[j]) < 0 })
		for i := 1; i < len(vals); i++ {
			ka := EncodeKey(nil, Tuple{vals[i-1]})
			kb := EncodeKey(nil, Tuple{vals[i]})
			if bytes.Compare(ka, kb) > 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTupleHash(t *testing.T) {
	a := Tuple{NewInt(1), NewString("x")}
	b := Tuple{NewInt(1), NewString("x")}
	c := Tuple{NewString("x"), NewInt(1)}
	if a.Hash() != b.Hash() {
		t.Error("equal tuples hash differently")
	}
	if a.Hash() == c.Hash() {
		t.Error("order-insensitive hash: suspicious")
	}
}

func TestDecodeTupleNeverPanicsOnGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 50000; i++ {
		buf := make([]byte, rng.Intn(64))
		rng.Read(buf)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on %x: %v", buf, r)
				}
			}()
			DecodeTuple(buf)
		}()
	}
}

// A two-byte buffer whose header claims 65,535 columns must be refused
// from the header alone, not after sizing a tuple for the claim (which
// would allocate more than 1 MB per decode). The allocation is the mean
// over many decodes: TotalAlloc is process-wide, so a single call's
// window also catches whatever the runtime allocates meanwhile.
func TestDecodeTupleRefusesImpossibleColumnCount(t *testing.T) {
	evil := []byte{0xFF, 0xFF}
	const decodes = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < decodes; i++ {
		if _, _, err := DecodeTuple(evil); err == nil {
			t.Fatal("header claiming 65,535 columns in 0 bytes decoded without error")
		}
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / decodes; got > 4096 {
		t.Fatalf("decoding a 2-byte buffer allocated %d bytes per decode", got)
	}
}
