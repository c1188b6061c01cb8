// Package types defines the value system shared by every TriggerMan
// subsystem: typed scalar values, schemas, and tuples.
//
// The paper's current implementation "supports char, varchar, integer,
// and float data types" (§3); we implement exactly those four plus an
// explicit NULL, with total ordering, hashing and a compact binary
// encoding used by the storage engine.
package types

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the data types supported by the system.
type Kind uint8

const (
	// KindNull is the type of the SQL NULL value.
	KindNull Kind = iota
	// KindInt is a 64-bit signed integer.
	KindInt
	// KindFloat is a 64-bit IEEE-754 float.
	KindFloat
	// KindChar is a fixed-width character string (padded semantics are
	// handled at the schema layer; the value itself is a Go string).
	KindChar
	// KindVarchar is a variable-width character string.
	KindVarchar
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "integer"
	case KindFloat:
		return "float"
	case KindChar:
		return "char"
	case KindVarchar:
		return "varchar"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// KindFromName maps a type name from the command language to a Kind.
// It accepts the spellings int, integer, float, double, real, char,
// character, varchar, text (case-insensitive).
func KindFromName(name string) (Kind, error) {
	switch strings.ToLower(name) {
	case "int", "integer", "bigint", "smallint":
		return KindInt, nil
	case "float", "double", "real":
		return KindFloat, nil
	case "char", "character":
		return KindChar, nil
	case "varchar", "text", "string":
		return KindVarchar, nil
	default:
		return KindNull, fmt.Errorf("types: unknown type name %q", name)
	}
}

// Value is a typed scalar. The zero Value is NULL.
type Value struct {
	kind Kind
	i    int64
	f    float64
	s    string
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// NewInt returns an integer value.
func NewInt(v int64) Value { return Value{kind: KindInt, i: v} }

// NewFloat returns a float value.
func NewFloat(v float64) Value { return Value{kind: KindFloat, f: v} }

// NewString returns a varchar value.
func NewString(v string) Value { return Value{kind: KindVarchar, s: v} }

// NewChar returns a fixed-width char value.
func NewChar(v string) Value { return Value{kind: KindChar, s: v} }

// Kind reports the value's type.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Int returns the integer payload. It panics if the value is not an
// integer; callers must check Kind first or use AsFloat for numerics.
func (v Value) Int() int64 {
	if v.kind != KindInt {
		panic("types: Int() on " + v.kind.String())
	}
	return v.i
}

// Float returns the float payload, panicking on non-floats.
func (v Value) Float() float64 {
	if v.kind != KindFloat {
		panic("types: Float() on " + v.kind.String())
	}
	return v.f
}

// Str returns the string payload, panicking on non-strings.
func (v Value) Str() string {
	if v.kind != KindChar && v.kind != KindVarchar {
		panic("types: Str() on " + v.kind.String())
	}
	return v.s
}

// IsNumeric reports whether the value is an int or float.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// IsString reports whether the value is a char or varchar.
func (v Value) IsString() bool { return v.kind == KindChar || v.kind == KindVarchar }

// AsFloat converts a numeric value to float64.
func (v Value) AsFloat() (float64, bool) {
	switch v.kind {
	case KindInt:
		return float64(v.i), true
	case KindFloat:
		return v.f, true
	default:
		return 0, false
	}
}

// String renders the value for display and for canonical signature text.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindChar, KindVarchar:
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	default:
		return "?"
	}
}

// Compare totally orders values. NULL sorts before everything; numerics
// compare numerically across int/float; strings compare byte-wise.
// Comparing a numeric with a string orders by kind to stay total.
func Compare(a, b Value) int {
	if a.kind == KindNull || b.kind == KindNull {
		switch {
		case a.kind == KindNull && b.kind == KindNull:
			return 0
		case a.kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	if a.IsNumeric() && b.IsNumeric() {
		if a.kind == KindInt && b.kind == KindInt {
			switch {
			case a.i < b.i:
				return -1
			case a.i > b.i:
				return 1
			}
			return 0
		}
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		}
		return 0
	}
	if a.IsString() && b.IsString() {
		return strings.Compare(a.s, b.s)
	}
	// Cross-kind: order numerics before strings.
	an, bn := a.IsNumeric(), b.IsNumeric()
	switch {
	case an && !bn:
		return -1
	case !an && bn:
		return 1
	}
	return 0
}

// Equal reports value equality under Compare semantics (NULL == NULL
// here; SQL three-valued logic is applied at the expression layer).
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// FNV-1a, folded in place so hashing allocates nothing.
const (
	hashSeed  = 14695981039346656037
	hashPrime = 1099511628211
)

// Hash returns a hash of the value consistent with Equal: values that
// compare equal hash equal (int 2 and float 2.0, char and varchar, -0
// and +0). It is the key every in-memory value lookup uses, with Equal
// telling collisions apart.
func (v Value) Hash() uint64 { return v.hashOnto(hashSeed) }

// hashOnto folds a kind tag and the payload into h: numerics as their
// float64 bits in one word, strings as their length and bytes.
func (v Value) hashOnto(h uint64) uint64 {
	switch v.kind {
	case KindInt, KindFloat:
		f, _ := v.AsFloat()
		if f == 0 {
			f = 0 // -0 == +0
		}
		return ((h^1)*hashPrime ^ math.Float64bits(f)) * hashPrime
	case KindChar, KindVarchar:
		h = ((h^2)*hashPrime ^ uint64(len(v.s))) * hashPrime
		for i := 0; i < len(v.s); i++ {
			h = (h ^ uint64(v.s[i])) * hashPrime
		}
		return h
	}
	return h * hashPrime // NULL: tag 0
}

// Column describes one attribute of a schema.
type Column struct {
	Name string
	Kind Kind
}

// Schema is an ordered list of named, typed columns.
type Schema struct {
	Columns []Column
	byName  map[string]int
}

// NewSchema builds a schema and its name lookup table. Column names are
// case-insensitive; duplicates are rejected.
func NewSchema(cols ...Column) (*Schema, error) {
	s := &Schema{Columns: cols, byName: make(map[string]int, len(cols))}
	for i, c := range cols {
		key := strings.ToLower(c.Name)
		if _, dup := s.byName[key]; dup {
			return nil, fmt.Errorf("types: duplicate column %q", c.Name)
		}
		s.byName[key] = i
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error; for tests and literals.
func MustSchema(cols ...Column) *Schema {
	s, err := NewSchema(cols...)
	if err != nil {
		panic(err)
	}
	return s
}

// ColumnIndex returns the position of the named column, or -1.
func (s *Schema) ColumnIndex(name string) int {
	if s.byName == nil {
		return -1
	}
	if i, ok := s.byName[strings.ToLower(name)]; ok {
		return i
	}
	return -1
}

// Arity returns the number of columns.
func (s *Schema) Arity() int { return len(s.Columns) }

// String renders the schema as (name type, ...).
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.Name)
		b.WriteByte(' ')
		b.WriteString(c.Kind.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Tuple is a row of values positionally matching a schema.
type Tuple []Value

// Get returns the i'th value, or NULL when out of range. Out-of-range
// access arises legitimately when an update descriptor carries a
// narrower projection than the schema.
func (t Tuple) Get(i int) Value {
	if i < 0 || i >= len(t) {
		return Null()
	}
	return t[i]
}

// Clone returns a copy of the tuple (values are immutable, so a shallow
// copy of the slice suffices).
func (t Tuple) Clone() Tuple {
	if t == nil {
		return nil
	}
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// String renders the tuple as (v1, v2, ...).
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range t {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Hash returns a hash of the whole tuple consistent with Equal.
func (t Tuple) Hash() uint64 {
	h := uint64(hashSeed)
	for _, v := range t {
		h = v.hashOnto(h)
	}
	return h
}

// HashCols hashes t's projection onto cols without building it: it
// equals Tuple{t.Get(cols[0]), t.Get(cols[1]), ...}.Hash().
func (t Tuple) HashCols(cols []int) uint64 {
	h := uint64(hashSeed)
	for _, c := range cols {
		h = t.Get(c).hashOnto(h)
	}
	return h
}

// Equal reports whether two tuples are value-equal.
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if !Equal(t[i], o[i]) {
			return false
		}
	}
	return true
}
