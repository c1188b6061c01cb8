package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"triggerman/internal/storage"
	"triggerman/internal/types"
)

func newTree(t testing.TB) *BTree {
	t.Helper()
	bp := storage.NewBufferPool(storage.NewMem(), 256)
	tr, err := Create(bp)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func intKey(v int64) []byte {
	return types.EncodeKey(nil, types.Tuple{types.NewInt(v)})
}

func TestInsertLookupSmall(t *testing.T) {
	tr := newTree(t)
	for i := int64(0); i < 10; i++ {
		added, err := tr.Insert(intKey(i), uint64(i*100))
		if err != nil || !added {
			t.Fatalf("insert %d: %v %v", i, added, err)
		}
	}
	if tr.Len() != 10 {
		t.Errorf("len = %d", tr.Len())
	}
	vals, err := tr.Lookup(intKey(7))
	if err != nil || len(vals) != 1 || vals[0] != 700 {
		t.Errorf("lookup 7 = %v, %v", vals, err)
	}
	vals, _ = tr.Lookup(intKey(99))
	if len(vals) != 0 {
		t.Errorf("missing key returned %v", vals)
	}
}

func TestInsertDuplicatePairsNoOp(t *testing.T) {
	tr := newTree(t)
	added, _ := tr.Insert(intKey(1), 5)
	if !added {
		t.Fatal("first insert")
	}
	added, _ = tr.Insert(intKey(1), 5)
	if added {
		t.Error("duplicate pair should be a no-op")
	}
	if tr.Len() != 1 {
		t.Errorf("len = %d", tr.Len())
	}
	// Same key, different value is a new entry.
	added, _ = tr.Insert(intKey(1), 6)
	if !added || tr.Len() != 2 {
		t.Error("duplicate key distinct value should insert")
	}
	vals, _ := tr.Lookup(intKey(1))
	if len(vals) != 2 || vals[0] != 5 || vals[1] != 6 {
		t.Errorf("lookup = %v", vals)
	}
}

func TestSplitsAndOrder(t *testing.T) {
	tr := newTree(t)
	const n = 5000
	perm := rand.New(rand.NewSource(3)).Perm(n)
	for _, v := range perm {
		if _, err := tr.Insert(intKey(int64(v)), uint64(v)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != n {
		t.Fatalf("len = %d", tr.Len())
	}
	h, err := tr.Height()
	if err != nil {
		t.Fatal(err)
	}
	if h < 2 {
		t.Errorf("height = %d, expected splits", h)
	}
	// Full scan must be sorted and complete.
	var got []uint64
	var prevKey []byte
	err = tr.Scan(nil, func(k []byte, v uint64) bool {
		if prevKey != nil && bytes.Compare(prevKey, k) > 0 {
			t.Fatalf("out of order at %d", v)
		}
		prevKey = append(prevKey[:0], k...)
		got = append(got, v)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("scan saw %d of %d", len(got), n)
	}
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("position %d = %d", i, v)
		}
	}
	// Point lookups for every key.
	for i := 0; i < n; i += 97 {
		vals, err := tr.Lookup(intKey(int64(i)))
		if err != nil || len(vals) != 1 || vals[0] != uint64(i) {
			t.Fatalf("lookup %d = %v, %v", i, vals, err)
		}
	}
}

func TestRangeScan(t *testing.T) {
	tr := newTree(t)
	for i := int64(0); i < 1000; i += 2 { // even numbers
		tr.Insert(intKey(i), uint64(i))
	}
	// Scan from 501: first hit is 502.
	var first uint64 = 0xFFFF
	count := 0
	tr.Scan(intKey(501), func(k []byte, v uint64) bool {
		if first == 0xFFFF {
			first = v
		}
		count++
		return true
	})
	if first != 502 {
		t.Errorf("first = %d", first)
	}
	if count != (1000-502)/2 {
		t.Errorf("count = %d", count)
	}
	// Early termination.
	count = 0
	tr.Scan(nil, func(k []byte, v uint64) bool { count++; return count < 5 })
	if count != 5 {
		t.Errorf("early stop count = %d", count)
	}
}

func TestDelete(t *testing.T) {
	tr := newTree(t)
	for i := int64(0); i < 500; i++ {
		tr.Insert(intKey(i), uint64(i))
	}
	ok, err := tr.Delete(intKey(250), 250)
	if err != nil || !ok {
		t.Fatalf("delete: %v %v", ok, err)
	}
	if ok, _ := tr.Delete(intKey(250), 250); ok {
		t.Error("double delete should be false")
	}
	if ok, _ := tr.Delete(intKey(9999), 1); ok {
		t.Error("deleting missing key should be false")
	}
	if tr.Len() != 499 {
		t.Errorf("len = %d", tr.Len())
	}
	vals, _ := tr.Lookup(intKey(250))
	if len(vals) != 0 {
		t.Errorf("deleted key still found: %v", vals)
	}
	// Delete one value of a duplicate set.
	tr.Insert(intKey(100), 1000)
	tr.Insert(intKey(100), 2000)
	tr.Delete(intKey(100), 1000)
	vals, _ = tr.Lookup(intKey(100))
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	if len(vals) != 2 || vals[0] != 100 || vals[1] != 2000 {
		t.Errorf("after partial delete: %v", vals)
	}
}

func TestContains(t *testing.T) {
	tr := newTree(t)
	tr.Insert(intKey(5), 50)
	if ok, _ := tr.Contains(intKey(5), 50); !ok {
		t.Error("contains existing")
	}
	if ok, _ := tr.Contains(intKey(5), 51); ok {
		t.Error("contains wrong value")
	}
	if ok, _ := tr.Contains(intKey(6), 50); ok {
		t.Error("contains wrong key")
	}
}

func TestVariableLengthStringKeys(t *testing.T) {
	tr := newTree(t)
	words := []string{}
	for i := 0; i < 2000; i++ {
		words = append(words, fmt.Sprintf("key-%06d-%s", i, string(bytes.Repeat([]byte{'x'}, i%40))))
	}
	rand.New(rand.NewSource(9)).Shuffle(len(words), func(i, j int) { words[i], words[j] = words[j], words[i] })
	for i, w := range words {
		key := types.EncodeKey(nil, types.Tuple{types.NewString(w)})
		if _, err := tr.Insert(key, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	sort.Strings(words)
	i := 0
	tr.Scan(nil, func(k []byte, v uint64) bool {
		i++
		return true
	})
	if i != len(words) {
		t.Errorf("scan saw %d of %d", i, len(words))
	}
	for _, w := range []string{words[0], words[500], words[1999]} {
		key := types.EncodeKey(nil, types.Tuple{types.NewString(w)})
		vals, err := tr.Lookup(key)
		if err != nil || len(vals) != 1 {
			t.Fatalf("lookup %q = %v, %v", w, vals, err)
		}
	}
}

func TestKeyTooLarge(t *testing.T) {
	tr := newTree(t)
	if _, err := tr.Insert(make([]byte, MaxKeySize+1), 0); err == nil {
		t.Error("oversize key should fail")
	}
}

func TestPersistenceAcrossOpen(t *testing.T) {
	disk := storage.NewMem()
	bp := storage.NewBufferPool(disk, 64)
	tr, err := Create(bp)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 1000; i++ {
		tr.Insert(intKey(i), uint64(i))
	}
	meta := tr.MetaPage()
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Fresh pool, same disk.
	bp2 := storage.NewBufferPool(disk, 64)
	tr2, err := Open(bp2, meta)
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Len() != 1000 {
		t.Errorf("reopened len = %d", tr2.Len())
	}
	vals, err := tr2.Lookup(intKey(777))
	if err != nil || len(vals) != 1 || vals[0] != 777 {
		t.Errorf("reopened lookup = %v, %v", vals, err)
	}
	// Continue inserting after reopen.
	if _, err := tr2.Insert(intKey(5000), 5000); err != nil {
		t.Fatal(err)
	}
}

func TestHeavyDuplicateKeys(t *testing.T) {
	// One key, thousands of values — the Figure 5 shape (same condition,
	// many triggers).
	tr := newTree(t)
	key := types.EncodeKey(nil, types.Tuple{types.NewString("PENDING")})
	const n = 3000
	for i := 0; i < n; i++ {
		added, err := tr.Insert(key, uint64(i))
		if err != nil || !added {
			t.Fatalf("insert %d: %v %v", i, added, err)
		}
	}
	vals, err := tr.Lookup(key)
	if err != nil || len(vals) != n {
		t.Fatalf("lookup = %d values, %v", len(vals), err)
	}
	for i, v := range vals {
		if v != uint64(i) {
			t.Fatalf("value order broken at %d: %d", i, v)
		}
	}
}

func TestRandomizedAgainstModel(t *testing.T) {
	tr := newTree(t)
	rng := rand.New(rand.NewSource(21))
	model := make(map[string]map[uint64]bool)
	keyOf := func(i int) []byte { return intKey(int64(i % 200)) }
	for step := 0; step < 5000; step++ {
		i := rng.Intn(200)
		k := keyOf(i)
		v := uint64(rng.Intn(20))
		ks := string(k)
		switch rng.Intn(3) {
		case 0, 1:
			added, err := tr.Insert(k, v)
			if err != nil {
				t.Fatal(err)
			}
			if model[ks] == nil {
				model[ks] = make(map[uint64]bool)
			}
			if added == model[ks][v] {
				t.Fatalf("step %d: added=%v but model has=%v", step, added, model[ks][v])
			}
			model[ks][v] = true
		case 2:
			ok, err := tr.Delete(k, v)
			if err != nil {
				t.Fatal(err)
			}
			if ok != (model[ks] != nil && model[ks][v]) {
				t.Fatalf("step %d: delete=%v model=%v", step, ok, model[ks][v])
			}
			if model[ks] != nil {
				delete(model[ks], v)
			}
		}
	}
	total := 0
	for _, vs := range model {
		total += len(vs)
	}
	if tr.Len() != total {
		t.Fatalf("len %d != model %d", tr.Len(), total)
	}
	// Verify every model entry via Contains.
	for ks, vs := range model {
		for v := range vs {
			if ok, _ := tr.Contains([]byte(ks), v); !ok {
				t.Fatalf("missing (%x, %d)", ks, v)
			}
		}
	}
}

func TestCompositeKeyRange(t *testing.T) {
	// Composite keys (dept, salary) as in the clustered constant table.
	tr := newTree(t)
	depts := []string{"eng", "ops", "sales"}
	for _, d := range depts {
		for s := int64(0); s < 100; s += 10 {
			key := types.EncodeKey(nil, types.Tuple{types.NewString(d), types.NewInt(s)})
			tr.Insert(key, uint64(s))
		}
	}
	// Prefix scan over "ops": start at ("ops", minimal) and stop when the
	// prefix changes.
	prefix := types.EncodeKey(nil, types.Tuple{types.NewString("ops")})
	count := 0
	tr.Scan(prefix, func(k []byte, v uint64) bool {
		if !bytes.HasPrefix(k, prefix) {
			return false
		}
		count++
		return true
	})
	if count != 10 {
		t.Errorf("prefix scan saw %d", count)
	}
}

func TestBigEndianValueOrdering(t *testing.T) {
	// Values under the same key must come back in ascending value order.
	tr := newTree(t)
	k := intKey(1)
	for _, v := range []uint64{5, 1, 9, 3} {
		tr.Insert(k, v)
	}
	vals, _ := tr.Lookup(k)
	want := []uint64{1, 3, 5, 9}
	for i := range want {
		if vals[i] != want[i] {
			t.Fatalf("vals = %v", vals)
		}
	}
	_ = binary.LittleEndian // silence potential unused import on edits
}
