package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

func TestSlottedPageBasics(t *testing.T) {
	var p Page
	p.InitSlotted()
	if p.NumSlots() != 0 || p.LiveRecords() != 0 {
		t.Fatal("fresh page not empty")
	}
	s1, err := p.InsertRecord([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := p.InsertRecord([]byte("world!"))
	if err != nil {
		t.Fatal(err)
	}
	if string(p.Record(s1)) != "hello" || string(p.Record(s2)) != "world!" {
		t.Error("record retrieval")
	}
	if p.Record(99) != nil || p.Record(-1) != nil {
		t.Error("out-of-range should be nil")
	}
	if err := p.DeleteRecord(s1); err != nil {
		t.Fatal(err)
	}
	if p.Record(s1) != nil {
		t.Error("deleted record still visible")
	}
	if err := p.DeleteRecord(s1); err == nil {
		t.Error("double delete should fail")
	}
	if p.LiveRecords() != 1 {
		t.Errorf("live = %d", p.LiveRecords())
	}
	// Dead slot is reused.
	s3, err := p.InsertRecord([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if s3 != s1 {
		t.Errorf("dead slot not reused: got %d want %d", s3, s1)
	}
}

func TestSlottedPageFull(t *testing.T) {
	var p Page
	p.InitSlotted()
	rec := make([]byte, 100)
	n := 0
	for {
		if _, err := p.InsertRecord(rec); err != nil {
			break
		}
		n++
	}
	if n < 35 || n > 40 { // 4096/104-ish
		t.Errorf("inserted %d 100-byte records", n)
	}
	if p.FreeSpace() >= 100 {
		t.Error("free space after fill")
	}
}

func TestSlottedPageUpdate(t *testing.T) {
	var p Page
	p.InitSlotted()
	s, _ := p.InsertRecord([]byte("aaaa"))
	// Shrink in place.
	if err := p.UpdateRecord(s, []byte("bb")); err != nil {
		t.Fatal(err)
	}
	if string(p.Record(s)) != "bb" {
		t.Error("in-place shrink")
	}
	// Grow within page.
	if err := p.UpdateRecord(s, bytes.Repeat([]byte("c"), 500)); err != nil {
		t.Fatal(err)
	}
	if len(p.Record(s)) != 500 {
		t.Error("grow")
	}
	if err := p.UpdateRecord(99, []byte("x")); err == nil {
		t.Error("update invalid slot")
	}
	// Fill the page then try to grow: must return ErrPageFull.
	for {
		if _, err := p.InsertRecord(make([]byte, 200)); err != nil {
			break
		}
	}
	if err := p.UpdateRecord(s, make([]byte, 3000)); err != ErrPageFull {
		t.Errorf("want ErrPageFull, got %v", err)
	}
}

func TestSlottedPageCompact(t *testing.T) {
	var p Page
	p.InitSlotted()
	var slots []int
	for i := 0; i < 10; i++ {
		s, err := p.InsertRecord([]byte(fmt.Sprintf("record-%02d", i)))
		if err != nil {
			t.Fatal(err)
		}
		slots = append(slots, s)
	}
	for i := 0; i < 10; i += 2 {
		p.DeleteRecord(slots[i])
	}
	before := p.FreeSpace()
	p.Compact()
	if p.FreeSpace() <= before {
		t.Error("compact did not reclaim space")
	}
	for i := 1; i < 10; i += 2 {
		want := fmt.Sprintf("record-%02d", i)
		if string(p.Record(slots[i])) != want {
			t.Errorf("slot %d = %q, want %q", slots[i], p.Record(slots[i]), want)
		}
	}
}

func TestRIDPack(t *testing.T) {
	r := RID{Page: 123456, Slot: 789}
	if UnpackRID(r.Pack()) != r {
		t.Error("RID pack roundtrip")
	}
	if r.String() != "(123456,789)" {
		t.Errorf("RID string = %s", r)
	}
}

func TestQuickRIDPack(t *testing.T) {
	f := func(page uint32, slot uint16) bool {
		r := RID{Page: PageID(page), Slot: slot}
		return UnpackRID(r.Pack()) == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMemDiskManager(t *testing.T) {
	d := NewMem()
	id, err := d.AllocatePage()
	if err != nil || id != 0 {
		t.Fatalf("alloc: %v %v", id, err)
	}
	buf := make([]byte, PageSize)
	buf[0] = 42
	if err := d.WritePage(id, buf); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, PageSize)
	if err := d.ReadPage(id, out); err != nil || out[0] != 42 {
		t.Fatal("read back")
	}
	if err := d.ReadPage(5, out); err == nil {
		t.Error("unallocated read should fail")
	}
	if err := d.WritePage(5, buf); err == nil {
		t.Error("unallocated write should fail")
	}
	if r, w := d.Reads, d.Writes; r != 1 || w != 1 {
		t.Errorf("io counts = %d, %d", r, w)
	}
	if d.NumPages() != 1 {
		t.Error("NumPages")
	}
	if d.Sync() != nil || d.Close() != nil {
		t.Error("sync/close")
	}
}

func TestFileDiskManager(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "test.db")
	d, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	id, err := d.AllocatePage()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	copy(buf, "persistent data")
	if err := d.WritePage(id, buf); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen and verify.
	d2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.NumPages() != 1 {
		t.Fatalf("pages after reopen = %d", d2.NumPages())
	}
	out := make([]byte, PageSize)
	if err := d2.ReadPage(id, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(out, []byte("persistent data")) {
		t.Error("data lost across reopen")
	}
	if err := d2.ReadPage(9, out); err == nil {
		t.Error("unallocated read should fail")
	}
	// Torn file detection.
	if err := os.WriteFile(filepath.Join(dir, "torn.db"), []byte("xyz"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(filepath.Join(dir, "torn.db")); err == nil {
		t.Error("torn file should fail to open")
	}
}

func TestBufferPoolHitMissEvict(t *testing.T) {
	d := NewMem()
	bp := NewBufferPool(d, 2)
	p1, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	p1.InitSlotted()
	p1.InsertRecord([]byte("one"))
	id1 := p1.ID
	bp.Unpin(id1, true)

	p2, _ := bp.NewPage()
	p2.InitSlotted()
	id2 := p2.ID
	bp.Unpin(id2, true)

	// Third page evicts LRU (id1, dirty -> flushed).
	p3, _ := bp.NewPage()
	id3 := p3.ID
	bp.Unpin(id3, true)

	st := bp.Stats()
	if st.Evictions != 1 || st.Flushes != 1 {
		t.Errorf("stats = %+v", st)
	}
	// Re-fetch id1: must come back from disk with its record intact.
	p1b, err := bp.FetchPage(id1)
	if err != nil {
		t.Fatal(err)
	}
	if string(p1b.Record(0)) != "one" {
		t.Error("flushed page lost data")
	}
	bp.Unpin(id1, false)
	st = bp.Stats()
	if st.Misses < 1 {
		t.Errorf("misses = %d", st.Misses)
	}
	// Hit path.
	if _, err := bp.FetchPage(id1); err != nil {
		t.Fatal(err)
	}
	bp.Unpin(id1, false)
	if bp.Stats().Hits < 1 {
		t.Error("no hits recorded")
	}
}

func TestBufferPoolAllPinned(t *testing.T) {
	bp := NewBufferPool(NewMem(), 1)
	p, _ := bp.NewPage()
	_ = p
	if _, err := bp.NewPage(); err == nil {
		t.Error("pool with all frames pinned should fail")
	}
}

func TestBufferPoolUnpinErrors(t *testing.T) {
	bp := NewBufferPool(NewMem(), 2)
	if err := bp.Unpin(99, false); err == nil {
		t.Error("unpin uncached")
	}
	p, _ := bp.NewPage()
	bp.Unpin(p.ID, false)
	if err := bp.Unpin(p.ID, false); err == nil {
		t.Error("unpin unpinned")
	}
}

func TestBufferPoolFlushAll(t *testing.T) {
	d := NewMem()
	bp := NewBufferPool(d, 4)
	p, _ := bp.NewPage()
	p.InitSlotted()
	p.InsertRecord([]byte("flush me"))
	bp.Unpin(p.ID, true)
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Read raw from disk.
	buf := make([]byte, PageSize)
	if err := d.ReadPage(p.ID, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf, []byte("flush me")) {
		t.Error("FlushAll did not persist")
	}
}

func TestHeapInsertGetDelete(t *testing.T) {
	bp := NewBufferPool(NewMem(), 8)
	h, err := CreateHeap(bp)
	if err != nil {
		t.Fatal(err)
	}
	rid, err := h.Insert([]byte("record one"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.Get(rid)
	if err != nil || string(got) != "record one" {
		t.Fatalf("get = %q, %v", got, err)
	}
	if h.Count() != 1 {
		t.Error("count")
	}
	if err := h.Delete(rid); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Get(rid); err == nil {
		t.Error("get after delete should fail")
	}
	if h.Count() != 0 {
		t.Error("count after delete")
	}
	if _, err := h.Insert(make([]byte, PageSize)); err == nil {
		t.Error("oversized record should fail")
	}
}

func TestHeapGrowsAcrossPages(t *testing.T) {
	bp := NewBufferPool(NewMem(), 16)
	h, _ := CreateHeap(bp)
	rec := make([]byte, 500)
	var rids []RID
	for i := 0; i < 50; i++ { // ~7 per page -> ~8 pages
		rec[0] = byte(i)
		rid, err := h.Insert(rec)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	pages := map[PageID]bool{}
	for _, rid := range rids {
		pages[rid.Page] = true
	}
	if len(pages) < 5 {
		t.Errorf("pages = %d, expected growth", len(pages))
	}
	for i, rid := range rids {
		got, err := h.Get(rid)
		if err != nil || got[0] != byte(i) {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	// Scan sees all 50 in order of pages.
	n := 0
	if err := h.Scan(func(rid RID, rec []byte) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 50 {
		t.Errorf("scan saw %d", n)
	}
	// Early stop.
	n = 0
	h.Scan(func(RID, []byte) bool { n++; return n < 3 })
	if n != 3 {
		t.Errorf("early stop saw %d", n)
	}
}

func TestHeapUpdate(t *testing.T) {
	bp := NewBufferPool(NewMem(), 8)
	h, _ := CreateHeap(bp)
	rid, _ := h.Insert([]byte("short"))
	// In-place update.
	nrid, err := h.Update(rid, []byte("tiny"))
	if err != nil || nrid != rid {
		t.Fatalf("in-place update: %v %v", nrid, err)
	}
	got, _ := h.Get(rid)
	if string(got) != "tiny" {
		t.Error("update content")
	}
	// Force relocation: fill the page, then grow the record.
	for {
		p, _ := bp.FetchPage(rid.Page)
		free := p.FreeSpace()
		bp.Unpin(rid.Page, false)
		if free < 300 {
			break
		}
		h.Insert(make([]byte, 250))
	}
	big := bytes.Repeat([]byte("z"), 3000)
	nrid, err = h.Update(rid, big)
	if err != nil {
		t.Fatal(err)
	}
	if nrid == rid {
		t.Error("expected relocation")
	}
	got, _ = h.Get(nrid)
	if !bytes.Equal(got, big) {
		t.Error("relocated content")
	}
	if h.Count() == 0 {
		t.Error("count after relocation")
	}
}

func TestHeapReopen(t *testing.T) {
	d := NewMem()
	bp := NewBufferPool(d, 8)
	h, _ := CreateHeap(bp)
	var keep RID
	for i := 0; i < 20; i++ {
		rid, _ := h.Insert([]byte(fmt.Sprintf("row %d", i)))
		if i == 7 {
			keep = rid
		}
	}
	h.Delete(keep)
	bp.FlushAll()

	bp2 := NewBufferPool(d, 8)
	h2, err := OpenHeap(bp2, h.FirstPage())
	if err != nil {
		t.Fatal(err)
	}
	if h2.Count() != 19 {
		t.Errorf("reopened count = %d", h2.Count())
	}
	// Inserts continue at the tail.
	if _, err := h2.Insert([]byte("after reopen")); err != nil {
		t.Fatal(err)
	}
	if h2.Count() != 20 {
		t.Error("count after reopen insert")
	}
}

func TestHeapRandomChurn(t *testing.T) {
	bp := NewBufferPool(NewMem(), 32)
	h, _ := CreateHeap(bp)
	rng := rand.New(rand.NewSource(11))
	live := make(map[RID][]byte)
	var order []RID
	for step := 0; step < 2000; step++ {
		switch {
		case len(order) == 0 || rng.Intn(3) > 0:
			rec := make([]byte, 10+rng.Intn(200))
			rng.Read(rec)
			rid, err := h.Insert(rec)
			if err != nil {
				t.Fatal(err)
			}
			live[rid] = rec
			order = append(order, rid)
		default:
			i := rng.Intn(len(order))
			rid := order[i]
			order = append(order[:i], order[i+1:]...)
			if err := h.Delete(rid); err != nil {
				t.Fatal(err)
			}
			delete(live, rid)
		}
	}
	if h.Count() != len(live) {
		t.Fatalf("count %d != live %d", h.Count(), len(live))
	}
	seen := 0
	err := h.Scan(func(rid RID, rec []byte) bool {
		want, ok := live[rid]
		if !ok {
			t.Fatalf("scan found dead rid %s", rid)
		}
		if !bytes.Equal(rec, want) {
			t.Fatalf("content mismatch at %s", rid)
		}
		seen++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != len(live) {
		t.Errorf("scan saw %d of %d", seen, len(live))
	}
}

func TestBufferPoolSmallCapacityWorkload(t *testing.T) {
	// A heap bigger than the pool still works (pages cycle through).
	bp := NewBufferPool(NewMem(), 2)
	h, _ := CreateHeap(bp)
	var rids []RID
	for i := 0; i < 100; i++ {
		rid, err := h.Insert(bytes.Repeat([]byte{byte(i)}, 300))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	for i, rid := range rids {
		got, err := h.Get(rid)
		if err != nil || got[0] != byte(i) {
			t.Fatalf("get %d: %v", i, err)
		}
	}
	if bp.Stats().Evictions == 0 {
		t.Error("expected evictions with tiny pool")
	}
}
