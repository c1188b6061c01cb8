package storage

import (
	"fmt"
	"sync"
)

// HeapFile is an unordered record file: a linked chain of slotted pages.
// It backs constant tables (§5.1), trigger catalogs, and the update
// queue table. Records are opaque bytes (the catalog layer encodes
// tuples with types.EncodeTuple).
type HeapFile struct {
	mu    sync.Mutex
	bp    *BufferPool
	first PageID
	last  PageID
	count int // live record count, maintained incrementally
}

// CreateHeap allocates a new empty heap file and returns it. The first
// page ID is the heap's persistent identity; store it in a catalog to
// reopen later.
func CreateHeap(bp *BufferPool) (*HeapFile, error) {
	p, err := bp.NewPage()
	if err != nil {
		return nil, err
	}
	p.InitSlotted()
	id := p.ID
	if err := bp.Unpin(id, true); err != nil {
		return nil, err
	}
	return &HeapFile{bp: bp, first: id, last: id}, nil
}

// OpenHeap reattaches to an existing heap by its first page ID, walking
// the chain to find the tail and count live records.
func OpenHeap(bp *BufferPool, first PageID) (*HeapFile, error) {
	h := &HeapFile{bp: bp, first: first, last: first}
	id := first
	for id != InvalidPageID {
		p, err := bp.FetchPage(id)
		if err != nil {
			return nil, err
		}
		h.count += p.LiveRecords()
		next := p.NextPage()
		if err := bp.Unpin(id, false); err != nil {
			return nil, err
		}
		h.last = id
		id = next
	}
	return h, nil
}

// FirstPage returns the heap's identity page ID.
func (h *HeapFile) FirstPage() PageID { return h.first }

// LastPage returns the page at the tail of the chain, where the next
// insert goes unless it has to grow the chain.
func (h *HeapFile) LastPage() PageID {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.last
}

// Count returns the number of live records.
func (h *HeapFile) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Insert appends a record, returning its RID.
func (h *HeapFile) Insert(rec []byte) (RID, error) {
	if len(rec) > PageSize-pageHeaderSize-slotSize {
		return RID{}, fmt.Errorf("storage: record of %d bytes exceeds page capacity", len(rec))
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	p, err := h.bp.FetchPage(h.last)
	if err != nil {
		return RID{}, err
	}
	slot, err := p.InsertRecord(rec)
	if err != nil && p.LiveRecords() < p.NumSlots() {
		// Dead records may hold the space; compact and retry before
		// growing the chain (churn-heavy tables stay small).
		p.Compact()
		slot, err = p.InsertRecord(rec)
	}
	if err == nil {
		rid := RID{Page: h.last, Slot: uint16(slot)}
		h.count++
		return rid, h.bp.Unpin(h.last, true)
	}
	// Tail is full: grow the chain.
	np, nerr := h.bp.NewPage()
	if nerr != nil {
		h.bp.Unpin(h.last, false)
		return RID{}, nerr
	}
	np.InitSlotted()
	p.SetNextPage(np.ID)
	if err := h.bp.Unpin(h.last, true); err != nil {
		h.bp.Unpin(np.ID, true)
		return RID{}, err
	}
	h.last = np.ID
	slot, err = np.InsertRecord(rec)
	if err != nil {
		h.bp.Unpin(np.ID, true)
		return RID{}, err
	}
	h.count++
	rid := RID{Page: np.ID, Slot: uint16(slot)}
	return rid, h.bp.Unpin(np.ID, true)
}

// Get returns a copy of the record at rid, or an error if it is dead or
// out of range.
func (h *HeapFile) Get(rid RID) ([]byte, error) {
	p, err := h.bp.FetchPage(rid.Page)
	if err != nil {
		return nil, err
	}
	rec := p.Record(int(rid.Slot))
	if rec == nil {
		h.bp.Unpin(rid.Page, false)
		return nil, fmt.Errorf("storage: no record at %s", rid)
	}
	out := make([]byte, len(rec))
	copy(out, rec)
	return out, h.bp.Unpin(rid.Page, false)
}

// Delete removes the record at rid.
func (h *HeapFile) Delete(rid RID) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	p, err := h.bp.FetchPage(rid.Page)
	if err != nil {
		return err
	}
	if err := p.DeleteRecord(int(rid.Slot)); err != nil {
		h.bp.Unpin(rid.Page, false)
		return err
	}
	h.count--
	return h.bp.Unpin(rid.Page, true)
}

// Take shows the record at rid to fn and then removes it, in one visit
// to its page. The rec slice is only valid during the call; when fn
// fails the record stays.
func (h *HeapFile) Take(rid RID, fn func(rec []byte) error) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	p, err := h.bp.FetchPage(rid.Page)
	if err != nil {
		return err
	}
	rec := p.Record(int(rid.Slot))
	if rec == nil {
		h.bp.Unpin(rid.Page, false)
		return fmt.Errorf("storage: no record at %s", rid)
	}
	if err := fn(rec); err != nil {
		h.bp.Unpin(rid.Page, false)
		return err
	}
	if err := p.DeleteRecord(int(rid.Slot)); err != nil {
		h.bp.Unpin(rid.Page, false)
		return err
	}
	h.count--
	return h.bp.Unpin(rid.Page, true)
}

// Update replaces the record at rid in place when it fits; otherwise it
// deletes and re-inserts, returning the (possibly new) RID.
func (h *HeapFile) Update(rid RID, rec []byte) (RID, error) {
	h.mu.Lock()
	p, err := h.bp.FetchPage(rid.Page)
	if err != nil {
		h.mu.Unlock()
		return RID{}, err
	}
	err = p.UpdateRecord(int(rid.Slot), rec)
	if err == nil {
		h.mu.Unlock()
		return rid, h.bp.Unpin(rid.Page, true)
	}
	if err != ErrPageFull {
		h.bp.Unpin(rid.Page, false)
		h.mu.Unlock()
		return RID{}, err
	}
	// Relocate: delete here, insert elsewhere.
	if derr := p.DeleteRecord(int(rid.Slot)); derr != nil {
		h.bp.Unpin(rid.Page, false)
		h.mu.Unlock()
		return RID{}, derr
	}
	h.count--
	if uerr := h.bp.Unpin(rid.Page, true); uerr != nil {
		h.mu.Unlock()
		return RID{}, uerr
	}
	h.mu.Unlock()
	return h.Insert(rec)
}

// Scan calls fn for every live record in heap order. The rec slice is
// only valid during the call. Scanning stops early when fn returns
// false.
func (h *HeapFile) Scan(fn func(rid RID, rec []byte) bool) error {
	return h.ScanFrom(h.first, fn)
}

// ScanFrom scans like Scan but starts at the given page of the chain
// (queues use this to skip drained pages).
func (h *HeapFile) ScanFrom(start PageID, fn func(rid RID, rec []byte) bool) error {
	id := start
	for id != InvalidPageID {
		p, err := h.bp.FetchPage(id)
		if err != nil {
			return err
		}
		n := p.NumSlots()
		stop := false
		for i := 0; i < n && !stop; i++ {
			rec := p.Record(i)
			if rec == nil {
				continue
			}
			if !fn(RID{Page: id, Slot: uint16(i)}, rec) {
				stop = true
			}
		}
		next := p.NextPage()
		if err := h.bp.Unpin(id, false); err != nil {
			return err
		}
		if stop {
			return nil
		}
		id = next
	}
	return nil
}
