// Package btree implements a disk-backed B+tree over the storage
// engine's buffer pool. It provides the clustered composite-key index
// the paper puts on constant tables ("a clustered index on
// [const1, ... constK] as a composite key", §5.1), and the secondary
// indexes used by the mini-SQL executor.
//
// Keys are arbitrary byte strings compared lexicographically (the types
// package's EncodeKey produces order-preserving encodings of tuples);
// values are uint64 payloads (packed RIDs or trigger IDs). Duplicate
// keys are allowed: entries are ordered by (key, value), so exact-pair
// deletion is supported. Deletion is lazy (no page merging); pages
// emptied by deletes are reused only through fresh inserts, which is the
// standard simplification for append-heavy workloads like trigger
// catalogs.
package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"

	"triggerman/internal/storage"
)

const (
	nodeLeaf     = 0
	nodeInternal = 1

	// header layout: type(1) pad(1) nKeys(2) freeEnd(2) link(4)
	// leaf link = right sibling; internal link = leftmost child.
	hdrSize = 10

	cellPtrSize = 2

	// MaxKeySize bounds keys so at least 4 cells fit on a page.
	MaxKeySize = 512
)

// BTree is the index handle. All methods are safe for concurrent use
// through a single tree-level mutex (coarse, but the trigger workloads
// are read-mostly and partitioned above this layer).
type BTree struct {
	mu   sync.Mutex
	bp   *storage.BufferPool
	meta storage.PageID
	root storage.PageID
	size int // entry count, cached in meta
}

// Create allocates a new empty tree and returns it. The returned
// MetaPage is the tree's persistent identity.
func Create(bp *storage.BufferPool) (*BTree, error) {
	meta, err := bp.NewPage()
	if err != nil {
		return nil, err
	}
	metaID := meta.ID
	rootPage, err := bp.NewPage()
	if err != nil {
		bp.Unpin(metaID, true)
		return nil, err
	}
	initNode(rootPage, nodeLeaf)
	rootID := rootPage.ID
	if err := bp.Unpin(rootID, true); err != nil {
		return nil, err
	}
	t := &BTree{bp: bp, meta: metaID, root: rootID}
	t.writeMeta(meta)
	if err := bp.Unpin(metaID, true); err != nil {
		return nil, err
	}
	return t, nil
}

// Open reattaches to an existing tree by its meta page ID.
func Open(bp *storage.BufferPool, metaID storage.PageID) (*BTree, error) {
	p, err := bp.FetchPage(metaID)
	if err != nil {
		return nil, err
	}
	t := &BTree{bp: bp, meta: metaID}
	t.root = storage.PageID(binary.LittleEndian.Uint32(p.Data[0:]))
	t.size = int(binary.LittleEndian.Uint64(p.Data[4:]))
	return t, bp.Unpin(metaID, false)
}

// MetaPage returns the tree's persistent identity page.
func (t *BTree) MetaPage() storage.PageID { return t.meta }

// Len returns the number of entries.
func (t *BTree) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.size
}

func (t *BTree) writeMeta(p *storage.Page) {
	binary.LittleEndian.PutUint32(p.Data[0:], uint32(t.root))
	binary.LittleEndian.PutUint64(p.Data[4:], uint64(t.size))
}

func (t *BTree) syncMeta() error {
	p, err := t.bp.FetchPage(t.meta)
	if err != nil {
		return err
	}
	t.writeMeta(p)
	return t.bp.Unpin(t.meta, true)
}

// --- node accessors (operating on a pinned page) ---

func initNode(p *storage.Page, typ byte) {
	p.Data[0] = typ
	p.Data[1] = 0
	setNKeys(p, 0)
	setFreeEnd(p, storage.PageSize)
	setLink(p, storage.InvalidPageID)
}

func nodeType(p *storage.Page) byte { return p.Data[0] }
func nKeys(p *storage.Page) int     { return int(binary.LittleEndian.Uint16(p.Data[2:])) }
func setNKeys(p *storage.Page, n int) {
	binary.LittleEndian.PutUint16(p.Data[2:], uint16(n))
}
func setFreeEnd(p *storage.Page, n int) {
	// PageSize (4096) itself does not fit a distinct uint16 pattern, so
	// the empty-page value is encoded as 0xFFFF.
	if n == storage.PageSize {
		binary.LittleEndian.PutUint16(p.Data[4:], 0xFFFF)
		return
	}
	binary.LittleEndian.PutUint16(p.Data[4:], uint16(n))
}
func realFreeEnd(p *storage.Page) int {
	v := binary.LittleEndian.Uint16(p.Data[4:])
	if v == 0xFFFF {
		return storage.PageSize
	}
	return int(v)
}
func link(p *storage.Page) storage.PageID {
	return storage.PageID(binary.LittleEndian.Uint32(p.Data[6:]))
}
func setLink(p *storage.Page, id storage.PageID) {
	binary.LittleEndian.PutUint32(p.Data[6:], uint32(id))
}

func cellPtr(p *storage.Page, i int) int {
	return int(binary.LittleEndian.Uint16(p.Data[hdrSize+i*cellPtrSize:]))
}
func setCellPtr(p *storage.Page, i, off int) {
	binary.LittleEndian.PutUint16(p.Data[hdrSize+i*cellPtrSize:], uint16(off))
}

// leafCell returns (key, value) of leaf cell i.
// Leaf cell layout: klen(2) + key + val(8).
func leafCell(p *storage.Page, i int) (key []byte, val uint64) {
	off := cellPtr(p, i)
	klen := int(binary.LittleEndian.Uint16(p.Data[off:]))
	key = p.Data[off+2 : off+2+klen]
	return key, binary.LittleEndian.Uint64(p.Data[off+2+klen:])
}

// internalCell returns the full separator entry (key, val) and the child
// page holding entries >= that separator.
// Internal cell layout: klen(2) + key + sepVal(8) + child(4).
func internalCell(p *storage.Page, i int) (key []byte, sepVal uint64, child storage.PageID) {
	off := cellPtr(p, i)
	klen := int(binary.LittleEndian.Uint16(p.Data[off:]))
	key = p.Data[off+2 : off+2+klen]
	body := p.Data[off+2+klen:]
	return key, binary.LittleEndian.Uint64(body), storage.PageID(binary.LittleEndian.Uint32(body[8:]))
}

func cellSize(p *storage.Page, key []byte) int {
	if nodeType(p) == nodeLeaf {
		return 2 + len(key) + 8
	}
	return 2 + len(key) + 8 + 4
}

func freeSpace(p *storage.Page) int {
	return realFreeEnd(p) - hdrSize - nKeys(p)*cellPtrSize
}

// insertCellAt writes a cell and splices its pointer at position i.
// For leaves, payload is the value and child is ignored; for internal
// nodes, payload is the separator's value and child the page pointer.
func insertCellAt(p *storage.Page, i int, key []byte, payload uint64, child storage.PageID) {
	size := cellSize(p, key)
	end := realFreeEnd(p)
	off := end - size
	binary.LittleEndian.PutUint16(p.Data[off:], uint16(len(key)))
	copy(p.Data[off+2:], key)
	binary.LittleEndian.PutUint64(p.Data[off+2+len(key):], payload)
	if nodeType(p) != nodeLeaf {
		binary.LittleEndian.PutUint32(p.Data[off+2+len(key)+8:], uint32(child))
	}
	setFreeEnd(p, off)
	n := nKeys(p)
	// shift pointers [i, n) right by one
	base := hdrSize
	copy(p.Data[base+(i+1)*cellPtrSize:base+(n+1)*cellPtrSize],
		p.Data[base+i*cellPtrSize:base+n*cellPtrSize])
	setCellPtr(p, i, off)
	setNKeys(p, n+1)
}

// removeCellAt deletes pointer i (cell space reclaimed on compaction).
func removeCellAt(p *storage.Page, i int) {
	n := nKeys(p)
	base := hdrSize
	copy(p.Data[base+i*cellPtrSize:base+(n-1)*cellPtrSize],
		p.Data[base+(i+1)*cellPtrSize:base+n*cellPtrSize])
	setNKeys(p, n-1)
}

// compactNode rewrites live cells contiguously to reclaim dead space.
func compactNode(p *storage.Page) {
	n := nKeys(p)
	type entry struct {
		key     []byte
		payload uint64
		child   storage.PageID
	}
	entries := make([]entry, n)
	typ := nodeType(p)
	for i := 0; i < n; i++ {
		var e entry
		if typ == nodeLeaf {
			k, v := leafCell(p, i)
			e = entry{append([]byte(nil), k...), v, 0}
		} else {
			k, v, c := internalCell(p, i)
			e = entry{append([]byte(nil), k...), v, c}
		}
		entries[i] = e
	}
	lk := link(p)
	initNode(p, typ)
	setLink(p, lk)
	for i, e := range entries {
		insertCellAt(p, i, e.key, e.payload, e.child)
	}
}

// compareEntry orders (key, val) pairs.
func compareEntry(k1 []byte, v1 uint64, k2 []byte, v2 uint64) int {
	if c := bytes.Compare(k1, k2); c != 0 {
		return c
	}
	switch {
	case v1 < v2:
		return -1
	case v1 > v2:
		return 1
	}
	return 0
}

// leafLowerBound finds the first cell index with (key,val) >= target.
func leafLowerBound(p *storage.Page, key []byte, val uint64) int {
	lo, hi := 0, nKeys(p)
	for lo < hi {
		mid := (lo + hi) / 2
		k, v := leafCell(p, mid)
		if compareEntry(k, v, key, val) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// internalChild picks the child to descend for entry (key, val): the
// child of the last separator <= (key, val), or the leftmost child when
// (key, val) precedes every separator. Separators are full (key, val)
// boundary entries so duplicate keys spanning leaves stay ordered.
func internalChild(p *storage.Page, key []byte, val uint64) storage.PageID {
	lo, hi := 0, nKeys(p)
	for lo < hi {
		mid := (lo + hi) / 2
		k, v, _ := internalCell(p, mid)
		if compareEntry(k, v, key, val) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return link(p)
	}
	_, _, c := internalCell(p, lo-1)
	return c
}

// Insert adds (key, val). Duplicate (key, val) pairs are stored once:
// re-inserting an existing pair is a no-op returning false.
func (t *BTree) Insert(key []byte, val uint64) (bool, error) {
	if len(key) > MaxKeySize {
		return false, fmt.Errorf("btree: key of %d bytes exceeds max %d", len(key), MaxKeySize)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	promoted, newChild, added, err := t.insertRec(t.root, key, val)
	if err != nil {
		return false, err
	}
	if promoted != nil {
		// Root split: new root with old root as leftmost child.
		nr, err := t.bp.NewPage()
		if err != nil {
			return false, err
		}
		initNode(nr, nodeInternal)
		setLink(nr, t.root)
		insertCellAt(nr, 0, promoted.key, promoted.val, newChild)
		t.root = nr.ID
		if err := t.bp.Unpin(nr.ID, true); err != nil {
			return false, err
		}
	}
	if added {
		t.size++
	}
	return added, t.syncMeta()
}

// promotedKey carries a separator entry up after a split: the first
// (key, val) of the new right sibling, so descent can discriminate
// between duplicates of the same key.
type promotedKey struct {
	key []byte
	val uint64
}

// insertRec descends to the leaf, inserts, and splits on the way back
// up. It returns a promoted separator and the new right sibling when the
// node split.
func (t *BTree) insertRec(id storage.PageID, key []byte, val uint64) (*promotedKey, storage.PageID, bool, error) {
	p, err := t.bp.FetchPage(id)
	if err != nil {
		return nil, 0, false, err
	}
	if nodeType(p) == nodeLeaf {
		idx := leafLowerBound(p, key, val)
		if idx < nKeys(p) {
			k, v := leafCell(p, idx)
			if compareEntry(k, v, key, val) == 0 {
				return nil, 0, false, t.bp.Unpin(id, false)
			}
		}
		need := cellSize(p, key) + cellPtrSize
		if freeSpace(p) < need {
			compactNode(p)
		}
		if freeSpace(p) < need {
			pk, right, err := t.splitLeaf(p, idx, key, val)
			if err != nil {
				t.bp.Unpin(id, true)
				return nil, 0, false, err
			}
			return pk, right, true, t.bp.Unpin(id, true)
		}
		insertCellAt(p, idx, key, val, 0)
		return nil, 0, true, t.bp.Unpin(id, true)
	}
	// Internal node.
	child := internalChild(p, key, val)
	// Unpin before recursing to keep pin footprint at one page per level.
	if err := t.bp.Unpin(id, false); err != nil {
		return nil, 0, false, err
	}
	pk, newChild, added, err := t.insertRec(child, key, val)
	if err != nil || pk == nil {
		return nil, 0, added, err
	}
	// Insert the promoted separator into this node.
	p, err = t.bp.FetchPage(id)
	if err != nil {
		return nil, 0, added, err
	}
	idx := t.separatorSlot(p, pk.key, pk.val)
	need := cellSize(p, pk.key) + cellPtrSize
	if freeSpace(p) < need {
		compactNode(p)
	}
	if freeSpace(p) < need {
		pk2, right, serr := t.splitInternal(p, idx, pk, newChild)
		if serr != nil {
			t.bp.Unpin(id, true)
			return nil, 0, added, serr
		}
		return pk2, right, added, t.bp.Unpin(id, true)
	}
	insertCellAt(p, idx, pk.key, pk.val, newChild)
	return nil, 0, added, t.bp.Unpin(id, true)
}

func (t *BTree) separatorSlot(p *storage.Page, key []byte, val uint64) int {
	lo, hi := 0, nKeys(p)
	for lo < hi {
		mid := (lo + hi) / 2
		k, v, _ := internalCell(p, mid)
		if compareEntry(k, v, key, val) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// splitLeaf splits a full leaf while inserting (key,val) at idx, links
// siblings, and returns the separator to promote: the first (key, val)
// entry of the right sibling.
func (t *BTree) splitLeaf(p *storage.Page, idx int, key []byte, val uint64) (*promotedKey, storage.PageID, error) {
	n := nKeys(p)
	type entry struct {
		key []byte
		val uint64
	}
	entries := make([]entry, 0, n+1)
	for i := 0; i < n; i++ {
		k, v := leafCell(p, i)
		kc := append([]byte(nil), k...)
		entries = append(entries, entry{kc, v})
	}
	kc := append([]byte(nil), key...)
	entries = append(entries[:idx], append([]entry{{kc, val}}, entries[idx:]...)...)
	mid := len(entries) / 2

	right, err := t.bp.NewPage()
	if err != nil {
		return nil, 0, err
	}
	initNode(right, nodeLeaf)
	setLink(right, link(p))
	for i, e := range entries[mid:] {
		insertCellAt(right, i, e.key, e.val, 0)
	}
	initNode(p, nodeLeaf)
	setLink(p, right.ID)
	for i, e := range entries[:mid] {
		insertCellAt(p, i, e.key, e.val, 0)
	}
	sep := entries[mid]
	rid := right.ID
	if err := t.bp.Unpin(rid, true); err != nil {
		return nil, 0, err
	}
	return &promotedKey{key: sep.key, val: sep.val}, rid, nil
}

// splitInternal splits a full internal node while inserting the
// separator entry pk (pointing at child) at idx. The middle separator
// moves up.
func (t *BTree) splitInternal(p *storage.Page, idx int, pk *promotedKey, child storage.PageID) (*promotedKey, storage.PageID, error) {
	n := nKeys(p)
	type entry struct {
		key   []byte
		val   uint64
		child storage.PageID
	}
	entries := make([]entry, 0, n+1)
	for i := 0; i < n; i++ {
		k, v, c := internalCell(p, i)
		kc := append([]byte(nil), k...)
		entries = append(entries, entry{kc, v, c})
	}
	kc := append([]byte(nil), pk.key...)
	entries = append(entries[:idx], append([]entry{{kc, pk.val, child}}, entries[idx:]...)...)
	mid := len(entries) / 2
	sep := entries[mid]

	right, err := t.bp.NewPage()
	if err != nil {
		return nil, 0, err
	}
	initNode(right, nodeInternal)
	setLink(right, sep.child) // leftmost child of right = promoted cell's child
	for i, e := range entries[mid+1:] {
		insertCellAt(right, i, e.key, e.val, e.child)
	}
	leftmost := link(p)
	initNode(p, nodeInternal)
	setLink(p, leftmost)
	for i, e := range entries[:mid] {
		insertCellAt(p, i, e.key, e.val, e.child)
	}
	rid := right.ID
	if err := t.bp.Unpin(rid, true); err != nil {
		return nil, 0, err
	}
	return &promotedKey{key: sep.key, val: sep.val}, rid, nil
}

// Delete removes the exact (key, val) pair, returning whether it was
// present. Underflowing pages are not merged (lazy deletion).
func (t *BTree) Delete(key []byte, val uint64) (bool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.root
	for {
		p, err := t.bp.FetchPage(id)
		if err != nil {
			return false, err
		}
		if nodeType(p) == nodeInternal {
			child := internalChild(p, key, val)
			if err := t.bp.Unpin(id, false); err != nil {
				return false, err
			}
			id = child
			continue
		}
		idx := leafLowerBound(p, key, val)
		if idx < nKeys(p) {
			k, v := leafCell(p, idx)
			if compareEntry(k, v, key, val) == 0 {
				removeCellAt(p, idx)
				t.size--
				if err := t.bp.Unpin(id, true); err != nil {
					return false, err
				}
				return true, t.syncMeta()
			}
		}
		return false, t.bp.Unpin(id, false)
	}
}

// Contains reports whether the exact (key, val) pair exists.
func (t *BTree) Contains(key []byte, val uint64) (bool, error) {
	found := false
	err := t.Scan(key, func(k []byte, v uint64) bool {
		if !bytes.Equal(k, key) {
			return false
		}
		if v == val {
			found = true
			return false
		}
		return true
	})
	return found, err
}

// Lookup returns all values stored under exactly key.
func (t *BTree) Lookup(key []byte) ([]uint64, error) {
	var out []uint64
	err := t.Scan(key, func(k []byte, v uint64) bool {
		if !bytes.Equal(k, key) {
			return false
		}
		out = append(out, v)
		return true
	})
	return out, err
}

// Scan iterates entries with key >= start in ascending (key, val) order,
// calling fn until it returns false or the tree is exhausted. The key
// slice passed to fn is only valid during the call.
func (t *BTree) Scan(start []byte, fn func(key []byte, val uint64) bool) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.root
	// Descend to the leaf that could contain start.
	for {
		p, err := t.bp.FetchPage(id)
		if err != nil {
			return err
		}
		if nodeType(p) == nodeLeaf {
			idx := leafLowerBound(p, start, 0)
			return t.scanFrom(p, id, idx, fn)
		}
		child := internalChild(p, start, 0)
		if err := t.bp.Unpin(id, false); err != nil {
			return err
		}
		id = child
	}
}

// scanFrom walks leaves from (page p pinned, index idx) onward.
func (t *BTree) scanFrom(p *storage.Page, id storage.PageID, idx int, fn func([]byte, uint64) bool) error {
	for {
		n := nKeys(p)
		for ; idx < n; idx++ {
			k, v := leafCell(p, idx)
			if !fn(k, v) {
				return t.bp.Unpin(id, false)
			}
		}
		next := link(p)
		if err := t.bp.Unpin(id, false); err != nil {
			return err
		}
		if next == storage.InvalidPageID {
			return nil
		}
		var err error
		p, err = t.bp.FetchPage(next)
		if err != nil {
			return err
		}
		id = next
		idx = 0
	}
}

// Height returns the tree height (1 = root is a leaf); used in tests.
func (t *BTree) Height() (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	h := 1
	id := t.root
	for {
		p, err := t.bp.FetchPage(id)
		if err != nil {
			return 0, err
		}
		if nodeType(p) == nodeLeaf {
			return h, t.bp.Unpin(id, false)
		}
		next := link(p)
		if err := t.bp.Unpin(id, false); err != nil {
			return 0, err
		}
		id = next
		h++
	}
}
