// Package minisql is a small single-table SQL executor over the storage
// engine. It stands in for the host DBMS's query processor (Informix in
// the paper): trigger actions run real INSERT/UPDATE/DELETE/SELECT
// statements against real tables here, and the "database table" constant
// set organizations (§5.2, strategies 3 and 4) store and query their
// constants through it.
package minisql

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"triggerman/internal/btree"
	"triggerman/internal/storage"
	"triggerman/internal/types"
)

// DB is a collection of named tables sharing one buffer pool, with a
// master catalog so tables survive restarts.
type DB struct {
	mu     sync.RWMutex
	bp     *storage.BufferPool
	master *storage.HeapFile
	tables map[string]*Table
}

// Table is a heap file with a schema and zero or more B+tree indexes.
type Table struct {
	Name   string
	Schema *types.Schema

	mu      sync.RWMutex
	db      *DB
	heap    *storage.HeapFile
	indexes []*Index
	catRID  storage.RID // row in the master catalog
}

// Index is a secondary (or clustered-in-spirit) index over a column
// prefix of its table.
type Index struct {
	Name    string
	Columns []int // key column positions, in key order
	tree    *btree.BTree
}

// Create initializes a fresh database on bp. The master catalog heap
// becomes the first heap allocated; remember MasterPage to reopen.
func Create(bp *storage.BufferPool) (*DB, error) {
	master, err := storage.CreateHeap(bp)
	if err != nil {
		return nil, err
	}
	return &DB{bp: bp, master: master, tables: make(map[string]*Table)}, nil
}

// MasterPage returns the master catalog's identity page.
func (db *DB) MasterPage() storage.PageID { return db.master.FirstPage() }

// Open reattaches to a database persisted on bp's disk.
func Open(bp *storage.BufferPool, masterPage storage.PageID) (*DB, error) {
	master, err := storage.OpenHeap(bp, masterPage)
	if err != nil {
		return nil, err
	}
	db := &DB{bp: bp, master: master, tables: make(map[string]*Table)}
	var loadErr error
	err = master.Scan(func(rid storage.RID, rec []byte) bool {
		tu, _, derr := types.DecodeTuple(rec)
		if derr != nil {
			loadErr = derr
			return false
		}
		t, derr := db.decodeTableRow(tu)
		if derr != nil {
			loadErr = derr
			return false
		}
		t.catRID = rid
		db.tables[strings.ToLower(t.Name)] = t
		return true
	})
	if err != nil {
		return nil, err
	}
	if loadErr != nil {
		return nil, loadErr
	}
	return db, nil
}

// Pool returns the shared buffer pool.
func (db *DB) Pool() *storage.BufferPool { return db.bp }

// catalog row: (name, schemaText, heapPage, indexText)
// schemaText: "col:kind,col:kind" ; indexText: "name@metaPage@c1+c2;..."

func encodeSchema(s *types.Schema) string {
	parts := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		parts[i] = c.Name + ":" + strconv.Itoa(int(c.Kind))
	}
	return strings.Join(parts, ",")
}

func decodeSchema(text string) (*types.Schema, error) {
	if text == "" {
		return types.NewSchema()
	}
	var cols []types.Column
	for _, part := range strings.Split(text, ",") {
		i := strings.LastIndexByte(part, ':')
		if i < 0 {
			return nil, fmt.Errorf("minisql: bad schema text %q", text)
		}
		k, err := strconv.Atoi(part[i+1:])
		if err != nil {
			return nil, fmt.Errorf("minisql: bad schema text %q: %v", text, err)
		}
		cols = append(cols, types.Column{Name: part[:i], Kind: types.Kind(k)})
	}
	return types.NewSchema(cols...)
}

func (t *Table) encodeRow() types.Tuple {
	var idx []string
	for _, ix := range t.indexes {
		cols := make([]string, len(ix.Columns))
		for i, c := range ix.Columns {
			cols[i] = strconv.Itoa(c)
		}
		idx = append(idx, ix.Name+"@"+strconv.Itoa(int(ix.tree.MetaPage()))+"@"+strings.Join(cols, "+"))
	}
	return types.Tuple{
		types.NewString(t.Name),
		types.NewString(encodeSchema(t.Schema)),
		types.NewInt(int64(t.heap.FirstPage())),
		types.NewString(strings.Join(idx, ";")),
	}
}

func (db *DB) decodeTableRow(tu types.Tuple) (*Table, error) {
	if len(tu) != 4 {
		return nil, fmt.Errorf("minisql: bad catalog row %v", tu)
	}
	schema, err := decodeSchema(tu[1].Str())
	if err != nil {
		return nil, err
	}
	heap, err := storage.OpenHeap(db.bp, storage.PageID(tu[2].Int()))
	if err != nil {
		return nil, err
	}
	t := &Table{Name: tu[0].Str(), Schema: schema, db: db, heap: heap}
	if idxText := tu[3].Str(); idxText != "" {
		for _, part := range strings.Split(idxText, ";") {
			fields := strings.Split(part, "@")
			if len(fields) != 3 {
				return nil, fmt.Errorf("minisql: bad index text %q", part)
			}
			metaPage, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, err
			}
			tree, err := btree.Open(db.bp, storage.PageID(metaPage))
			if err != nil {
				return nil, err
			}
			var cols []int
			for _, cs := range strings.Split(fields[2], "+") {
				c, err := strconv.Atoi(cs)
				if err != nil {
					return nil, err
				}
				cols = append(cols, c)
			}
			t.indexes = append(t.indexes, &Index{Name: fields[0], Columns: cols, tree: tree})
		}
	}
	return t, nil
}

func (db *DB) saveTableLocked(t *Table) error {
	rec := types.EncodeTuple(nil, t.encodeRow())
	if t.catRID == (storage.RID{}) {
		rid, err := db.master.Insert(rec)
		if err != nil {
			return err
		}
		t.catRID = rid
		return nil
	}
	rid, err := db.master.Update(t.catRID, rec)
	if err != nil {
		return err
	}
	t.catRID = rid
	return nil
}

// CreateTable creates an empty table. Table names are case-insensitive.
func (db *DB) CreateTable(name string, schema *types.Schema) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	key := strings.ToLower(name)
	if _, exists := db.tables[key]; exists {
		return nil, fmt.Errorf("minisql: table %q already exists", name)
	}
	heap, err := storage.CreateHeap(db.bp)
	if err != nil {
		return nil, err
	}
	t := &Table{Name: name, Schema: schema, db: db, heap: heap}
	if err := db.saveTableLocked(t); err != nil {
		return nil, err
	}
	db.tables[key] = t
	return t, nil
}

// Table looks a table up by name.
func (db *DB) Table(name string) (*Table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("minisql: unknown table %q", name)
	}
	return t, nil
}

// DropTable removes a table from the catalog (heap pages are not
// reclaimed; the pager has no free list).
func (db *DB) DropTable(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	key := strings.ToLower(name)
	t, ok := db.tables[key]
	if !ok {
		return fmt.Errorf("minisql: unknown table %q", name)
	}
	if err := db.master.Delete(t.catRID); err != nil {
		return err
	}
	delete(db.tables, key)
	return nil
}

// Tables lists table names, sorted.
func (db *DB) Tables() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.tables))
	for _, t := range db.tables {
		out = append(out, t.Name)
	}
	sort.Strings(out)
	return out
}

// CreateIndex builds a B+tree index over the named columns and
// backfills it from existing rows.
func (t *Table) CreateIndex(name string, columns ...string) (*Index, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var cols []int
	for _, c := range columns {
		i := t.Schema.ColumnIndex(c)
		if i < 0 {
			return nil, fmt.Errorf("minisql: index on unknown column %q of %s", c, t.Name)
		}
		cols = append(cols, i)
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("minisql: index needs at least one column")
	}
	for _, ix := range t.indexes {
		if strings.EqualFold(ix.Name, name) {
			return nil, fmt.Errorf("minisql: index %q already exists on %s", name, t.Name)
		}
	}
	tree, err := btree.Create(t.db.bp)
	if err != nil {
		return nil, err
	}
	ix := &Index{Name: name, Columns: cols, tree: tree}
	// Backfill.
	err = t.heap.Scan(func(rid storage.RID, rec []byte) bool {
		tu, _, derr := types.DecodeTuple(rec)
		if derr != nil {
			err = derr
			return false
		}
		if _, ierr := tree.Insert(ix.keyOf(tu), rid.Pack()); ierr != nil {
			err = ierr
			return false
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	t.indexes = append(t.indexes, ix)
	t.db.mu.Lock()
	defer t.db.mu.Unlock()
	return ix, t.db.saveTableLocked(t)
}

func (ix *Index) keyOf(tu types.Tuple) []byte {
	key := make(types.Tuple, len(ix.Columns))
	for i, c := range ix.Columns {
		key[i] = tu.Get(c)
	}
	return types.EncodeKey(nil, key)
}

// Indexes returns the table's indexes.
func (t *Table) Indexes() []*Index {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]*Index, len(t.indexes))
	copy(out, t.indexes)
	return out
}

// Insert appends a row, validating arity and types (NULL fits any
// column), and maintains all indexes.
func (t *Table) Insert(tu types.Tuple) (storage.RID, error) {
	if err := t.validate(tu); err != nil {
		return storage.RID{}, err
	}
	// The heap copies the record into its page, so the encoding dies with
	// this call: a row of ordinary width is laid out on the stack.
	var buf [256]byte
	t.mu.Lock()
	defer t.mu.Unlock()
	rid, err := t.heap.Insert(types.EncodeTuple(buf[:0], tu))
	if err != nil {
		return storage.RID{}, err
	}
	for _, ix := range t.indexes {
		if _, err := ix.tree.Insert(ix.keyOf(tu), rid.Pack()); err != nil {
			return storage.RID{}, err
		}
	}
	return rid, nil
}

func (t *Table) validate(tu types.Tuple) error {
	if len(tu) != t.Schema.Arity() {
		return fmt.Errorf("minisql: %s expects %d columns, got %d", t.Name, t.Schema.Arity(), len(tu))
	}
	for i, v := range tu {
		if v.IsNull() {
			continue
		}
		want := t.Schema.Columns[i].Kind
		ok := v.Kind() == want ||
			(v.IsNumeric() && (want == types.KindInt || want == types.KindFloat)) ||
			(v.IsString() && (want == types.KindChar || want == types.KindVarchar))
		if !ok {
			return fmt.Errorf("minisql: column %s of %s wants %s, got %s",
				t.Schema.Columns[i].Name, t.Name, want, v.Kind())
		}
	}
	return nil
}

// Get fetches the row at rid.
func (t *Table) Get(rid storage.RID) (types.Tuple, error) {
	rec, err := t.heap.Get(rid)
	if err != nil {
		return nil, err
	}
	tu, _, err := types.DecodeTuple(rec)
	return tu, err
}

// Delete removes the row at rid and its index entries.
func (t *Table) Delete(rid storage.RID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.deleteLocked(rid)
}

func (t *Table) deleteLocked(rid storage.RID) error {
	rec, err := t.heap.Get(rid)
	if err != nil {
		return err
	}
	tu, _, err := types.DecodeTuple(rec)
	if err != nil {
		return err
	}
	if err := t.heap.Delete(rid); err != nil {
		return err
	}
	for _, ix := range t.indexes {
		if _, err := ix.tree.Delete(ix.keyOf(tu), rid.Pack()); err != nil {
			return err
		}
	}
	return nil
}

// UpdateRow replaces the row at rid, returning its new RID.
func (t *Table) UpdateRow(rid storage.RID, tu types.Tuple) (storage.RID, error) {
	if err := t.validate(tu); err != nil {
		return storage.RID{}, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	old, err := t.Get(rid)
	if err != nil {
		return storage.RID{}, err
	}
	var buf [256]byte // as in Insert
	nrid, err := t.heap.Update(rid, types.EncodeTuple(buf[:0], tu))
	if err != nil {
		return storage.RID{}, err
	}
	for _, ix := range t.indexes {
		if _, err := ix.tree.Delete(ix.keyOf(old), rid.Pack()); err != nil {
			return storage.RID{}, err
		}
		if _, err := ix.tree.Insert(ix.keyOf(tu), nrid.Pack()); err != nil {
			return storage.RID{}, err
		}
	}
	return nrid, nil
}

// Scan iterates all rows in heap order.
func (t *Table) Scan(fn func(rid storage.RID, tu types.Tuple) bool) error {
	var derr error
	err := t.heap.Scan(func(rid storage.RID, rec []byte) bool {
		tu, _, e := types.DecodeTuple(rec)
		if e != nil {
			derr = e
			return false
		}
		return fn(rid, tu)
	})
	if err != nil {
		return err
	}
	return derr
}

// Count returns the number of rows.
func (t *Table) Count() int { return t.heap.Count() }
