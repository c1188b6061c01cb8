// Package datasource implements the paper's data source layer
// (Figure 1): data sources that wrap local tables or external feeds,
// update descriptors (tokens), and the queue that carries captured
// updates to the trigger processor — either a persistent queue table
// (the paper's current implementation) or a main-memory queue (the
// paper's planned fast path, which trades the safety of persistent
// queuing for speed).
package datasource

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"triggerman/internal/fifo"
	"triggerman/internal/storage"
	"triggerman/internal/types"
)

// Op is an update-descriptor operation code.
type Op uint8

const (
	// OpInsert is a new-tuple event.
	OpInsert Op = iota
	// OpDelete is an old-tuple event.
	OpDelete
	// OpUpdate carries an old/new tuple pair.
	OpUpdate
)

// String names the op.
func (o Op) String() string {
	switch o {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpUpdate:
		return "update"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Token is an update descriptor: data source ID, operation code, and an
// old tuple, new tuple, or old/new pair (§5.4).
type Token struct {
	SourceID int32
	Op       Op
	Old, New types.Tuple
	// Seq is a monotone sequence number assigned at enqueue.
	Seq uint64
}

// Effective returns the tuple selection predicates test: the new image
// for inserts and updates, the old image for deletes.
func (t Token) Effective() types.Tuple {
	if t.Op == OpDelete {
		return t.Old
	}
	return t.New
}

// UpdatedColumns returns the set of column positions whose value changed
// (both images present and unequal). For non-update tokens it returns
// nil.
func (t Token) UpdatedColumns() []int {
	if t.Op != OpUpdate {
		return nil
	}
	n := len(t.New)
	if len(t.Old) > n {
		n = len(t.Old)
	}
	var out []int
	for i := 0; i < n; i++ {
		if !types.Equal(t.Old.Get(i), t.New.Get(i)) {
			out = append(out, i)
		}
	}
	return out
}

// String renders the token.
func (t Token) String() string {
	switch t.Op {
	case OpInsert:
		return fmt.Sprintf("insert#%d%s", t.SourceID, t.New)
	case OpDelete:
		return fmt.Sprintf("delete#%d%s", t.SourceID, t.Old)
	default:
		return fmt.Sprintf("update#%d%s->%s", t.SourceID, t.Old, t.New)
	}
}

// tokenHeader is the number of leading integer columns of a token
// record: source, op, seq, len(Old), len(New).
const tokenHeader = 5

// Encode flattens the token for queue-table storage: one tuple holding
// the five header integers, then the old image, then the new one.
func (t Token) Encode() []byte {
	return t.AppendTo(make([]byte, 0, 2+9*tokenHeader+types.EncodedSize(t.Old)+types.EncodedSize(t.New)))
}

// AppendTo appends the token's record to dst.
func (t Token) AppendTo(dst []byte) []byte {
	header := [tokenHeader]types.Value{
		types.NewInt(int64(t.SourceID)),
		types.NewInt(int64(t.Op)),
		types.NewInt(int64(t.Seq)),
		types.NewInt(int64(len(t.Old))),
		types.NewInt(int64(len(t.New))),
	}
	dst = types.AppendCount(dst, tokenHeader+len(t.Old)+len(t.New))
	dst = types.AppendValues(dst, header[:])
	dst = types.AppendValues(dst, t.Old)
	return types.AppendValues(dst, t.New)
}

// decodeHead parses a token record's header: the token without its
// images, their lengths, and where in rec they start.
func decodeHead(rec []byte) (tok Token, nOld, nNew, pos int, err error) {
	n, err := types.DecodeCount(rec)
	if err != nil {
		return Token{}, 0, 0, 0, err
	}
	if n < tokenHeader {
		return Token{}, 0, 0, 0, fmt.Errorf("datasource: short token record (%d values)", n)
	}
	var header [tokenHeader]types.Value
	used, err := types.DecodeValues(header[:], rec[2:])
	if err != nil {
		return Token{}, 0, 0, 0, err
	}
	for _, v := range header {
		if v.Kind() != types.KindInt {
			return Token{}, 0, 0, 0, fmt.Errorf("datasource: token record header holds a %s", v.Kind())
		}
	}
	nOld, nNew = int(header[3].Int()), int(header[4].Int())
	if nOld < 0 || nNew < 0 || n != tokenHeader+nOld+nNew {
		return Token{}, 0, 0, 0, fmt.Errorf("datasource: token record arity mismatch")
	}
	tok = Token{
		SourceID: int32(header[0].Int()),
		Op:       Op(header[1].Int()),
		Seq:      uint64(header[2].Int()),
	}
	return tok, nOld, nNew, 2 + used, nil
}

// DecodeToken parses an encoded token. The images are the only memory
// it allocates, and the token owns them.
func DecodeToken(rec []byte) (Token, error) {
	tok, nOld, nNew, pos, err := decodeHead(rec)
	if err != nil {
		return Token{}, err
	}
	if nOld > 0 {
		tok.Old = make(types.Tuple, nOld)
		used, err := types.DecodeValues(tok.Old, rec[pos:])
		if err != nil {
			return Token{}, err
		}
		pos += used
	}
	if nNew > 0 {
		tok.New = make(types.Tuple, nNew)
		if _, err := types.DecodeValues(tok.New, rec[pos:]); err != nil {
			return Token{}, err
		}
	}
	return tok, nil
}

// Source describes one data source: a named, typed stream of update
// descriptors, normally corresponding to a table.
type Source struct {
	ID     int32
	Name   string
	Schema *types.Schema
}

// Registry assigns data source IDs and resolves names.
type Registry struct {
	mu     sync.RWMutex
	byName map[string]*Source
	byID   map[int32]*Source
	nextID int32
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*Source), byID: make(map[int32]*Source), nextID: 1}
}

// Define registers a new data source.
func (r *Registry) Define(name string, schema *types.Schema) (*Source, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := strings.ToLower(name)
	if _, dup := r.byName[key]; dup {
		return nil, fmt.Errorf("datasource: %q already defined", name)
	}
	s := &Source{ID: r.nextID, Name: name, Schema: schema}
	r.nextID++
	r.byName[key] = s
	r.byID[s.ID] = s
	return s, nil
}

// DefineWithID registers a source under a fixed ID (catalog recovery).
func (r *Registry) DefineWithID(id int32, name string, schema *types.Schema) (*Source, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := strings.ToLower(name)
	if _, dup := r.byName[key]; dup {
		return nil, fmt.Errorf("datasource: %q already defined", name)
	}
	if _, dup := r.byID[id]; dup {
		return nil, fmt.Errorf("datasource: id %d already in use", id)
	}
	s := &Source{ID: id, Name: name, Schema: schema}
	if id >= r.nextID {
		r.nextID = id + 1
	}
	r.byName[key] = s
	r.byID[id] = s
	return s, nil
}

// ByName resolves a source by name.
func (r *Registry) ByName(name string) (*Source, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.byName[strings.ToLower(name)]
	return s, ok
}

// ByID resolves a source by ID.
func (r *Registry) ByID(id int32) (*Source, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.byID[id]
	return s, ok
}

// Names lists defined source names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.byName))
	for _, s := range r.byName {
		out = append(out, s.Name)
	}
	sort.Strings(out)
	return out
}

// Queue is the update-descriptor transport between capture and the
// trigger processor.
type Queue interface {
	// Enqueue appends a token, assigning its sequence number.
	Enqueue(t Token) (Token, error)
	// DequeueBatch removes and returns up to max tokens in queue order
	// (max <= 0 means "whatever one scan yields"). An empty result with
	// a nil error means the queue is empty. A non-empty result with a
	// non-nil error returns tokens already removed — the caller must
	// process them before handling the error, or they are lost.
	DequeueBatch(max int) ([]Token, error)
	// Len reports the number of queued tokens.
	Len() int
}

// MemQueue is the main-memory queue (fast, not crash-safe).
type MemQueue struct {
	mu  sync.Mutex
	q   fifo.Queue[Token]
	seq uint64
}

// NewMemQueue returns an empty in-memory queue.
func NewMemQueue() *MemQueue { return &MemQueue{} }

// Enqueue implements Queue.
func (q *MemQueue) Enqueue(t Token) (Token, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.seq++
	t.Seq = q.seq
	q.q.Push(t)
	return t, nil
}

// DequeueBatch implements Queue.
func (q *MemQueue) DequeueBatch(max int) ([]Token, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := q.q.Len()
	if n == 0 {
		return nil, nil
	}
	if max > 0 && n > max {
		n = max
	}
	out := make([]Token, 0, n)
	for len(out) < n {
		t, ok := q.q.Pop()
		if !ok {
			break
		}
		out = append(out, t)
	}
	return out, nil
}

// Len implements Queue.
func (q *MemQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.q.Len()
}

// TableQueue is the persistent queue table of Figure 1: tokens are
// inserted as rows by update-capture triggers and consumed by TmanTest.
//
// Durable enqueues are group-committed: the first enqueue to reach the
// flush step becomes the leader and writes out every page dirtied so
// far (then syncs the disk once); enqueues arriving while a flush is in
// progress register their page and wait for the next round. N
// concurrent durable enqueues thus cost one or two flush+sync rounds,
// not N.
type TableQueue struct {
	mu   sync.Mutex
	heap *storage.HeapFile
	bp   *storage.BufferPool
	seq  uint64
	// durable forces every enqueue's page to stable storage before the
	// call returns — "the safety of persistent update queuing" (§3).
	durable bool
	// tail is the heap's last page. A token that lands on a new page
	// also rewrote tail's link to it, so a durable enqueue flushes both.
	tail storage.PageID
	// cursor remembers where the last dequeue stopped so repeated
	// dequeues do not rescan drained pages.
	cursor storage.RID
	hasCur bool

	commit commitGroup
}

// commitGroup is the leader/follower state for group-committed flushes.
// It is deliberately separate from TableQueue.mu: a round takes the
// queue lock only to write its pages back, so enqueues and dequeues
// proceed while the disk syncs.
type commitGroup struct {
	mu       sync.Mutex
	flushing bool
	dirty    map[storage.PageID]struct{}
	waiters  []chan error

	// rounds counts flush+sync rounds; enqueues counts durable enqueues
	// served. enqueues/rounds is the coalescing factor.
	rounds   atomic.Int64
	enqueues atomic.Int64
}

// FlushRounds reports completed group-commit flush rounds.
func (q *TableQueue) FlushRounds() int64 { return q.commit.rounds.Load() }

// DurableEnqueues reports durable enqueues served by group commit.
func (q *TableQueue) DurableEnqueues() int64 { return q.commit.enqueues.Load() }

// flushGroup makes page and link durable, coalescing with concurrent
// callers; link is the page whose next-page link leads to page, clean
// (and so skipped) unless page was just added to the chain. The caller
// must not hold q.mu.
func (q *TableQueue) flushGroup(page, link storage.PageID) error {
	g := &q.commit
	g.enqueues.Add(1)
	g.mu.Lock()
	if g.dirty == nil {
		g.dirty = make(map[storage.PageID]struct{})
	}
	g.dirty[page] = struct{}{}
	g.dirty[link] = struct{}{}
	if g.flushing {
		// Follower: the leader's next round claims our page and waiter
		// together, so the error we get back covers our page.
		ch := make(chan error, 1)
		g.waiters = append(g.waiters, ch)
		g.mu.Unlock()
		return <-ch
	}
	g.flushing = true
	var myErr error
	for first := true; ; first = false {
		pages := g.dirty
		waiters := g.waiters
		g.dirty = nil
		g.waiters = nil
		g.mu.Unlock()

		// The pages are copied out under the lock that guards the heap: a
		// concurrent Enqueue or DequeueBatch rewrites these same pages in place,
		// and a write-back racing it could put a torn image on disk and
		// then mark the frame clean.
		var err error
		q.mu.Lock()
		for p := range pages {
			if e := q.bp.WriteBack(p); e != nil && err == nil {
				err = e
			}
		}
		q.mu.Unlock()
		// One sync covers every page in the round — this is the whole
		// saving over flush-per-enqueue — and runs with the queue unlocked.
		if e := q.bp.Disk().Sync(); e != nil && err == nil {
			err = e
		}
		g.rounds.Add(1)
		if first {
			myErr = err
		}
		for _, ch := range waiters {
			ch <- err
		}

		g.mu.Lock()
		if len(g.dirty) == 0 {
			g.flushing = false
			g.mu.Unlock()
			return myErr
		}
	}
}

// SetDurable toggles flush-per-enqueue durability.
func (q *TableQueue) SetDurable(d bool) {
	q.mu.Lock()
	q.durable = d
	q.mu.Unlock()
}

// NewTableQueue creates a persistent queue on bp.
func NewTableQueue(bp *storage.BufferPool) (*TableQueue, error) {
	h, err := storage.CreateHeap(bp)
	if err != nil {
		return nil, err
	}
	return &TableQueue{heap: h, bp: bp, tail: h.LastPage()}, nil
}

// OpenTableQueue reopens a persistent queue by its first page.
func OpenTableQueue(bp *storage.BufferPool, first storage.PageID) (*TableQueue, error) {
	h, err := storage.OpenHeap(bp, first)
	if err != nil {
		return nil, err
	}
	q := &TableQueue{heap: h, bp: bp, tail: h.LastPage()}
	// Restore the sequence counter from the surviving tokens.
	err = h.Scan(func(_ storage.RID, rec []byte) bool {
		if t, derr := DecodeToken(rec); derr == nil {
			if t.Seq > q.seq {
				q.seq = t.Seq
			}
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return q, nil
}

// Enqueue implements Queue. The heap insert happens under the queue
// lock; the durability flush goes through the commit group after it is
// released, so concurrent enqueues coalesce their disk waits.
func (q *TableQueue) Enqueue(t Token) (Token, error) {
	// The heap copies the record into its page, so the encoding dies with
	// this call: a token of ordinary width is laid out on the stack.
	var buf [256]byte
	q.mu.Lock()
	q.seq++
	t.Seq = q.seq
	rid, err := q.heap.Insert(t.AppendTo(buf[:0]))
	link := q.tail
	if err == nil {
		q.tail = rid.Page
	}
	durable := q.durable
	q.mu.Unlock()
	if err != nil {
		return Token{}, err
	}
	if durable {
		if err := q.flushGroup(rid.Page, link); err != nil {
			return Token{}, err
		}
	}
	return t, nil
}

// DequeueBatch implements Queue. One call drains up to max tokens from
// the first non-empty page (pages fill strictly in chain order, so that
// page holds the oldest tokens). Its records are first listed by
// sequence number — dead-slot reuse can scramble slot order, so the list
// is sorted when it is not already in order — and only the ones taken
// are decoded, each in the same page visit that deletes it.
func (q *TableQueue) DequeueBatch(max int) ([]Token, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.heap.Count() == 0 {
		// Every captured token schedules a pump and one pump takes a whole
		// batch, so most pumps find the queue empty; without this they
		// would walk the whole page chain (drained pages are never
		// unlinked) to learn it.
		return nil, nil
	}
	type queued struct {
		seq uint64
		rid storage.RID
	}
	var (
		onPage [64]queued // a page of tokens; more spill to the heap
		recs   = onPage[:0]
		derr   error
	)
	scanPage := func(start storage.PageID) error {
		return q.heap.ScanFrom(start, func(r storage.RID, rec []byte) bool {
			if len(recs) > 0 && r.Page != recs[0].rid.Page {
				return false // left the first non-empty page
			}
			head, _, _, _, e := decodeHead(rec)
			if e != nil {
				derr = e
				return false
			}
			recs = append(recs, queued{head.Seq, r})
			return true
		})
	}
	start := q.heap.FirstPage()
	if q.hasCur {
		start = q.cursor.Page
	}
	if err := scanPage(start); err != nil {
		return nil, err
	}
	if derr != nil {
		return nil, derr
	}
	if len(recs) == 0 && q.hasCur {
		// The cursor's page drained; restart from the head in case
		// earlier pages gained records through slot reuse.
		q.hasCur = false
		if err := scanPage(q.heap.FirstPage()); err != nil {
			return nil, err
		}
		if derr != nil {
			return nil, derr
		}
	}
	if len(recs) == 0 {
		return nil, nil
	}
	bySeq := func(a, b queued) int { return cmp.Compare(a.seq, b.seq) }
	if !slices.IsSortedFunc(recs, bySeq) {
		slices.SortFunc(recs, bySeq)
	}
	if max > 0 && len(recs) > max {
		recs = recs[:max]
	}
	out := make([]Token, 0, len(recs))
	for _, r := range recs {
		var tok Token
		err := q.heap.Take(r.rid, func(rec []byte) (e error) {
			tok, e = DecodeToken(rec)
			return e
		})
		if err != nil {
			// Tokens already taken must still reach the caller.
			return out, err
		}
		out = append(out, tok)
		q.cursor, q.hasCur = r.rid, true
	}
	return out, nil
}

// Len implements Queue.
func (q *TableQueue) Len() int { return q.heap.Count() }
