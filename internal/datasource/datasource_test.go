package datasource

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"triggerman/internal/storage"
	"triggerman/internal/types"
)

func tok(src int32, op Op, vals ...int64) Token {
	tu := make(types.Tuple, len(vals))
	for i, v := range vals {
		tu[i] = types.NewInt(v)
	}
	t := Token{SourceID: src, Op: op}
	if op == OpDelete {
		t.Old = tu
	} else {
		t.New = tu
	}
	return t
}

func TestTokenEffective(t *testing.T) {
	ins := tok(1, OpInsert, 1, 2)
	if !ins.Effective().Equal(ins.New) {
		t.Error("insert effective")
	}
	del := tok(1, OpDelete, 3)
	if !del.Effective().Equal(del.Old) {
		t.Error("delete effective")
	}
	upd := Token{Op: OpUpdate, Old: types.Tuple{types.NewInt(1)}, New: types.Tuple{types.NewInt(2)}}
	if upd.Effective().Get(0).Int() != 2 {
		t.Error("update effective should be new image")
	}
}

func TestUpdatedColumns(t *testing.T) {
	upd := Token{Op: OpUpdate,
		Old: types.Tuple{types.NewInt(1), types.NewString("a"), types.NewInt(3)},
		New: types.Tuple{types.NewInt(1), types.NewString("b"), types.NewInt(3)}}
	cols := upd.UpdatedColumns()
	if len(cols) != 1 || cols[0] != 1 {
		t.Errorf("updated cols = %v", cols)
	}
	// arity mismatch counts the missing column as changed
	upd2 := Token{Op: OpUpdate,
		Old: types.Tuple{types.NewInt(1)},
		New: types.Tuple{types.NewInt(1), types.NewInt(9)}}
	if cols := upd2.UpdatedColumns(); len(cols) != 1 || cols[0] != 1 {
		t.Errorf("arity-mismatch cols = %v", cols)
	}
	if tok(1, OpInsert, 1).UpdatedColumns() != nil {
		t.Error("insert should have nil updated columns")
	}
}

func TestTokenEncodeDecode(t *testing.T) {
	cases := []Token{
		tok(7, OpInsert, 1, 2, 3),
		tok(9, OpDelete, 4),
		{SourceID: 2, Op: OpUpdate, Seq: 55,
			Old: types.Tuple{types.NewString("a"), types.Null()},
			New: types.Tuple{types.NewString("b"), types.NewFloat(1.5)}},
		{SourceID: 1, Op: OpInsert}, // empty tuples
	}
	for _, c := range cases {
		enc := c.Encode()
		got, err := DecodeToken(enc)
		if err != nil {
			t.Fatalf("decode %s: %v", c, err)
		}
		if got.SourceID != c.SourceID || got.Op != c.Op || got.Seq != c.Seq ||
			!got.Old.Equal(c.Old) || !got.New.Equal(c.New) {
			t.Errorf("roundtrip %s -> %s", c, got)
		}
	}
	if _, err := DecodeToken([]byte{1, 0}); err == nil {
		t.Error("garbage should fail")
	}
	// valid tuple, wrong arity
	bad := types.EncodeTuple(nil, types.Tuple{types.NewInt(1)})
	if _, err := DecodeToken(bad); err == nil {
		t.Error("short token should fail")
	}
}

func TestOpString(t *testing.T) {
	if OpInsert.String() != "insert" || OpDelete.String() != "delete" || OpUpdate.String() != "update" {
		t.Error("op names")
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	s1, err := r.Define("emp", types.MustSchema(types.Column{Name: "x", Kind: types.KindInt}))
	if err != nil {
		t.Fatal(err)
	}
	if s1.ID != 1 {
		t.Errorf("first id = %d", s1.ID)
	}
	if _, err := r.Define("EMP", nil); err == nil {
		t.Error("case-insensitive duplicate should fail")
	}
	s2, _ := r.Define("dept", nil)
	if s2.ID != 2 {
		t.Errorf("second id = %d", s2.ID)
	}
	if got, ok := r.ByName("Emp"); !ok || got != s1 {
		t.Error("ByName")
	}
	if got, ok := r.ByID(2); !ok || got != s2 {
		t.Error("ByID")
	}
	if _, ok := r.ByName("ghost"); ok {
		t.Error("missing name")
	}
	names := r.Names()
	if len(names) != 2 || names[0] != "dept" || names[1] != "emp" {
		t.Errorf("names = %v", names)
	}
}

func TestRegistryWithID(t *testing.T) {
	r := NewRegistry()
	if _, err := r.DefineWithID(10, "a", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := r.DefineWithID(10, "b", nil); err == nil {
		t.Error("duplicate id should fail")
	}
	if _, err := r.DefineWithID(11, "a", nil); err == nil {
		t.Error("duplicate name should fail")
	}
	// nextID advanced past explicit ids
	s, _ := r.Define("c", nil)
	if s.ID != 11 {
		t.Errorf("next auto id = %d", s.ID)
	}
}

func TestMemQueueFIFO(t *testing.T) {
	q := NewMemQueue()
	for i := int64(0); i < 100; i++ {
		if _, err := q.Enqueue(tok(1, OpInsert, i)); err != nil {
			t.Fatal(err)
		}
	}
	if q.Len() != 100 {
		t.Errorf("len = %d", q.Len())
	}
	for i := int64(0); i < 100; i++ {
		batch, err := q.DequeueBatch(1)
		if err != nil || len(batch) != 1 {
			t.Fatal("dequeue failed")
		}
		got := batch[0]
		if got.New.Get(0).Int() != i {
			t.Fatalf("order broken at %d: %v", i, got)
		}
		if got.Seq != uint64(i+1) {
			t.Fatalf("seq = %d", got.Seq)
		}
	}
	if batch, _ := q.DequeueBatch(1); len(batch) != 0 {
		t.Error("empty queue should return no tokens")
	}
	if q.Len() != 0 {
		t.Error("len after drain")
	}
}

func TestMemQueueSlideReclaim(t *testing.T) {
	q := NewMemQueue()
	for i := int64(0); i < 10000; i++ {
		q.Enqueue(tok(1, OpInsert, i))
	}
	for i := int64(0); i < 9000; i++ {
		q.DequeueBatch(1)
	}
	// Interleave to exercise the slide path.
	q.Enqueue(tok(1, OpInsert, 99999))
	n := 0
	for {
		batch, _ := q.DequeueBatch(1)
		if len(batch) == 0 {
			break
		}
		n++
	}
	if n != 1001 {
		t.Errorf("drained %d, want 1001", n)
	}
}

func TestTableQueuePersistsAndFIFO(t *testing.T) {
	disk := storage.NewMem()
	bp := storage.NewBufferPool(disk, 32)
	q, err := NewTableQueue(bp)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 500; i++ {
		if _, err := q.Enqueue(tok(1, OpInsert, i)); err != nil {
			t.Fatal(err)
		}
	}
	// Drain half.
	for i := int64(0); i < 250; i++ {
		got, err := q.DequeueBatch(1)
		if err != nil || len(got) != 1 || got[0].New.Get(0).Int() != i {
			t.Fatalf("dequeue %d: %v %v", i, got, err)
		}
	}
	if q.Len() != 250 {
		t.Errorf("len = %d", q.Len())
	}
	bp.FlushAll()

	// Crash-restart: reopen from disk; the 250 unconsumed tokens remain.
	bp2 := storage.NewBufferPool(disk, 32)
	q2, err := OpenTableQueue(bp2, q.heap.FirstPage())
	if err != nil {
		t.Fatal(err)
	}
	if q2.Len() != 250 {
		t.Fatalf("reopened len = %d", q2.Len())
	}
	got, err := q2.DequeueBatch(1)
	if err != nil || len(got) != 1 || got[0].New.Get(0).Int() != 250 {
		t.Fatalf("first after reopen = %v", got)
	}
	// Sequence numbers continue from the persisted max.
	nt, _ := q2.Enqueue(tok(1, OpInsert, 1000))
	if nt.Seq != 501 {
		t.Errorf("seq after reopen = %d", nt.Seq)
	}
	// Drain fully.
	n := 0
	for {
		batch, err := q2.DequeueBatch(1)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) == 0 {
			break
		}
		n++
	}
	if n != 250 {
		t.Errorf("drained %d", n)
	}
}

func TestTableQueueInterleaved(t *testing.T) {
	bp := storage.NewBufferPool(storage.NewMem(), 32)
	q, _ := NewTableQueue(bp)
	next := int64(0)
	want := int64(0)
	for round := 0; round < 50; round++ {
		for i := 0; i < 7; i++ {
			q.Enqueue(tok(1, OpInsert, next))
			next++
		}
		for i := 0; i < 5; i++ {
			got, err := q.DequeueBatch(1)
			if err != nil || len(got) != 1 {
				t.Fatal("dequeue")
			}
			if v := got[0].New.Get(0).Int(); v != want {
				t.Fatalf("order: got %d want %d", v, want)
			}
			want++
		}
	}
	if q.Len() != int(next-want) {
		t.Errorf("len = %d, want %d", q.Len(), next-want)
	}
}

func BenchmarkMemQueue(b *testing.B) {
	q := NewMemQueue()
	t := tok(1, OpInsert, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Enqueue(t)
		q.DequeueBatch(1)
	}
}

func BenchmarkTableQueue(b *testing.B) {
	bp := storage.NewBufferPool(storage.NewMem(), 64)
	q, err := NewTableQueue(bp)
	if err != nil {
		b.Fatal(err)
	}
	t := tok(1, OpInsert, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Enqueue(t)
		if batch, _ := q.DequeueBatch(1); len(batch) == 0 {
			b.Fatal("empty")
		}
	}
	_ = fmt.Sprint()
}

func TestDurableQueueFlushesPerEnqueue(t *testing.T) {
	disk := storage.NewMem()
	bp := storage.NewBufferPool(disk, 32)
	q, err := NewTableQueue(bp)
	if err != nil {
		t.Fatal(err)
	}
	q.SetDurable(true)
	if _, err := q.Enqueue(tok(1, OpInsert, 7)); err != nil {
		t.Fatal(err)
	}
	// WITHOUT any explicit flush, a fresh pool over the same disk must
	// already see the token (the enqueue itself reached the disk).
	bp2 := storage.NewBufferPool(disk, 32)
	q2, err := OpenTableQueue(bp2, q.heap.FirstPage())
	if err != nil {
		t.Fatal(err)
	}
	got, err := q2.DequeueBatch(1)
	if err != nil || len(got) != 1 || got[0].New.Get(0).Int() != 7 {
		t.Fatalf("durable token lost: %v %v", got, err)
	}
	// Non-durable enqueues are only in the buffer pool: a fresh pool
	// does not see them before a flush.
	q.SetDurable(false)
	q.Enqueue(tok(1, OpInsert, 8))
	bp3 := storage.NewBufferPool(disk, 32)
	q3, _ := OpenTableQueue(bp3, q.heap.FirstPage())
	if n := q3.Len(); n != 1 {
		t.Fatalf("expected only the durable token on disk, found %d", n)
	}
}

func TestDecodeTokenNeverPanicsOnGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 50000; i++ {
		buf := make([]byte, rng.Intn(80))
		rng.Read(buf)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on %x: %v", buf, r)
				}
			}()
			DecodeToken(buf)
		}()
	}
	// Adversarial: valid header claiming huge lengths.
	evil := types.EncodeTuple(nil, types.Tuple{
		types.NewInt(1), types.NewInt(0), types.NewInt(1),
		types.NewInt(1 << 40), types.NewInt(1 << 40),
	})
	if _, err := DecodeToken(evil); err == nil {
		t.Error("absurd old/new lengths should fail")
	}
}

// slowSyncDisk wraps a disk manager and stretches Sync so group-commit
// followers pile up behind the leader's round.
type slowSyncDisk struct {
	storage.DiskManager
	delay time.Duration
	syncs atomic.Int64
}

func (d *slowSyncDisk) Sync() error {
	d.syncs.Add(1)
	time.Sleep(d.delay)
	return d.DiskManager.Sync()
}

func TestGroupCommitCoalescesConcurrentEnqueues(t *testing.T) {
	disk := &slowSyncDisk{DiskManager: storage.NewMem(), delay: 2 * time.Millisecond}
	bp := storage.NewBufferPool(disk, 32)
	q, err := NewTableQueue(bp)
	if err != nil {
		t.Fatal(err)
	}
	q.SetDurable(true)
	const n = 64
	var wg sync.WaitGroup
	for i := int64(0); i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := q.Enqueue(tok(1, OpInsert, i)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := q.DurableEnqueues(); got != n {
		t.Fatalf("durable enqueues = %d, want %d", got, n)
	}
	rounds := q.FlushRounds()
	if rounds < 1 || rounds >= n {
		t.Errorf("flush rounds = %d for %d concurrent enqueues; expected coalescing", rounds, n)
	}
	if disk.syncs.Load() != rounds {
		t.Errorf("disk syncs = %d, rounds = %d", disk.syncs.Load(), rounds)
	}
	if q.Len() != n {
		t.Errorf("len = %d", q.Len())
	}
	// Every token survives a crash-restart: group commit must not trade
	// away the durability contract.
	bp2 := storage.NewBufferPool(disk, 32)
	q2, err := OpenTableQueue(bp2, q.heap.FirstPage())
	if err != nil {
		t.Fatal(err)
	}
	if q2.Len() != n {
		t.Errorf("reopened len = %d, want %d", q2.Len(), n)
	}
}

func TestGroupCommitSerialEnqueuesStillFlushEach(t *testing.T) {
	// Without concurrency there is nothing to coalesce: each durable
	// enqueue runs its own round (the TestDurableQueueFlushesPerEnqueue
	// contract, restated against the round counter).
	bp := storage.NewBufferPool(storage.NewMem(), 32)
	q, _ := NewTableQueue(bp)
	q.SetDurable(true)
	for i := int64(0); i < 10; i++ {
		if _, err := q.Enqueue(tok(1, OpInsert, i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := q.FlushRounds(); got != 10 {
		t.Errorf("flush rounds = %d, want 10 for serial enqueues", got)
	}
}

func TestMemQueueDequeueBatch(t *testing.T) {
	q := NewMemQueue()
	for i := int64(0); i < 10; i++ {
		q.Enqueue(tok(1, OpInsert, i))
	}
	batch, err := q.DequeueBatch(4)
	if err != nil || len(batch) != 4 {
		t.Fatalf("batch = %d tokens, err %v", len(batch), err)
	}
	for i, tk := range batch {
		if tk.New.Get(0).Int() != int64(i) {
			t.Fatalf("batch order broken at %d: %v", i, tk)
		}
	}
	rest, err := q.DequeueBatch(0) // no cap: drain the rest
	if err != nil || len(rest) != 6 {
		t.Fatalf("rest = %d tokens, err %v", len(rest), err)
	}
	if rest[0].New.Get(0).Int() != 4 {
		t.Fatalf("rest starts at %v", rest[0])
	}
	if b, err := q.DequeueBatch(8); err != nil || b != nil {
		t.Fatalf("empty queue batch = %v, %v", b, err)
	}
}

func TestTableQueueDequeueBatchAcrossPageBoundaries(t *testing.T) {
	// Enqueue enough tokens to span several heap pages, then pull
	// batches larger than a page holds: each call drains at most one
	// page, order must hold across the boundary, and interleaved
	// enqueues around the boundary must not disturb the cursor.
	bp := storage.NewBufferPool(storage.NewMem(), 64)
	q, err := NewTableQueue(bp)
	if err != nil {
		t.Fatal(err)
	}
	const total = 600 // several pages worth with these record sizes
	for i := int64(0); i < total; i++ {
		if _, err := q.Enqueue(tok(1, OpInsert, i)); err != nil {
			t.Fatal(err)
		}
	}
	want := int64(0)
	for want < total/2 {
		batch, err := q.DequeueBatch(37)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) == 0 {
			t.Fatalf("queue dried up at %d of %d", want, total)
		}
		for _, tk := range batch {
			if got := tk.New.Get(0).Int(); got != want {
				t.Fatalf("order broken: got %d, want %d", got, want)
			}
			want++
		}
	}
	// Interleave fresh enqueues mid-drain: they reuse freed slots on
	// early pages but carry higher sequence numbers, so they must come
	// out after everything already queued.
	for i := int64(total); i < total+50; i++ {
		if _, err := q.Enqueue(tok(1, OpInsert, i)); err != nil {
			t.Fatal(err)
		}
	}
	for want < total+50 {
		batch, err := q.DequeueBatch(64)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) == 0 {
			t.Fatalf("queue dried up at %d of %d", want, total+50)
		}
		for _, tk := range batch {
			if got := tk.New.Get(0).Int(); got != want {
				t.Fatalf("order broken after interleave: got %d, want %d", got, want)
			}
			want++
		}
	}
	if q.Len() != 0 {
		t.Errorf("len after drain = %d", q.Len())
	}
	// Most pumps find the queue empty; they must learn it from the count,
	// not by walking the drained page chain.
	before := bp.Stats()
	if batch, err := q.DequeueBatch(16); err != nil || len(batch) != 0 {
		t.Fatalf("dequeue from the drained queue = %v, %v", batch, err)
	}
	if after := bp.Stats(); after.Hits+after.Misses != before.Hits+before.Misses {
		t.Errorf("dequeue from the drained queue fetched %d pages, want 0",
			after.Hits+after.Misses-before.Hits-before.Misses)
	}
}

func TestTableQueueBatchThenSingleDequeueAgree(t *testing.T) {
	bp := storage.NewBufferPool(storage.NewMem(), 64)
	q, _ := NewTableQueue(bp)
	for i := int64(0); i < 20; i++ {
		q.Enqueue(tok(1, OpInsert, i))
	}
	batch, err := q.DequeueBatch(5)
	if err != nil || len(batch) != 5 {
		t.Fatalf("batch = %v, %v", batch, err)
	}
	got, err := q.DequeueBatch(1)
	if err != nil || len(got) != 1 || got[0].New.Get(0).Int() != 5 {
		t.Fatalf("single dequeue after batch = %v %v", got, err)
	}
}

// TestGroupCommitWriteBackUnderConcurrentDequeues maximizes overlap
// between the group-commit leader's WriteBack loop and concurrent
// inserts/dequeues (folded from the PR-5 scratch race test, shortened).
// Besides being a race-detector target, it checks that the per-source
// depth counters balance exactly against what went in and came out.
func TestGroupCommitWriteBackUnderConcurrentDequeues(t *testing.T) {
	disk := &slowSyncDisk{DiskManager: storage.NewMem(), delay: 0}
	bp := storage.NewBufferPool(disk, 64)
	q, err := NewTableQueue(bp)
	if err != nil {
		t.Fatal(err)
	}
	q.SetDurable(true)
	stop := time.Now().Add(300 * time.Millisecond)
	var enq, deq [8]int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); time.Now().Before(stop); i++ {
				if _, err := q.Enqueue(tok(int32(g+1), OpInsert, i)); err != nil {
					t.Error(err)
					return
				}
				atomic.AddInt64(&enq[g], 1)
				if i%64 == 0 {
					batch, err := q.DequeueBatch(32)
					if err != nil {
						t.Error(err)
						return
					}
					for _, tk := range batch {
						atomic.AddInt64(&deq[tk.SourceID-1], 1)
					}
				}
			}
		}()
	}
	wg.Wait()
	for g := 0; g < 8; g++ {
		want := int(enq[g] - deq[g])
		if got := q.SourceDepth(int32(g + 1)); got != want {
			t.Errorf("source %d depth = %d, want %d (enq %d, deq %d)",
				g+1, got, want, enq[g], deq[g])
		}
	}
}

// TestSourceDepthTracksPerSource exercises the depth counters on both
// queue implementations through every dequeue path.
func TestSourceDepthTracksPerSource(t *testing.T) {
	queues := map[string]Queue{
		"mem": NewMemQueue(),
	}
	tq, err := NewTableQueue(storage.NewBufferPool(storage.NewMem(), 32))
	if err != nil {
		t.Fatal(err)
	}
	queues["table"] = tq
	for name, q := range queues {
		for i := int64(0); i < 6; i++ {
			q.Enqueue(tok(1, OpInsert, i))
		}
		for i := int64(0); i < 3; i++ {
			q.Enqueue(tok(2, OpInsert, i))
		}
		if d1, d2 := q.SourceDepth(1), q.SourceDepth(2); d1 != 6 || d2 != 3 {
			t.Fatalf("%s: depths = %d,%d want 6,3", name, d1, d2)
		}
		if d := q.SourceDepth(99); d != 0 {
			t.Fatalf("%s: unknown source depth = %d", name, d)
		}
		if batch, _ := q.DequeueBatch(1); len(batch) != 1 {
			t.Fatalf("%s: dequeue failed", name)
		}
		if d := q.SourceDepth(1); d != 5 {
			t.Fatalf("%s: depth after single dequeue = %d, want 5", name, d)
		}
		if batch, err := q.DequeueBatch(0); err != nil || len(batch) != 8 {
			t.Fatalf("%s: drain = %d tokens, err %v", name, len(batch), err)
		}
		if d1, d2 := q.SourceDepth(1), q.SourceDepth(2); d1 != 0 || d2 != 0 {
			t.Fatalf("%s: depths after drain = %d,%d", name, d1, d2)
		}
	}
}

// TestSourceDepthSurvivesReopen checks the recovery scan rebuilds the
// per-source counters a restarted system's admission control needs.
func TestSourceDepthSurvivesReopen(t *testing.T) {
	disk := storage.NewMem()
	bp := storage.NewBufferPool(disk, 32)
	q, err := NewTableQueue(bp)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 7; i++ {
		q.Enqueue(tok(3, OpInsert, i))
	}
	q.Enqueue(tok(4, OpInsert, 0))
	q.DequeueBatch(2) // consume two of source 3's tokens
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	q2, err := OpenTableQueue(storage.NewBufferPool(disk, 32), q.heap.FirstPage())
	if err != nil {
		t.Fatal(err)
	}
	if d3, d4 := q2.SourceDepth(3), q2.SourceDepth(4); d3 != 5 || d4 != 1 {
		t.Fatalf("reopened depths = %d,%d want 5,1", d3, d4)
	}
}
