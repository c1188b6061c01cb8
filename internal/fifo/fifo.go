// Package fifo provides the slice-backed FIFO with head compaction that
// the task queue shards and the main-memory token queue share. Before
// this package existed the same compaction slide was hand-rolled in
// three places (taskq.pop, taskq.tryPop, datasource.MemQueue.DequeueBatch);
// it lives here once, tested once.
//
// Queue is not safe for concurrent use; callers wrap it in their own
// lock (one lock per shard, which is the whole point of sharding).
package fifo

// compactAfter is the minimum number of consumed head slots before a
// Pop considers sliding live elements back to the front. The slide runs
// only when consumed slots also outnumber live ones, so it amortizes to
// O(1) per element.
const compactAfter = 1024

// Queue is a FIFO over a slice with an advancing head index. The zero
// value is an empty queue.
type Queue[T any] struct {
	buf  []T
	head int
}

// Len reports the number of queued elements.
func (q *Queue[T]) Len() int { return len(q.buf) - q.head }

// Push appends v at the back.
func (q *Queue[T]) Push(v T) { q.buf = append(q.buf, v) }

// PushFront re-admits v at the front (used to return a popped element
// that could not run yet, preserving its FIFO position).
func (q *Queue[T]) PushFront(v T) {
	if q.head > 0 {
		q.head--
		q.buf[q.head] = v
		return
	}
	var zero T
	q.buf = append(q.buf, zero)
	copy(q.buf[1:], q.buf)
	q.buf[0] = v
}

// Pop removes and returns the front element; ok is false when empty.
// Consumed slots are zeroed so the queue never retains references, and
// the backing slice is compacted once consumed slots dominate.
func (q *Queue[T]) Pop() (T, bool) {
	var zero T
	if q.head >= len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
		return zero, false
	}
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head++
	if q.head > compactAfter && q.head*2 > len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	return v, true
}
