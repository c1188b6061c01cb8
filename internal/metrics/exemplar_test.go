package metrics

import (
	"testing"
	"time"
)

// TestExemplarStamping checks ObserveEx stamps the landing bucket and
// seq 0 degrades to a plain observation.
func TestExemplarStamping(t *testing.T) {
	h := NewHistogram(nil)
	h.ObserveEx(3*time.Microsecond, 0) // untraced: counted, no exemplar
	h.ObserveEx(3*time.Microsecond, 77)
	h.ObserveEx(2*time.Second, 99)
	if h.Count() != 3 {
		t.Fatalf("count = %d, want 3", h.Count())
	}
	exs := h.Exemplars()
	if len(exs) != 2 {
		t.Fatalf("exemplars = %+v, want 2", exs)
	}
	if exs[0].Seq != 77 || exs[0].Value != 3*time.Microsecond {
		t.Fatalf("low exemplar = %+v", exs[0])
	}
	if exs[1].Seq != 99 || exs[1].UpperNs != int64(2500*time.Millisecond) {
		t.Fatalf("high exemplar = %+v", exs[1])
	}
	if exs[0].At == 0 || exs[1].At == 0 {
		t.Fatal("exemplar timestamps not stamped")
	}
}

// TestCountAtOrBelow checks the conservative good-count: only whole
// buckets provably under the threshold count.
func TestCountAtOrBelow(t *testing.T) {
	h := NewHistogram(nil)
	for i := 0; i < 10; i++ {
		h.Observe(3 * time.Microsecond) // lands in the 5µs bucket
	}
	for i := 0; i < 5; i++ {
		h.Observe(20 * time.Millisecond) // lands in the 25ms bucket
	}
	if got := h.CountAtOrBelow(5 * time.Microsecond); got != 10 {
		t.Fatalf("good@5µs = %d, want 10", got)
	}
	// 10ms threshold excludes the 25ms bucket even though some of its
	// members might be under — conservative by design.
	if got := h.CountAtOrBelow(10 * time.Millisecond); got != 10 {
		t.Fatalf("good@10ms = %d, want 10", got)
	}
	if got := h.CountAtOrBelow(25 * time.Millisecond); got != 15 {
		t.Fatalf("good@25ms = %d, want 15", got)
	}
	// A threshold between bucket edges rounds down.
	if got := h.CountAtOrBelow(7 * time.Microsecond); got != 10 {
		t.Fatalf("good@7µs = %d, want 10", got)
	}
}
