package taskq

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestHighDrainsBeforeLow pre-loads one shard with mixed priorities and
// checks the drain order: all high tasks run before any low task (the
// backlog is far below one aging interval).
func TestHighDrainsBeforeLow(t *testing.T) {
	p := New(Config{Drivers: 1, T: time.Millisecond, Threshold: time.Millisecond, AgingEvery: 1 << 30})
	defer p.Close()
	var mu sync.Mutex
	var order []Priority
	record := func(pr Priority) func() error {
		return func() error {
			mu.Lock()
			order = append(order, pr)
			mu.Unlock()
			return nil
		}
	}
	// Key every task to shard 0 so a single driver sees one interleaved
	// backlog; the first task blocks the driver until the whole mix is
	// queued.
	gate := make(chan struct{})
	p.Submit(Task{Key: 1, Run: func() error { <-gate; return nil }})
	for i := 0; i < 8; i++ {
		p.Submit(Task{Key: 1, Pri: Low, Run: record(Low)})
		p.Submit(Task{Key: 1, Pri: High, Run: record(High)})
	}
	close(gate)
	p.Drain()
	if len(order) != 16 {
		t.Fatalf("ran %d tasks", len(order))
	}
	for i, pr := range order {
		want := High
		if i >= 8 {
			want = Low
		}
		if pr != want {
			t.Fatalf("position %d ran %v (order %v)", i, pr, order)
		}
	}
	if st := p.Stats(); st.LowRuns != 8 {
		t.Fatalf("LowRuns = %d, want 8", st.LowRuns)
	}
}

// TestAgingPreventsLowStarvation keeps a shard's high queue non-empty
// while a low task waits: the aging tick must run it anyway.
func TestAgingPreventsLowStarvation(t *testing.T) {
	p := New(Config{Drivers: 1, T: time.Millisecond, Threshold: time.Millisecond, AgingEvery: 4})
	defer p.Close()
	var lowRan atomic.Bool
	var feeding atomic.Bool
	feeding.Store(true)
	var wg sync.WaitGroup
	// Each high task re-submits a successor, so the high queue never
	// runs dry until the low task has run.
	var feed func() error
	feed = func() error {
		if feeding.Load() {
			wg.Add(1)
			p.Submit(Task{Key: 1, Pri: High, Run: func() error { defer wg.Done(); return feed() }})
		}
		return nil
	}
	gate := make(chan struct{})
	p.Submit(Task{Key: 1, Run: func() error { <-gate; return nil }})
	p.Submit(Task{Key: 1, Pri: Low, Run: func() error {
		lowRan.Store(true)
		feeding.Store(false)
		return nil
	}})
	wg.Add(1)
	p.Submit(Task{Key: 1, Pri: High, Run: func() error { defer wg.Done(); return feed() }})
	close(gate)
	deadline := time.Now().Add(5 * time.Second)
	for !lowRan.Load() {
		if time.Now().After(deadline) {
			feeding.Store(false)
			t.Fatal("low task starved behind a steady high stream")
		}
		time.Sleep(time.Millisecond)
	}
	wg.Wait()
	p.Drain()
	if st := p.Stats(); st.Aged < 1 {
		t.Fatalf("Aged = %d, want >= 1", st.Aged)
	}
}

// TestSerialBlockedLowKeepsPriority routes a blocked Serial low task
// back to the low queue on release, not the high queue.
func TestSerialBlockedLowKeepsPriority(t *testing.T) {
	p := New(Config{Drivers: 1, T: time.Millisecond, Threshold: time.Millisecond, AgingEvery: 1 << 30})
	defer p.Close()
	var mu sync.Mutex
	var order []string
	log := func(s string) {
		mu.Lock()
		order = append(order, s)
		mu.Unlock()
	}
	gate := make(chan struct{})
	release := make(chan struct{})
	// Serial key 1 runs and blocks; a second serial-low task on the same
	// key is popped and parked in blocked. While it is parked, a high
	// task arrives. On release the serial task must re-enter the low
	// queue, so the high task runs first.
	p.Submit(Task{Key: 1, Serial: true, Run: func() error { close(gate); <-release; return nil }})
	<-gate
	p.Submit(Task{Key: 1, Serial: true, Pri: Low, Run: func() error { log("serial-low"); return nil }})
	// Let the driver pop-and-park the blocked serial task.
	time.Sleep(20 * time.Millisecond)
	p.Submit(Task{Key: 1, Pri: High, Run: func() error { log("high"); return nil }})
	close(release)
	p.Drain()
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != "high" || order[1] != "serial-low" {
		t.Fatalf("order = %v, want [high serial-low]", order)
	}
}

// TestDrainToleratesConcurrentSubmits hammers Drain while producers
// submit: the old WaitGroup-based pending count could panic with
// "Add called concurrently with Wait" across a zero crossing. Each
// producer submits a bounded number of tasks, so a machine too busy to
// run the drivers cannot grow the queue without limit.
func TestDrainToleratesConcurrentSubmits(t *testing.T) {
	const perProducer = 20_000
	p := New(Config{Drivers: 4, T: time.Millisecond, Threshold: time.Millisecond})
	defer p.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				select {
				case <-stop:
					return
				default:
				}
				p.Submit(Task{Run: func() error { return nil }})
			}
		}()
	}
	for i := 0; i < 200; i++ {
		p.Drain()
	}
	close(stop)
	wg.Wait()
	p.Drain()
	if n := p.pendN.Load(); n != 0 {
		t.Fatalf("pending = %d after drain", n)
	}
}

// TestCloseDuringSubmitStorm closes the pool while producers are still
// submitting: no panic, every accepted task executes, rejected submits
// error cleanly.
func TestCloseDuringSubmitStorm(t *testing.T) {
	p := New(Config{Drivers: 4, T: time.Millisecond, Threshold: time.Millisecond})
	var accepted, executed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				err := p.Submit(Task{Run: func() error {
					executed.Add(1)
					return nil
				}})
				if err != nil {
					return // pool closed: expected
				}
				accepted.Add(1)
			}
		}()
	}
	time.Sleep(2 * time.Millisecond)
	p.Close()
	wg.Wait()
	if a, e := accepted.Load(), executed.Load(); a != e {
		t.Fatalf("accepted %d but executed %d: tasks lost at close", a, e)
	}
	if p.Stats().Panics != 0 {
		t.Fatalf("panics = %d", p.Stats().Panics)
	}
}
