package triggerman

// Shutdown tests: Close against producers in flight. A producer call
// either completes before Close (its row written, its token fired) or
// does nothing and returns errClosed; Close never strands accepted work.

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"triggerman/internal/datasource"
	"triggerman/internal/storage"
	"triggerman/internal/types"
)

// TestCloseDuringTokenStorm closes the system in the middle of a
// 10k-token storm with cascading actions and asserts the graceful-
// shutdown contract: every accepted token fires before Close returns
// (cascaded captures included — the action's execSQL insert lands on a
// registered source mid-drain), nothing is dead-lettered or panics,
// and producers that lose the race get a clean errClosed.
func TestCloseDuringTokenStorm(t *testing.T) {
	sys, err := Open(Options{Drivers: 4, Queue: MemoryQueue})
	if err != nil {
		t.Fatal(err)
	}
	src, err := sys.DefineStreamSource("src", types.Column{Name: "v", Kind: types.KindInt})
	if err != nil {
		t.Fatal(err)
	}
	// audit is a registered TableSource, so the trigger's insert
	// cascades back into the capture path while the pool is draining.
	if _, err := sys.DefineTableSource("audit", types.Column{Name: "v", Kind: types.KindInt}); err != nil {
		t.Fatal(err)
	}
	if err := sys.CreateTrigger(
		"create trigger c from src when src.v >= 0 do execSQL 'insert into audit values (:NEW.src.v)'"); err != nil {
		t.Fatal(err)
	}
	var fired atomic.Int64
	trigID, _ := sys.Catalog().TriggerByName("c")
	sys.FireHook = func(id uint64, _ []types.Tuple) {
		if id == trigID {
			fired.Add(1)
		}
	}

	const producers, perProducer = 4, 2500
	var accepted atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				err := src.Push(datasource.Token{Op: datasource.OpInsert,
					New: types.Tuple{types.NewInt(int64(p*perProducer + i))}})
				switch {
				case err == nil:
					accepted.Add(1)
				case errors.Is(err, errClosed):
					return
				default:
					t.Errorf("producer %d: %v", p, err)
					return
				}
			}
		}(p)
	}
	time.Sleep(3 * time.Millisecond)
	if err := sys.Close(); err != nil {
		t.Fatalf("close under load: %v", err)
	}
	wg.Wait()

	if got := fired.Load(); got != accepted.Load() {
		t.Errorf("fired %d of %d accepted tokens; in-flight work lost at Close", got, accepted.Load())
	}
	st := sys.Stats()
	if st.Pool.Panics != 0 {
		t.Errorf("driver panics during shutdown: %d", st.Pool.Panics)
	}
	if st.DeadLetters != 0 {
		dls, _ := sys.DeadLetters()
		t.Errorf("dead letters after clean close: %d (%v)", st.DeadLetters, dls)
	}
	if st.Errors != 0 {
		t.Errorf("async errors during shutdown: %d (%v)", st.Errors, sys.LastError())
	}
	if err := sys.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

// tableRows reads a TableSource's rows as ints, in scan order.
func tableRows(t *testing.T, ts *TableSource) []int64 {
	t.Helper()
	var rows []int64
	if err := ts.Table().Scan(func(_ storage.RID, row types.Tuple) bool {
		rows = append(rows, row.Get(0).Int())
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestTableSourceAfterCloseLeavesTableUnchanged checks the close gate
// on the table write: Insert, Update and Delete on a closed system
// return errClosed and leave the table as it was.
func TestTableSourceAfterCloseLeavesTableUnchanged(t *testing.T) {
	sys, err := Open(Options{Synchronous: true})
	if err != nil {
		t.Fatal(err)
	}
	ts, err := sys.DefineTableSource("t", types.Column{Name: "v", Kind: types.KindInt})
	if err != nil {
		t.Fatal(err)
	}
	for v := int64(1); v <= 2; v++ {
		if err := ts.Insert(types.Tuple{types.NewInt(v)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	one, two := types.Tuple{types.NewInt(1)}, types.Tuple{types.NewInt(2)}
	for name, call := range map[string]func() error{
		"insert": func() error { return ts.Insert(types.Tuple{types.NewInt(3)}) },
		"update": func() error { return ts.Update(one, types.Tuple{types.NewInt(10)}) },
		"delete": func() error { return ts.Delete(two) },
	} {
		if err := call(); !errors.Is(err, errClosed) {
			t.Errorf("%s after Close: err = %v, want errClosed", name, err)
		}
	}
	if rows := tableRows(t, ts); len(rows) != 2 || rows[0] != 1 || rows[1] != 2 {
		t.Errorf("table after closed writes = %v, want [1 2]", rows)
	}
}

// TestTableSourceRacingClose closes the system while TableSource
// producers insert. Each producer runs until it sees errClosed. At the
// end the table holds exactly the rows whose Insert returned nil, and
// each of them fired once.
func TestTableSourceRacingClose(t *testing.T) {
	sys, err := Open(Options{Drivers: 2, Queue: MemoryQueue})
	if err != nil {
		t.Fatal(err)
	}
	ts, err := sys.DefineTableSource("t", types.Column{Name: "v", Kind: types.KindInt})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.CreateTrigger("create trigger f from t when t.v >= 0 do raise event F(t.v)"); err != nil {
		t.Fatal(err)
	}
	var fired atomic.Int64
	sys.FireHook = func(uint64, []types.Tuple) { fired.Add(1) }

	const producers = 2
	var accepted atomic.Int64
	ready := make(chan struct{}) // closed by the 100th accepted insert
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := int64(0); ; i++ {
				err := ts.Insert(types.Tuple{types.NewInt(int64(p)<<32 | i)})
				switch {
				case err == nil:
					if accepted.Add(1) == 100 {
						close(ready)
					}
				case errors.Is(err, errClosed):
					return
				default:
					t.Errorf("producer %d: %v", p, err)
					return
				}
			}
		}(p)
	}
	select {
	case <-ready:
	case <-time.After(10 * time.Second):
		t.Fatal("producers never reached 100 accepted inserts")
	}
	if err := sys.Close(); err != nil {
		t.Fatalf("close under load: %v", err)
	}
	wg.Wait()

	if rows := int64(len(tableRows(t, ts))); rows != accepted.Load() {
		t.Errorf("table holds %d rows, want the %d accepted inserts", rows, accepted.Load())
	}
	if got := fired.Load(); got != accepted.Load() {
		t.Errorf("fired %d times, want the %d accepted inserts", got, accepted.Load())
	}
}

// TestRequeueShedKindEntry checks that a dead-letter row of a kind this
// version no longer writes ("shed", from the removed admission control)
// still lists and requeues: the kind is a free string.
func TestRequeueShedKindEntry(t *testing.T) {
	sys, err := Open(Options{Synchronous: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	src, err := sys.DefineStreamSource("s", types.Column{Name: "v", Kind: types.KindInt})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.CreateTrigger("create trigger f batch from s when s.v > 0 do raise event F(s.v)"); err != nil {
		t.Fatal(err)
	}
	var fired atomic.Int64
	sys.FireHook = func(uint64, []types.Tuple) { fired.Add(1) }
	tok := datasource.Token{SourceID: src.Source().ID, Op: datasource.OpInsert, New: types.Tuple{types.NewInt(7)}}
	id, err := sys.Catalog().AddDeadLetter("shed", 0, tok, "shed by admission control", 0)
	if err != nil {
		t.Fatal(err)
	}
	dls, err := sys.DeadLetters()
	if err != nil || len(dls) != 1 || dls[0].Kind != "shed" {
		t.Fatalf("dead letters = %+v (err %v), want one shed entry", dls, err)
	}
	if err := sys.RequeueDeadLetter(id); err != nil {
		t.Fatal(err)
	}
	if fired.Load() != 1 || sys.DeadLetterCount() != 0 {
		t.Fatalf("after requeue: fired %d, dead letters %d; want 1, 0", fired.Load(), sys.DeadLetterCount())
	}
}
