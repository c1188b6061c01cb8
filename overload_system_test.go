package triggerman

// Overload and shutdown chaos tests: drive the admission-controlled
// pipeline through a 10x arrival burst and a mid-storm Close, and
// assert the graceful-degradation contract — interactive latency stays
// bounded, only batch work is shed, every token is accounted for
// (delivered + shed + rejected = injected), and shutdown never
// panics or strands in-flight work.

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"triggerman/internal/admission"
	"triggerman/internal/catalog"
	"triggerman/internal/datasource"
	"triggerman/internal/types"
)

// quantile reads the q-quantile from an unsorted duration sample.
func quantile(sample []time.Duration, q float64) time.Duration {
	if len(sample) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), sample...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[int(q*float64(len(s)-1))]
}

// TestBurstShedsBatchKeepsInteractive is the headline chaos test: an
// interactive source runs at a steady rate while a batch source bursts
// to 10x its arrival rate. The contract under burst:
//
//   - interactive p99 latency stays within 5x its pre-burst value
//     (with a 2ms floor so scheduler noise on tiny baselines does not
//     flake the ratio),
//   - only batch tokens are shed — every dead letter carries the batch
//     source's ID and the DeadShed kind,
//   - nothing is silently lost: fired + shed + rejected equals the
//     number of injection attempts.
func TestBurstShedsBatchKeepsInteractive(t *testing.T) {
	sys, err := Open(Options{
		Drivers: 2,
		Queue:   MemoryQueue,
		AdmissionConfig: &admission.Config{
			SoftDepth: 16,
			HardDepth: 1 << 20, // out of reach: this test exercises shedding, not rejection
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	col := types.Column{Name: "v", Kind: types.KindInt}
	inter, err := sys.DefineStreamSource("inter", col)
	if err != nil {
		t.Fatal(err)
	}
	bat, err := sys.DefineStreamSource("bat", col)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.CreateTrigger(
		"create trigger it from inter when inter.v >= 0 do raise event I(inter.v)"); err != nil {
		t.Fatal(err)
	}
	if err := sys.CreateTrigger(
		"create trigger bt batch from bat when bat.v >= 0 do raise event B(bat.v)"); err != nil {
		t.Fatal(err)
	}
	itID, _ := sys.Catalog().TriggerByName("it")

	// The FireHook plays two roles: it timestamps interactive firings
	// against the capture time carried in the tuple, and it slows batch
	// firings down so the batch source's queue actually backs up past
	// the soft watermark during the burst. The slowdown is a busy spin,
	// not time.Sleep — sleep granularity under scheduler load would
	// stretch each batch token from 100us to a millisecond or more and
	// measure the kernel timer, not the pipeline.
	var (
		latMu     sync.Mutex
		baseLats  []time.Duration
		burstLats []time.Duration
		inBurst   atomic.Bool
		fired     atomic.Int64
	)
	sys.FireHook = func(id uint64, tuples []types.Tuple) {
		fired.Add(1)
		if id == itID {
			d := time.Duration(time.Now().UnixNano() - tuples[0][0].Int())
			latMu.Lock()
			if inBurst.Load() {
				burstLats = append(burstLats, d)
			} else {
				baseLats = append(baseLats, d)
			}
			latMu.Unlock()
			return
		}
		for begin := time.Now(); time.Since(begin) < 100*time.Microsecond; {
		}
	}

	pushInter := func(n int, every time.Duration) {
		for i := 0; i < n; i++ {
			tu := types.Tuple{types.NewInt(time.Now().UnixNano())}
			if err := inter.Push(datasource.Token{Op: datasource.OpInsert, New: tu}); err != nil {
				t.Errorf("interactive push: %v", err)
				return
			}
			time.Sleep(every)
		}
	}

	// Baseline: interactive alone plus a trickle of batch work.
	var attempts, rejected atomic.Int64
	pushBat := func(n int, every time.Duration) {
		for i := 0; i < n; i++ {
			attempts.Add(1)
			err := bat.Push(datasource.Token{Op: datasource.OpInsert,
				New: types.Tuple{types.NewInt(int64(i))}})
			if errors.Is(err, admission.ErrOverload) {
				rejected.Add(1)
			} else if err != nil {
				t.Errorf("batch push: %v", err)
				return
			}
			if every > 0 {
				time.Sleep(every)
			}
		}
	}
	pushBat(50, 2*time.Millisecond)
	pushInter(150, 2*time.Millisecond)
	sys.Drain()

	// Burst: batch floods at full speed (10x+ the baseline arrival
	// rate) while interactive keeps its steady cadence.
	inBurst.Store(true)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		pushBat(4000, 0)
	}()
	pushInter(150, 2*time.Millisecond)
	wg.Wait()
	sys.Drain()

	interAttempts := int64(300)
	attempts.Add(interAttempts)

	p99Base := quantile(baseLats, 0.99)
	p99Burst := quantile(burstLats, 0.99)
	floor := 2 * time.Millisecond
	bound := p99Base
	if bound < floor {
		bound = floor
	}
	if raceEnabled {
		// The race detector slows the pipeline ~10x, so the wall-clock
		// bound is meaningless; the shedding and accounting assertions
		// below still hold and are what -race runs are for.
		t.Logf("race build: skipping latency bound (p99 base %v, burst %v)", p99Base, p99Burst)
	} else if p99Burst > 5*bound {
		t.Errorf("interactive p99 under burst = %v, want <= 5x max(baseline %v, %v)",
			p99Burst, p99Base, floor)
	}

	st := sys.Stats()
	if st.TokensShed == 0 {
		t.Error("burst never tripped the soft watermark: TokensShed = 0")
	}
	if st.TokensRejected != rejected.Load() {
		t.Errorf("TokensRejected = %d, want %d", st.TokensRejected, rejected.Load())
	}
	// Every shed token must be a batch token parked as a DeadShed entry.
	dls, err := sys.DeadLetters()
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(dls)) != st.TokensShed {
		t.Errorf("dead letters = %d, want TokensShed = %d", len(dls), st.TokensShed)
	}
	for _, d := range dls {
		if d.Kind != catalog.DeadShed {
			t.Errorf("dead letter %d kind = %q, want %q", d.ID, d.Kind, catalog.DeadShed)
		}
		if d.Token.SourceID != bat.Source().ID {
			t.Errorf("dead letter %d sheds source %d; interactive must never shed", d.ID, d.Token.SourceID)
		}
	}
	// Zero tokens silently lost: every injection attempt either fired,
	// was shed into the dead-letter table, or was rejected back to the
	// producer.
	if got := fired.Load() + st.TokensShed + rejected.Load(); got != attempts.Load() {
		t.Errorf("fired(%d) + shed(%d) + rejected(%d) = %d, want attempts = %d",
			fired.Load(), st.TokensShed, rejected.Load(), got, attempts.Load())
	}
	if st.QueueDepth != 0 {
		t.Errorf("queue depth after drain = %d, want 0", st.QueueDepth)
	}
	if st.Errors != 0 {
		t.Errorf("unexpected async errors: %d (%v)", st.Errors, sys.LastError())
	}
}

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

// TestRequeueWhileShedding pins down the dead-letter/admission
// interaction: requeueing a shed token while its source is still over
// the soft watermark must re-shed it into a fresh dead-letter entry
// (not inject it into an overloaded queue, and not lose it), and a
// requeue after the source drains must deliver it.
func TestRequeueWhileShedding(t *testing.T) {
	sys, err := Open(Options{
		Drivers: 1,
		Queue:   MemoryQueue,
		AdmissionConfig: &admission.Config{
			SoftDepth: 2,
			HardDepth: 1 << 20,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	bat, err := sys.DefineStreamSource("bat", types.Column{Name: "v", Kind: types.KindInt})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.CreateTrigger(
		"create trigger bt batch from bat when bat.v >= 0 do raise event B(bat.v)"); err != nil {
		t.Fatal(err)
	}

	// Every firing parks on gate, so the single driver wedges on the
	// first token and the queue backs up deterministically.
	var fires atomic.Int64
	gate := make(chan struct{})
	entered := make(chan struct{}, 16)
	sys.FireHook = func(uint64, []types.Tuple) {
		fires.Add(1)
		select {
		case entered <- struct{}{}:
		default:
		}
		<-gate
	}
	push := func(v int64) error {
		return bat.Push(datasource.Token{Op: datasource.OpInsert,
			New: types.Tuple{types.NewInt(v)}})
	}

	if err := push(1); err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("driver never reached the first firing")
	}
	// Driver wedged on token 1; tokens 2 and 3 fill the queue to the
	// soft watermark, token 4 must shed.
	if err := push(2); err != nil {
		t.Fatal(err)
	}
	if err := push(3); err != nil {
		t.Fatal(err)
	}
	if err := push(4); err != nil {
		t.Fatalf("shed push must report success (the token is parked, not lost): %v", err)
	}
	if loads := sys.Admission().Snapshot(nil); len(loads) != 1 || loads[0].State != admission.StateShedding {
		t.Fatalf("admission snapshot = %+v, want bat shedding", loads)
	}
	dls, err := sys.DeadLetters()
	if err != nil {
		t.Fatal(err)
	}
	if len(dls) != 1 || dls[0].Kind != catalog.DeadShed {
		t.Fatalf("dead letters = %+v, want one DeadShed entry", dls)
	}
	firstID := dls[0].ID

	// Requeue while the source is still shedding: the token must land
	// back in the dead-letter table as a fresh entry, not vanish.
	if err := sys.RequeueDeadLetter(firstID); err != nil {
		t.Fatalf("requeue while shedding: %v", err)
	}
	dls, err = sys.DeadLetters()
	if err != nil {
		t.Fatal(err)
	}
	if len(dls) != 1 || dls[0].Kind != catalog.DeadShed {
		t.Fatalf("after shedding requeue: dead letters = %+v, want one DeadShed entry", dls)
	}
	if dls[0].ID == firstID {
		t.Error("requeue returned the same entry; expected a fresh re-shed entry")
	}

	// Drain the backlog, then requeue for real.
	close(gate)
	sys.Drain()
	if got := fires.Load(); got != 3 {
		t.Fatalf("fires after drain = %d, want 3", got)
	}
	if err := sys.RequeueDeadLetter(dls[0].ID); err != nil {
		t.Fatalf("requeue after drain: %v", err)
	}
	sys.Drain()
	if got := fires.Load(); got != 4 {
		t.Errorf("fires after requeue = %d, want 4 (requeued token must deliver)", got)
	}
	if n := sys.DeadLetterCount(); n != 0 {
		t.Errorf("dead letters after successful requeue = %d, want 0", n)
	}
}

// TestLoadzEndpoint exercises the ops surface of admission control: a
// shedding source must show up on /loadz with its class, state, and
// shed accounting, and the watermark configuration must round-trip.
func TestLoadzEndpoint(t *testing.T) {
	sys, err := Open(Options{
		Drivers: 1,
		Queue:   MemoryQueue,
		AdmissionConfig: &admission.Config{
			SoftDepth: 1,
			HardDepth: 1 << 20,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	bat, err := sys.DefineStreamSource("bat", types.Column{Name: "v", Kind: types.KindInt})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.CreateTrigger(
		"create trigger bt batch from bat when bat.v >= 0 do raise event B(bat.v)"); err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	entered := make(chan struct{}, 16)
	sys.FireHook = func(uint64, []types.Tuple) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-gate
	}
	defer close(gate)
	push := func(v int64) error {
		return bat.Push(datasource.Token{Op: datasource.OpInsert,
			New: types.Tuple{types.NewInt(v)}})
	}
	if err := push(1); err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("driver never reached the first firing")
	}
	if err := push(2); err != nil { // queued: depth 1
		t.Fatal(err)
	}
	if err := push(3); err != nil { // depth at watermark: shed
		t.Fatal(err)
	}

	addr, err := sys.ListenOps("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var lz struct {
		Enabled   bool  `json:"enabled"`
		SoftDepth int   `json:"soft_depth"`
		HardDepth int   `json:"hard_depth"`
		Shed      int64 `json:"shed"`
		Sources   []struct {
			SourceID int32  `json:"source_id"`
			Name     string `json:"name"`
			Class    string `json:"class"`
			State    string `json:"state"`
			Depth    int    `json:"depth"`
			Shed     int64  `json:"shed"`
		} `json:"sources"`
	}
	getJSON(t, "http://"+addr+"/loadz", &lz)
	if !lz.Enabled || lz.SoftDepth != 1 || lz.HardDepth != 1<<20 {
		t.Errorf("config did not round-trip: %+v", lz)
	}
	if lz.Shed != 1 {
		t.Errorf("global shed = %d, want 1", lz.Shed)
	}
	if len(lz.Sources) != 1 {
		t.Fatalf("sources = %+v, want exactly the bat source", lz.Sources)
	}
	s := lz.Sources[0]
	if s.SourceID != bat.Source().ID || s.Name != "bat" || s.Class != "batch" ||
		s.State != "shedding" || s.Shed != 1 || s.Depth < 1 {
		t.Errorf("source row = %+v, want shedding batch source 'bat' with shed=1, depth>=1", s)
	}
}
