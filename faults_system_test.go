package triggerman

// System-level chaos tests: drive the full pipeline under sustained
// injected disk and action faults and assert the failure-handling
// contract — every accepted token either fires or lands in the
// dead-letter table, no driver goroutine dies, and Drain/Close still
// terminate.

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"triggerman/internal/catalog"
	"triggerman/internal/datasource"
	"triggerman/internal/faults"
	"triggerman/internal/metrics"
	"triggerman/internal/retry"
	"triggerman/internal/storage"
	"triggerman/internal/taskq"
	"triggerman/internal/types"
)

// collectEvents drains a subscription into a set of int values until the
// subscription is cancelled.
func collectEvents(sys *System, event string, buffer int, t *testing.T) (seen func() map[int64]bool, stop func()) {
	t.Helper()
	sub, err := sys.Subscribe(event, buffer)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	got := make(map[int64]bool)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for n := range sub.C() {
			mu.Lock()
			got[n.Args[0].Int()] = true
			mu.Unlock()
		}
	}()
	seen = func() map[int64]bool {
		mu.Lock()
		defer mu.Unlock()
		out := make(map[int64]bool, len(got))
		for k, v := range got {
			out[k] = v
		}
		return out
	}
	stop = func() {
		if sub.Dropped() > 0 {
			t.Fatalf("subscription dropped %d notifications; delivery accounting is void", sub.Dropped())
		}
		sub.Cancel()
		<-done
	}
	return seen, stop
}

// faultyDequeue fails every third dequeue with a transient fault
// before touching the queue, so every dispatch setting meets dequeue
// faults — also the ones whose backlog never leaves the buffer pool and
// so never reaches the faulty disk.
type faultyDequeue struct {
	datasource.Queue
	calls  atomic.Int64
	healed atomic.Bool
}

func (q *faultyDequeue) fault() error {
	if !q.healed.Load() && q.calls.Add(1)%3 == 0 {
		return retry.Transient(errors.New("faults: injected dequeue fault"))
	}
	return nil
}

func (q *faultyDequeue) DequeueBatch(max int) ([]datasource.Token, error) {
	if err := q.fault(); err != nil {
		return nil, err
	}
	return q.Queue.DequeueBatch(max)
}

// TestChaosNoTokenLost floods the system with tokens while the disk
// fails ~10% of page operations, every third dequeue fails, and actions
// fail ~15% (plus ~2% panic).
// The contract: every token is delivered or dead-lettered — never
// silently dropped — the queue drains empty, and the drivers survive to
// process a clean second wave. It holds under every dispatch setting:
// the pipeline is one path, and the settings only move its stages.
func TestChaosNoTokenLost(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"default", Options{}},
		{"SourceFIFO", Options{SourceFIFO: true}},
		{"ConditionPartitions", Options{ConditionPartitions: 2}},
		{"Synchronous", Options{Synchronous: true}},
	} {
		t.Run(tc.name, func(t *testing.T) { chaosNoTokenLost(t, tc.opts) })
	}
}

func chaosNoTokenLost(t *testing.T, opts Options) {
	const total = 2500 // per dispatch setting
	fd := faults.NewDisk(storage.NewMem(), 42)
	fast := func(attempts int) *retry.Policy {
		return &retry.Policy{MaxAttempts: attempts, BaseDelay: 50 * time.Microsecond, MaxDelay: time.Millisecond}
	}
	opts.Disk = fd
	opts.Drivers = 4
	opts.BufferPoolPages = 16 // small pool: real disk traffic under load
	opts.QueueRetry = fast(15)
	opts.ActionRetry = fast(10)
	sys, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	fq := &faultyDequeue{Queue: sys.queue}
	sys.queue = fq
	src, err := sys.DefineStreamSource("chaos", types.Column{Name: "v", Kind: types.KindInt})
	if err != nil {
		t.Fatal(err)
	}
	err = sys.CreateTrigger(`create trigger chaosT from chaos
		when chaos.v >= 0
		do raise event Hit(chaos.v)`)
	if err != nil {
		t.Fatal(err)
	}
	seen, stop := collectEvents(sys, "Hit", 8192, t)

	inj := faults.NewActionInjector(43)
	inj.SetErrorRate(0.15)
	inj.SetPanicRate(0.02)
	sys.exe.Inject = inj.Hook()
	fd.SetErrorRate(0.10)

	for i := 0; i < total; i++ {
		if err := src.Insert(types.Tuple{types.NewInt(int64(i))}); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	sys.Drain()

	// Heal everything before verifying (the verification reads go
	// through the same disk).
	fd.SetErrorRate(0)
	fq.healed.Store(true)
	inj.SetErrorRate(0)
	inj.SetPanicRate(0)

	if fd.Injected() == 0 || inj.InjectedErrors() == 0 || inj.InjectedPanics() == 0 {
		t.Fatalf("harness injected nothing: disk=%d errs=%d panics=%d",
			fd.Injected(), inj.InjectedErrors(), inj.InjectedPanics())
	}

	// Second wave on a healthy system: proves no driver goroutine died
	// during the storm.
	for i := total; i < total+100; i++ {
		if err := src.Insert(types.Tuple{types.NewInt(int64(i))}); err != nil {
			t.Fatalf("post-heal push %d: %v", i, err)
		}
	}
	sys.Drain()
	stop()

	delivered := seen()
	dls, err := sys.DeadLetters()
	if err != nil {
		t.Fatal(err)
	}
	quarantined := make(map[int64]bool)
	for _, d := range dls {
		quarantined[d.Token.New[0].Int()] = true
	}
	var lost []int64
	for i := int64(0); i < total; i++ {
		if !delivered[i] && !quarantined[i] {
			lost = append(lost, i)
		}
	}
	if len(lost) > 0 {
		t.Fatalf("%d token(s) lost (neither fired nor dead-lettered), e.g. %v", len(lost), lost[:min(len(lost), 5)])
	}
	for i := int64(total); i < total+100; i++ {
		if !delivered[i] {
			t.Fatalf("post-heal token %d not delivered: a driver died or the pool wedged", i)
		}
	}
	st := sys.Stats()
	if st.QueueDepth != 0 {
		t.Errorf("queue depth = %d after Drain, want 0", st.QueueDepth)
	}
	if st.DeadLettered != int64(len(dls)) {
		t.Errorf("DeadLettered=%d but table holds %d", st.DeadLettered, len(dls))
	}
	t.Logf("chaos: disk faults=%d action errs=%d panics=%d delivered=%d dead-lettered=%d task retries=%d task panics=%d",
		fd.Injected(), inj.InjectedErrors(), inj.InjectedPanics(), len(delivered), len(dls), st.Pool.Retries, st.Pool.Panics)
	if err := sys.Close(); err != nil {
		t.Fatalf("Close after chaos: %v", err)
	}
}

// TestPoolClosedMidFanOutDeadLetters: a token that has left the queue
// when the pool stops taking its partition tasks is dead-lettered as a
// whole token — not half fired and half lost.
func TestPoolClosedMidFanOutDeadLetters(t *testing.T) {
	sys, err := Open(Options{Drivers: 2, Queue: MemoryQueue, ConditionPartitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	src, err := sys.DefineStreamSource("s", types.Column{Name: "v", Kind: types.KindInt})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.CreateTrigger(`create trigger x from s when s.v >= 0 do raise event X(s.v)`); err != nil {
		t.Fatal(err)
	}
	// The token is queued, the pool closes, and only then does a pump
	// take the token out: its fan-out finds the pool shut.
	if _, err := sys.queue.Enqueue(datasource.Token{
		SourceID: src.Source().ID, Op: datasource.OpInsert, New: types.Tuple{types.NewInt(7)},
	}); err != nil {
		t.Fatal(err)
	}
	sys.pool.Close()
	if err := sys.pump(taskq.NoSlot); err != nil {
		t.Fatalf("pump: %v", err)
	}
	dls, err := sys.DeadLetters()
	if err != nil {
		t.Fatal(err)
	}
	if len(dls) != 1 || dls[0].Kind != catalog.DeadToken || dls[0].Token.New[0].Int() != 7 {
		t.Fatalf("dead letters = %+v, want the one token as %s", dls, catalog.DeadToken)
	}
	if depth := sys.Stats().QueueDepth; depth != 0 {
		t.Errorf("queue depth = %d, want 0", depth)
	}
}

// TestPoisonTriggerQuarantined pins one trigger's action to panic on
// every firing: its firings must be quarantined one by one while the
// healthy trigger on the same source keeps firing, and healing plus a
// dead-letter requeue replays the token.
func TestPoisonTriggerQuarantined(t *testing.T) {
	sys, err := Open(Options{Drivers: 2, Queue: MemoryQueue})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	src, err := sys.DefineStreamSource("s", types.Column{Name: "v", Kind: types.KindInt})
	if err != nil {
		t.Fatal(err)
	}
	for _, ct := range []string{
		`create trigger bad from s when s.v >= 0 do raise event Bad(s.v)`,
		`create trigger good from s when s.v >= 0 do raise event Good(s.v)`,
	} {
		if err := sys.CreateTrigger(ct); err != nil {
			t.Fatal(err)
		}
	}
	badID, ok := sys.cat.TriggerByName("bad")
	if !ok {
		t.Fatal("no trigger id for bad")
	}
	goodSeen, goodStop := collectEvents(sys, "Good", 256, t)
	badSeen, badStop := collectEvents(sys, "Bad", 256, t)

	inj := faults.NewActionInjector(7)
	inj.Poison(badID)
	sys.exe.Inject = inj.Hook()

	const n = 100
	for i := 0; i < n; i++ {
		if err := src.Insert(types.Tuple{types.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	sys.Drain()
	goodStop()
	badStop()

	if got := len(goodSeen()); got != n {
		t.Fatalf("healthy trigger fired %d/%d times", got, n)
	}
	if got := len(badSeen()); got != 0 {
		t.Fatalf("poisoned trigger fired %d times", got)
	}
	dls, err := sys.DeadLetters()
	if err != nil {
		t.Fatal(err)
	}
	if len(dls) != n {
		t.Fatalf("dead letters = %d, want %d", len(dls), n)
	}
	for _, d := range dls {
		if d.Kind != catalog.DeadAction || d.TriggerID != badID {
			t.Fatalf("entry = %+v, want kind=%s trigger=%d", d, catalog.DeadAction, badID)
		}
		if d.Attempts != 1 {
			t.Fatalf("panic should fail fast, got %d attempts", d.Attempts)
		}
		if !strings.Contains(d.Error, "panic") {
			t.Fatalf("error %q should mention the panic", d.Error)
		}
	}

	// Heal and replay one entry: the token runs the whole pipeline
	// again (at-least-once), so both triggers fire for it.
	inj.Heal(badID)
	badSeen2, badStop2 := collectEvents(sys, "Bad", 8, t)
	first := dls[0]
	if err := sys.RequeueDeadLetter(first.ID); err != nil {
		t.Fatal(err)
	}
	sys.Drain()
	badStop2()
	v := first.Token.New[0].Int()
	if !badSeen2()[v] {
		t.Fatalf("requeued token %d did not fire the healed trigger", v)
	}
	if sys.DeadLetterCount() != n-1 {
		t.Fatalf("dead letters after requeue = %d, want %d", sys.DeadLetterCount(), n-1)
	}
}

// TestSemanticErrorFailsFast: an unmarked (non-transient) action error
// must reach the dead-letter table after exactly one attempt.
func TestSemanticErrorFailsFast(t *testing.T) {
	sys := syncSystem(t)
	src, err := sys.DefineStreamSource("s", types.Column{Name: "v", Kind: types.KindInt})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.CreateTrigger(`create trigger x from s when s.v >= 0 do raise event X(s.v)`); err != nil {
		t.Fatal(err)
	}
	calls := 0
	sys.exe.Inject = func(uint64) error {
		calls++
		return fmt.Errorf("semantic: unknown column")
	}
	if err := src.Insert(types.Tuple{types.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("semantic error was attempted %d times, want 1 (fail fast)", calls)
	}
	dls, err := sys.DeadLetters()
	if err != nil {
		t.Fatal(err)
	}
	if len(dls) != 1 || dls[0].Attempts != 1 || !strings.Contains(dls[0].Error, "semantic") {
		t.Fatalf("dead letters = %+v", dls)
	}
	// The failure is also visible in the error ring.
	if sys.Errors() == 0 || sys.LastError() == nil {
		t.Error("error ring should record the quarantine cause")
	}
	recs := sys.RecentErrors()
	if len(recs) == 0 || recs[len(recs)-1].Kind != catalog.DeadAction || recs[len(recs)-1].TriggerID == 0 {
		t.Errorf("recent errors = %+v", recs)
	}
}

// TestTransientActionFaultRetriesAndDelivers: a 50% transient action
// fault rate must not surface anywhere — retries absorb it and every
// token is delivered.
func TestTransientActionFaultRetriesAndDelivers(t *testing.T) {
	// 12 attempts: at a 50% fault rate the per-token exhaustion
	// probability is 0.5^12 ≈ 2e-4, so all 50 deliver.
	sys, err := Open(Options{
		Synchronous: true, Queue: MemoryQueue,
		ActionRetry: &retry.Policy{MaxAttempts: 12, BaseDelay: 20 * time.Microsecond, MaxDelay: 200 * time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	src, err := sys.DefineStreamSource("s", types.Column{Name: "v", Kind: types.KindInt})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.CreateTrigger(`create trigger x from s when s.v >= 0 do raise event X(s.v)`); err != nil {
		t.Fatal(err)
	}
	seen, stop := collectEvents(sys, "X", 256, t)
	inj := faults.NewActionInjector(3)
	inj.SetErrorRate(0.5)
	sys.exe.Inject = inj.Hook()
	const n = 50
	for i := 0; i < n; i++ {
		if err := src.Insert(types.Tuple{types.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	stop()
	if got := len(seen()); got != n {
		t.Fatalf("delivered %d/%d", got, n)
	}
	if inj.InjectedErrors() == 0 {
		t.Fatal("no faults injected")
	}
	if sys.DeadLetterCount() != 0 {
		t.Fatalf("dead letters = %d, want 0", sys.DeadLetterCount())
	}
}

// TestRetryMetricsCountAttemptsAndExhaustions pins the two tman_retry_*
// families to an exact fault script: a firing that fails k times
// transiently adds k to the attempts family (retries beyond the first
// try), one that never succeeds adds MaxAttempts-1 and one exhaustion,
// and successes add nothing to either.
func TestRetryMetricsCountAttemptsAndExhaustions(t *testing.T) {
	sys, err := Open(Options{
		Synchronous: true, Queue: MemoryQueue,
		ActionRetry: &retry.Policy{MaxAttempts: 3, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	src, err := sys.DefineStreamSource("s", types.Column{Name: "v", Kind: types.KindInt})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.CreateTrigger(`create trigger x from s do raise event X(s.v)`); err != nil {
		t.Fatal(err)
	}
	// Token v's firing fails its first v attempts.
	var v, tries int
	sys.exe.Inject = func(uint64) error {
		if tries++; tries <= v {
			return retry.Transient(errors.New("injected"))
		}
		return nil
	}
	for _, v = range []int{0, 1, 2, 5, 0} {
		tries = 0
		if err := src.Insert(types.Tuple{types.NewInt(int64(v))}); err != nil {
			t.Fatal(err)
		}
	}
	counter := func(family string) int64 {
		return sys.met.Counter(family, "", metrics.L("policy", "action")).Value()
	}
	if got := counter("tman_retry_attempts_total"); got != 0+1+2+2+0 {
		t.Errorf("action retry attempts = %d, want 5", got)
	}
	if got := counter("tman_retry_exhausted_total"); got != 1 {
		t.Errorf("action retry exhaustions = %d, want 1", got)
	}
	if got := sys.DeadLetterCount(); got != 1 {
		t.Errorf("dead letters = %d, want 1 (the firing that never succeeded)", got)
	}
}

// TestDeadLetterConsoleCommand drives the deadletter verb end to end
// through the command interface.
func TestDeadLetterConsoleCommand(t *testing.T) {
	sys := syncSystem(t)
	src, err := sys.DefineStreamSource("s", types.Column{Name: "v", Kind: types.KindInt})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.CreateTrigger(`create trigger x from s when s.v >= 0 do raise event X(s.v)`); err != nil {
		t.Fatal(err)
	}
	out, err := sys.Command("deadletter")
	if err != nil || !strings.Contains(out, "empty") {
		t.Fatalf("empty list: %q, %v", out, err)
	}
	inj := faults.NewActionInjector(5)
	id, _ := sys.cat.TriggerByName("x")
	inj.Poison(id)
	sys.exe.Inject = inj.Hook()
	if err := src.Insert(types.Tuple{types.NewInt(7)}); err != nil {
		t.Fatal(err)
	}
	out, err = sys.Command("deadletter list")
	if err != nil || !strings.Contains(out, "1 dead-lettered") {
		t.Fatalf("list: %q, %v", out, err)
	}
	dls, _ := sys.DeadLetters()
	inj.Heal(id)
	seen, stop := collectEvents(sys, "X", 8, t)
	out, err = sys.Command(fmt.Sprintf("deadletter requeue %d", dls[0].ID))
	if err != nil || !strings.Contains(out, "requeued") {
		t.Fatalf("requeue: %q, %v", out, err)
	}
	stop()
	if !seen()[7] {
		t.Fatal("requeued token did not fire")
	}
	if _, err := sys.Command("deadletter requeue 9999"); err == nil {
		t.Fatal("requeue of missing id should fail")
	}
	if _, err := sys.Command("deadletter frobnicate"); err == nil {
		t.Fatal("unknown subcommand should fail")
	}
	out, err = sys.Command("deadletter purge")
	if err != nil || !strings.Contains(out, "0 dead letter(s) purged") {
		t.Fatalf("purge: %q, %v", out, err)
	}
}

// TestClosedGuards: the public entry points reject work after Close
// instead of racing a shut-down pool.
func TestClosedGuards(t *testing.T) {
	sys, err := Open(Options{Synchronous: true, Queue: MemoryQueue})
	if err != nil {
		t.Fatal(err)
	}
	src, err := sys.DefineStreamSource("s", types.Column{Name: "v", Kind: types.KindInt})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	if err := src.Insert(types.Tuple{types.NewInt(1)}); err != errClosed {
		t.Errorf("Insert after close = %v", err)
	}
	if err := sys.PushToken("s", 0, nil, nil, ""); err != errClosed {
		t.Errorf("PushToken after close = %v", err)
	}
	if err := sys.CreateTrigger(`create trigger x from s when s.v >= 0 do raise event X(s.v)`); err != errClosed {
		t.Errorf("CreateTrigger after close = %v", err)
	}
	if _, err := sys.Subscribe("X", 1); err != errClosed {
		t.Errorf("Subscribe after close = %v", err)
	}
	if err := sys.RequeueDeadLetter(1); err != errClosed {
		t.Errorf("RequeueDeadLetter after close = %v", err)
	}
}

// TestDeadLettersSurviveRestart: quarantined work persists — reopening
// the same database file still shows the entry and can replay it.
func TestDeadLettersSurviveRestart(t *testing.T) {
	path := t.TempDir() + "/dl.db"
	sys, err := Open(Options{DiskPath: path, Synchronous: true})
	if err != nil {
		t.Fatal(err)
	}
	src, err := sys.DefineStreamSource("s", types.Column{Name: "v", Kind: types.KindInt})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.CreateTrigger(`create trigger x from s when s.v >= 0 do raise event X(s.v)`); err != nil {
		t.Fatal(err)
	}
	inj := faults.NewActionInjector(11)
	id, _ := sys.cat.TriggerByName("x")
	inj.Poison(id)
	sys.exe.Inject = inj.Hook()
	if err := src.Insert(types.Tuple{types.NewInt(42)}); err != nil {
		t.Fatal(err)
	}
	if sys.DeadLetterCount() != 1 {
		t.Fatalf("dead letters = %d", sys.DeadLetterCount())
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	sys2, err := Open(Options{DiskPath: path, Synchronous: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()
	dls, err := sys2.DeadLetters()
	if err != nil {
		t.Fatal(err)
	}
	if len(dls) != 1 || dls[0].Token.New[0].Int() != 42 {
		t.Fatalf("recovered dead letters = %+v", dls)
	}
	seen, stop := collectEvents(sys2, "X", 8, t)
	if err := sys2.RequeueDeadLetter(dls[0].ID); err != nil {
		t.Fatal(err)
	}
	stop()
	if !seen()[42] {
		t.Fatal("replay after restart did not fire")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
