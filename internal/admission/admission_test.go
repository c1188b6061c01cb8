package admission

import (
	"errors"
	"testing"
	"time"

	"triggerman/internal/retry"
)

// fakeDepth is a settable depth signal.
type fakeDepth struct{ d map[int32]int }

func (f *fakeDepth) fn(src int32) int { return f.d[src] }

// stateOf reads src's degradation state from Snapshot, the view /loadz
// serves.
func stateOf(t *testing.T, c *Controller, src int32) State {
	t.Helper()
	for _, l := range c.Snapshot(nil) {
		if l.SourceID == src {
			return l.State
		}
	}
	t.Fatalf("source %d missing from the snapshot", src)
	return 0
}

func TestZeroConfigAdmitsEverything(t *testing.T) {
	c := New(Config{}, nil)
	for i := 0; i < 1000; i++ {
		v, err := c.Admit(1, Batch)
		if v != VerdictAdmit || err != nil {
			t.Fatalf("zero config: verdict %v err %v", v, err)
		}
	}
	if a, s, r := c.Totals(); a != 1000 || s != 0 || r != 0 {
		t.Fatalf("totals = %d/%d/%d, want 1000/0/0", a, s, r)
	}
}

func TestSoftWatermarkShedsOnlyBatch(t *testing.T) {
	fd := &fakeDepth{d: map[int32]int{7: 0}}
	c := New(Config{SoftDepth: 4, HardDepth: 100}, fd.fn)

	fd.d[7] = 3
	if v, err := c.Admit(7, Batch); v != VerdictAdmit || err != nil {
		t.Fatalf("below soft: %v %v", v, err)
	}
	fd.d[7] = 4
	if v, err := c.Admit(7, Batch); v != VerdictShed || err != nil {
		t.Fatalf("at soft, batch: verdict %v err %v, want shed/nil", v, err)
	}
	// Interactive work flows through the same depth.
	if v, err := c.Admit(7, Interactive); v != VerdictAdmit || err != nil {
		t.Fatalf("at soft, interactive: %v %v", v, err)
	}
	if got := stateOf(t, c, 7); got != StateShedding {
		t.Fatalf("state = %v, want shedding (interactive admit over soft keeps degraded state)", got)
	}
}

func TestHardWatermarkRejectsEverything(t *testing.T) {
	fd := &fakeDepth{d: map[int32]int{1: 10}}
	c := New(Config{SoftDepth: 4, HardDepth: 10}, fd.fn)
	for _, class := range []Class{Interactive, Batch} {
		v, err := c.Admit(1, class)
		if v != VerdictReject {
			t.Fatalf("%v at hard: verdict %v", class, v)
		}
		if !errors.Is(err, ErrOverload) {
			t.Fatalf("%v at hard: err %v does not match ErrOverload", class, err)
		}
		if !retry.IsTransient(err) {
			t.Fatalf("%v at hard: err %v is not transient", class, err)
		}
		var oe *OverloadError
		if !errors.As(err, &oe) || oe.Reason != "depth" || oe.SourceID != 1 {
			t.Fatalf("overload detail: %+v", oe)
		}
	}
	if got := stateOf(t, c, 1); got != StateRejecting {
		t.Fatalf("state = %v, want rejecting", got)
	}
	// Recovery: depth drains, source admits again.
	fd.d[1] = 0
	if v, err := c.Admit(1, Batch); v != VerdictAdmit || err != nil {
		t.Fatalf("after drain: %v %v", v, err)
	}
	if got := stateOf(t, c, 1); got != StateAdmitting {
		t.Fatalf("state after drain = %v, want admitting", got)
	}
}

func TestTokenBucketRateLimit(t *testing.T) {
	c := New(Config{Rate: 10, Burst: 5}, nil)
	now := time.Unix(1000, 0)
	c.now = func() time.Time { return now }

	// Burst drains first.
	for i := 0; i < 5; i++ {
		if v, err := c.Admit(3, Interactive); v != VerdictAdmit || err != nil {
			t.Fatalf("burst token %d: %v %v", i, v, err)
		}
	}
	v, err := c.Admit(3, Interactive)
	if v != VerdictReject || !errors.Is(err, ErrOverload) {
		t.Fatalf("empty bucket: verdict %v err %v", v, err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Reason != "rate" {
		t.Fatalf("reason = %+v, want rate", oe)
	}
	// 100ms refills one token at 10/s.
	now = now.Add(100 * time.Millisecond)
	if v, err := c.Admit(3, Interactive); v != VerdictAdmit || err != nil {
		t.Fatalf("after refill: %v %v", v, err)
	}
	// Bucket never exceeds Burst: a long idle stretch refills to 5, not more.
	now = now.Add(time.Hour)
	admitted := 0
	for i := 0; i < 10; i++ {
		if v, _ := c.Admit(3, Interactive); v == VerdictAdmit {
			admitted++
		}
	}
	if admitted != 5 {
		t.Fatalf("after idle hour: admitted %d, want 5 (burst cap)", admitted)
	}
}

func TestTransitionHookFiresOnChangesOnly(t *testing.T) {
	fd := &fakeDepth{d: map[int32]int{2: 0}}
	c := New(Config{SoftDepth: 2, HardDepth: 4}, fd.fn)
	type tr struct{ from, to State }
	var seen []tr
	c.OnTransition = func(src int32, from, to State) {
		if src != 2 {
			t.Fatalf("transition for source %d", src)
		}
		seen = append(seen, tr{from, to})
	}
	c.Admit(2, Batch) // admitting (no change from zero state)
	c.Admit(2, Batch)
	fd.d[2] = 2
	c.Admit(2, Batch) // -> shedding
	c.Admit(2, Batch) // still shedding, no hook
	fd.d[2] = 4
	c.Admit(2, Batch) // -> rejecting
	fd.d[2] = 0
	c.Admit(2, Batch) // -> admitting
	want := []tr{
		{StateAdmitting, StateShedding},
		{StateShedding, StateRejecting},
		{StateRejecting, StateAdmitting},
	}
	if len(seen) != len(want) {
		t.Fatalf("transitions = %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("transition %d = %v, want %v", i, seen[i], want[i])
		}
	}
}

func TestSnapshotCountsAndSorts(t *testing.T) {
	fd := &fakeDepth{d: map[int32]int{5: 0, 9: 3}}
	c := New(Config{SoftDepth: 3}, fd.fn)
	c.Admit(9, Batch) // shed
	c.Admit(9, Batch) // shed
	c.Admit(5, Batch) // admit
	classes := map[int32]Class{5: Interactive, 9: Batch}
	snap := c.Snapshot(func(src int32) Class { return classes[src] })
	if len(snap) != 2 || snap[0].SourceID != 5 || snap[1].SourceID != 9 {
		t.Fatalf("snapshot order: %+v", snap)
	}
	if snap[0].Admitted != 1 || snap[0].Shed != 0 || snap[0].Class != Interactive {
		t.Fatalf("source 5: %+v", snap[0])
	}
	if snap[1].Shed != 2 || snap[1].State != StateShedding || snap[1].Depth != 3 || snap[1].Class != Batch {
		t.Fatalf("source 9: %+v", snap[1])
	}
}

func TestParseClass(t *testing.T) {
	cases := []struct {
		in string
		cl Class
		ok bool
	}{
		{"interactive", Interactive, true},
		{"batch", Batch, true},
		{"urgent", Interactive, false},
		{"", Interactive, false},
	}
	for _, tc := range cases {
		cl, ok := ParseClass(tc.in)
		if cl != tc.cl || ok != tc.ok {
			t.Fatalf("ParseClass(%q) = %v,%v want %v,%v", tc.in, cl, ok, tc.cl, tc.ok)
		}
	}
	if Interactive.String() != "interactive" || Batch.String() != "batch" {
		t.Fatal("Class.String")
	}
}

func TestConcurrentAdmitIsRaceFree(t *testing.T) {
	fd := &fakeDepth{d: map[int32]int{1: 5}}
	c := New(Config{SoftDepth: 3, HardDepth: 100, Rate: 1e9}, fd.fn)
	c.OnTransition = func(int32, State, State) {}
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			class := Interactive
			if g%2 == 0 {
				class = Batch
			}
			for i := 0; i < 2000; i++ {
				c.Admit(int32(1+g%3), class)
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	a, s, r := c.Totals()
	if a+s+r != 16000 {
		t.Fatalf("totals %d+%d+%d != 16000: verdicts lost", a, s, r)
	}
}
