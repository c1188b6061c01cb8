package eventlog

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"sync"
	"testing"
)

func TestEmitAndRecent(t *testing.T) {
	l := New(Config{Ring: 8})
	l.Emit("predindex.reorganize",
		"sig_id", 3, "from", "mm-list", "to", "mm-index", "size", 17)
	l.Warn("deadletter.quarantine", "trigger_id", 9)

	recs := l.Recent()
	if len(recs) != 2 {
		t.Fatalf("Recent returned %d records, want 2", len(recs))
	}
	if recs[0].Event != "predindex.reorganize" || recs[0].Level != "INFO" {
		t.Fatalf("bad first record: %+v", recs[0])
	}
	if recs[0].Attrs["to"] != "mm-index" {
		t.Fatalf("attr to = %v", recs[0].Attrs["to"])
	}
	if got := recs[0].Attrs["size"]; got != int64(17) {
		t.Fatalf("attr size = %v (%T)", got, got)
	}
	if recs[1].Event != "deadletter.quarantine" || recs[1].Level != "WARN" {
		t.Fatalf("bad second record: %+v", recs[1])
	}
	if l.Total() != 2 {
		t.Fatalf("Total = %d", l.Total())
	}
}

func TestRingWrapsOldestFirst(t *testing.T) {
	l := New(Config{Ring: 4})
	for i := 0; i < 10; i++ {
		l.Emit("e", "i", i)
	}
	recs := l.Recent()
	if len(recs) != 4 {
		t.Fatalf("Recent returned %d records, want 4", len(recs))
	}
	for j, rec := range recs {
		if want := int64(6 + j); rec.Attrs["i"] != want {
			t.Fatalf("record %d has i=%v, want %d", j, rec.Attrs["i"], want)
		}
	}
	if l.Total() != 10 {
		t.Fatalf("Total = %d", l.Total())
	}
}

func TestJSONWriterMirror(t *testing.T) {
	var buf bytes.Buffer
	l := New(Config{Out: &buf, Ring: 8})
	l.Emit("cache.evict", "trigger_id", 42)
	var line struct {
		Msg       string `json:"msg"`
		TriggerID int64  `json:"trigger_id"`
	}
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("output is not one JSON line: %v (%q)", err, buf.String())
	}
	if line.Msg != "cache.evict" || line.TriggerID != 42 {
		t.Fatalf("bad JSON line: %+v", line)
	}
	if len(l.Recent()) != 1 {
		t.Fatal("ring mirror missing the record")
	}
}

func TestLevelFiltering(t *testing.T) {
	l := New(Config{Ring: 8, Level: slog.LevelWarn})
	l.Emit("dropped.info")
	l.Warn("kept.warn")
	recs := l.Recent()
	if len(recs) != 1 || recs[0].Event != "kept.warn" {
		t.Fatalf("level filter failed: %+v", recs)
	}
}

func TestGroupsAndWithAttrsFlatten(t *testing.T) {
	l := New(Config{Ring: 8})
	l.logger.With("component", "predindex").WithGroup("cost").Info("reorganize",
		"old_ns", 510.0, slog.Group("new", "ns", 600.0))
	recs := l.Recent()
	if len(recs) != 1 {
		t.Fatalf("got %d records", len(recs))
	}
	a := recs[0].Attrs
	if a["component"] != "predindex" {
		t.Fatalf("component attr = %v", a["component"])
	}
	if a["cost.old_ns"] != 510.0 {
		t.Fatalf("cost.old_ns = %v", a["cost.old_ns"])
	}
	if a["cost.new.ns"] != 600.0 {
		t.Fatalf("cost.new.ns = %v", a["cost.new.ns"])
	}
}

func TestNilLogSafe(t *testing.T) {
	var l *Log
	l.Emit("ignored")
	l.Warn("ignored")
	if l.Recent() != nil || l.Total() != 0 {
		t.Fatal("nil log must be inert")
	}
}

func TestConcurrentEmit(t *testing.T) {
	l := New(Config{Ring: 64})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Emit(fmt.Sprintf("g%d", g), "i", i)
			}
		}(g)
	}
	wg.Wait()
	if l.Total() != 800 {
		t.Fatalf("Total = %d, want 800", l.Total())
	}
	if len(l.Recent()) != 64 {
		t.Fatalf("ring holds %d, want 64", len(l.Recent()))
	}
}
