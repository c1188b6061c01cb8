// Package eventlog is the system's structured event log: a log/slog
// pipeline that records discrete decisions — predicate-index
// constant-set organization transitions, trigger-cache evictions,
// dead-letter quarantines, ops listener lifecycle — as JSON lines on an
// optional writer, while mirroring the most recent records into a
// bounded in-memory ring for introspection (/eventz and tests read the
// ring without any I/O configured).
//
// Metrics answer "how much"; the event log answers "what did the
// system decide, and why" ("Optimal On The Fly Index Selection":
// adaptive choices are only trustworthy when the decisions themselves
// are observable).
package eventlog

import (
	"context"
	"io"
	"log/slog"
	"sync"
	"time"
)

// Record is one mirrored event.
type Record struct {
	Time  time.Time      `json:"time"`
	Level string         `json:"level"`
	Event string         `json:"event"`
	Attrs map[string]any `json:"attrs,omitempty"`
}

// Config configures a Log.
type Config struct {
	// Out, when non-nil, receives every event as a JSON line (slog's
	// JSONHandler). Nil keeps events in the ring only.
	Out io.Writer
	// Ring bounds the in-memory mirror; 0 takes DefaultRing.
	Ring int
	// Level drops events below it; nil admits Info and above.
	Level slog.Leveler
}

// DefaultRing is the default mirror capacity.
const DefaultRing = 256

// Log is a bounded, optionally-persisted structured event log. All
// methods are safe for concurrent use and safe on a nil receiver (a
// nil *Log records nothing), so wiring stays branch-free.
type Log struct {
	logger *slog.Logger

	mu    sync.Mutex
	ring  []Record
	next  int
	full  bool
	total int64
}

// New builds a Log.
func New(cfg Config) *Log {
	if cfg.Ring <= 0 {
		cfg.Ring = DefaultRing
	}
	level := cfg.Level
	if level == nil {
		level = slog.LevelInfo
	}
	l := &Log{ring: make([]Record, cfg.Ring)}
	var inner slog.Handler
	if cfg.Out != nil {
		inner = slog.NewJSONHandler(cfg.Out, &slog.HandlerOptions{Level: level})
	}
	l.logger = slog.New(&mirrorHandler{log: l, inner: inner, level: level})
	return l
}

// Emit records one event at Info level.
func (l *Log) Emit(event string, args ...any) {
	if l == nil {
		return
	}
	l.logger.Info(event, args...)
}

// Warn records one event at Warn level.
func (l *Log) Warn(event string, args ...any) {
	if l == nil {
		return
	}
	l.logger.Warn(event, args...)
}

// Recent returns the mirrored records, oldest first.
func (l *Log) Recent() []Record {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.full {
		out := make([]Record, l.next)
		copy(out, l.ring[:l.next])
		return out
	}
	out := make([]Record, 0, len(l.ring))
	out = append(out, l.ring[l.next:]...)
	out = append(out, l.ring[:l.next]...)
	return out
}

// Total reports how many events have ever been recorded.
func (l *Log) Total() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

func (l *Log) append(rec Record) {
	l.mu.Lock()
	l.ring[l.next] = rec
	l.next++
	if l.next == len(l.ring) {
		l.next = 0
		l.full = true
	}
	l.total++
	l.mu.Unlock()
}

// mirrorHandler copies every record into the ring and forwards to the
// JSON handler when one is configured.
type mirrorHandler struct {
	log   *Log
	inner slog.Handler
	level slog.Leveler
	attrs []slog.Attr // accumulated WithAttrs, already group-prefixed
	group string      // dotted WithGroup prefix
}

func (h *mirrorHandler) Enabled(_ context.Context, level slog.Level) bool {
	return level >= h.level.Level()
}

func (h *mirrorHandler) Handle(ctx context.Context, r slog.Record) error {
	rec := Record{Time: r.Time, Level: r.Level.String(), Event: r.Message}
	if rec.Time.IsZero() {
		rec.Time = time.Now()
	}
	n := len(h.attrs) + r.NumAttrs()
	if n > 0 {
		rec.Attrs = make(map[string]any, n)
		for _, a := range h.attrs {
			flattenAttr(rec.Attrs, "", a)
		}
		r.Attrs(func(a slog.Attr) bool {
			flattenAttr(rec.Attrs, h.group, a)
			return true
		})
	}
	h.log.append(rec)
	if h.inner != nil {
		return h.inner.Handle(ctx, r)
	}
	return nil
}

func (h *mirrorHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	nh := *h
	nh.attrs = make([]slog.Attr, 0, len(h.attrs)+len(attrs))
	nh.attrs = append(nh.attrs, h.attrs...)
	for _, a := range attrs {
		if h.group != "" {
			a.Key = h.group + "." + a.Key
		}
		nh.attrs = append(nh.attrs, a)
	}
	if h.inner != nil {
		nh.inner = h.inner.WithAttrs(attrs)
	}
	return &nh
}

func (h *mirrorHandler) WithGroup(name string) slog.Handler {
	nh := *h
	if name != "" {
		if nh.group != "" {
			nh.group += "." + name
		} else {
			nh.group = name
		}
	}
	if h.inner != nil {
		nh.inner = h.inner.WithGroup(name)
	}
	return &nh
}

// flattenAttr renders one attr into the record map, dotting group
// prefixes (the ring mirror favors flat, greppable keys over nesting).
func flattenAttr(dst map[string]any, prefix string, a slog.Attr) {
	a.Value = a.Value.Resolve()
	key := a.Key
	if prefix != "" {
		key = prefix + "." + key
	}
	if a.Value.Kind() == slog.KindGroup {
		for _, ga := range a.Value.Group() {
			flattenAttr(dst, key, ga)
		}
		return
	}
	dst[key] = a.Value.Any()
}
