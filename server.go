package triggerman

import (
	"encoding/json"
	"fmt"
	"net"

	"triggerman/internal/datasource"
	"triggerman/internal/trace"
	"triggerman/internal/wire"
)

// PushToken implements the data source API over the wire: a data source
// program delivers an update descriptor for a registered source. A
// trace context header ("tm1-<id>-<flags>") continues the client's
// span through capture→action; malformed headers fail the push rather
// than silently dropping the trace. Clustered deployments ship a token
// whose source is owned elsewhere to the owner (or dead-letter it if
// unreachable) instead of entering the local pipeline.
func (s *System) PushToken(source string, op datasource.Op, old, new []wire.Value, traceCtx string) error {
	return s.pushWire(source, op, old, new, traceCtx, s.router())
}

// ApplyForwarded is PushToken for tokens arriving from a peer node
// (wire.ReqForward): it applies locally without consulting the router,
// so a stale placement ring on the sender cannot bounce a token
// between nodes forever.
func (s *System) ApplyForwarded(source string, op datasource.Op, old, new []wire.Value, traceCtx string) error {
	return s.pushWire(source, op, old, new, traceCtx, nil)
}

// pushWire applies one wire-delivered token under the close gate,
// offering it to router r first when r is non-nil.
func (s *System) pushWire(source string, op datasource.Op, old, new []wire.Value, traceCtx string, r TokenRouter) error {
	return s.gated(func() error {
		tok, err := s.decodeWireToken(source, op, old, new)
		if err != nil {
			return err
		}
		parent, flags, err := trace.ParseContext(traceCtx)
		if err != nil {
			return err
		}
		if r != nil {
			if handled, rerr := r.Route(source, tok, traceCtx); handled {
				return rerr
			}
		}
		return s.applyTraced(tok, parent, flags)
	})
}

// decodeWireToken resolves the source name and converts wire tuples
// into a datasource.Token.
func (s *System) decodeWireToken(source string, op datasource.Op, old, new []wire.Value) (datasource.Token, error) {
	src, ok := s.reg.ByName(source)
	if !ok {
		return datasource.Token{}, fmt.Errorf("triggerman: unknown data source %q", source)
	}
	oldT, err := wire.ToTuple(old)
	if err != nil {
		return datasource.Token{}, err
	}
	newT, err := wire.ToTuple(new)
	if err != nil {
		return datasource.Token{}, err
	}
	return datasource.Token{SourceID: src.ID, Op: op, Old: oldT, New: newT}, nil
}

// TraceFetch implements wire.IntrospectBackend: the node-local slice
// of a cross-node trace, as a JSON array of trace.Record. Peers call
// it (via ReqTraceFetch) when assembling a /tracez timeline.
func (s *System) TraceFetch(id string) (string, error) {
	if s.isClosed() {
		return "", errClosed
	}
	tid, _, err := trace.ParseContext(id)
	if err != nil {
		return "", err
	}
	if tid == 0 {
		return "", fmt.Errorf("triggerman: trace fetch needs a tm1- trace id")
	}
	recs := s.tracer.RecordsByParent(tid)
	if recs == nil {
		recs = []trace.Record{}
	}
	b, err := json.Marshal(recs)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// MetricsSnapshot implements wire.IntrospectBackend: the registry as a
// JSON metrics.Snapshot, the mergeable form metrics federation ships
// between nodes.
func (s *System) MetricsSnapshot() (string, error) {
	if s.isClosed() {
		return "", errClosed
	}
	b, err := json.Marshal(s.met.Snapshot())
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// StatsText renders a human-readable stats summary for the console's
// stats command.
func (s *System) StatsText() string {
	st := s.Stats()
	out := fmt.Sprintf(
		"triggers=%d tokens_in=%d matched=%d actions=%d queue=%d\n"+
			"index: probes=%d sig_probes=%d const_compares=%d rest_tests=%d matches=%d\n"+
			"trigger_cache: hits=%d misses=%d evictions=%d\n"+
			"buffer_pool: hits=%d misses=%d evictions=%d flushes=%d\n"+
			"pool: enqueued=%d executed=%d errors=%d panics=%d retries=%d slices=%d\n"+
			"events: raised=%d delivered=%d\n"+
			"faults: errors=%d dead_letters=%d dead_lettered=%d",
		st.Triggers, st.TokensIn, st.TokensMatched, st.ActionsRun, st.QueueDepth,
		st.Index.Tokens, st.Index.SigProbes, st.Index.ConstCompares, st.Index.RestTests, st.Index.Matches,
		st.TriggerCache.Hits, st.TriggerCache.Misses, st.TriggerCache.Evictions,
		st.BufferPool.Hits, st.BufferPool.Misses, st.BufferPool.Evictions, st.BufferPool.Flushes,
		st.Pool.Enqueued, st.Pool.Executed, st.Pool.Errors, st.Pool.Panics, st.Pool.Retries, st.Pool.DrainSlices,
		st.EventsRaised, st.EventsDelivered,
		st.Errors, st.DeadLetters, st.DeadLettered,
	)
	// Show the tail of the recent-error ring: the last few failures with
	// their pipeline stage and trigger, newest last.
	recent := st.RecentErrors
	const show = 5
	if len(recent) > show {
		recent = recent[len(recent)-show:]
	}
	for _, rec := range recent {
		out += "\n  " + rec.String()
	}
	return out
}

// Listen starts serving the TriggerMan wire protocol on addr
// (host:port; ":0" picks a free port). The returned server reports its
// bound address via Addr().
func (s *System) Listen(addr string) (*wire.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return wire.ServeWith(ln, s, wire.Config{NodeID: s.NodeID()}), nil
}
