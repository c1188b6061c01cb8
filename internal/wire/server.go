package wire

import (
	"fmt"
	"net"
	"strings"
	"sync"

	"triggerman/internal/datasource"
	"triggerman/internal/event"
)

// Backend is the server's view of the trigger system (implemented by
// the root triggerman.System).
type Backend interface {
	// Command executes one command-language statement.
	Command(text string) (string, error)
	// Subscribe registers for events.
	Subscribe(name string, buffer int) (*event.Subscription, error)
	// PushToken delivers an update descriptor from a data source
	// program. trace carries the request's optional trace context
	// header ("" for untraced pushes).
	PushToken(source string, op datasource.Op, old, new []Value, trace string) error
	// StatsText renders a stats summary.
	StatsText() string
}

// DDLBackend is implemented by clustered backends that accept
// replicated catalog statements (ReqDDL). origin names the node that
// broadcast the statement; the receiver applies it locally without
// re-broadcasting.
type DDLBackend interface {
	ApplyDDL(text, origin string) (string, error)
}

// ForwardBackend is implemented by clustered backends that accept
// tokens forwarded from a peer node (ReqForward). Unlike a push, a
// forwarded token is applied locally without consulting the
// receiver's own placement ring, so a stale ring on the sender cannot
// bounce a token between nodes forever.
type ForwardBackend interface {
	ForwardToken(source string, op datasource.Op, old, new []Value, trace, origin string) error
}

// IntrospectBackend is implemented by backends that serve the fleet
// observability verbs: TraceFetch returns the node-local trace records
// for a tm1- trace id as a JSON array, MetricsSnapshot the node's
// metrics registry as a JSON metrics.Snapshot. Both are read-only and
// bounded (trace ring, registry walk), so peers may call them on every
// scrape tick.
type IntrospectBackend interface {
	TraceFetch(id string) (string, error)
	MetricsSnapshot() (string, error)
}

// Config tunes a Server beyond its backend.
type Config struct {
	// NodeID is this endpoint's identity, returned in the hello
	// handshake ("" for a standalone server).
	NodeID string
}

// Server accepts TriggerMan client and data-source connections.
type Server struct {
	backend Backend
	cfg     Config
	ln      net.Listener

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	done  chan struct{}
}

// ServeWith starts accepting on ln; the server runs until Close.
func ServeWith(ln net.Listener, backend Backend, cfg Config) *Server {
	s := &Server{backend: backend, cfg: cfg, ln: ln, conns: make(map[net.Conn]struct{}), done: make(chan struct{})}
	go s.acceptLoop()
	return s
}

// Addr returns the listen address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Close stops the listener and disconnects every client.
func (s *Server) Close() error {
	err := s.ln.Close()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	<-s.done
	return err
}

func (s *Server) acceptLoop() {
	defer close(s.done)
	var wg sync.WaitGroup
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			wg.Wait()
			return
		}
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.handle(conn)
		}()
	}
}

// session is one client connection's state.
type session struct {
	conn    net.Conn
	writeMu sync.Mutex
	subs    map[string]*event.Subscription
	stop    chan struct{}
	// peer is the connected endpoint's node id from its hello ("" for
	// plain clients).
	peer string
	// fatal, set by dispatch, ends the session after the response is
	// written (a refused handshake must not leave the stream open).
	fatal bool
}

func (s *Server) handle(conn net.Conn) {
	sess := &session{conn: conn, subs: make(map[string]*event.Subscription), stop: make(chan struct{})}
	defer func() {
		close(sess.stop)
		for _, sub := range sess.subs {
			sub.Cancel()
		}
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	for {
		var req Request
		if err := ReadMsg(conn, &req); err != nil {
			return
		}
		resp := s.dispatch(sess, &req)
		sess.writeMu.Lock()
		err := WriteMsg(conn, resp)
		sess.writeMu.Unlock()
		if err != nil || sess.fatal {
			return
		}
	}
}

func (s *Server) dispatch(sess *session, req *Request) *Response {
	resp := &Response{ID: req.ID}
	fail := func(err error) *Response {
		resp.OK = false
		resp.Error = err.Error()
		return resp
	}
	switch req.Op {
	case ReqHello:
		// Version + node-id exchange. A mismatch is refused with the
		// server's version in the response (the client builds a typed
		// *VersionError from it) and the session ends: two
		// incompatible nodes must not keep talking.
		if req.Version != ProtocolVersion {
			sess.fatal = true
			resp.Version = ProtocolVersion
			resp.Node = s.cfg.NodeID
			return fail(&VersionError{Local: ProtocolVersion, Remote: req.Version})
		}
		sess.peer = req.Node
		resp.OK = true
		resp.Version = ProtocolVersion
		resp.Node = s.cfg.NodeID
	case ReqPing:
		resp.OK = true
		resp.Output = "pong"
	case ReqStats:
		resp.OK = true
		resp.Output = s.backend.StatsText()
	case ReqMetrics:
		// Dispatched through Command so Backend needs no new method;
		// the system intercepts the metrics verb before its parser.
		out, err := s.backend.Command("metrics")
		if err != nil {
			return fail(err)
		}
		resp.OK = true
		resp.Output = out
	case ReqExplain:
		// Same Command dispatch as "metrics": the system intercepts
		// the explain verb. Text names the trigger ("" = index table).
		out, err := s.backend.Command(strings.TrimSpace("explain " + req.Text))
		if err != nil {
			return fail(err)
		}
		resp.OK = true
		resp.Output = out
	case ReqCommand:
		out, err := s.backend.Command(req.Text)
		if err != nil {
			return fail(err)
		}
		resp.OK = true
		resp.Output = out
	case ReqSubscribe:
		key := req.Event
		if _, dup := sess.subs[key]; dup {
			return fail(fmt.Errorf("wire: already subscribed to %q", key))
		}
		sub, err := s.backend.Subscribe(req.Event, 256)
		if err != nil {
			return fail(err)
		}
		sess.subs[key] = sub
		go sess.pump(sub)
		resp.OK = true
		resp.Output = "subscribed"
	case ReqUnsubscribe:
		sub, ok := sess.subs[req.Event]
		if !ok {
			return fail(fmt.Errorf("wire: not subscribed to %q", req.Event))
		}
		sub.Cancel()
		delete(sess.subs, req.Event)
		resp.OK = true
		resp.Output = "unsubscribed"
	case ReqPush:
		op, err := ParseTokenOp(req.TokenOp)
		if err != nil {
			return fail(err)
		}
		if err := s.backend.PushToken(req.Source, op, req.Old, req.New, req.Trace); err != nil {
			return fail(err)
		}
		resp.OK = true
	case ReqDDL:
		db, ok := s.backend.(DDLBackend)
		if !ok {
			return fail(fmt.Errorf("wire: this server is not clustered (no ddl backend)"))
		}
		out, err := db.ApplyDDL(req.Text, req.Origin)
		if err != nil {
			return fail(err)
		}
		resp.OK = true
		resp.Output = out
	case ReqForward:
		fb, ok := s.backend.(ForwardBackend)
		if !ok {
			return fail(fmt.Errorf("wire: this server is not clustered (no forward backend)"))
		}
		op, err := ParseTokenOp(req.TokenOp)
		if err != nil {
			return fail(err)
		}
		if err := fb.ForwardToken(req.Source, op, req.Old, req.New, req.Trace, req.Origin); err != nil {
			return fail(err)
		}
		resp.OK = true
	case ReqTraceFetch:
		ib, ok := s.backend.(IntrospectBackend)
		if !ok {
			return fail(fmt.Errorf("wire: this server has no introspection backend"))
		}
		out, err := ib.TraceFetch(req.Text)
		if err != nil {
			return fail(err)
		}
		resp.OK = true
		resp.Output = out
	case ReqSnapshot:
		ib, ok := s.backend.(IntrospectBackend)
		if !ok {
			return fail(fmt.Errorf("wire: this server has no introspection backend"))
		}
		out, err := ib.MetricsSnapshot()
		if err != nil {
			return fail(err)
		}
		resp.OK = true
		resp.Output = out
	default:
		return fail(fmt.Errorf("wire: unknown op %q", req.Op))
	}
	return resp
}

// pump forwards a subscription's notifications to the connection until
// the subscription or session ends.
func (sess *session) pump(sub *event.Subscription) {
	for {
		select {
		case n, ok := <-sub.C():
			if !ok {
				return
			}
			msg := &Response{OK: true, Event: &EventMsg{
				Name:      n.Name,
				Args:      FromTuple(n.Args),
				TriggerID: n.TriggerID,
				Seq:       n.Seq,
			}}
			sess.writeMu.Lock()
			err := WriteMsg(sess.conn, msg)
			sess.writeMu.Unlock()
			if err != nil {
				return
			}
		case <-sess.stop:
			return
		}
	}
}
