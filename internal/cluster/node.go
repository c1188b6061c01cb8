package cluster

import (
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"triggerman"
	"triggerman/client"
	"triggerman/internal/catalog"
	"triggerman/internal/datasource"
	"triggerman/internal/event"
	"triggerman/internal/metrics"
	"triggerman/internal/parser"
	"triggerman/internal/retry"
	"triggerman/internal/trace"
	"triggerman/internal/wire"
)

// Member identifies one cluster node: a stable id and its wire
// address.
type Member struct {
	ID   string
	Addr string
}

// String renders the id@host:port form ParseMember reads.
func (m Member) String() string { return m.ID + "@" + m.Addr }

// ParseMember parses "id@host:port".
func ParseMember(s string) (Member, error) {
	i := strings.Index(s, "@")
	if i <= 0 || i == len(s)-1 {
		return Member{}, fmt.Errorf("cluster: bad member %q (want id@host:port)", s)
	}
	return Member{ID: s[:i], Addr: s[i+1:]}, nil
}

// ParseMembers parses a comma-separated member list (the
// -cluster.peers flag form). Empty elements are skipped.
func ParseMembers(s string) ([]Member, error) {
	var out []Member
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		m, err := ParseMember(part)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// Config describes one node's view of the cluster.
type Config struct {
	// Self is this node's identity and listen address.
	Self Member
	// Peers is the static seed list of the other members (entries
	// matching Self are tolerated and skipped, so every node can share
	// one list).
	Peers []Member
	// Vnodes tunes placement granularity (default DefaultVnodes).
	Vnodes int
	// PingEvery is the membership health-check interval (default 1s).
	PingEvery time.Duration
	// ForwardRetry bounds forwarding and peer-dial attempts; nil takes
	// 4 attempts backing off 10ms→100ms. The same policy drives the
	// peer clients' reconnect redials.
	ForwardRetry *retry.Policy
}

// peerState is one remote member's connection and health state.
type peerState struct {
	member   Member
	up       atomic.Bool
	lastSeen atomic.Int64 // unix ns of the last successful round-trip

	mu  sync.Mutex
	cli *client.Client // lazy; reconnecting
}

// Node wraps a triggerman.System as one member of a cluster: it owns
// the placement ring, replicates DDL to its peers, forwards non-owned
// tokens, and health-checks the membership. It implements the wire
// Backend (plus DDLBackend and ForwardBackend), so Serve exposes the
// whole node over one listener.
type Node struct {
	sys   *triggerman.System
	cfg   Config
	ring  *Ring
	peers map[string]*peerState
	order []string // sorted peer ids: deterministic broadcast/ping order

	fwdPolicy   retry.Policy
	fwdAttempts int

	srv      *wire.Server
	pingStop chan struct{}
	pingDone chan struct{}
	started  atomic.Bool
	startO   sync.Once
	closeO   sync.Once

	cForwarded   *metrics.Counter
	cForwardDead *metrics.Counter
	cReceived    *metrics.Counter
	cDDLSent     *metrics.Counter
	cDDLApplied  *metrics.Counter
	cDDLFailed   *metrics.Counter
	// hForward measures the forward hop's wire latency (successful
	// synchronous ships only), independently of trace sampling.
	hForward *metrics.Histogram
}

// New builds a cluster node around sys: the ring covers Self plus
// Peers, the capture-point router is installed, and tman_cluster_*
// metrics plus the /clusterz ops handler are registered. Call Start to
// begin health checks and Serve to accept wire connections.
func New(sys *triggerman.System, cfg Config) (*Node, error) {
	if cfg.Self.ID == "" || cfg.Self.Addr == "" {
		return nil, fmt.Errorf("cluster: Config.Self must name this node (id@host:port)")
	}
	if cfg.PingEvery <= 0 {
		cfg.PingEvery = time.Second
	}
	if cfg.ForwardRetry == nil {
		cfg.ForwardRetry = &retry.Policy{MaxAttempts: 4, BaseDelay: 10 * time.Millisecond, MaxDelay: 100 * time.Millisecond}
	}
	n := &Node{
		sys:      sys,
		cfg:      cfg,
		peers:    make(map[string]*peerState),
		pingStop: make(chan struct{}),
		pingDone: make(chan struct{}),
	}
	n.fwdPolicy = cfg.ForwardRetry.WithDefaults()
	n.fwdAttempts = n.fwdPolicy.MaxAttempts
	members := []string{cfg.Self.ID}
	for _, p := range cfg.Peers {
		if p.ID == cfg.Self.ID {
			continue
		}
		if _, dup := n.peers[p.ID]; dup {
			return nil, fmt.Errorf("cluster: duplicate peer id %q", p.ID)
		}
		ps := &peerState{member: p}
		// Optimistic until the first ping round: a fresh cluster must
		// not dead-letter its first tokens just because no ping has
		// completed yet.
		ps.up.Store(true)
		n.peers[p.ID] = ps
		n.order = append(n.order, p.ID)
		members = append(members, p.ID)
	}
	sort.Strings(n.order)
	n.ring = NewRing(members, cfg.Vnodes)

	met := sys.Metrics()
	const fwdHelp = "cross-node token movements by result"
	n.cForwarded = met.Counter("tman_cluster_forward_total", fwdHelp, metrics.L("result", "forwarded"))
	n.cForwardDead = met.Counter("tman_cluster_forward_total", fwdHelp, metrics.L("result", "dead_lettered"))
	n.cReceived = met.Counter("tman_cluster_forward_total", fwdHelp, metrics.L("result", "received"))
	n.hForward = met.Histogram("tman_cluster_forward_seconds",
		"forward-hop wire latency: the synchronous ship of a non-owned token to its owner node", nil)
	const ddlHelp = "catalog statement replication by kind"
	n.cDDLSent = met.Counter("tman_cluster_ddl_total", ddlHelp, metrics.L("kind", "broadcast"))
	n.cDDLApplied = met.Counter("tman_cluster_ddl_total", ddlHelp, metrics.L("kind", "applied"))
	n.cDDLFailed = met.Counter("tman_cluster_ddl_total", ddlHelp, metrics.L("kind", "failed"))
	const peersHelp = "peer nodes by health state"
	met.GaugeFunc("tman_cluster_peers", peersHelp, func() int64 { return n.countPeers(true) }, metrics.L("state", "up"))
	met.GaugeFunc("tman_cluster_peers", peersHelp, func() int64 { return n.countPeers(false) }, metrics.L("state", "down"))

	sys.RegisterOpsHandler("/clusterz", n.handleClusterz)
	sys.SetRouter(n)
	return n, nil
}

func (n *Node) countPeers(up bool) int64 {
	var c int64
	for _, p := range n.peers {
		if p.up.Load() == up {
			c++
		}
	}
	return c
}

// PeerUp reports whether peer id is currently marked healthy (false
// for unknown ids). Harnesses poll it to sequence restarts.
func (n *Node) PeerUp(id string) bool {
	p := n.peers[id]
	return p != nil && p.up.Load()
}

// Ring returns the placement ring (immutable).
func (n *Node) Ring() *Ring { return n.ring }

// Serve starts accepting wire connections on ln, answering handshakes
// with this node's id.
func (n *Node) Serve(ln net.Listener) *wire.Server {
	n.srv = wire.ServeWith(ln, n, wire.Config{NodeID: n.cfg.Self.ID})
	return n.srv
}

// Start runs one synchronous ping round (so peer health is real, not
// optimistic, by the time Start returns) and then health-checks every
// PingEvery.
func (n *Node) Start() {
	n.startO.Do(func() {
		n.started.Store(true)
		n.pingRound()
		go func() {
			defer close(n.pingDone)
			t := time.NewTicker(n.cfg.PingEvery)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					n.pingRound()
				case <-n.pingStop:
					return
				}
			}
		}()
	})
}

// Close stops health checks, uninstalls the router, and closes peer
// connections and the wire server (the wrapped System is the caller's
// to close). Idempotent.
func (n *Node) Close() error {
	n.closeO.Do(func() {
		close(n.pingStop)
		if n.started.Load() {
			<-n.pingDone
		}
		n.sys.SetRouter(nil)
		for _, p := range n.peers {
			p.mu.Lock()
			if p.cli != nil {
				p.cli.Close()
				p.cli = nil
			}
			p.mu.Unlock()
		}
		if n.srv != nil {
			n.srv.Close()
		}
	})
	return nil
}

// clientFor returns the peer's reconnecting client, dialing (with
// backoff) on first use or after a Close-induced drop.
func (n *Node) clientFor(p *peerState) (*client.Client, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cli != nil {
		return p.cli, nil
	}
	var cli *client.Client
	_, err := n.fwdPolicy.Do(func() error {
		c, derr := client.DialWith(p.member.Addr, client.Options{
			Reconnect: true,
			Redial:    &n.fwdPolicy,
			Node:      n.cfg.Self.ID,
		})
		if derr != nil {
			return retry.Transient(derr)
		}
		cli = c
		return nil
	})
	if err != nil {
		return nil, err
	}
	p.cli = cli
	return cli, nil
}

// markPeer records a health transition, logging it exactly once per
// edge.
func (n *Node) markPeer(p *peerState, up bool) {
	if p.up.Swap(up) != up {
		state := "down"
		if up {
			state = "up"
		}
		n.sys.EventLog().Emit("cluster.peer",
			"peer", p.member.ID, "addr", p.member.Addr, "state", state)
	}
	if up {
		p.lastSeen.Store(time.Now().UnixNano())
	}
}

// pingRound health-checks every peer once.
func (n *Node) pingRound() {
	for _, id := range n.order {
		p := n.peers[id]
		cli, err := n.clientFor(p)
		if err != nil {
			n.markPeer(p, false)
			continue
		}
		if err := cli.Ping(); err != nil {
			n.markPeer(p, false)
		} else {
			n.markPeer(p, true)
		}
	}
}

// Route implements triggerman.TokenRouter: a token whose source is
// owned elsewhere is forwarded to the owner (synchronously, so
// per-source FIFO order survives the hop), or dead-lettered as
// catalog.DeadForward when the owner is unreachable. It never returns
// an error for a handled token — the producer's push succeeded; the
// token is either on the owner or durably quarantined for requeue.
func (n *Node) Route(source string, tok datasource.Token, traceCtx string) (bool, error) {
	owner := n.ring.Owner(source)
	if owner == "" || owner == n.cfg.Self.ID {
		return false, nil
	}
	p := n.peers[owner]
	if p == nil {
		// Cannot happen with a ring built from the peer table, but a
		// token must never fall through a hole in it.
		n.deadLetterForward(tok, owner, fmt.Errorf("cluster: owner %q not in peer table", owner))
		return true, nil
	}
	if !p.up.Load() {
		// Fast path: a known-down owner gets no per-token retry storm;
		// the token goes straight to the dead-letter table and ships
		// again on requeue once the pinger sees the peer return.
		n.deadLetterForward(tok, owner, fmt.Errorf("cluster: owner %q is down", owner))
		return true, nil
	}
	cli, err := n.clientFor(p)
	began := time.Now()
	if err == nil {
		err = cli.Forward(source, tok.Op, tok.Old, tok.New, traceCtx, n.cfg.Self.ID)
	}
	if err != nil {
		n.markPeer(p, false)
		n.deadLetterForward(tok, owner, err)
		return true, nil
	}
	d := time.Since(began)
	n.hForward.Observe(d)
	// A sampled trace context gets an origin-side forward record: the
	// token's local lifecycle ends here, and without this the origin
	// half of the cross-node timeline would be empty.
	if traceCtx != "" {
		if id, flags, perr := trace.ParseContext(traceCtx); perr == nil && id != 0 && flags&trace.FlagSampled != 0 {
			n.sys.Tracer().RecordForward(tok.SourceID, tok.Op.String(), id, began, d)
		}
	}
	p.lastSeen.Store(time.Now().UnixNano())
	n.cForwarded.Inc()
	return true, nil
}

// deadLetterForward quarantines a token that could not reach its
// owner: accounted, requeueable, never silently lost.
func (n *Node) deadLetterForward(tok datasource.Token, owner string, cause error) {
	n.cForwardDead.Inc()
	n.sys.QuarantineToken(catalog.DeadForward, tok,
		fmt.Errorf("forward to %s: %w", owner, cause), n.fwdAttempts)
}

// --- wire backend -----------------------------------------------------

// Command executes a statement locally and, when it is a catalog
// (DDL) statement, replicates it to every peer so all nodes hold the
// full trigger catalog. Replication failures are surfaced in the
// returned error (the statement HAS applied locally) and counted, not
// swallowed.
func (n *Node) Command(text string) (string, error) {
	out, err := n.sys.Command(text)
	if err != nil || !isDDL(text) {
		return out, err
	}
	n.cDDLSent.Inc()
	var failures []string
	for _, id := range n.order {
		p := n.peers[id]
		cli, cerr := n.clientFor(p)
		if cerr == nil {
			_, cerr = cli.DDL(text, n.cfg.Self.ID)
		}
		if cerr != nil {
			n.cDDLFailed.Inc()
			n.sys.EventLog().Warn("cluster.ddl",
				"peer", id, "error", cerr.Error())
			failures = append(failures, fmt.Sprintf("%s: %v", id, cerr))
		}
	}
	if len(failures) > 0 {
		return out, fmt.Errorf("cluster: statement applied on %s but replication failed: %s",
			n.cfg.Self.ID, strings.Join(failures, "; "))
	}
	return out, nil
}

// isDDL reports whether text is a catalog statement worth
// replicating. Unparseable text is not DDL — the local Command call
// already reported its real error.
func isDDL(text string) bool {
	st, err := parser.Parse(text)
	if err != nil {
		return false
	}
	switch st.(type) {
	case *parser.CreateTrigger, *parser.DropTrigger,
		*parser.CreateTriggerSet, *parser.DropTriggerSet,
		*parser.SetEnabled, *parser.DefineDataSource:
		return true
	}
	return false
}

// ApplyDDL implements wire.DDLBackend: a statement replicated from
// origin applies locally without re-broadcasting (no loops).
func (n *Node) ApplyDDL(text, origin string) (string, error) {
	out, err := n.sys.Command(text)
	if err != nil {
		return "", err
	}
	n.cDDLApplied.Inc()
	return out, nil
}

// ForwardToken implements wire.ForwardBackend: a token shipped from a
// peer applies locally, bypassing this node's own ring so a stale
// sender cannot bounce it forever.
func (n *Node) ForwardToken(source string, op datasource.Op, old, new []wire.Value, trace, origin string) error {
	if err := n.sys.ApplyForwarded(source, op, old, new, trace); err != nil {
		return err
	}
	n.cReceived.Inc()
	return nil
}

// Subscribe implements wire.Backend.
func (n *Node) Subscribe(name string, buffer int) (*event.Subscription, error) {
	return n.sys.Subscribe(name, buffer)
}

// PushToken implements wire.Backend; the system's installed router
// (this node) decides locality.
func (n *Node) PushToken(source string, op datasource.Op, old, new []wire.Value, trace string) error {
	return n.sys.PushToken(source, op, old, new, trace)
}

// StatsText implements wire.Backend.
func (n *Node) StatsText() string { return n.sys.StatsText() }

// TraceFetch implements wire.IntrospectBackend (node-local trace
// records for a tm1- id, as JSON).
func (n *Node) TraceFetch(id string) (string, error) { return n.sys.TraceFetch(id) }

// MetricsSnapshot implements wire.IntrospectBackend (this node's
// registry as a JSON metrics.Snapshot).
func (n *Node) MetricsSnapshot() (string, error) { return n.sys.MetricsSnapshot() }

// --- fleet observability (internal/fleet's Cluster interface) ---------

// SelfID returns this node's id.
func (n *Node) SelfID() string { return n.cfg.Self.ID }

// PeerIDs returns the peer ids in deterministic (sorted) order.
func (n *Node) PeerIDs() []string { return append([]string(nil), n.order...) }

// PeerTraceFetch asks one peer for its local trace records for a tm1-
// trace id, over the same reconnecting client the forwarding path
// uses.
func (n *Node) PeerTraceFetch(peer, traceID string) (string, error) {
	p := n.peers[peer]
	if p == nil {
		return "", fmt.Errorf("cluster: unknown peer %q", peer)
	}
	cli, err := n.clientFor(p)
	if err != nil {
		return "", err
	}
	return cli.TraceFetch(traceID)
}

// PeerMetricsSnapshot asks one peer for its metrics registry snapshot
// (JSON).
func (n *Node) PeerMetricsSnapshot(peer string) (string, error) {
	p := n.peers[peer]
	if p == nil {
		return "", fmt.Errorf("cluster: unknown peer %q", peer)
	}
	cli, err := n.clientFor(p)
	if err != nil {
		return "", err
	}
	return cli.MetricsSnapshot()
}
