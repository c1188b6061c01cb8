// Package predindex implements the paper's selection predicate index
// (Figures 3–5): a root hash table on data source ID leading to
// per-source expression-signature lists, each signature owning a
// constant set keyed by the constants extracted from trigger predicates,
// each constant linked to a triggerID set of expression instances. The
// structure is fully normalized (§5.3): a constant shared by N triggers
// is tested once, not N times.
//
// Each signature's constant set can be organized four ways (§5.2):
// main-memory list, main-memory index, non-indexed database table, or
// indexed database table. Small equivalence classes use the low-overhead
// structures; large ones must use tables. An adaptive policy switches
// organization as the class grows.
package predindex

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"triggerman/internal/datasource"
	"triggerman/internal/expr"
	"triggerman/internal/metrics"
	"triggerman/internal/minisql"
	"triggerman/internal/profile"
	"triggerman/internal/types"
)

// Organization selects a constant-set storage strategy (§5.2).
type Organization uint8

const (
	// OrgAuto lets the policy pick and switch organizations by size.
	OrgAuto Organization = iota
	// OrgMemoryList is strategy 1: an unordered main-memory list.
	OrgMemoryList
	// OrgMemoryIndex is strategy 2: a main-memory hash or interval index.
	OrgMemoryIndex
	// OrgTable is strategy 3: a non-indexed database table.
	OrgTable
	// OrgIndexedTable is strategy 4: a database table with a clustered
	// index on [const1..constK].
	OrgIndexedTable
)

// String names the organization.
func (o Organization) String() string {
	switch o {
	case OrgAuto:
		return "auto"
	case OrgMemoryList:
		return "mm-list"
	case OrgMemoryIndex:
		return "mm-index"
	case OrgTable:
		return "table"
	case OrgIndexedTable:
		return "indexed-table"
	default:
		return fmt.Sprintf("org(%d)", uint8(o))
	}
}

// Policy holds the adaptive-organization thresholds (the cost model of
// [Hans98b] reduces to size cutoffs between the strategies).
type Policy struct {
	// ListMax is the largest class kept as a main-memory list.
	ListMax int
	// MemMax is the largest class kept in a main-memory index; beyond
	// it the class moves to an indexed database table.
	MemMax int
}

// DefaultPolicy matches the paper's guidance: lists for tiny classes,
// memory indexes for the common case, tables for the huge tail.
var DefaultPolicy = Policy{ListMax: 16, MemMax: 65536}

// Ref is one element of a triggerID set: an expression instance of some
// trigger, with the A-TREAT node to forward matched tokens to and the
// non-indexable rest of its predicate.
type Ref struct {
	ExprID    uint64
	TriggerID uint64
	// NextNode identifies the discrimination-network node
	// (nextNetworkNode in the paper's const_tableN schema); for network
	// triggers it is the tuple-variable index.
	NextNode int32
	// Rest is the instantiated, bound non-indexable part E_NI; empty
	// means the whole predicate was indexable.
	Rest expr.CNF
	// FireMask is the event condition under which a match may fire the
	// trigger (the signature's own mask may be broader — AllOps — for
	// alpha-memory maintenance of multi-variable triggers).
	FireMask EventMask
	// MultiVar marks refs belonging to triggers with more than one tuple
	// variable (their alpha memories need maintenance on every event).
	MultiVar bool
	// Gator marks refs whose trigger runs a Gator network; maintenance
	// and firing both happen through the network's incremental token
	// protocol rather than the TREAT maintain-then-enumerate split.
	Gator bool
	// Aggregate marks refs of group-by/having triggers: matched tokens
	// feed incremental aggregate state, and firing happens on having
	// transitions rather than per match.
	Aggregate bool
}

// Match is a successful selection-predicate match for a token.
type Match struct {
	Ref
	// SourceID echoes the probed data source.
	SourceID int32
}

// Stats counts index activity for the experiments. Index.Stats sums
// the per-slot tallies into one.
type Stats struct {
	Tokens        int64 // tokens probed
	SigProbes     int64 // signature entries consulted
	ConstCompares int64 // constant comparisons / index probes
	RestTests     int64 // rest-of-predicate evaluations
	Matches       int64 // refs matched
}

// EventMask matches tokens by operation and, for update events,
// by updated columns.
type EventMask struct {
	Op datasource.Op
	// AnyOp, when set, means insert-or-update (the implicit event, §5).
	AnyOp bool
	// AllOps accepts every operation. Multi-variable triggers register
	// their selection predicates under AllOps so alpha memories stay
	// maintained on every kind of update; the per-variable fire mask
	// lives on the Ref.
	AllOps bool
	// Columns restricts update events; empty means any column.
	Columns []int
}

// Matches reports whether the mask accepts the token.
func (m EventMask) Matches(t datasource.Token) bool {
	switch {
	case m.AllOps:
		return true
	case m.AnyOp:
		if t.Op == datasource.OpDelete {
			return false
		}
	default:
		if t.Op != m.Op {
			return false
		}
	}
	if len(m.Columns) > 0 && t.Op == datasource.OpUpdate {
		updated := t.UpdatedColumns()
		for _, want := range m.Columns {
			for _, got := range updated {
				if want == got {
					return true
				}
			}
		}
		return false
	}
	return true
}

// key renders the mask's contribution to signature identity.
func (m EventMask) key() string {
	cols := make([]string, len(m.Columns))
	for i, c := range m.Columns {
		cols[i] = fmt.Sprint(c)
	}
	sort.Strings(cols)
	switch {
	case m.AllOps:
		return "all|" + strings.Join(cols, ",")
	case m.AnyOp:
		return "any|" + strings.Join(cols, ",")
	default:
		return m.Op.String() + "|" + strings.Join(cols, ",")
	}
}

// Encode serializes the mask for constant-table storage.
func (m EventMask) Encode() string {
	cols := make([]string, len(m.Columns))
	for i, c := range m.Columns {
		cols[i] = fmt.Sprint(c)
	}
	op := m.Op.String()
	switch {
	case m.AllOps:
		op = "all"
	case m.AnyOp:
		op = "any"
	}
	return op + "|" + strings.Join(cols, ",")
}

// DecodeEventMask parses an Encode result.
func DecodeEventMask(s string) (EventMask, error) {
	parts := strings.SplitN(s, "|", 2)
	if len(parts) != 2 {
		return EventMask{}, fmt.Errorf("predindex: bad event mask %q", s)
	}
	var m EventMask
	switch parts[0] {
	case "all":
		m.AllOps = true
	case "any":
		m.AnyOp = true
	case "insert":
		m.Op = datasource.OpInsert
	case "delete":
		m.Op = datasource.OpDelete
	case "update":
		m.Op = datasource.OpUpdate
	default:
		return EventMask{}, fmt.Errorf("predindex: bad event mask op %q", parts[0])
	}
	if parts[1] != "" {
		for _, cs := range strings.Split(parts[1], ",") {
			var c int
			if _, err := fmt.Sscanf(cs, "%d", &c); err != nil {
				return EventMask{}, fmt.Errorf("predindex: bad event mask column %q", cs)
			}
			m.Columns = append(m.Columns, c)
		}
	}
	return m, nil
}

// Index is the root predicate index.
//
// The match path is lock-free: the root source table and each source's
// signature list are published through atomic pointers, so MatchToken
// never takes the index-wide or per-source locks. Writers (AddSource,
// AddPredicate interning) clone the structure they change under a
// mutex and atomically swap the new copy in — index maintenance pays
// the copy, the probe path pays nothing.
type Index struct {
	policy Policy
	db     *minisql.DB // backing store for table organizations
	// forceOrg, when not OrgAuto, pins every new signature to one
	// organization (benchmarks use this).
	forceOrg Organization

	// sources is the copy-on-write root: source ID → per-source shard.
	// srcMu serializes the clone-and-swap in AddSource; readers load
	// the pointer and never block.
	srcMu   sync.Mutex
	sources atomic.Pointer[map[int32]*sourceShard]
	nextSig atomic.Uint64

	// slots is the tally geometry: one line per driver slot.
	slots int
	// stats are the index-wide tallies, touched by every driver on
	// every token.
	stats tallies

	// Registry-backed instruments (nil without WithMetrics): per-
	// organization probe counters indexed by Organization, and a probe
	// latency histogram.
	orgProbes [5]*metrics.Counter
	matchHist *metrics.Histogram

	// prof, when set, attributes candidate probes and matches to
	// individual trigger IDs (nil = no attribution; all Profiler
	// methods are nil-safe, the branch here just avoids the calls
	// entirely on the hot path).
	prof *profile.Profiler
	// costModel prices organizations for reorg events and snapshots
	// (nil = DefaultCostModel).
	costModel *CostModel
	// reorgHook observes constant-set organization transitions.
	reorgHook func(ReorgEvent)
}

// ReorgEvent describes one constant-set organization transition
// decided by the cost model's thresholds.
type ReorgEvent struct {
	SigID  uint64
	Source int32
	// Expr is the signature's canonical generalized expression.
	Expr string
	// From and To are the old and new organizations.
	From, To Organization
	// Size is the equivalence-class size that crossed a threshold.
	Size int
	// FromCostNs and ToCostNs are the cost model's per-probe estimates
	// for the class at this size under each organization.
	FromCostNs, ToCostNs float64
}

// sourceShard is one data source's slice of the index. The signature
// list probed by MatchToken is copy-on-write: writers append to a clone
// under mu and swap the pointer; the interning map is only touched
// under mu and never read on the match path.
type sourceShard struct {
	schema *types.Schema

	mu sync.Mutex
	// sigs keys on event-mask + canonical generalized expression
	// (writer-side interning only).
	sigs map[string]*SignatureEntry
	// list is the published probe order; loaded without locks.
	list atomic.Pointer[[]*SignatureEntry]
}

// signatures loads the published signature list (lock-free).
func (s *sourceShard) signatures() []*SignatureEntry {
	if p := s.list.Load(); p != nil {
		return *p
	}
	return nil
}

// SignatureEntry is one unique expression signature for a data source,
// with its constant set.
type SignatureEntry struct {
	ID     uint64
	Source int32
	Mask   EventMask
	Sig    *expr.Signature
	// schema is the owning source's schema, carried here so constant-set
	// migrations never reach back into the root structure.
	schema *types.Schema

	mu         sync.RWMutex
	set        constantSet
	org        Organization
	partitions int
	size       int // expression instances stored

	// tallies count, per driver slot, the tokens consulted against this
	// signature (tTokens) and the refs matched through it (tMatches).
	tallies tallies
}

// Option configures an Index.
type Option func(*Index)

// WithDB supplies the database used by table organizations. Without it,
// classes stay in memory regardless of size.
func WithDB(db *minisql.DB) Option { return func(ix *Index) { ix.db = db } }

// WithForcedOrganization pins all constant sets to one strategy.
func WithForcedOrganization(o Organization) Option {
	return func(ix *Index) { ix.forceOrg = o }
}

// WithProfile attributes candidate probes and matches to trigger IDs
// through the profiler's sketch.
func WithProfile(p *profile.Profiler) Option {
	return func(ix *Index) { ix.prof = p }
}

// WithReorgHook installs fn, called after every constant-set
// organization migration. fn runs under the signature entry's lock and
// must not call back into the index.
func WithReorgHook(fn func(ReorgEvent)) Option {
	return func(ix *Index) { ix.reorgHook = fn }
}

// WithSlots sets the tally geometry to the driver pool's slot count, so
// each worker counts on a line of its own. Without it the geometry
// defaults to GOMAXPROCS — correct but potentially wider than the pool.
func WithSlots(n int) Option {
	return func(ix *Index) { ix.slots = n }
}

// WithMetrics registers the index's instruments with reg: a probe
// counter per constant-set organization (which strategy actually served
// each signature lookup) and a token match-latency histogram.
func WithMetrics(reg *metrics.Registry) Option {
	return func(ix *Index) {
		for o := OrgAuto; o <= OrgIndexedTable; o++ {
			ix.orgProbes[o] = reg.Counter("tman_index_org_probes_total",
				"signature probes by constant-set organization", metrics.L("org", o.String()))
		}
		ix.matchHist = reg.Histogram("tman_index_match_duration_seconds",
			"predicate index probe time per token", nil)
	}
}

// New builds an empty predicate index.
func New(opts ...Option) *Index {
	ix := &Index{policy: DefaultPolicy}
	empty := make(map[int32]*sourceShard)
	ix.sources.Store(&empty)
	for _, o := range opts {
		o(ix)
	}
	if ix.slots < 1 {
		ix.slots = runtime.GOMAXPROCS(0)
	}
	ix.stats = newTallies(ix.slots)
	return ix
}

// shard loads the current root map and looks up one source (lock-free).
func (ix *Index) shard(source int32) (*sourceShard, bool) {
	m := *ix.sources.Load()
	s, ok := m[source]
	return s, ok
}

// Stats returns a snapshot of the index counters, each summed over
// the driver slots.
func (ix *Index) Stats() Stats {
	return Stats{
		Tokens:        ix.stats.sum(tTokens),
		SigProbes:     ix.stats.sum(tSigProbes),
		ConstCompares: ix.stats.sum(tConstCompares),
		RestTests:     ix.stats.sum(tRestTests),
		Matches:       ix.stats.sum(tMatches),
	}
}

// AddSource registers a data source's schema (required before adding
// predicates or probing tokens for it). The root map is copy-on-write:
// concurrent MatchToken calls keep probing the old map until the swap.
func (ix *Index) AddSource(id int32, schema *types.Schema) {
	ix.srcMu.Lock()
	defer ix.srcMu.Unlock()
	old := *ix.sources.Load()
	if _, ok := old[id]; ok {
		return
	}
	next := make(map[int32]*sourceShard, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[id] = &sourceShard{schema: schema, sigs: make(map[string]*SignatureEntry)}
	ix.sources.Store(&next)
}

// Signatures returns the signature entries for a source (tests and the
// console's dump command).
func (ix *Index) Signatures(source int32) []*SignatureEntry {
	si, ok := ix.shard(source)
	if !ok {
		return nil
	}
	sigs := si.signatures()
	out := make([]*SignatureEntry, len(sigs))
	copy(out, sigs)
	return out
}

// SignatureCount reports the number of distinct signatures on a source.
func (ix *Index) SignatureCount(source int32) int {
	si, ok := ix.shard(source)
	if !ok {
		return 0
	}
	return len(si.signatures())
}

// AddPredicate registers one selection predicate instance: the
// signature is interned (creating its constant set on first sight, per
// §5.1 step 5) and the instance's constants and ref are added to the
// equivalence class.
func (ix *Index) AddPredicate(source int32, mask EventMask, sig *expr.Signature, consts []types.Value, ref Ref) (*SignatureEntry, error) {
	si, ok := ix.shard(source)
	if !ok {
		return nil, fmt.Errorf("predindex: unknown data source %d", source)
	}
	key := mask.key() + "\x00" + sig.Canonical()
	si.mu.Lock()
	entry, seen := si.sigs[key]
	if !seen {
		entry = &SignatureEntry{
			ID:         ix.nextSig.Add(1),
			Source:     source,
			Mask:       mask,
			Sig:        sig,
			schema:     si.schema,
			partitions: 1,
			tallies:    newTallies(ix.slots),
		}
		org := ix.forceOrg
		if org == OrgAuto {
			org = OrgMemoryList
		}
		set, err := ix.newSet(entry, org)
		if err != nil {
			si.mu.Unlock()
			return nil, err
		}
		entry.set = set
		entry.org = org
		si.sigs[key] = entry
		// Publish the extended list as a fresh copy: in-flight probes
		// keep walking the old slice, new probes see the new entry.
		old := si.signatures()
		next := make([]*SignatureEntry, len(old), len(old)+1)
		copy(next, old)
		next = append(next, entry)
		si.list.Store(&next)
	}
	si.mu.Unlock()

	entry.mu.Lock()
	defer entry.mu.Unlock()
	if err := entry.set.add(consts, ref); err != nil {
		return nil, err
	}
	entry.size++
	return entry, ix.maybeReorganize(entry)
}

// RemovePredicate removes one expression instance from its class.
func (ix *Index) RemovePredicate(entry *SignatureEntry, consts []types.Value, exprID uint64) error {
	entry.mu.Lock()
	defer entry.mu.Unlock()
	removed, err := entry.set.remove(consts, exprID)
	if err != nil {
		return err
	}
	if !removed {
		return fmt.Errorf("predindex: expression %d not found in signature %d", exprID, entry.ID)
	}
	entry.size--
	return nil
}

// Organization reports the entry's current constant-set strategy.
func (e *SignatureEntry) Organization() Organization {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.org
}

// Size reports the number of expression instances in the class.
func (e *SignatureEntry) Size() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.size
}

// SetPartitions splits every triggerID set of this signature into n
// round-robin partitions (Figure 5), enabling condition-level
// concurrency: Match with MatchCtx.Part = p visits only partition p.
func (e *SignatureEntry) SetPartitions(n int) error {
	if n < 1 {
		return fmt.Errorf("predindex: partitions must be >= 1")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.partitions = n
	return e.set.repartition(n)
}

// maybeReorganize migrates the constant set when its size crosses a
// policy threshold. Caller holds entry.mu.
func (ix *Index) maybeReorganize(e *SignatureEntry) error {
	if ix.forceOrg != OrgAuto {
		return nil
	}
	want := e.org
	switch {
	case e.size <= ix.policy.ListMax:
		want = OrgMemoryList
	case e.size <= ix.policy.MemMax || ix.db == nil:
		want = OrgMemoryIndex
	default:
		want = OrgIndexedTable
	}
	if want == e.org {
		return nil
	}
	// Never downgrade from a table organization (rebuilding memory
	// structures from a shrinking table is possible but pointless for
	// trigger workloads, which shrink rarely).
	if (e.org == OrgIndexedTable || e.org == OrgTable) && want != OrgIndexedTable && want != OrgTable {
		return nil
	}
	return ix.migrate(e, want)
}

// migrate rebuilds the entry's constant set under a new organization.
// Caller holds entry.mu.
func (ix *Index) migrate(e *SignatureEntry, want Organization) error {
	ns, err := ix.newSet(e, want)
	if err != nil {
		return err
	}
	if err := e.set.forEach(func(consts types.Tuple, ref Ref) error {
		return ns.add(consts, ref)
	}); err != nil {
		return err
	}
	if err := ns.repartition(e.partitions); err != nil {
		return err
	}
	from := e.org
	e.set = ns
	e.org = want
	if ix.reorgHook != nil {
		m := ix.costModelOrDefault()
		ix.reorgHook(ReorgEvent{
			SigID:      e.ID,
			Source:     e.Source,
			Expr:       e.Sig.Canonical(),
			From:       from,
			To:         want,
			Size:       e.size,
			FromCostNs: m.ProbeCost(from, e.size),
			ToCostNs:   m.ProbeCost(want, e.size),
		})
	}
	return nil
}

// costModelOrDefault prices organizations for events and snapshots.
func (ix *Index) costModelOrDefault() CostModel {
	if ix.costModel != nil {
		return *ix.costModel
	}
	return DefaultCostModel
}

func (ix *Index) newSet(e *SignatureEntry, org Organization) (constantSet, error) {
	switch org {
	case OrgMemoryList:
		return newMemList(e.Sig), nil
	case OrgMemoryIndex:
		return newMemIndex(e.Sig), nil
	case OrgTable, OrgIndexedTable:
		if ix.db == nil {
			return nil, fmt.Errorf("predindex: table organization requires a database (WithDB)")
		}
		return newTableSet(ix.db, e, e.schema, org == OrgIndexedTable)
	default:
		return nil, fmt.Errorf("predindex: cannot instantiate organization %s", org)
	}
}

// MatchCtx says which slice of the index a probe visits and on whose
// behalf: Part restricts every triggerID set to one round-robin
// partition (task type 3 of §6; AllParts visits them all), Slot is the
// prober's stable driver slot (taskq Task.RunSlot), so its tallies land
// on that worker's own line (NoSlot outside any driver).
type MatchCtx struct {
	Part, Slot int
}

// AllParts is the MatchCtx.Part value that probes every partition.
const AllParts = -1

// Buffer is the memory a probe works in, owned by the caller: Match
// appends its matches to Matches and encodes probe keys and evaluates
// rest-of-predicates in the scratch beside it, so a caller that reuses
// one Buffer probes without allocating once it has grown to fit. The
// Matches hold pointers into the index's predicates: clear them (Reset)
// before parking a Buffer anywhere long-lived, or a dropped trigger's
// predicate stays reachable through it.
type Buffer struct {
	Matches []Match
	key     []byte         // equality probe key
	env     expr.SingleEnv // rest-of-predicate environment; passed by pointer, so not boxed per test
}

// Reset empties the buffer, keeping its capacity and dropping every
// pointer it held. (Match zeroes what it drops, so nothing lives past
// the length.)
func (b *Buffer) Reset() {
	clear(b.Matches)
	b.Matches = b.Matches[:0]
	b.env = expr.SingleEnv{}
}

// MatchToken is Match with no context and a buffer of its own: every
// partition, no driver slot, each match handed to fn until it returns
// false.
func (ix *Index) MatchToken(tok datasource.Token, fn func(Match) bool) error {
	var buf Buffer
	err := ix.Match(&buf, tok, MatchCtx{Part: AllParts, Slot: NoSlot})
	for _, m := range buf.Matches {
		if !fn(m) {
			break
		}
	}
	return err
}

// Match probes the index with a token and appends every matching
// expression instance to buf.Matches. This is the §5.4 algorithm: locate
// the data source predicate index, consult each signature's
// predicate-testing structure, then test remaining clauses of partially
// indexable predicates. On an error the matches found so far stay
// appended.
func (ix *Index) Match(buf *Buffer, tok datasource.Token, ctx MatchCtx) error {
	part, slot := ctx.Part, ctx.Slot
	if ix.matchHist != nil {
		begin := time.Now()
		defer func() { ix.matchHist.Observe(time.Since(begin)) }()
	}
	// Lock-free: one atomic load for the root map, one for the
	// source's published signature list. Concurrent AddPredicate swaps
	// are invisible to a probe already holding the old slice, which is
	// exactly the isolation the paper's per-token semantics need.
	si, ok := ix.shard(tok.SourceID)
	if !ok {
		return fmt.Errorf("predindex: token for unknown data source %d", tok.SourceID)
	}
	sigs := si.signatures()

	stats := ix.stats.at(slot)
	stats.n[tTokens].Add(1)
	tuple := tok.Effective()
	var sigProbes, restTests, matches int64
	for _, e := range sigs {
		if !e.Mask.Matches(tok) {
			continue
		}
		sigProbes++
		// The read lock is held across the whole set probe: the memory
		// organizations mutate their structures in place under the entry
		// write lock, so a probe overlapping an AddPredicate must hold the
		// reader side. Probes share it — probe-vs-probe stays concurrent —
		// and each prober tallies on its own slot's line, so the only
		// shared read-modify-write left on this path is the lock word
		// itself. Nothing but the index's own code runs under it: the
		// candidates are buffered, and the caller routes them after Match
		// returns.
		e.mu.RLock()
		set := e.set
		parts := e.partitions
		org := e.org
		if org <= OrgIndexedTable {
			if c := ix.orgProbes[org]; c != nil {
				c.Inc()
			}
		}
		probePart := part
		if probePart >= parts {
			probePart = probePart % parts
		}
		sig := e.tallies.at(slot)
		sig.n[tTokens].Add(1)
		first := len(buf.Matches)
		compares, err := set.match(buf, tuple, probePart)
		e.mu.RUnlock()
		// Keep the candidates whose rest-of-predicate holds, in place.
		cands := buf.Matches
		kept := cands[:first]
		for _, m := range cands[first:] {
			if len(m.Rest.Clauses) > 0 {
				restTests++
				buf.env = expr.SingleEnv{New: tuple, Old: tok.Old}
				if m.Aggregate {
					// What a group holds is a property of its rows, not of
					// how they got there: :OLD reads NULL. (The catalog keeps
					// :OLD out of a multi-variable ref's Rest.)
					buf.env.Old = nil
				}
				ok, rerr := expr.EvalPredicate(m.Rest.Node(), &buf.env)
				if rerr != nil || ok != expr.True {
					// Charge the failed probe on this cold branch; the hot
					// (matching) branch folds probe+match into one lookup.
					if p := ix.prof; p != nil {
						p.MatchProbe(m.TriggerID)
					}
					continue
				}
			}
			if p := ix.prof; p != nil {
				p.MatchHit(m.TriggerID)
			}
			m.SourceID = tok.SourceID
			kept = append(kept, m)
		}
		clear(cands[len(kept):])
		buf.Matches = kept
		if n := int64(len(kept) - first); n > 0 {
			matches += n
			sig.n[tMatches].Add(n)
		}
		stats.n[tConstCompares].Add(int64(compares))
		if err != nil {
			return err
		}
	}
	if sigProbes > 0 {
		stats.n[tSigProbes].Add(sigProbes)
	}
	if restTests > 0 {
		stats.n[tRestTests].Add(restTests)
	}
	if matches > 0 {
		stats.n[tMatches].Add(matches)
	}
	return nil
}

// SigSnapshot describes one signature entry for introspection
// (/indexz, the explain verb): identity, live organization, class
// size, partitioning, probe/match counters, and the cost model's
// per-probe estimate at the current size.
type SigSnapshot struct {
	ID     uint64 `json:"sig_id"`
	Source int32  `json:"source_id"`
	Mask   string `json:"mask"`
	Expr   string `json:"expr"`
	// Org is the live constant-set organization; Structure names the
	// concrete predicate-testing structure behind it.
	Org        string `json:"organization"`
	Structure  string `json:"structure"`
	Size       int    `json:"size"`
	Partitions int    `json:"partitions"`
	Probes     int64  `json:"probes"`
	Matches    int64  `json:"matches"`
	// EstProbeCostNs is the cost model's estimate for one probe against
	// this class at its current size and organization.
	EstProbeCostNs float64 `json:"est_probe_cost_ns"`
}

// Snapshot dumps every signature on every source, ordered by source ID
// then signature ID.
func (ix *Index) Snapshot() []SigSnapshot {
	var entries []*SignatureEntry
	for _, si := range *ix.sources.Load() {
		entries = append(entries, si.signatures()...)
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Source != entries[j].Source {
			return entries[i].Source < entries[j].Source
		}
		return entries[i].ID < entries[j].ID
	})
	m := ix.costModelOrDefault()
	out := make([]SigSnapshot, 0, len(entries))
	for _, e := range entries {
		e.mu.RLock()
		snap := SigSnapshot{
			ID:             e.ID,
			Source:         e.Source,
			Mask:           e.Mask.Encode(),
			Expr:           e.Sig.Canonical(),
			Org:            e.org.String(),
			Structure:      e.set.describe(),
			Size:           e.size,
			Partitions:     e.partitions,
			EstProbeCostNs: m.ProbeCost(e.org, e.size),
		}
		e.mu.RUnlock()
		snap.Probes = e.tallies.sum(tTokens)
		snap.Matches = e.tallies.sum(tMatches)
		out = append(out, snap)
	}
	return out
}
