// Package catalog implements the trigger system catalogs of §5.1: the
// trigger_set, trigger, data_source and expression_signature tables kept
// in the embedded database, the in-memory mirrors used on the hot path,
// the trigger cache, and the create trigger processing pipeline (parse,
// CNF conversion, condition-graph construction, A-TREAT network build,
// and predicate registration with signature interning).
package catalog

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"triggerman/internal/admission"
	"triggerman/internal/agg"
	"triggerman/internal/cache"
	"triggerman/internal/datasource"
	"triggerman/internal/discrim"
	"triggerman/internal/exec"
	"triggerman/internal/expr"
	"triggerman/internal/minisql"
	"triggerman/internal/parser"
	"triggerman/internal/predindex"
	"triggerman/internal/storage"
	"triggerman/internal/types"
)

// DefaultTriggerCacheSize follows the paper's sizing example (§5.1):
// 64MB of cache at ~4KB per description holds 16,384 triggers.
const DefaultTriggerCacheSize = 16384

// TriggerSet mirrors a trigger_set row.
type TriggerSet struct {
	ID       uint64
	Name     string
	Comments string
	Enabled  bool

	rid storage.RID
}

// TriggerInfo mirrors a trigger row plus registration bookkeeping.
type TriggerInfo struct {
	ID      uint64
	SetID   uint64
	Name    string
	Text    string
	Enabled bool
	Created string
	// SourceIDs lists the data sources of the trigger's tuple variables,
	// in from-clause order.
	SourceIDs []int32
	// IsAggregate marks group-by/having triggers.
	IsAggregate bool
	// Class is the scheduling priority class, declared as a flag in the
	// create-trigger statement ("create trigger t batch from ...").
	// Interactive is the default. It survives restart because recovery
	// re-parses the trigger text through primeTrigger.
	Class admission.Class

	rid  storage.RID
	regs []predReg
	// What primeTrigger builds for the trigger that every load of its
	// description shares: the A-TREAT or Gator network of a
	// multi-variable trigger, the state of an aggregate one.
	network *discrim.Network
	gator   *discrim.GatorNetwork
	agg     *AggTrigger
}

type predReg struct {
	entry  *predindex.SignatureEntry
	consts []types.Value
	exprID uint64
}

// LoadedTrigger is the trigger-cache payload: the complete description
// of §5.1 (syntax tree, network skeleton, data source references).
type LoadedTrigger struct {
	Info     *TriggerInfo
	Stmt     *parser.CreateTrigger
	VarIndex map[string]int
	Schemas  []*types.Schema
	Sources  []int32
	// Network is non-nil for multi-variable triggers under the default
	// A-TREAT strategy; its alpha memories are resident (owned by the
	// catalog, shared across cache loads).
	Network *discrim.Network
	// Gator is non-nil instead of Network when the catalog runs Gator
	// networks (Config.UseGator).
	Gator *discrim.GatorNetwork
	// Agg is non-nil for group-by/having triggers: resident incremental
	// aggregate state plus the compiled having condition.
	Agg *AggTrigger
	// Action is compiled: its references read their slots in a firing's
	// binding, an aggregate trigger's aggregate calls included.
	Action parser.Action
}

// AggTrigger is the resident state of one aggregate trigger.
type AggTrigger struct {
	State  *agg.State
	Having func(groupKey, aggs types.Tuple) (bool, error)
}

// Catalog owns the trigger system state.
type Catalog struct {
	mu   sync.RWMutex
	db   *minisql.DB
	reg  *datasource.Registry
	pidx *predindex.Index

	tcache *cache.Sharded

	triggers map[uint64]*TriggerInfo
	byName   map[string]uint64
	sets     map[string]*TriggerSet
	sigRows  map[uint64]storage.RID // expression_signature row per signature
	useGator bool

	nextTriggerID uint64
	nextExprID    uint64
	nextSetID     uint64
	nextDLID      uint64

	trigTab, setTab, srcTab, sigTab, dlTab *minisql.Table

	now func() string
}

// Config configures a catalog.
type Config struct {
	DB    *minisql.DB
	Reg   *datasource.Registry
	Pidx  *predindex.Index
	Cache int // trigger cache capacity; 0 = DefaultTriggerCacheSize
	// UseGator runs multi-variable triggers through Gator networks
	// (cached join state, [Hans97b]) instead of flat A-TREAT networks.
	UseGator bool
}

// New creates the catalog tables (or reopens them) and returns a ready
// catalog. Recovery re-registers data sources and re-primes every stored
// trigger from its catalog text.
func New(cfg Config) (*Catalog, error) {
	if cfg.Cache <= 0 {
		cfg.Cache = DefaultTriggerCacheSize
	}
	c := &Catalog{
		db:       cfg.DB,
		reg:      cfg.Reg,
		pidx:     cfg.Pidx,
		triggers: make(map[uint64]*TriggerInfo),
		byName:   make(map[string]uint64),
		sets:     make(map[string]*TriggerSet),
		sigRows:  make(map[uint64]storage.RID),
		useGator: cfg.UseGator,
		now:      func() string { return time.Now().UTC().Format(time.RFC3339) },
	}
	c.tcache = cache.NewSharded(cfg.Cache, c.loadTrigger)
	if err := c.ensureTables(); err != nil {
		return nil, err
	}
	if err := c.recover(); err != nil {
		return nil, err
	}
	return c, nil
}

// Cache exposes the trigger cache (stats for experiments).
func (c *Catalog) Cache() *cache.Sharded { return c.tcache }

func (c *Catalog) ensureTables() error {
	get := func(name string, schema *types.Schema, indexCols ...string) (*minisql.Table, error) {
		if t, err := c.db.Table(name); err == nil {
			return t, nil
		}
		t, err := c.db.CreateTable(name, schema)
		if err != nil {
			return nil, err
		}
		if len(indexCols) > 0 {
			if _, err := t.CreateIndex(name+"_idx", indexCols...); err != nil {
				return nil, err
			}
		}
		return t, nil
	}
	var err error
	c.setTab, err = get("trigger_set", types.MustSchema(
		types.Column{Name: "tsid", Kind: types.KindInt},
		types.Column{Name: "name", Kind: types.KindVarchar},
		types.Column{Name: "comments", Kind: types.KindVarchar},
		types.Column{Name: "creation_date", Kind: types.KindVarchar},
		types.Column{Name: "isenabled", Kind: types.KindInt},
	))
	if err != nil {
		return err
	}
	c.trigTab, err = get("trigger", types.MustSchema(
		types.Column{Name: "triggerid", Kind: types.KindInt},
		types.Column{Name: "tsid", Kind: types.KindInt},
		types.Column{Name: "name", Kind: types.KindVarchar},
		types.Column{Name: "comments", Kind: types.KindVarchar},
		types.Column{Name: "trigger_text", Kind: types.KindVarchar},
		types.Column{Name: "creation_date", Kind: types.KindVarchar},
		types.Column{Name: "isenabled", Kind: types.KindInt},
	), "triggerid")
	if err != nil {
		return err
	}
	c.srcTab, err = get("data_source", types.MustSchema(
		types.Column{Name: "srcid", Kind: types.KindInt},
		types.Column{Name: "name", Kind: types.KindVarchar},
		types.Column{Name: "schematext", Kind: types.KindVarchar},
	))
	if err != nil {
		return err
	}
	c.sigTab, err = get("expression_signature", types.MustSchema(
		types.Column{Name: "sigid", Kind: types.KindInt},
		types.Column{Name: "datasrcid", Kind: types.KindInt},
		types.Column{Name: "signaturedesc", Kind: types.KindVarchar},
		types.Column{Name: "consttablename", Kind: types.KindVarchar},
		types.Column{Name: "constantsetsize", Kind: types.KindInt},
		types.Column{Name: "constantsetorganization", Kind: types.KindVarchar},
	))
	if err != nil {
		return err
	}
	return c.ensureDeadLetterTable()
}

// recover rebuilds in-memory state from the catalog tables: data
// sources first, then trigger sets, then every trigger re-primed from
// its stored text. Constant tables from the previous incarnation are
// dropped (the predicate index rebuilds them as classes regrow).
func (c *Catalog) recover() error {
	// Drop stale constant tables and signature rows; they are rebuilt.
	for _, name := range c.db.Tables() {
		if strings.HasPrefix(strings.ToLower(name), "const_sig_") {
			if err := c.db.DropTable(name); err != nil {
				return err
			}
		}
	}
	if _, err := c.db.ExecStmt(&parser.Delete{Table: "expression_signature"}); err != nil {
		return err
	}
	// Data sources.
	var derr error
	err := c.srcTab.Scan(func(_ storage.RID, row types.Tuple) bool {
		schema, e := decodeSchemaText(row[2].Str())
		if e != nil {
			derr = e
			return false
		}
		if _, e := c.reg.DefineWithID(int32(row[0].Int()), row[1].Str(), schema); e != nil {
			derr = e
			return false
		}
		c.pidx.AddSource(int32(row[0].Int()), schema)
		return true
	})
	if err != nil {
		return err
	}
	if derr != nil {
		return derr
	}
	// Trigger sets.
	err = c.setTab.Scan(func(rid storage.RID, row types.Tuple) bool {
		ts := &TriggerSet{
			ID:       uint64(row[0].Int()),
			Name:     row[1].Str(),
			Comments: row[2].Str(),
			Enabled:  row[4].Int() != 0,
			rid:      rid,
		}
		c.sets[strings.ToLower(ts.Name)] = ts
		if ts.ID >= c.nextSetID {
			c.nextSetID = ts.ID
		}
		return true
	})
	if err != nil {
		return err
	}
	// Triggers: collect rows, then re-prime.
	type row struct {
		info TriggerInfo
	}
	var rows []row
	err = c.trigTab.Scan(func(rid storage.RID, r types.Tuple) bool {
		rows = append(rows, row{TriggerInfo{
			ID:      uint64(r[0].Int()),
			SetID:   uint64(r[1].Int()),
			Name:    r[2].Str(),
			Text:    r[4].Str(),
			Created: r[5].Str(),
			Enabled: r[6].Int() != 0,
			rid:     rid,
		}})
		return true
	})
	if err != nil {
		return err
	}
	for _, r := range rows {
		st, err := parser.Parse(r.info.Text)
		if err != nil {
			return fmt.Errorf("catalog: recovering trigger %q: %w", r.info.Name, err)
		}
		ct, ok := st.(*parser.CreateTrigger)
		if !ok {
			return fmt.Errorf("catalog: trigger %q text is not a create trigger", r.info.Name)
		}
		info := r.info
		if err := c.primeTrigger(&info, ct); err != nil {
			return fmt.Errorf("catalog: recovering trigger %q: %w", r.info.Name, err)
		}
		c.triggers[info.ID] = &info
		c.byName[strings.ToLower(info.Name)] = info.ID
		if info.ID >= c.nextTriggerID {
			c.nextTriggerID = info.ID
		}
	}
	return nil
}

func encodeSchemaText(s *types.Schema) string {
	parts := make([]string, len(s.Columns))
	for i, col := range s.Columns {
		parts[i] = fmt.Sprintf("%s:%d", col.Name, col.Kind)
	}
	return strings.Join(parts, ",")
}

func decodeSchemaText(text string) (*types.Schema, error) {
	if text == "" {
		return types.NewSchema()
	}
	var cols []types.Column
	for _, part := range strings.Split(text, ",") {
		i := strings.LastIndexByte(part, ':')
		if i < 0 {
			return nil, fmt.Errorf("catalog: bad schema text %q", text)
		}
		var k int
		if _, err := fmt.Sscanf(part[i+1:], "%d", &k); err != nil {
			return nil, err
		}
		cols = append(cols, types.Column{Name: part[:i], Kind: types.Kind(k)})
	}
	return types.NewSchema(cols...)
}

// DefineDataSource registers a data source and persists it.
func (c *Catalog) DefineDataSource(name string, schema *types.Schema) (*datasource.Source, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	src, err := c.reg.Define(name, schema)
	if err != nil {
		return nil, err
	}
	c.pidx.AddSource(src.ID, schema)
	_, err = c.srcTab.Insert(types.Tuple{
		types.NewInt(int64(src.ID)),
		types.NewString(name),
		types.NewString(encodeSchemaText(schema)),
	})
	if err != nil {
		return nil, err
	}
	return src, nil
}

// CreateTriggerSet creates a named trigger set.
func (c *Catalog) CreateTriggerSet(name, comments string) (*TriggerSet, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.createTriggerSetLocked(name, comments)
}

func (c *Catalog) createTriggerSetLocked(name, comments string) (*TriggerSet, error) {
	key := strings.ToLower(name)
	if _, dup := c.sets[key]; dup {
		return nil, fmt.Errorf("catalog: trigger set %q already exists", name)
	}
	c.nextSetID++
	ts := &TriggerSet{ID: c.nextSetID, Name: name, Comments: comments, Enabled: true}
	rid, err := c.setTab.Insert(types.Tuple{
		types.NewInt(int64(ts.ID)),
		types.NewString(name),
		types.NewString(comments),
		types.NewString(c.now()),
		types.NewInt(1),
	})
	if err != nil {
		return nil, err
	}
	ts.rid = rid
	c.sets[key] = ts
	return ts, nil
}

// DropTriggerSet removes an empty trigger set.
func (c *Catalog) DropTriggerSet(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(name)
	ts, ok := c.sets[key]
	if !ok {
		return fmt.Errorf("catalog: unknown trigger set %q", name)
	}
	for _, t := range c.triggers {
		if t.SetID == ts.ID {
			return fmt.Errorf("catalog: trigger set %q is not empty (trigger %q)", name, t.Name)
		}
	}
	if err := c.setTab.Delete(ts.rid); err != nil {
		return err
	}
	delete(c.sets, key)
	return nil
}

// TriggerCount reports the number of defined triggers.
func (c *Catalog) TriggerCount() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.triggers)
}

// TriggerNames lists trigger names (unsorted).
func (c *Catalog) TriggerNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.triggers))
	for _, t := range c.triggers {
		out = append(out, t.Name)
	}
	return out
}

// TriggerByName resolves a trigger ID.
func (c *Catalog) TriggerByName(name string) (uint64, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	id, ok := c.byName[strings.ToLower(name)]
	return id, ok
}

// TriggerIsAggregate reports whether the trigger has a group-by/having
// condition.
func (c *Catalog) TriggerIsAggregate(id uint64) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.triggers[id]
	return ok && t.IsAggregate
}

// TriggerClass reports the trigger's scheduling priority class.
// Unknown triggers are interactive (the safe default for routing).
func (c *Catalog) TriggerClass(id uint64) admission.Class {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if t, ok := c.triggers[id]; ok {
		return t.Class
	}
	return admission.Interactive
}

// TriggerSources returns the data sources of a trigger's tuple
// variables without loading the full description.
func (c *Catalog) TriggerSources(id uint64) ([]int32, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.triggers[id]
	if !ok {
		return nil, false
	}
	return t.SourceIDs, true
}

// IsFireable reports whether the trigger and its set are enabled.
func (c *Catalog) IsFireable(id uint64) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.triggers[id]
	if !ok || !t.Enabled {
		return false
	}
	if t.SetID != 0 {
		for _, ts := range c.sets {
			if ts.ID == t.SetID {
				return ts.Enabled
			}
		}
	}
	return true
}

// SetTriggerEnabled toggles a trigger's isEnabled flag.
func (c *Catalog) SetTriggerEnabled(name string, enabled bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	id, ok := c.byName[strings.ToLower(name)]
	if !ok {
		return fmt.Errorf("catalog: unknown trigger %q", name)
	}
	t := c.triggers[id]
	t.Enabled = enabled
	return c.updateTriggerRowLocked(t)
}

// SetTriggerSetEnabled toggles a trigger set's isEnabled flag.
func (c *Catalog) SetTriggerSetEnabled(name string, enabled bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	ts, ok := c.sets[strings.ToLower(name)]
	if !ok {
		return fmt.Errorf("catalog: unknown trigger set %q", name)
	}
	ts.Enabled = enabled
	_, err := c.setTab.UpdateRow(ts.rid, types.Tuple{
		types.NewInt(int64(ts.ID)),
		types.NewString(ts.Name),
		types.NewString(ts.Comments),
		types.NewString(c.now()),
		types.NewInt(boolInt(ts.Enabled)),
	})
	return err
}

func (c *Catalog) updateTriggerRowLocked(t *TriggerInfo) error {
	rid, err := c.trigTab.UpdateRow(t.rid, types.Tuple{
		types.NewInt(int64(t.ID)),
		types.NewInt(int64(t.SetID)),
		types.NewString(t.Name),
		types.NewString(""),
		types.NewString(t.Text),
		types.NewString(t.Created),
		types.NewInt(boolInt(t.Enabled)),
	})
	if err != nil {
		return err
	}
	t.rid = rid
	return nil
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// PinTrigger loads the trigger description through the trigger cache
// and pins it. Every successful call is paired with one Unpin(id).
func (c *Catalog) PinTrigger(id uint64) (*LoadedTrigger, error) {
	e, err := c.tcache.Pin(id)
	if err != nil {
		return nil, err
	}
	return e.Value.(*LoadedTrigger), nil
}

// Unpin releases one PinTrigger of the trigger.
func (c *Catalog) Unpin(id uint64) { c.tcache.Unpin(id) }

// Pin is PinTrigger with the matching Unpin handed back as a function,
// for callers that pin once and keep the description a while.
func (c *Catalog) Pin(id uint64) (*LoadedTrigger, func(), error) {
	lt, err := c.PinTrigger(id)
	if err != nil {
		return nil, nil, err
	}
	return lt, func() { c.Unpin(id) }, nil
}

// loadTrigger is the cache loader: it re-reads the trigger row, parses
// the stored text and rebuilds the description (§5.4's pin bringing the
// description "in from the disk-based trigger catalog").
func (c *Catalog) loadTrigger(id uint64) (interface{}, error) {
	res, err := c.db.ExecStmt(&parser.Select{
		Items: []parser.SelectItem{{Star: true}},
		Table: "trigger",
		Where: expr.Cmp(expr.OpEq, expr.Col("", "triggerid"), expr.Int(int64(id))),
	})
	if err != nil {
		return nil, err
	}
	if len(res.Rows) == 0 {
		return nil, fmt.Errorf("catalog: trigger %d not in catalog", id)
	}
	text := res.Rows[0][4].Str()
	st, err := parser.Parse(text)
	if err != nil {
		return nil, err
	}
	ct, ok := st.(*parser.CreateTrigger)
	if !ok {
		return nil, fmt.Errorf("catalog: trigger %d text is not a create trigger", id)
	}
	c.mu.RLock()
	info := c.triggers[id]
	c.mu.RUnlock()
	if info == nil {
		return nil, fmt.Errorf("catalog: trigger %d dropped", id)
	}
	return c.buildLoaded(info, ct)
}

// buildLoaded resolves sources/schemas and the action for a parsed
// trigger, and compiles the action: its references to the tuple
// variables, and an aggregate trigger's aggregate calls, are resolved to
// slots here, once per load, while the tree is still private to this
// call — firings then share it read-only.
func (c *Catalog) buildLoaded(info *TriggerInfo, ct *parser.CreateTrigger) (*LoadedTrigger, error) {
	lt := &LoadedTrigger{
		Info:     info,
		Stmt:     ct,
		VarIndex: ct.VarIndex(),
		Network:  info.network,
		Gator:    info.gator,
		Agg:      info.agg,
		Action:   ct.Do,
	}
	for _, f := range ct.From {
		src, ok := c.reg.ByName(f.Source)
		if !ok {
			return nil, fmt.Errorf("catalog: trigger %q references unknown data source %q", info.Name, f.Source)
		}
		lt.Sources = append(lt.Sources, src.ID)
		lt.Schemas = append(lt.Schemas, src.Schema)
	}
	exec.Compile(lt.Action, lt.VarIndex, lt.Schemas)
	if lt.Agg != nil {
		var err error
		if lt.Action, err = lt.Agg.State.ResolveAction(lt.Action, lt.Schemas[0]); err != nil {
			return nil, err
		}
	}
	return lt, nil
}
