package catalog

import (
	"fmt"
	"strings"

	"triggerman/internal/admission"
	"triggerman/internal/agg"
	"triggerman/internal/datasource"
	"triggerman/internal/discrim"
	"triggerman/internal/expr"
	"triggerman/internal/parser"
	"triggerman/internal/predindex"
	"triggerman/internal/types"
)

// CreateTrigger runs the §5.1 pipeline for a create trigger statement:
//
//  1. parse and validate,
//  2. convert the when clause to CNF and group conjuncts by
//     tuple-variable set,
//  3. form the trigger condition graph,
//  4. build the A-TREAT network (multi-variable triggers),
//  5. intern each selection predicate's expression signature and add
//     the trigger's constants and ref to its equivalence class.
//
// The original statement text is stored in the trigger catalog so the
// trigger cache can rebuild the description after eviction.
func (c *Catalog) CreateTrigger(text string) (*TriggerInfo, error) {
	st, err := parser.Parse(text)
	if err != nil {
		return nil, err
	}
	ct, ok := st.(*parser.CreateTrigger)
	if !ok {
		return nil, fmt.Errorf("catalog: statement is not create trigger")
	}
	return c.CreateTriggerStmt(ct)
}

// CreateTriggerStmt is CreateTrigger over a pre-parsed statement.
func (c *Catalog) CreateTriggerStmt(ct *parser.CreateTrigger) (*TriggerInfo, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(ct.Name)
	if _, dup := c.byName[key]; dup {
		return nil, fmt.Errorf("catalog: trigger %q already exists", ct.Name)
	}
	var setID uint64
	if ct.SetName != "" {
		ts, ok := c.sets[strings.ToLower(ct.SetName)]
		if !ok {
			// Sets are created implicitly on first use, like the paper's
			// default set.
			var err error
			ts, err = c.createTriggerSetLocked(ct.SetName, "")
			if err != nil {
				return nil, err
			}
		}
		setID = ts.ID
	}
	c.nextTriggerID++
	info := &TriggerInfo{
		ID:      c.nextTriggerID,
		SetID:   setID,
		Name:    ct.Name,
		Text:    ct.Text,
		Enabled: true,
		Created: c.now(),
	}
	if err := c.primeTrigger(info, ct); err != nil {
		c.nextTriggerID--
		return nil, err
	}
	rid, err := c.trigTab.Insert(types.Tuple{
		types.NewInt(int64(info.ID)),
		types.NewInt(int64(setID)),
		types.NewString(info.Name),
		types.NewString(""),
		types.NewString(info.Text),
		types.NewString(info.Created),
		types.NewInt(1),
	})
	if err != nil {
		c.unregisterLocked(info)
		c.nextTriggerID--
		return nil, err
	}
	info.rid = rid
	c.triggers[info.ID] = info
	c.byName[key] = info.ID
	return info, nil
}

// primeTrigger performs steps 2–5 of the pipeline: all analysis,
// network construction and predicate registration, but no catalog-row
// insertion (recovery reuses it).
func (c *Catalog) primeTrigger(info *TriggerInfo, ct *parser.CreateTrigger) error {
	if (len(ct.GroupBy) > 0) != (ct.Having != nil) {
		return fmt.Errorf("catalog: group by and having must appear together")
	}
	if len(ct.GroupBy) > 0 && len(ct.From) != 1 {
		return fmt.Errorf("catalog: aggregate triggers take a single data source")
	}
	if ct.Do == nil {
		return fmt.Errorf("catalog: trigger %q has no action", ct.Name)
	}
	// The priority class rides in the flag list between the trigger name
	// and the from clause; other flags stay reserved for future options.
	info.Class = admission.Interactive
	for _, f := range ct.Flags {
		if cl, ok := admission.ParseClass(f); ok {
			info.Class = cl
		}
	}
	// Resolve tuple variables to sources.
	varIndex := ct.VarIndex()
	if len(varIndex) != len(ct.From) {
		return fmt.Errorf("catalog: duplicate tuple variable in from clause")
	}
	sources := make([]*datasource.Source, len(ct.From))
	schemas := make([]*types.Schema, len(ct.From))
	for i, f := range ct.From {
		src, ok := c.reg.ByName(f.Source)
		if !ok {
			return fmt.Errorf("catalog: unknown data source %q", f.Source)
		}
		sources[i] = src
		schemas[i] = src.Schema
	}
	// Locate the event target variable.
	eventVar := -1
	if ct.On != nil {
		if ct.On.Target == "" {
			if len(ct.From) != 1 {
				return fmt.Errorf("catalog: on clause must name its data source in a multi-source trigger")
			}
			eventVar = 0
		} else {
			vi, ok := varIndex[strings.ToLower(ct.On.Target)]
			if !ok {
				// The on clause may name the source rather than its alias.
				for i, f := range ct.From {
					if strings.EqualFold(f.Source, ct.On.Target) {
						vi, ok = i, true
						break
					}
				}
				if !ok {
					return fmt.Errorf("catalog: on clause names unknown tuple variable %q", ct.On.Target)
				}
			}
			eventVar = vi
		}
	}
	// Bind the when clause and convert to CNF.
	defaultVar := -1
	if len(ct.From) == 1 {
		defaultVar = 0
	}
	var when expr.Node
	if ct.When != nil {
		when = expr.Clone(ct.When)
		b := &expr.Binder{
			VarIndex:   varIndex,
			DefaultVar: defaultVar,
			ColumnIndex: func(vi int, col string) int {
				return schemas[vi].ColumnIndex(col)
			},
		}
		if err := b.Bind(when); err != nil {
			return fmt.Errorf("catalog: trigger %q: %w", ct.Name, err)
		}
	}
	cnf, err := expr.ToCNF(when)
	if err != nil {
		return err
	}
	groups := expr.GroupConjuncts(cnf)

	// Build the condition graph: per-variable selections, pairwise join
	// edges, catch-all for the rest.
	selections := make([]expr.CNF, len(ct.From))
	var edges []discrim.JoinEdge
	var catchAll expr.CNF
	for _, g := range groups {
		switch g.Class {
		case expr.Selection:
			vi := c.varOf(g, when)
			if vi < 0 {
				return fmt.Errorf("catalog: cannot resolve selection variable for %s", g.CNF())
			}
			for _, cl := range g.Clauses {
				if len(ct.From) > 1 && refersToOld(cl) {
					// A transition condition is a fact about the event, not
					// about the row, so it cannot decide what an alpha
					// memory holds: the network tests it with the catch-all,
					// against the seeding variable's old image, when it
					// fires.
					catchAll.Clauses = append(catchAll.Clauses, cl)
				} else {
					selections[vi].Clauses = append(selections[vi].Clauses, cl)
				}
			}
		case expr.Join:
			a, b := c.varsOfJoin(g)
			if a < 0 || b < 0 {
				return fmt.Errorf("catalog: cannot resolve join variables for %s", g.CNF())
			}
			edges = append(edges, discrim.JoinEdge{A: a, B: b, Pred: g.CNF()})
		default: // Trivial, HyperJoin -> catch-all list
			catchAll.Clauses = append(catchAll.Clauses, g.Clauses...)
		}
	}

	// Aggregate (group by / having) triggers: resolve the aggregates the
	// having clause and the action read, and keep resident incremental
	// state. The when clause remains the selection filter.
	isAgg := len(ct.GroupBy) > 0
	info.IsAggregate = isAgg
	if isAgg {
		var groupCols []int
		for _, name := range ct.GroupBy {
			ci := schemas[0].ColumnIndex(name)
			if ci < 0 {
				return fmt.Errorf("catalog: group by names unknown column %q", name)
			}
			groupCols = append(groupCols, ci)
		}
		having := expr.Clone(ct.Having)
		hb := &expr.Binder{
			VarIndex:   varIndex,
			DefaultVar: 0,
			ColumnIndex: func(vi int, col string) int {
				return schemas[vi].ColumnIndex(col)
			},
		}
		if err := hb.Bind(having); err != nil {
			return fmt.Errorf("catalog: having: %w", err)
		}
		st, holds, err := agg.Compile(having, ct.Do, groupCols, schemas[0])
		if err != nil {
			return fmt.Errorf("catalog: %w", err)
		}
		info.agg = &AggTrigger{State: st, Having: holds}
	}

	multiVar := len(ct.From) > 1
	if multiVar {
		vars := make([]discrim.Var, len(ct.From))
		for i, f := range ct.From {
			vars[i] = discrim.Var{Name: f.Var(), SourceID: sources[i].ID}
		}
		if c.useGator {
			info.gator, err = discrim.NewGreedyGator(info.ID, vars, edges, catchAll, nil)
		} else {
			info.network, err = discrim.NewNetwork(info.ID, vars, edges, catchAll)
		}
		if err != nil {
			return err
		}
	} else if len(catchAll.Clauses) > 0 {
		// Single-variable triggers fold trivial conjuncts into the
		// selection predicate.
		selections[0].Clauses = append(selections[0].Clauses, catchAll.Clauses...)
	}

	info.SourceIDs = info.SourceIDs[:0]
	for _, s := range sources {
		info.SourceIDs = append(info.SourceIDs, s.ID)
	}
	// Register one selection predicate per tuple variable.
	for vi := range ct.From {
		fire := predindex.EventMask{AnyOp: true}
		if isAgg {
			// Without an on clause, any operation that turns a group's
			// having true fires: a delete can, by decrementing.
			fire = predindex.EventMask{AllOps: true}
		}
		if vi == eventVar {
			fire, err = maskFromEvent(ct.On, schemas[vi])
			if err != nil {
				return err
			}
		}
		regMask := fire
		if multiVar || isAgg {
			// Alpha memories and aggregate state must see every event on
			// the source.
			regMask = predindex.EventMask{AllOps: true}
		}
		sig, consts, err := expr.ExtractSignature(normalizeVarIdx(selections[vi], vi))
		if err != nil {
			return err
		}
		rest, err := expr.InstantiateCNF(sig.Rest, consts)
		if err != nil {
			return err
		}
		c.nextExprID++
		ref := predindex.Ref{
			ExprID:    c.nextExprID,
			TriggerID: info.ID,
			NextNode:  int32(vi),
			Rest:      rest,
			FireMask:  fire,
			MultiVar:  multiVar,
			Gator:     multiVar && c.useGator,
			Aggregate: isAgg,
		}
		entry, err := c.pidx.AddPredicate(sources[vi].ID, regMask, sig, consts, ref)
		if err != nil {
			c.unregisterLocked(info)
			return err
		}
		info.regs = append(info.regs, predReg{entry: entry, consts: consts, exprID: ref.ExprID})
		if err := c.recordSignatureLocked(entry, sources[vi].ID); err != nil {
			return err
		}
	}
	return nil
}

// normalizeVarIdx rewrites a selection CNF so its column references use
// VarIdx 0 (the predicate index evaluates selections against a single
// token tuple).
func normalizeVarIdx(sel expr.CNF, vi int) expr.CNF {
	out := expr.CNF{Clauses: make([]expr.Clause, len(sel.Clauses))}
	for i, cl := range sel.Clauses {
		atoms := make([]expr.Node, len(cl.Atoms))
		for j, a := range cl.Atoms {
			n := expr.Clone(a)
			expr.Walk(n, func(m expr.Node) bool {
				if ref, ok := m.(*expr.ColumnRef); ok && ref.VarIdx == vi {
					ref.VarIdx = 0
				}
				return true
			})
			atoms[j] = n
		}
		out.Clauses[i] = expr.Clause{Atoms: atoms}
	}
	return out
}

// refersToOld reports whether a clause reads a pre-update image.
func refersToOld(cl expr.Clause) bool {
	old := false
	expr.Walk(cl.Node(), func(n expr.Node) bool {
		if ref, ok := n.(*expr.ColumnRef); ok && ref.Old {
			old = true
		}
		return !old
	})
	return old
}

// varOf finds the (single) bound variable index of a selection group.
func (c *Catalog) varOf(g expr.ConjunctGroup, _ expr.Node) int {
	vi := -1
	expr.Walk(g.Predicate(), func(n expr.Node) bool {
		if ref, ok := n.(*expr.ColumnRef); ok && ref.VarIdx >= 0 {
			vi = ref.VarIdx
			return false
		}
		return true
	})
	return vi
}

// varsOfJoin finds the two bound variable indexes of a join group.
func (c *Catalog) varsOfJoin(g expr.ConjunctGroup) (int, int) {
	a, b := -1, -1
	expr.Walk(g.Predicate(), func(n expr.Node) bool {
		if ref, ok := n.(*expr.ColumnRef); ok && ref.VarIdx >= 0 {
			switch {
			case a == -1:
				a = ref.VarIdx
			case a != ref.VarIdx && b == -1:
				b = ref.VarIdx
			}
		}
		return true
	})
	return a, b
}

// maskFromEvent converts a parsed on clause into an event mask, mapping
// update column names to positions.
func maskFromEvent(es *parser.EventSpec, schema *types.Schema) (predindex.EventMask, error) {
	var m predindex.EventMask
	switch es.Op {
	case parser.OpInsert:
		m.Op = datasource.OpInsert
	case parser.OpDelete:
		m.Op = datasource.OpDelete
	case parser.OpUpdate:
		m.Op = datasource.OpUpdate
		for _, col := range es.Columns {
			ci := schema.ColumnIndex(col)
			if ci < 0 {
				return m, fmt.Errorf("catalog: update event names unknown column %q", col)
			}
			m.Columns = append(m.Columns, ci)
		}
	default:
		m.AnyOp = true
	}
	return m, nil
}

// recordSignatureLocked upserts the expression_signature catalog row for
// a signature entry (§5.1's table of the same name). The row's RID is
// cached so the frequent size/organization refresh is a single in-place
// update rather than a table scan.
func (c *Catalog) recordSignatureLocked(e *predindex.SignatureEntry, srcID int32) error {
	constTable := ""
	if org := e.Organization(); org == predindex.OrgTable || org == predindex.OrgIndexedTable {
		constTable = fmt.Sprintf("const_sig_%d", e.ID)
	}
	row := types.Tuple{
		types.NewInt(int64(e.ID)),
		types.NewInt(int64(srcID)),
		types.NewString(e.Sig.Canonical()),
		types.NewString(constTable),
		types.NewInt(int64(e.Size())),
		types.NewString(e.Organization().String()),
	}
	if rid, ok := c.sigRows[e.ID]; ok {
		nrid, err := c.sigTab.UpdateRow(rid, row)
		if err != nil {
			return err
		}
		c.sigRows[e.ID] = nrid
		return nil
	}
	rid, err := c.sigTab.Insert(row)
	if err != nil {
		return err
	}
	c.sigRows[e.ID] = rid
	return nil
}

// DropTrigger removes a trigger: predicates leave the index, the
// catalog row is deleted, the cache entry invalidated, and any resident
// network released.
func (c *Catalog) DropTrigger(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(name)
	id, ok := c.byName[key]
	if !ok {
		return fmt.Errorf("catalog: unknown trigger %q", name)
	}
	info := c.triggers[id]
	c.unregisterLocked(info)
	if err := c.trigTab.Delete(info.rid); err != nil {
		return err
	}
	delete(c.triggers, id)
	delete(c.byName, key)
	if err := c.tcache.Invalidate(id); err != nil {
		return err
	}
	return nil
}

func (c *Catalog) unregisterLocked(info *TriggerInfo) {
	for _, r := range info.regs {
		// Best effort; a missing registration is not fatal during
		// rollback of a failed create.
		_ = c.pidx.RemovePredicate(r.entry, r.consts, r.exprID)
	}
	info.regs = nil
}
