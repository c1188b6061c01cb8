package minisql

import (
	"bytes"
	"fmt"
	"strings"

	"triggerman/internal/expr"
	"triggerman/internal/parser"
	"triggerman/internal/storage"
	"triggerman/internal/types"
)

// Result is the outcome of a statement execution.
type Result struct {
	// Columns names the select projection (empty for DML).
	Columns []string
	// Rows holds select output.
	Rows []types.Tuple
	// Affected counts rows touched by insert/update/delete.
	Affected int
	// IndexUsed names the index chosen by the planner, if any.
	IndexUsed string
	// Table names the DML target (empty for select).
	Table string
	// Changes lists the row images touched by DML, in order, for update
	// capture: insert sets New, delete sets Old, update sets both.
	Changes []RowChange
}

// RowChange is one captured row mutation.
type RowChange struct {
	Old, New types.Tuple
}

// Exec parses and executes a statement string.
func (db *DB) Exec(sql string) (*Result, error) {
	st, err := parser.Parse(sql)
	if err != nil {
		return nil, err
	}
	return db.ExecStmt(st)
}

// ExecStmt executes a pre-parsed statement that holds no :NEW/:OLD
// parameter references. Its column references must resolve against the
// target table.
func (db *DB) ExecStmt(st parser.Statement) (*Result, error) {
	return db.ExecParams(st, nil)
}

// ExecParams executes a pre-parsed statement whose :NEW/:OLD parameter
// references take their values from params (the exec package's view of
// one firing: the paper's macro substitution, done by reading the slot
// the reference was resolved to instead of by rewriting the statement).
// The statement is shared between firings and is not written to: a
// value expression is evaluated where it stands, and an expression that
// must be bound to the table's columns (a where clause, a set value, a
// select item) is copied once, with its parameters as constants so the
// planner can use them. Every other column reference must resolve
// against the target table.
func (db *DB) ExecParams(st parser.Statement, params expr.Env) (*Result, error) {
	switch s := st.(type) {
	case *parser.Select:
		return db.execSelect(s, params)
	case *parser.Insert:
		return db.execInsert(s, params)
	case *parser.Update:
		return db.execUpdate(s, params)
	case *parser.Delete:
		return db.execDelete(s, params)
	default:
		return nil, fmt.Errorf("minisql: unsupported statement %T", st)
	}
}

// noParams is the environment of a statement executed without
// parameters: every tuple variable reads NULL.
var noParams expr.Env = expr.SingleEnv{}

// bound returns a copy of n that the executor may evaluate per row:
// parameters replaced by their values under params, column references
// resolved against the table's schema.
func bound(t *Table, n expr.Node, params expr.Env) (expr.Node, error) {
	c, err := expr.BindParams(n, params)
	if err != nil {
		return nil, err
	}
	return c, bindTo(t, c)
}

// bindTo resolves column refs in n against the table's schema. The
// table name (or nothing) is the only legal qualifier.
func bindTo(t *Table, n expr.Node) error {
	if n == nil {
		return nil
	}
	b := &expr.Binder{
		VarIndex:   map[string]int{strings.ToLower(t.Name): 0},
		DefaultVar: 0,
		ColumnIndex: func(_ int, col string) int {
			return t.Schema.ColumnIndex(col)
		},
	}
	return b.Bind(n)
}

func rowEnv(tu types.Tuple) expr.Env { return expr.SingleEnv{New: tu} }

// plan describes how a WHERE clause will locate rows.
type plan struct {
	index *Index
	// eqKey, when set, is an exact composite key probe.
	eqKey []byte
	// lo/hi bound a single-column range scan on index.Columns[0];
	// nil end means unbounded. loStrict/hiStrict exclude the endpoint.
	lo, hi             *types.Value
	loStrict, hiStrict bool
}

// choosePlan looks for an index that can serve the WHERE clause: first a
// full composite equality match, then a single-column range.
func (t *Table) choosePlan(where expr.Node) *plan {
	if where == nil {
		return nil
	}
	cnf, err := expr.ToCNF(where)
	if err != nil {
		return nil
	}
	// Equality atoms col -> value.
	eq := map[int]types.Value{}
	type rng struct {
		val types.Value
		op  expr.Op
	}
	ranges := map[int][]rng{}
	for _, cl := range cnf.Clauses {
		if len(cl.Atoms) != 1 {
			continue
		}
		b, ok := cl.Atoms[0].(*expr.Binary)
		if !ok || !b.Op.IsComparison() {
			continue
		}
		col, val, op, ok := colConst(b)
		if !ok {
			continue
		}
		if op == expr.OpEq {
			eq[col] = val
		} else {
			ranges[col] = append(ranges[col], rng{val, op})
		}
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	// Full composite equality.
	for _, ix := range t.indexes {
		key := make(types.Tuple, 0, len(ix.Columns))
		ok := true
		for _, c := range ix.Columns {
			v, has := eq[c]
			if !has {
				ok = false
				break
			}
			key = append(key, v)
		}
		if ok {
			return &plan{index: ix, eqKey: types.EncodeKey(nil, key)}
		}
	}
	// Single-column range on an index prefix.
	for _, ix := range t.indexes {
		c := ix.Columns[0]
		rs := ranges[c]
		if len(rs) == 0 {
			continue
		}
		p := &plan{index: ix}
		for _, r := range rs {
			v := r.val
			switch r.op {
			case expr.OpGt:
				if p.lo == nil || types.Compare(v, *p.lo) > 0 {
					p.lo, p.loStrict = &v, true
				}
			case expr.OpGe:
				if p.lo == nil || types.Compare(v, *p.lo) > 0 {
					p.lo, p.loStrict = &v, false
				}
			case expr.OpLt:
				if p.hi == nil || types.Compare(v, *p.hi) < 0 {
					p.hi, p.hiStrict = &v, true
				}
			case expr.OpLe:
				if p.hi == nil || types.Compare(v, *p.hi) < 0 {
					p.hi, p.hiStrict = &v, false
				}
			}
		}
		if p.lo != nil || p.hi != nil {
			return p
		}
	}
	return nil
}

// colConst recognizes column-vs-constant comparisons, normalizing the
// column to the left.
func colConst(b *expr.Binary) (col int, val types.Value, op expr.Op, ok bool) {
	if c, isCol := b.Left.(*expr.ColumnRef); isCol && !c.Old && c.ColIdx >= 0 {
		if k, isConst := b.Right.(*expr.Const); isConst {
			return c.ColIdx, k.Val, b.Op, true
		}
	}
	if c, isCol := b.Right.(*expr.ColumnRef); isCol && !c.Old && c.ColIdx >= 0 {
		if k, isConst := b.Left.(*expr.Const); isConst {
			switch b.Op {
			case expr.OpLt:
				return c.ColIdx, k.Val, expr.OpGt, true
			case expr.OpLe:
				return c.ColIdx, k.Val, expr.OpGe, true
			case expr.OpGt:
				return c.ColIdx, k.Val, expr.OpLt, true
			case expr.OpGe:
				return c.ColIdx, k.Val, expr.OpLe, true
			case expr.OpEq, expr.OpNe:
				return c.ColIdx, k.Val, b.Op, true
			}
		}
	}
	return 0, types.Value{}, 0, false
}

// matchingRIDs runs the plan (or a full scan when plan is nil), calling
// fn for candidate rows; the WHERE clause is re-checked by the caller.
func (t *Table) candidates(p *plan, fn func(rid storage.RID, tu types.Tuple) bool) error {
	if p == nil {
		return t.Scan(fn)
	}
	if p.eqKey != nil {
		vals, err := p.index.tree.Lookup(p.eqKey)
		if err != nil {
			return err
		}
		for _, v := range vals {
			rid := storage.UnpackRID(v)
			tu, err := t.Get(rid)
			if err != nil {
				// Row vanished between index and heap (no MVCC); skip.
				continue
			}
			if !fn(rid, tu) {
				return nil
			}
		}
		return nil
	}
	// Range scan.
	var start []byte
	if p.lo != nil {
		start = types.EncodeKey(nil, types.Tuple{*p.lo})
		if p.loStrict {
			// Successor of all keys with this prefix: append 0xFF guard.
			start = append(start, 0xFF)
		}
	}
	var hiKey []byte
	if p.hi != nil {
		hiKey = types.EncodeKey(nil, types.Tuple{*p.hi})
	}
	var ierr error
	err := p.index.tree.Scan(start, func(k []byte, v uint64) bool {
		if hiKey != nil {
			c := bytes.Compare(truncateTo(k, hiKey), hiKey)
			if c > 0 || (c == 0 && p.hiStrict) {
				return false
			}
		}
		rid := storage.UnpackRID(v)
		tu, err := t.Get(rid)
		if err != nil {
			return true
		}
		if ierr != nil {
			return false
		}
		return fn(rid, tu)
	})
	if err != nil {
		return err
	}
	return ierr
}

// truncateTo cuts k to at most the length of bound for prefix compare
// (composite index keys extend past the single-column bound).
func truncateTo(k, bound []byte) []byte {
	if len(k) > len(bound) {
		return k[:len(bound)]
	}
	return k
}

func (db *DB) execSelect(s *parser.Select, params expr.Env) (*Result, error) {
	t, err := db.Table(s.Table)
	if err != nil {
		return nil, err
	}
	where, err := bound(t, s.Where, params)
	if err != nil {
		return nil, err
	}
	// Projection setup.
	var cols []string
	var exprs []expr.Node
	for _, item := range s.Items {
		if item.Star {
			for i, c := range t.Schema.Columns {
				cols = append(cols, c.Name)
				exprs = append(exprs, &expr.ColumnRef{Column: c.Name, VarIdx: 0, ColIdx: i})
			}
			continue
		}
		e, err := bound(t, item.Expr, params)
		if err != nil {
			return nil, err
		}
		name := item.Alias
		if name == "" {
			name = e.String()
		}
		cols = append(cols, name)
		exprs = append(exprs, e)
	}
	res := &Result{Columns: cols}
	pl := t.choosePlan(where)
	if pl != nil {
		res.IndexUsed = pl.index.Name
	}
	var eerr error
	err = t.candidates(pl, func(rid storage.RID, tu types.Tuple) bool {
		env := rowEnv(tu)
		if where != nil {
			ok, werr := expr.EvalPredicate(where, env)
			if werr != nil {
				eerr = werr
				return false
			}
			if ok != expr.True {
				return true
			}
		}
		row := make(types.Tuple, len(exprs))
		for i, e := range exprs {
			v, verr := expr.EvalScalar(e, env)
			if verr != nil {
				eerr = verr
				return false
			}
			row[i] = v
		}
		res.Rows = append(res.Rows, row)
		return true
	})
	if err != nil {
		return nil, err
	}
	if eerr != nil {
		return nil, eerr
	}
	return res, nil
}

func (db *DB) execInsert(s *parser.Insert, params expr.Env) (*Result, error) {
	t, err := db.Table(s.Table)
	if err != nil {
		return nil, err
	}
	if params == nil {
		params = noParams
	}
	// The row is handed to the table and to the caller's change list: it
	// owns its memory.
	tu := make(types.Tuple, t.Schema.Arity())
	for i, ve := range s.Values {
		// Value expressions may not reference table columns.
		v, err := expr.EvalScalar(ve, params)
		if err != nil {
			return nil, fmt.Errorf("minisql: insert value %d: %w", i+1, err)
		}
		pos := i
		if len(s.Columns) > 0 {
			pos = t.Schema.ColumnIndex(s.Columns[i])
			if pos < 0 {
				return nil, fmt.Errorf("minisql: unknown column %q in insert", s.Columns[i])
			}
		}
		if pos >= len(tu) {
			return nil, fmt.Errorf("minisql: insert supplies %d values but %s has %d columns",
				len(s.Values), t.Name, t.Schema.Arity())
		}
		tu[pos] = v
	}
	if _, err := t.Insert(tu); err != nil {
		return nil, err
	}
	return &Result{Affected: 1, Table: t.Name, Changes: []RowChange{{New: tu}}}, nil
}

func (db *DB) execUpdate(s *parser.Update, params expr.Env) (*Result, error) {
	t, err := db.Table(s.Table)
	if err != nil {
		return nil, err
	}
	where, err := bound(t, s.Where, params)
	if err != nil {
		return nil, err
	}
	type setc struct {
		col int
		e   expr.Node
	}
	var sets []setc
	for _, sc := range s.Sets {
		col := t.Schema.ColumnIndex(sc.Column)
		if col < 0 {
			return nil, fmt.Errorf("minisql: unknown column %q in update", sc.Column)
		}
		e, err := bound(t, sc.Value, params)
		if err != nil {
			return nil, err
		}
		sets = append(sets, setc{col, e})
	}
	// Collect matches first (mutating while scanning an index we may be
	// updating would invalidate the iteration).
	pl := t.choosePlan(where)
	type match struct {
		rid storage.RID
		tu  types.Tuple
	}
	var matches []match
	var eerr error
	err = t.candidates(pl, func(rid storage.RID, tu types.Tuple) bool {
		if where != nil {
			ok, werr := expr.EvalPredicate(where, rowEnv(tu))
			if werr != nil {
				eerr = werr
				return false
			}
			if ok != expr.True {
				return true
			}
		}
		matches = append(matches, match{rid, tu.Clone()})
		return true
	})
	if err != nil {
		return nil, err
	}
	if eerr != nil {
		return nil, eerr
	}
	res := &Result{Table: t.Name}
	if pl != nil {
		res.IndexUsed = pl.index.Name
	}
	for _, m := range matches {
		env := rowEnv(m.tu)
		nt := m.tu.Clone()
		for _, sc := range sets {
			v, verr := expr.EvalScalar(sc.e, env)
			if verr != nil {
				return nil, verr
			}
			nt[sc.col] = v
		}
		if _, err := t.UpdateRow(m.rid, nt); err != nil {
			return nil, err
		}
		res.Affected++
		res.Changes = append(res.Changes, RowChange{Old: m.tu, New: nt})
	}
	return res, nil
}

func (db *DB) execDelete(s *parser.Delete, params expr.Env) (*Result, error) {
	t, err := db.Table(s.Table)
	if err != nil {
		return nil, err
	}
	where, err := bound(t, s.Where, params)
	if err != nil {
		return nil, err
	}
	pl := t.choosePlan(where)
	var rids []storage.RID
	var eerr error
	err = t.candidates(pl, func(rid storage.RID, tu types.Tuple) bool {
		if where != nil {
			ok, werr := expr.EvalPredicate(where, rowEnv(tu))
			if werr != nil {
				eerr = werr
				return false
			}
			if ok != expr.True {
				return true
			}
		}
		rids = append(rids, rid)
		return true
	})
	if err != nil {
		return nil, err
	}
	if eerr != nil {
		return nil, eerr
	}
	res := &Result{Table: t.Name}
	if pl != nil {
		res.IndexUsed = pl.index.Name
	}
	for _, rid := range rids {
		old, gerr := t.Get(rid)
		if gerr != nil {
			return nil, gerr
		}
		if err := t.Delete(rid); err != nil {
			return nil, err
		}
		res.Affected++
		res.Changes = append(res.Changes, RowChange{Old: old})
	}
	return res, nil
}
