package predindex

import (
	"fmt"
	"slices"
	"strconv"
	"sync"

	"triggerman/internal/expr"
	"triggerman/internal/intervalskiplist"
	"triggerman/internal/minisql"
	"triggerman/internal/parser"
	"triggerman/internal/storage"
	"triggerman/internal/types"
)

// constantSet stores the constants of one expression signature's
// equivalence class and the triggerID set attached to each constant
// (Figure 4). Implementations are the four organizations of §5.2.
//
// match appends to buf.Matches the refs of constants whose indexable
// part accepts the token tuple (only Match.Ref is filled in); the caller
// tests each ref's rest-of-predicate. part selects one triggerID-set
// partition (-1 = all). The returned count approximates the constant
// comparisons / probes performed.
type constantSet interface {
	add(consts types.Tuple, ref Ref) error
	remove(consts types.Tuple, exprID uint64) (bool, error)
	match(buf *Buffer, tuple types.Tuple, part int) (int, error)
	forEach(fn func(consts types.Tuple, ref Ref) error) error
	repartition(n int) error
	// describe names the concrete predicate-testing structure for
	// introspection (/indexz, explain).
	describe() string
}

// centry is one constant (or constant tuple) with its triggerID set,
// round-robin partitioned per Figure 5.
type centry struct {
	id     uint64
	consts types.Tuple
	eqKey  []byte // set for equality signatures
	parts  [][]Ref
	rr     int // round-robin cursor for partition assignment
}

func (c *centry) addRef(ref Ref) {
	i := c.rr % len(c.parts)
	c.parts[i] = append(c.parts[i], ref)
	c.rr++
}

func (c *centry) removeRef(exprID uint64) bool {
	for pi, p := range c.parts {
		for i, r := range p {
			if r.ExprID == exprID {
				// Delete zeroes the vacated tail, so the dropped ref's
				// predicate is not kept alive by the backing array.
				c.parts[pi] = slices.Delete(p, i, i+1)
				return true
			}
		}
	}
	return false
}

// appendTo appends the selected partition(s) to buf.Matches (every
// partition when part is negative).
func (c *centry) appendTo(buf *Buffer, part int) {
	if part >= 0 {
		buf.appendRefs(c.parts[part%len(c.parts)])
		return
	}
	for _, p := range c.parts {
		buf.appendRefs(p)
	}
}

func (b *Buffer) appendRefs(refs []Ref) {
	for _, r := range refs {
		b.Matches = append(b.Matches, Match{Ref: r})
	}
}

func (c *centry) refCount() int {
	n := 0
	for _, p := range c.parts {
		n += len(p)
	}
	return n
}

func (c *centry) repartition(n int) {
	var all []Ref
	for _, p := range c.parts {
		all = append(all, p...)
	}
	c.parts = make([][]Ref, n)
	c.rr = 0
	for _, r := range all {
		c.addRef(r)
	}
}

// matchesIndexable tests the signature's indexable part for one constant
// entry against a token tuple.
func matchesIndexable(sig *expr.Signature, c *centry, tuple types.Tuple, eqProbe []byte) bool {
	switch sig.Indexability() {
	case expr.IndexEquality:
		return string(c.eqKey) == string(eqProbe)
	case expr.IndexRange:
		v := tuple.Get(sig.RangeCol)
		bound := c.consts[sig.RangeConstNum-1]
		if v.IsNull() {
			return false
		}
		cmp := types.Compare(v, bound)
		switch sig.RangeOp {
		case expr.OpGt:
			return cmp > 0
		case expr.OpGe:
			return cmp >= 0
		case expr.OpLt:
			return cmp < 0
		case expr.OpLe:
			return cmp <= 0
		}
		return false
	default:
		// Nothing indexable: every member is a candidate; rest testing
		// does all the work.
		return true
	}
}

// eqProbeFor encodes the token's equality probe key into the buffer's
// key scratch, which it returns; nil for a non-equality signature.
func eqProbeFor(sig *expr.Signature, tuple types.Tuple, buf *Buffer) []byte {
	if sig.Indexability() != expr.IndexEquality {
		return nil
	}
	key := sig.AppendTokenEqKey(buf.key[:0], tuple)
	buf.key = key
	return key
}

func constKeyFor(sig *expr.Signature, consts types.Tuple) ([]byte, error) {
	if sig.Indexability() != expr.IndexEquality {
		return nil, nil
	}
	key, err := sig.EqKey(consts)
	if err != nil {
		return nil, err
	}
	return types.EncodeKey(nil, key), nil
}

// --- organization 1: main-memory list ---

type memList struct {
	sig     *expr.Signature
	entries []*centry
	// dedup accelerates add/remove only; match costs stay linear, which
	// is the point of the list organization.
	dedup  map[string]*centry
	nextID uint64
	nparts int
}

func newMemList(sig *expr.Signature) *memList {
	return &memList{sig: sig, nparts: 1, dedup: make(map[string]*centry)}
}

func (m *memList) add(consts types.Tuple, ref Ref) error {
	ck := constTupleKey(consts)
	c, ok := m.dedup[ck]
	if !ok {
		key, err := constKeyFor(m.sig, consts)
		if err != nil {
			return err
		}
		m.nextID++
		c = &centry{id: m.nextID, consts: consts.Clone(), eqKey: key, parts: make([][]Ref, m.nparts)}
		m.entries = append(m.entries, c)
		m.dedup[ck] = c
	}
	c.addRef(ref)
	return nil
}

func (m *memList) remove(consts types.Tuple, exprID uint64) (bool, error) {
	ck := constTupleKey(consts)
	c, ok := m.dedup[ck]
	if !ok || !c.removeRef(exprID) {
		return false, nil
	}
	if c.refCount() == 0 {
		for i, pc := range m.entries {
			if pc == c {
				m.entries = slices.Delete(m.entries, i, i+1)
				break
			}
		}
		delete(m.dedup, ck)
	}
	return true, nil
}

func (m *memList) match(buf *Buffer, tuple types.Tuple, part int) (int, error) {
	eqp := eqProbeFor(m.sig, tuple, buf)
	for _, c := range m.entries {
		if matchesIndexable(m.sig, c, tuple, eqp) {
			c.appendTo(buf, part)
		}
	}
	return len(m.entries), nil
}

func (m *memList) forEach(fn func(types.Tuple, Ref) error) error {
	for _, c := range m.entries {
		for _, p := range c.parts {
			for _, r := range p {
				if err := fn(c.consts, r); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (m *memList) repartition(n int) error {
	m.nparts = n
	for _, c := range m.entries {
		c.repartition(n)
	}
	return nil
}

func (m *memList) describe() string {
	return fmt.Sprintf("linear list, %d constant(s)", len(m.entries))
}

// --- organization 2: main-memory index ---

// memIndex uses a hash table for equality signatures, an interval skip
// list for range signatures, and degrades to a list for non-indexable
// signatures (no index can help them).
type memIndex struct {
	sig     *expr.Signature
	byKey   map[string]*centry // equality
	isl     *intervalskiplist.List
	byID    map[uint64]*centry // interval ID -> entry
	byConst map[string]*centry // encoded constant tuple -> entry (range/plain)
	plain   []*centry          // non-indexable
	nextID  uint64
	nparts  int
}

func newMemIndex(sig *expr.Signature) *memIndex {
	m := &memIndex{
		sig:     sig,
		nparts:  1,
		byID:    make(map[uint64]*centry),
		byConst: make(map[string]*centry),
	}
	switch sig.Indexability() {
	case expr.IndexEquality:
		m.byKey = make(map[string]*centry)
	case expr.IndexRange:
		m.isl = intervalskiplist.New(0x7a6e)
	}
	return m
}

func constTupleKey(consts types.Tuple) string {
	return string(types.EncodeKey(nil, consts))
}

func (m *memIndex) intervalFor(id uint64, bound types.Value) intervalskiplist.Interval {
	switch m.sig.RangeOp {
	case expr.OpGt:
		return intervalskiplist.Gt(id, bound)
	case expr.OpGe:
		return intervalskiplist.Ge(id, bound)
	case expr.OpLt:
		return intervalskiplist.Lt(id, bound)
	default:
		return intervalskiplist.Le(id, bound)
	}
}

func (m *memIndex) add(consts types.Tuple, ref Ref) error {
	switch m.sig.Indexability() {
	case expr.IndexEquality:
		key, err := constKeyFor(m.sig, consts)
		if err != nil {
			return err
		}
		c, ok := m.byKey[string(key)]
		if !ok {
			m.nextID++
			c = &centry{id: m.nextID, consts: consts.Clone(), eqKey: key, parts: make([][]Ref, m.nparts)}
			m.byKey[string(key)] = c
		}
		c.addRef(ref)
		return nil
	case expr.IndexRange:
		bound := consts[m.sig.RangeConstNum-1]
		ck := constTupleKey(consts)
		if c, ok := m.byConst[ck]; ok {
			c.addRef(ref)
			return nil
		}
		m.nextID++
		c := &centry{id: m.nextID, consts: consts.Clone(), parts: make([][]Ref, m.nparts)}
		c.addRef(ref)
		if err := m.isl.Insert(m.intervalFor(c.id, bound)); err != nil {
			return err
		}
		m.byID[c.id] = c
		m.byConst[ck] = c
		return nil
	default:
		ck := constTupleKey(consts)
		if c, ok := m.byConst[ck]; ok {
			c.addRef(ref)
			return nil
		}
		m.nextID++
		c := &centry{id: m.nextID, consts: consts.Clone(), parts: make([][]Ref, m.nparts)}
		c.addRef(ref)
		m.plain = append(m.plain, c)
		m.byConst[ck] = c
		return nil
	}
}

func (m *memIndex) remove(consts types.Tuple, exprID uint64) (bool, error) {
	switch m.sig.Indexability() {
	case expr.IndexEquality:
		key, err := constKeyFor(m.sig, consts)
		if err != nil {
			return false, err
		}
		c, ok := m.byKey[string(key)]
		if !ok || !c.removeRef(exprID) {
			return false, nil
		}
		if c.refCount() == 0 {
			delete(m.byKey, string(key))
		}
		return true, nil
	case expr.IndexRange:
		ck := constTupleKey(consts)
		c, ok := m.byConst[ck]
		if !ok || !c.removeRef(exprID) {
			return false, nil
		}
		if c.refCount() == 0 {
			bound := c.consts[m.sig.RangeConstNum-1]
			m.isl.Delete(m.intervalFor(c.id, bound))
			delete(m.byID, c.id)
			delete(m.byConst, ck)
		}
		return true, nil
	default:
		ck := constTupleKey(consts)
		c, ok := m.byConst[ck]
		if !ok || !c.removeRef(exprID) {
			return false, nil
		}
		if c.refCount() == 0 {
			for i, pc := range m.plain {
				if pc == c {
					m.plain = slices.Delete(m.plain, i, i+1)
					break
				}
			}
			delete(m.byConst, ck)
		}
		return true, nil
	}
}

func (m *memIndex) match(buf *Buffer, tuple types.Tuple, part int) (int, error) {
	switch m.sig.Indexability() {
	case expr.IndexEquality:
		eqp := eqProbeFor(m.sig, tuple, buf)
		if c, ok := m.byKey[string(eqp)]; ok {
			c.appendTo(buf, part)
		}
		return 1, nil
	case expr.IndexRange:
		v := tuple.Get(m.sig.RangeCol)
		if v.IsNull() {
			return 0, nil
		}
		compares := 0
		m.isl.Stab(v, func(iv intervalskiplist.Interval) bool {
			compares++
			if c, ok := m.byID[iv.ID]; ok {
				c.appendTo(buf, part)
			}
			return true
		})
		if compares == 0 {
			compares = 1
		}
		return compares, nil
	default:
		for _, c := range m.plain {
			c.appendTo(buf, part)
		}
		return len(m.plain), nil
	}
}

func (m *memIndex) forEach(fn func(types.Tuple, Ref) error) error {
	visit := func(c *centry) error {
		for _, p := range c.parts {
			for _, r := range p {
				if err := fn(c.consts, r); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for _, c := range m.byKey {
		if err := visit(c); err != nil {
			return err
		}
	}
	for _, c := range m.byID {
		if err := visit(c); err != nil {
			return err
		}
	}
	for _, c := range m.plain {
		if err := visit(c); err != nil {
			return err
		}
	}
	return nil
}

func (m *memIndex) repartition(n int) error {
	m.nparts = n
	for _, c := range m.byKey {
		c.repartition(n)
	}
	for _, c := range m.byID {
		c.repartition(n)
	}
	for _, c := range m.plain {
		c.repartition(n)
	}
	return nil
}

func (m *memIndex) describe() string {
	switch m.sig.Indexability() {
	case expr.IndexEquality:
		return fmt.Sprintf("hash table, %d constant(s)", len(m.byKey))
	case expr.IndexRange:
		return fmt.Sprintf("interval skip list, %d interval(s)", len(m.byID))
	default:
		return fmt.Sprintf("non-indexable scan list, %d constant(s)", len(m.plain))
	}
}

// --- organizations 3 and 4: database constant tables ---

// tableSet stores the class in a real table, const_sig_<N>, with the
// paper's schema: exprID, triggerID, nextNetworkNode, const1..constK,
// restOfPredicate (§5.1). Organization 4 adds a clustered index on the
// indexable constant columns; organization 3 scans.
type tableSet struct {
	sig     *expr.Signature
	db      *minisql.DB
	schema  *types.Schema // data source schema, for binding rest text
	name    string
	indexed bool
	created bool
	nparts  int

	mu        sync.Mutex
	restCache map[uint64]expr.CNF
}

func newTableSet(db *minisql.DB, e *SignatureEntry, srcSchema *types.Schema, indexed bool) (*tableSet, error) {
	return &tableSet{
		sig:       e.Sig,
		db:        db,
		schema:    srcSchema,
		name:      fmt.Sprintf("const_sig_%d", e.ID),
		indexed:   indexed,
		nparts:    1,
		restCache: make(map[uint64]expr.CNF),
	}, nil
}

func constCol(i int) string { return "const" + strconv.Itoa(i+1) }

// ensureTable lazily creates const_sig_N once constant kinds are known.
func (ts *tableSet) ensureTable(consts types.Tuple) (*minisql.Table, error) {
	if ts.created {
		return ts.db.Table(ts.name)
	}
	cols := []types.Column{
		{Name: "exprid", Kind: types.KindInt},
		{Name: "triggerid", Kind: types.KindInt},
		{Name: "nextnode", Kind: types.KindInt},
		{Name: "firemask", Kind: types.KindVarchar},
		{Name: "multivar", Kind: types.KindInt},
		{Name: "gator", Kind: types.KindInt},
		{Name: "aggr", Kind: types.KindInt},
	}
	for i, v := range consts {
		kind := v.Kind()
		if kind == types.KindNull {
			kind = types.KindVarchar
		}
		cols = append(cols, types.Column{Name: constCol(i), Kind: kind})
	}
	cols = append(cols, types.Column{Name: "restofpredicate", Kind: types.KindVarchar})
	schema, err := types.NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	tab, err := ts.db.CreateTable(ts.name, schema)
	if err != nil {
		return nil, err
	}
	if ts.indexed {
		var keyCols []string
		switch ts.sig.Indexability() {
		case expr.IndexEquality:
			for _, num := range ts.sig.EqConstNums {
				keyCols = append(keyCols, constCol(num-1))
			}
		case expr.IndexRange:
			keyCols = []string{constCol(ts.sig.RangeConstNum - 1)}
		}
		if len(keyCols) > 0 {
			if _, err := tab.CreateIndex(ts.name+"_cidx", keyCols...); err != nil {
				return nil, err
			}
		}
	}
	ts.created = true
	return tab, nil
}

func (ts *tableSet) add(consts types.Tuple, ref Ref) error {
	tab, err := ts.ensureTable(consts)
	if err != nil {
		return err
	}
	mv, gt, ag := int64(0), int64(0), int64(0)
	if ref.MultiVar {
		mv = 1
	}
	if ref.Gator {
		gt = 1
	}
	if ref.Aggregate {
		ag = 1
	}
	row := make(types.Tuple, 0, 8+len(consts))
	row = append(row,
		types.NewInt(int64(ref.ExprID)),
		types.NewInt(int64(ref.TriggerID)),
		types.NewInt(int64(ref.NextNode)),
		types.NewString(ref.FireMask.Encode()),
		types.NewInt(mv),
		types.NewInt(gt),
		types.NewInt(ag),
	)
	row = append(row, consts...)
	row = append(row, types.NewString(restToText(ref.Rest)))
	_, err = tab.Insert(row)
	return err
}

func (ts *tableSet) remove(consts types.Tuple, exprID uint64) (bool, error) {
	if !ts.created {
		return false, nil
	}
	res, err := ts.db.ExecStmt(&parser.Delete{
		Table: ts.name,
		Where: expr.Cmp(expr.OpEq, expr.Col("", "exprid"), expr.Int(int64(exprID))),
	})
	if err != nil {
		return false, err
	}
	ts.mu.Lock()
	delete(ts.restCache, exprID)
	ts.mu.Unlock()
	return res.Affected > 0, nil
}

// whereFor builds the WHERE clause probing the constant table for a
// token tuple ("queried as needed, using the SQL query processor").
func (ts *tableSet) whereFor(tuple types.Tuple) expr.Node {
	switch ts.sig.Indexability() {
	case expr.IndexEquality:
		var where expr.Node
		for i, col := range ts.sig.EqCols {
			num := ts.sig.EqConstNums[i]
			atom := expr.Cmp(expr.OpEq,
				expr.Col("", constCol(num-1)),
				expr.Lit(tuple.Get(col)))
			where = expr.And(where, atom)
		}
		return where
	case expr.IndexRange:
		v := tuple.Get(ts.sig.RangeCol)
		// Predicate value OP constant holds iff constant FLIP(OP) value.
		var op expr.Op
		switch ts.sig.RangeOp {
		case expr.OpGt:
			op = expr.OpLt
		case expr.OpGe:
			op = expr.OpLe
		case expr.OpLt:
			op = expr.OpGt
		default:
			op = expr.OpGe
		}
		return expr.Cmp(op, expr.Col("", constCol(ts.sig.RangeConstNum-1)), expr.Lit(v))
	default:
		return nil
	}
}

func (ts *tableSet) match(buf *Buffer, tuple types.Tuple, part int) (int, error) {
	if !ts.created {
		return 0, nil
	}
	sel := &parser.Select{
		Items: []parser.SelectItem{{Star: true}},
		Table: ts.name,
		Where: ts.whereFor(tuple),
	}
	res, err := ts.db.ExecStmt(sel)
	if err != nil {
		return 0, err
	}
	compares := len(res.Rows)
	if res.IndexUsed == "" {
		// Scanned: the whole class was compared.
		if tab, terr := ts.db.Table(ts.name); terr == nil {
			compares = tab.Count()
		}
	}
	for _, row := range res.Rows {
		ref, derr := ts.refFromRow(row)
		if derr != nil {
			return compares, derr
		}
		if part >= 0 && int(ref.ExprID)%ts.nparts != part%ts.nparts {
			continue
		}
		buf.Matches = append(buf.Matches, Match{Ref: ref})
	}
	return compares, nil
}

func (ts *tableSet) refFromRow(row types.Tuple) (Ref, error) {
	mask, err := DecodeEventMask(row[3].Str())
	if err != nil {
		return Ref{}, err
	}
	ref := Ref{
		ExprID:    uint64(row[0].Int()),
		TriggerID: uint64(row[1].Int()),
		NextNode:  int32(row[2].Int()),
		FireMask:  mask,
		MultiVar:  row[4].Int() != 0,
		Gator:     row[5].Int() != 0,
		Aggregate: row[6].Int() != 0,
	}
	restText := row[len(row)-1].Str()
	if restText == "" {
		return ref, nil
	}
	ts.mu.Lock()
	cached, ok := ts.restCache[ref.ExprID]
	ts.mu.Unlock()
	if ok {
		ref.Rest = cached
		return ref, nil
	}
	rest, err := restFromText(restText, ts.schema)
	if err != nil {
		return ref, fmt.Errorf("predindex: bad stored rest predicate %q: %w", restText, err)
	}
	ts.mu.Lock()
	ts.restCache[ref.ExprID] = rest
	ts.mu.Unlock()
	ref.Rest = rest
	return ref, nil
}

func (ts *tableSet) forEach(fn func(types.Tuple, Ref) error) error {
	if !ts.created {
		return nil
	}
	tab, err := ts.db.Table(ts.name)
	if err != nil {
		return err
	}
	var ferr error
	serr := tab.Scan(func(_ storage.RID, row types.Tuple) bool {
		ref, derr := ts.refFromRow(row)
		if derr != nil {
			ferr = derr
			return false
		}
		consts := row[7 : len(row)-1].Clone()
		if err := fn(consts, ref); err != nil {
			ferr = err
			return false
		}
		return true
	})
	if serr != nil {
		return serr
	}
	return ferr
}

func (ts *tableSet) repartition(n int) error {
	ts.nparts = n
	return nil
}

func (ts *tableSet) describe() string {
	if ts.indexed {
		return fmt.Sprintf("table %s with clustered index %s_cidx", ts.name, ts.name)
	}
	return fmt.Sprintf("table %s, sequential scan", ts.name)
}

// restToText serializes an instantiated rest-of-predicate for the
// restOfPredicate column. Column references are stripped of their
// tuple-variable qualifier so the text re-binds against the data source
// schema alone.
func restToText(rest expr.CNF) string {
	if len(rest.Clauses) == 0 {
		return ""
	}
	node := expr.Clone(rest.Node())
	expr.Walk(node, func(n expr.Node) bool {
		if c, ok := n.(*expr.ColumnRef); ok {
			c.Var = ""
		}
		return true
	})
	return node.String()
}

// restFromText parses and binds a stored rest predicate.
func restFromText(text string, schema *types.Schema) (expr.CNF, error) {
	node, err := parser.ParseExpr(text)
	if err != nil {
		return expr.CNF{}, err
	}
	b := &expr.Binder{
		VarIndex:   map[string]int{},
		DefaultVar: 0,
		ColumnIndex: func(_ int, col string) int {
			if schema == nil {
				return -1
			}
			return schema.ColumnIndex(col)
		},
	}
	// Old-image refs keep a var name of "old" textual form; strip any
	// qualifier uniformly.
	expr.Walk(node, func(n expr.Node) bool {
		if c, ok := n.(*expr.ColumnRef); ok {
			c.Var = ""
		}
		return true
	})
	if err := b.Bind(node); err != nil {
		return expr.CNF{}, err
	}
	return expr.ToCNF(node)
}
