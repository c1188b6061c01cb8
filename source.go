package triggerman

import (
	"fmt"
	"strings"

	"triggerman/internal/datasource"
	"triggerman/internal/minisql"
	"triggerman/internal/parser"
	"triggerman/internal/storage"
	"triggerman/internal/types"
)

// TableSource is a data source backed by a local table: DML through it
// both updates the table and generates update descriptors, playing the
// role of the paper's automatically-created update-capture triggers
// ("standard Informix triggers are created automatically by TriggerMan
// to capture updates to the table", §3).
type TableSource struct {
	sys *System
	src *datasource.Source
	tab *minisql.Table
}

// StreamSource is a data source with no backing table: an application
// pushes update descriptors directly (the paper's data source API for
// remote databases and generic data source programs).
type StreamSource struct {
	sys *System
	src *datasource.Source
}

// DefineTableSource creates a local table and registers it as a data
// source with update capture.
func (s *System) DefineTableSource(name string, cols ...types.Column) (*TableSource, error) {
	schema, err := types.NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	tab, err := s.db.CreateTable(name, schema)
	if err != nil {
		return nil, err
	}
	src, err := s.cat.DefineDataSource(name, schema)
	if err != nil {
		return nil, err
	}
	return &TableSource{sys: s, src: src, tab: tab}, nil
}

// DefineStreamSource registers a table-less data source.
func (s *System) DefineStreamSource(name string, cols ...types.Column) (*StreamSource, error) {
	schema, err := types.NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	src, err := s.cat.DefineDataSource(name, schema)
	if err != nil {
		return nil, err
	}
	return &StreamSource{sys: s, src: src}, nil
}

// Source returns the underlying data source descriptor.
func (t *TableSource) Source() *datasource.Source { return t.src }

// Table returns the backing table.
func (t *TableSource) Table() *minisql.Table { return t.tab }

// Insert adds a row and captures an insert descriptor.
func (t *TableSource) Insert(tu types.Tuple) error {
	if _, err := t.tab.Insert(tu); err != nil {
		return err
	}
	return t.sys.capture(datasource.Token{SourceID: t.src.ID, Op: datasource.OpInsert, New: tu.Clone()})
}

// Delete removes the first row equal to tu and captures a delete
// descriptor. It fails when no such row exists.
func (t *TableSource) Delete(tu types.Tuple) error {
	var rid storage.RID
	found := false
	err := t.tab.Scan(func(r storage.RID, row types.Tuple) bool {
		if row.Equal(tu) {
			rid, found = r, true
			return false
		}
		return true
	})
	if err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("triggerman: no row %s in %s", tu, t.src.Name)
	}
	if err := t.tab.Delete(rid); err != nil {
		return err
	}
	return t.sys.capture(datasource.Token{SourceID: t.src.ID, Op: datasource.OpDelete, Old: tu.Clone()})
}

// Update replaces the first row equal to old with new and captures an
// update descriptor.
func (t *TableSource) Update(old, new types.Tuple) error {
	var rid storage.RID
	found := false
	err := t.tab.Scan(func(r storage.RID, row types.Tuple) bool {
		if row.Equal(old) {
			rid, found = r, true
			return false
		}
		return true
	})
	if err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("triggerman: no row %s in %s", old, t.src.Name)
	}
	if _, err := t.tab.UpdateRow(rid, new); err != nil {
		return err
	}
	return t.sys.capture(datasource.Token{
		SourceID: t.src.ID, Op: datasource.OpUpdate,
		Old: old.Clone(), New: new.Clone(),
	})
}

// Source returns the underlying data source descriptor.
func (st *StreamSource) Source() *datasource.Source { return st.src }

// Insert pushes an insert descriptor.
func (st *StreamSource) Insert(tu types.Tuple) error {
	return st.sys.capture(datasource.Token{SourceID: st.src.ID, Op: datasource.OpInsert, New: tu.Clone()})
}

// Delete pushes a delete descriptor.
func (st *StreamSource) Delete(tu types.Tuple) error {
	return st.sys.capture(datasource.Token{SourceID: st.src.ID, Op: datasource.OpDelete, Old: tu.Clone()})
}

// Update pushes an update descriptor.
func (st *StreamSource) Update(old, new types.Tuple) error {
	return st.sys.capture(datasource.Token{
		SourceID: st.src.ID, Op: datasource.OpUpdate,
		Old: old.Clone(), New: new.Clone(),
	})
}

// Push delivers a raw token through the data source API.
func (st *StreamSource) Push(tok datasource.Token) error {
	tok.SourceID = st.src.ID
	return st.sys.capture(tok)
}

// command implements System.Command.
func (s *System) command(text string) (string, error) {
	// Dead-letter, metrics, and explain operations are console verbs,
	// not parser statements: intercept them before the command-language
	// parser.
	if fields := strings.Fields(text); len(fields) > 0 {
		switch {
		case strings.EqualFold(fields[0], "deadletter"):
			return s.deadLetterCommand(strings.Join(fields[1:], " "))
		case strings.EqualFold(fields[0], "metrics"):
			return s.MetricsText()
		case strings.EqualFold(fields[0], "explain"):
			// "explain <trigger>" reports one trigger's placement and
			// attributed costs; bare "explain" dumps the signature table.
			if len(fields) == 1 {
				return s.explainIndexText(), nil
			}
			return s.ExplainTrigger(strings.Join(fields[1:], " "))
		}
	}
	st, err := parser.Parse(text)
	if err != nil {
		return "", err
	}
	switch c := st.(type) {
	case *parser.CreateTrigger:
		if err := s.CreateTrigger(text); err != nil {
			return "", err
		}
		return fmt.Sprintf("trigger %s created", c.Name), nil
	case *parser.DropTrigger:
		if err := s.DropTrigger(c.Name); err != nil {
			return "", err
		}
		return fmt.Sprintf("trigger %s dropped", c.Name), nil
	case *parser.CreateTriggerSet:
		if err := s.CreateTriggerSet(c.Name, c.Comments); err != nil {
			return "", err
		}
		return fmt.Sprintf("trigger set %s created", c.Name), nil
	case *parser.DropTriggerSet:
		if err := s.DropTriggerSet(c.Name); err != nil {
			return "", err
		}
		return fmt.Sprintf("trigger set %s dropped", c.Name), nil
	case *parser.SetEnabled:
		var err error
		switch {
		case c.Set && c.Enabled:
			err = s.EnableTriggerSet(c.Name)
		case c.Set:
			err = s.DisableTriggerSet(c.Name)
		case c.Enabled:
			err = s.EnableTrigger(c.Name)
		default:
			err = s.DisableTrigger(c.Name)
		}
		if err != nil {
			return "", err
		}
		return "ok", nil
	case *parser.DefineDataSource:
		if _, err := s.DefineTableSource(c.Name, c.Columns...); err != nil {
			return "", err
		}
		return fmt.Sprintf("data source %s defined", c.Name), nil
	case *parser.Select, *parser.Insert, *parser.Update, *parser.Delete:
		// DML through the command interface is captured: updates to
		// tables registered as data sources generate update descriptors
		// (the paper's automatically-created capture triggers).
		res, err := capturingRunner{s}.ExecParams(st, nil)
		if err != nil {
			return "", err
		}
		if sel, ok := st.(*parser.Select); ok {
			_ = sel
			out := fmt.Sprintf("%v", res.Columns)
			for _, row := range res.Rows {
				out += "\n" + row.String()
			}
			return out, nil
		}
		return fmt.Sprintf("%d row(s) affected", res.Affected), nil
	default:
		return "", fmt.Errorf("triggerman: unsupported command %T", st)
	}
}

// StreamSourceByName wraps an already-defined data source as a
// StreamSource handle (tools re-acquire handles after bulk loading).
func (s *System) StreamSourceByName(name string) (*StreamSource, error) {
	src, ok := s.reg.ByName(name)
	if !ok {
		return nil, fmt.Errorf("triggerman: unknown data source %q", name)
	}
	return &StreamSource{sys: s, src: src}, nil
}

// DataSources lists the registered data source names (internal/cluster
// renders per-source ownership from it).
func (s *System) DataSources() []string { return s.reg.Names() }

// SignatureCountFor reports the number of distinct expression signatures
// registered on a data source.
func (s *System) SignatureCountFor(source string) int {
	src, ok := s.reg.ByName(source)
	if !ok {
		return 0
	}
	return s.pidx.SignatureCount(src.ID)
}
