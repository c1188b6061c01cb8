package parser

import (
	"fmt"

	"triggerman/internal/expr"
)

// WalkAction calls fn on every expression of an action — a raise
// event's arguments, or each expression of an execSQL statement —
// stopping at the first error. It copies nothing, so fn may resolve the
// references it finds in place.
func WalkAction(action Action, fn func(expr.Node) error) error {
	visit := func(nodes ...expr.Node) error {
		for _, n := range nodes {
			if n == nil {
				continue
			}
			if err := fn(n); err != nil {
				return err
			}
		}
		return nil
	}
	switch a := action.(type) {
	case *RaiseEvent:
		return visit(a.Args...)
	case *ExecSQL:
		switch s := a.Stmt.(type) {
		case *Select:
			for _, it := range s.Items {
				if err := visit(it.Expr); err != nil {
					return err
				}
			}
			return visit(s.Where)
		case *Insert:
			return visit(s.Values...)
		case *Update:
			for _, sc := range s.Sets {
				if err := visit(sc.Value); err != nil {
					return err
				}
			}
			return visit(s.Where)
		case *Delete:
			return visit(s.Where)
		}
	}
	return nil
}

// MapStatement returns a copy of a select, insert, update or delete in
// which every expression e is fn(e); nil expressions (an absent where
// clause, a star item) are not shown to fn.
func MapStatement(st Statement, fn func(expr.Node) (expr.Node, error)) (Statement, error) {
	apply := func(n expr.Node) (expr.Node, error) {
		if n == nil {
			return nil, nil
		}
		return fn(n)
	}
	var err error
	switch s := st.(type) {
	case *Select:
		out := &Select{Table: s.Table, Items: make([]SelectItem, len(s.Items))}
		for i, it := range s.Items {
			out.Items[i] = it
			if out.Items[i].Expr, err = apply(it.Expr); err != nil {
				return nil, err
			}
		}
		if out.Where, err = apply(s.Where); err != nil {
			return nil, err
		}
		return out, nil
	case *Insert:
		out := &Insert{Table: s.Table, Columns: s.Columns, Values: make([]expr.Node, len(s.Values))}
		for i, v := range s.Values {
			if out.Values[i], err = apply(v); err != nil {
				return nil, err
			}
		}
		return out, nil
	case *Update:
		out := &Update{Table: s.Table, Sets: make([]SetClause, len(s.Sets))}
		for i, sc := range s.Sets {
			out.Sets[i].Column = sc.Column
			if out.Sets[i].Value, err = apply(sc.Value); err != nil {
				return nil, err
			}
		}
		if out.Where, err = apply(s.Where); err != nil {
			return nil, err
		}
		return out, nil
	case *Delete:
		out := &Delete{Table: s.Table}
		if out.Where, err = apply(s.Where); err != nil {
			return nil, err
		}
		return out, nil
	default:
		return nil, fmt.Errorf("parser: %T holds no expressions to map", st)
	}
}
