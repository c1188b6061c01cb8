package triggerman

import (
	"fmt"
	"strings"
	"testing"

	"triggerman/internal/agg"
	"triggerman/internal/datasource"
	"triggerman/internal/exec"
	"triggerman/internal/expr"
	"triggerman/internal/minisql"
	"triggerman/internal/parser"
	"triggerman/internal/types"
)

// TestCompiledActionsEqualMacroSubstitution runs every action shape two
// ways on identical systems and compares everything that leaves the
// action. The reference is the paper's macro substitution spelled out:
// an aggregate trigger's values written into the trigger's text in
// place of its aggregate calls before it is parsed, the action as
// parsed, every reference still a name, an execSQL statement rewritten
// by SubstituteStatement and handed to the runner as plain SQL, a raise
// event's arguments resolved name by name. The subject is what the
// pipeline does: the action compiled to slots when its description is
// loaded, its aggregate calls resolved to slots in the aggregate tuple,
// and run over an Env. They must agree on the statement's
// Result.Changes, on the events raised and their arguments, on the
// tokens the capturing runner cascades, and on the error text when the
// action is wrong.
func TestCompiledActionsEqualMacroSubstitution(t *testing.T) {
	s1 := types.Tuple{types.NewInt(2), types.NewInt(30), types.NewString("Ann")}
	s1old := types.Tuple{types.NewInt(1), types.NewInt(25), types.NewString("ann")}
	s2 := types.Tuple{types.NewInt(3), types.NewInt(-7), types.NewString("Bob")}
	s3 := types.Tuple{types.NewInt(5), types.NewInt(0), types.NewString("cy")}
	one := [][]types.Tuple{{s1}, {s1old}}
	oneNoOld := [][]types.Tuple{{s1}, {nil}}
	two := [][]types.Tuple{{s1, s2}, {s1old, nil}}
	three := [][]types.Tuple{{s1, s2, s3}, {nil, nil, s1old}}

	for _, tc := range []struct {
		name    string
		from    string // the trigger's from clause
		action  string
		binding [][]types.Tuple // tuples, olds
		// aggs, when set, pairs each aggregate call of the action, in the
		// order of first appearance, with the text of its value.
		aggs    []string
		wantErr string // a fragment the error must contain; "" = must succeed
		// wantEvents, when set, pins the outcome itself, not just the
		// agreement of the two paths.
		wantEvents string
	}{
		{name: "insert new values", from: "s", binding: one,
			action: `execSQL 'insert into target values (:NEW.s.k, :NEW.s.v + 1, upper(:NEW.s.name))'`},
		{name: "insert named columns, old image", from: "s", binding: one,
			action: `execSQL 'insert into target (k, name) values (:OLD.s.k, :OLD.s.name)'`},
		{name: "insert, absent old image reads NULL", from: "s", binding: oneNoOld,
			action: `execSQL 'insert into target values (:NEW.s.k, :OLD.s.v, :NEW.s.name)'`},
		{name: "insert, unqualified parameter", from: "s", binding: one,
			action: `execSQL 'insert into target values (:NEW.k, :OLD.v, :NEW.name)'`},
		{name: "update by indexed key", from: "s", binding: one,
			action: `execSQL 'update target set v = :NEW.s.v, name = lower(:NEW.s.name) where k = :NEW.s.k'`},
		{name: "update, set reads the row and the token", from: "s", binding: one,
			action: `execSQL 'update target set v = v + :NEW.s.v where k >= :OLD.s.k and v < :NEW.s.v * 10'`},
		{name: "update nothing", from: "s", binding: one,
			action: `execSQL 'update target set v = 0 where k = :NEW.s.k + 100'`},
		{name: "delete by range", from: "s", binding: one,
			action: `execSQL 'delete from target where k > :OLD.s.k and v <= :NEW.s.v'`},
		{name: "delete everything", from: "s", binding: one,
			action: `execSQL 'delete from target'`},
		{name: "select star", from: "s", binding: one,
			action: `execSQL 'select * from target where k = :NEW.s.k'`},
		{name: "select expressions", from: "s", binding: one,
			action: `execSQL 'select k, v + :NEW.s.v as total, name from target where name <> :NEW.s.name'`},
		{name: "insert, two variables", from: "s a, s b", binding: two,
			action: `execSQL 'insert into target values (:NEW.a.k, :NEW.b.v, :OLD.a.name)'`},
		{name: "insert, three variables", from: "s a, s b, s c", binding: three,
			action: `execSQL 'insert into target values (:NEW.c.k + :NEW.a.k, :OLD.c.v, :NEW.b.name)'`},

		{name: "raise, arithmetic and functions", from: "s", binding: one,
			action:     `raise event E(s.k + 1, abs(0 - s.v) * 2, upper(s.name), length(s.name), :OLD.s.v)`,
			wantEvents: "E(3, 60, 'ANN', 3, 25)"},
		{name: "raise, NULL old image", from: "s", binding: oneNoOld,
			action:     `raise event E(s.k, :OLD.s.v, :OLD.s.v + 1, lower(:OLD.s.name))`,
			wantEvents: "E(2, NULL, NULL, NULL)"},
		{name: "raise, unqualified references", from: "s", binding: one,
			action: `raise event E(k, v, name)`, wantEvents: "E(2, 30, 'Ann')"},
		{name: "raise, no arguments", from: "s", binding: one,
			action: `raise event Ping`, wantEvents: "Ping()"},
		{name: "raise, three variables", from: "s a, s b, s c", binding: three,
			action:     `raise event J(a.k, b.k, c.k, :OLD.c.name, :OLD.a.name)`,
			wantEvents: "J(2, 3, 5, 'ann', NULL)"},

		{name: "aggregate raise", from: "s", binding: one, aggs: []string{"sum(s.v)", "55", "count(s.k)", "2"},
			action: `raise event G(s.k, sum(s.v), count(s.k) + 1)`, wantEvents: "G(2, 55, 3)"},
		{name: "aggregate raise, functions and NULL", from: "s", binding: one,
			aggs:       []string{"min(s.name)", "'Ann'", "max(s.v)", "-7", "avg(s.v)", "NULL"},
			action:     `raise event G(upper(min(s.name)), abs(0 - max(s.v)) * 2, avg(s.v) + 1, :OLD.s.v)`,
			wantEvents: "G('ANN', 14, NULL, 25)"},
		{name: "aggregate insert", from: "s", binding: one, aggs: []string{"sum(s.v)", "55"},
			action: `execSQL 'insert into target values (:NEW.s.k, sum(s.v), :NEW.s.name)'`},
		{name: "aggregate update", from: "s", binding: one, aggs: []string{"sum(s.v)", "55", "count(s.k)", "2"},
			action: `execSQL 'update target set v = sum(s.v) + v where k <= count(s.k) and name <> :NEW.s.name'`},
		{name: "aggregate delete", from: "s", binding: one, aggs: []string{"max(s.v)", "30", "avg(s.v)", "12.5"},
			action: `execSQL 'delete from target where v > max(s.v) - avg(s.v)'`},
		{name: "aggregate select", from: "s", binding: one, aggs: []string{"min(s.v)", "-3", "count(s.k)", "3"},
			action: `execSQL 'select k, v + min(s.v) as m from target where k < count(s.k)'`},

		{name: "ambiguous unqualified parameter", from: "s a, s b", binding: two,
			action:  `execSQL 'insert into target values (:NEW.k, 1, :NEW.a.name)'`,
			wantErr: `unqualified reference "k" is ambiguous over 2 variables`},
		{name: "ambiguous unqualified reference in raise", from: "s a, s b", binding: two,
			action: `raise event E(a.k, v)`, wantErr: `unqualified reference "v" is ambiguous over 2 variables`},
		{name: "unknown variable", from: "s", binding: one,
			action:  `execSQL 'update target set v = :NEW.zz.v where k = 1'`,
			wantErr: `unknown tuple variable "zz" in action`},
		{name: "unknown variable in raise", from: "s", binding: one,
			action: `raise event E(zz.v)`, wantErr: `unknown tuple variable "zz" in action`},
		{name: "unknown column", from: "s", binding: one,
			action:  `execSQL 'delete from target where k = :OLD.s.nosuch'`,
			wantErr: `unknown column "nosuch" of "s" in action`},
		{name: "unknown column in raise", from: "s", binding: one,
			action: `raise event E(s.k, s.nosuch)`, wantErr: `unknown column "nosuch" of "s" in action`},
		{name: "bare reference in an insert value", from: "s", binding: one,
			action:  `execSQL 'insert into target values (:NEW.s.k, v, :NEW.s.name)'`,
			wantErr: `unbound column reference v`},
		{name: "unknown column beside an aggregate", from: "s", binding: one, aggs: []string{"count(s.k)", "2"},
			action: `raise event G(count(s.k), s.nosuch)`, wantErr: `unknown column "nosuch" of "s" in action`},
		{name: "unknown unqualified column beside an aggregate", from: "s", binding: one, aggs: []string{"sum(s.v)", "4"},
			action:  `execSQL 'insert into target values (:NEW.nosuch, sum(s.v), :NEW.s.name)'`,
			wantErr: `unknown column "nosuch" of "" in action`},
		{name: "unknown target column", from: "s", binding: one,
			action:  `execSQL 'update target set v = 1 where nosuch = :NEW.s.k'`,
			wantErr: `unknown column "nosuch"`},
		{name: "unknown target table", from: "s", binding: one,
			action: `execSQL 'insert into nowhere values (:NEW.s.k)'`, wantErr: `nowhere`},
		{name: "division by zero", from: "s", binding: one,
			action:  `execSQL 'insert into target values (:NEW.s.k / (:NEW.s.v - 30), 1, :NEW.s.name)'`,
			wantErr: `division by zero`},
		{name: "type mismatch", from: "s", binding: one,
			action:  `execSQL 'insert into target values (:NEW.s.name, 1, :NEW.s.name)'`,
			wantErr: `wants integer`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref := runAction(t, false, tc.from, tc.action, tc.binding, tc.aggs)
			sub := runAction(t, true, tc.from, tc.action, tc.binding, tc.aggs)
			if ref != sub {
				t.Errorf("the two paths disagree\nmacro substitution:\n%s\ncompiled:\n%s", ref, sub)
			}
			switch {
			case tc.wantErr == "" && sub.err != "":
				t.Errorf("unexpected error: %s", sub.err)
			case !strings.Contains(sub.err, tc.wantErr):
				t.Errorf("error %q does not mention %q", sub.err, tc.wantErr)
			}
			if tc.wantEvents != "" && sub.events != tc.wantEvents {
				t.Errorf("events %q, want %q", sub.events, tc.wantEvents)
			}
		})
	}
}

// outcome is everything an action leaves behind, rendered.
type outcome struct {
	err      string
	result   string // affected count, rows, Changes
	events   string
	cascaded string // tokens the capturing runner enqueued
	table    string // target's rows afterwards
}

func (o outcome) String() string {
	return fmt.Sprintf("  err: %s\n  result: %s\n  events: %s\n  cascaded: %s\n  table: %s", o.err, o.result, o.events, o.cascaded, o.table)
}

// keepResult is the capturing runner with the last statement's Result
// kept, which Executor.Run drops.
type keepResult struct {
	capturingRunner
	last *minisql.Result
}

func (k *keepResult) ExecParams(st parser.Statement, params expr.Env) (*minisql.Result, error) {
	res, err := k.capturingRunner.ExecParams(st, params)
	k.last = res
	return res, err
}

// recordingQueue keeps what is enqueued.
type recordingQueue struct {
	datasource.Queue
	seen []string
}

func (q *recordingQueue) Enqueue(t datasource.Token) (datasource.Token, error) {
	q.seen = append(q.seen, t.String())
	return q.Queue.Enqueue(t)
}

// runAction builds a fresh Synchronous system with an indexed, captured
// target table of four rows, and runs one action over one binding:
// compiled to slots and run over an Env, or — the reference — by
// substitution over the names as parsed.
func runAction(t *testing.T, compiled bool, from, action string, binding [][]types.Tuple, aggs []string) outcome {
	t.Helper()
	sys := syncSystem(t)
	cols := []types.Column{{Name: "k", Kind: types.KindInt}, {Name: "v", Kind: types.KindInt}, {Name: "name", Kind: types.KindVarchar}}
	if _, err := sys.DefineStreamSource("s", cols...); err != nil {
		t.Fatal(err)
	}
	target, err := sys.DefineTableSource("target", cols...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := target.Table().CreateIndex("target_k", "k"); err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"w", "x", "Ann", "z"} {
		if err := target.Insert(types.Tuple{types.NewInt(int64(i)), types.NewInt(int64(10 * i)), types.NewString(name)}); err != nil {
			t.Fatal(err)
		}
	}
	rec := &recordingQueue{Queue: sys.queue}
	sys.queue = rec
	sub, err := sys.Subscribe("*", 64)
	if err != nil {
		t.Fatal(err)
	}

	text := "create trigger x from " + from + " do " + action
	if !compiled {
		for i := 0; i < len(aggs); i += 2 {
			text = strings.ReplaceAll(text, aggs[i], aggs[i+1])
		}
	}
	st, err := parser.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	ct := st.(*parser.CreateTrigger)
	act, varIndex := ct.Do, ct.VarIndex()
	src, _ := sys.reg.ByName("s")
	schemas := make([]*types.Schema, len(ct.From))
	for i := range schemas {
		schemas[i] = src.Schema
	}
	b := exec.Binding{VarIndex: varIndex, Tuples: binding[0], Olds: binding[1]}
	if compiled {
		// As a load does it: the action compiled, then its aggregate calls
		// resolved against the state the trigger's create made.
		exec.Compile(act, varIndex, schemas)
		if aggs != nil {
			state, _, err := agg.Compile(nil, act, nil, src.Schema)
			if err != nil {
				t.Fatal(err)
			}
			if act, err = state.ResolveAction(act, src.Schema); err != nil {
				t.Fatal(err)
			}
			if len(state.Specs) != len(aggs)/2 {
				t.Fatalf("specs %v, want one per call of %v", state.Specs, aggs)
			}
			for i := 1; i < len(aggs); i += 2 {
				v, err := parser.ParseExpr(aggs[i])
				if err != nil {
					t.Fatal(err)
				}
				b.Aggregates = append(b.Aggregates, v.(*expr.Const).Val)
			}
		}
	}
	schemaOf := func(i int) *types.Schema { return schemas[i] }
	runner := &keepResult{capturingRunner: capturingRunner{sys}}
	exe := &exec.Executor{DB: runner, Bus: sys.bus}

	var out outcome
	var runErr error
	sql, isSQL := act.(*parser.ExecSQL)
	switch {
	case compiled:
		runErr = exe.Run(1, act, &exec.Env{Binding: b, SchemaOf: schemaOf})
	case isSQL:
		var plain parser.Statement
		if plain, runErr = exec.SubstituteStatement(sql.Stmt, b, schemaOf); runErr == nil {
			_, runErr = runner.ExecParams(plain, nil)
		}
	default:
		runErr = exe.Execute(1, act, b, schemaOf)
	}
	if runErr != nil {
		out.err = runErr.Error()
	}
	if res := runner.last; res != nil {
		out.result = fmt.Sprintf("affected %d index %q columns %v rows %v changes %v", res.Affected, res.IndexUsed, res.Columns, res.Rows, res.Changes)
	}
	out.cascaded = strings.Join(rec.seen, " ")
	sub.Cancel()
	var events []string
	for n := range sub.C() {
		events = append(events, n.Name+n.Args.String())
	}
	out.events = strings.Join(events, " ")
	res, err := sys.db.Exec("select * from target")
	if err != nil {
		t.Fatal(err)
	}
	out.table = fmt.Sprint(res.Rows)
	return out
}
