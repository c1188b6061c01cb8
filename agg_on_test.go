package triggerman

import (
	"strings"
	"testing"
)

// An aggregate trigger's state follows every operation on its source,
// but its on clause decides which tokens may fire it: a having
// transition caused by a token the on clause refuses is spent without
// a firing, as a single-variable trigger's match would be.
func TestAggregateOnClause(t *testing.T) {
	sys := syncSystem(t)
	sales := salesSource(t, sys)
	for _, ddl := range []string{
		`create trigger d from sales on delete group by region having count(region) > 1
			do raise event D(sales.region, count(region))`,
		`create trigger dl from sales on delete group by region having count(region) < 2
			do raise event DL(sales.region, count(region))`,
		`create trigger i from sales on insert group by region having count(region) < 2
			do raise event I(sales.region, count(region))`,
		`create trigger u from sales on update(sales.amount) group by region having sum(amount) > 100
			do raise event U(sales.region, sum(amount))`,
	} {
		if err := sys.CreateTrigger(ddl); err != nil {
			t.Fatal(err)
		}
	}
	sub, err := sys.Subscribe("*", 64)
	if err != nil {
		t.Fatal(err)
	}
	raised := func() string {
		var got []string
		for len(sub.C()) > 0 {
			n := <-sub.C()
			got = append(got, n.Name+n.Args.String())
		}
		return strings.Join(got, " ")
	}
	for _, step := range []struct {
		what string
		do   func() error
		want string
	}{
		// w's first row: a count of 1 turns i's and dl's having true; only
		// i accepts an insert.
		{"insert w 60", func() error { return sales.Insert(sale("w", 60, "a")) }, "I('w', 1)"},
		// The second crosses d's having, but d fires on deletes only.
		{"insert w 50", func() error { return sales.Insert(sale("w", 50, "b")) }, ""},
		// Back to 1: dl fires; i's having turns true again, on a delete.
		{"delete w 50", func() error { return sales.Delete(sale("w", 50, "b")) }, "DL('w', 1)"},
		{"insert w 30", func() error { return sales.Insert(sale("w", 30, "b")) }, ""},
		// An update of the amount takes w's sum to 150 and fires u.
		{"update w 30 to 90", func() error { return sales.Update(sale("w", 30, "b"), sale("w", 90, "b")) }, "U('w', 150)"},
		{"update w 90 to 10", func() error { return sales.Update(sale("w", 90, "b"), sale("w", 10, "b")) }, ""},
		// A row moving into w without its amount changing crosses u's
		// having on an update the on clause refuses.
		{"insert e 45", func() error { return sales.Insert(sale("e", 45, "c")) }, "I('e', 1)"},
		{"move e into w", func() error { return sales.Update(sale("e", 45, "c"), sale("w", 45, "c")) }, ""},
	} {
		if err := step.do(); err != nil {
			t.Fatalf("%s: %v", step.what, err)
		}
		if got := raised(); got != step.want {
			t.Errorf("%s: raised %q, want %q", step.what, got, step.want)
		}
	}
	if sys.Errors() != 0 {
		t.Fatalf("errors: %v", sys.LastError())
	}
}
