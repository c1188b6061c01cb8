package triggerman

import (
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"

	"triggerman/internal/types"
)

// gatorSystem opens a synchronous system with Gator networks enabled.
func gatorSystem(t testing.TB) *System {
	t.Helper()
	sys, err := Open(Options{Synchronous: true, Queue: MemoryQueue, GatorNetworks: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	return sys
}

func TestGatorIrisHouseAlertSystem(t *testing.T) {
	// The §2 example behaves identically under Gator networks.
	sys := gatorSystem(t)
	sp, house, rep := realEstate(t, sys)
	err := sys.CreateTrigger(`create trigger IrisHouseAlert
		on insert to house
		from salesperson s, house h, represents r
		when s.name = 'Iris' and s.spno=r.spno and r.nno=h.nno
		do raise event NewHouseInIrisNeighborhood(h.hno, h.address)`)
	if err != nil {
		t.Fatal(err)
	}
	sub, _ := sys.Subscribe("NewHouseInIrisNeighborhood", 8)

	sp.Insert(spRow(7, "Iris"))
	sp.Insert(spRow(8, "Ivan"))
	rep.Insert(repRow(7, 1))
	rep.Insert(repRow(8, 2))

	house.Insert(houseRow(100, "12 Oak Ln", 1))
	select {
	case n := <-sub.C():
		if n.Args[0].Int() != 100 {
			t.Errorf("args = %v", n.Args)
		}
	default:
		t.Fatal("Iris was not notified under Gator")
	}
	// Ivan's neighborhood: no event (selection keeps Ivan out of the
	// s memory and the house event is the only fire var... represents
	// and salesperson still have implicit events, but no join completes
	// for Iris).
	house.Insert(houseRow(101, "9 Elm St", 2))
	select {
	case n := <-sub.C():
		t.Fatalf("unexpected %v", n)
	default:
	}
	// The represents insert completes the join for the existing house —
	// same implicit-event behaviour as the A-TREAT path.
	rep.Insert(repRow(7, 2))
	select {
	case n := <-sub.C():
		if n.Args[0].Int() != 101 {
			t.Errorf("represents-seeded args = %v", n.Args)
		}
	default:
		t.Fatal("represents insert should fire")
	}
	// Deleting the represents row breaks the join; the delete itself
	// does not fire (implicit event excludes deletes).
	rep.Delete(repRow(7, 2))
	house.Insert(houseRow(103, "2 Pine Rd", 2))
	select {
	case n := <-sub.C():
		t.Fatalf("unexpected after delete: %v", n)
	default:
	}
}

// TestGatorSystemAgreesWithTreat drives an identical random update
// stream through two systems — default A-TREAT and Gator — and demands
// identical firing multisets per step.
func TestGatorSystemAgreesWithTreat(t *testing.T) {
	build := func(gator bool) (*System, *TableSource, *TableSource, *TableSource, *[]string) {
		sys, err := Open(Options{Synchronous: true, Queue: MemoryQueue, GatorNetworks: gator})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sys.Close() })
		sp, house, rep := realEstate(t, sys)
		err = sys.CreateTrigger(`create trigger j
			from salesperson s, house h, represents r
			when s.name = 'Iris' and s.spno=r.spno and r.nno=h.nno
			do raise event Hit(h.hno, s.spno)`)
		if err != nil {
			t.Fatal(err)
		}
		fired := &[]string{}
		sys.FireHook = func(id uint64, combo []types.Tuple) {
			*fired = append(*fired, fmt.Sprint(combo))
		}
		return sys, sp, house, rep, fired
	}
	_, spA, houseA, repA, firedA := build(false)
	_, spB, houseB, repB, firedB := build(true)

	rng := rand.New(rand.NewSource(99))
	live := make([][]types.Tuple, 3)
	for step := 0; step < 400; step++ {
		kind := rng.Intn(3)
		var tu types.Tuple
		switch kind {
		case 0:
			names := []string{"Iris", "Ivan"}
			tu = spRow(int64(rng.Intn(4)), names[rng.Intn(2)])
		case 1:
			tu = houseRow(int64(rng.Intn(10)), "addr", int64(rng.Intn(4)))
		default:
			tu = repRow(int64(rng.Intn(4)), int64(rng.Intn(4)))
		}
		del := rng.Intn(4) == 0 && len(live[kind]) > 0
		*firedA = (*firedA)[:0]
		*firedB = (*firedB)[:0]
		apply := func(sp, house, rep *TableSource) {
			srcs := []*TableSource{sp, house, rep}
			var err error
			if del {
				err = srcs[kind].Delete(live[kind][0])
			} else {
				err = srcs[kind].Insert(tu)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		apply(spA, houseA, repA)
		apply(spB, houseB, repB)
		if del {
			live[kind] = live[kind][1:]
		} else {
			live[kind] = append(live[kind], tu)
		}
		a := append([]string(nil), *firedA...)
		b := append([]string(nil), *firedB...)
		sort.Strings(a)
		sort.Strings(b)
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("step %d (kind %d, del=%v):\n treat %v\n gator %v", step, kind, del, a, b)
		}
	}
}

// The catalog builds Gator networks in connected order. The §2 trigger
// names salesperson and house first, but no predicate links them: built
// in from-clause order, its first beta memory would cache their cross
// product. Joined s ⋈ r first, the betas hold |s ⋈ r| plus the root's
// |s ⋈ r ⋈ h| combinations.
func TestGatorNetworkJoinsConnectedVariablesFirst(t *testing.T) {
	sys := gatorSystem(t)
	sp, house, rep := realEstate(t, sys)
	err := sys.CreateTrigger(`create trigger j
		from salesperson s, house h, represents r
		when s.spno=r.spno and r.nno=h.nno
		do raise event Hit(h.hno)`)
	if err != nil {
		t.Fatal(err)
	}
	const n = 24
	var sr, srh int
	for i := int64(0); i < n; i++ {
		for _, err := range []error{
			sp.Insert(spRow(i, "s")), rep.Insert(repRow(i, i%4)), house.Insert(houseRow(i, "addr", i%4)),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
		sr++         // represents row i names salesperson i
		srh += n / 4 // and neighborhood i%4, which n/4 houses are in
	}
	shape, ok := sys.cat.NetworkShape(triggerIDByName(t, sys, "j"))
	if !ok || shape.Kind != "gator" {
		t.Fatalf("shape = %+v", shape)
	}
	if shape.BetaTuples != sr+srh {
		t.Fatalf("beta memories hold %d combinations, want |s⋈r| + |s⋈r⋈h| = %d + %d (the s × h cross product is %d)",
			shape.BetaTuples, sr, srh, n*n)
	}
}

func TestGatorDeleteEventFires(t *testing.T) {
	// A trigger with an explicit delete event fires retractions under
	// Gator networks.
	sys := gatorSystem(t)
	emp := empSource(t, sys)
	dept, err := sys.DefineTableSource("dept",
		types.Column{Name: "dname", Kind: types.KindVarchar})
	if err != nil {
		t.Fatal(err)
	}
	err = sys.CreateTrigger(`create trigger gone
		on delete from emp
		from emp e, dept d
		when e.dept = d.dname
		do raise event Gone(e.name)`)
	if err != nil {
		t.Fatal(err)
	}
	var fired int64
	sys.FireHook = func(uint64, []types.Tuple) { atomic.AddInt64(&fired, 1) }
	dept.Insert(types.Tuple{types.NewString("eng")})
	emp.Insert(row("Ada", 1, "eng"))
	if fired != 0 {
		t.Fatal("insert should not fire a delete trigger")
	}
	emp.Delete(row("Ada", 1, "eng"))
	if fired != 1 {
		t.Fatalf("delete fired %d", fired)
	}
}
