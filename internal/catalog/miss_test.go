package catalog

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"triggerman/internal/parser"
	"triggerman/internal/storage"
	"triggerman/internal/types"
)

// raiseText is a single-variable trigger that raises its own event, so
// a pinned description tells whose row it was built from.
func raiseText(name string, id uint64) string {
	return fmt.Sprintf(`create trigger %s from emp when emp.salary > %d do raise event E%d(emp.name)`, name, id, id)
}

// raisedEvent names the event a compiled raise-event action raises.
func raisedEvent(t testing.TB, act parser.Action) string {
	t.Helper()
	re, ok := act.(*parser.RaiseEvent)
	if !ok {
		t.Fatalf("action = %T, want raise event", act)
	}
	return re.Name
}

// TestMissIsOnePageFetch holds a trigger-cache miss to §5.4's cost: one
// read of the trigger's own catalog row. With 10⁴ triggers the row
// could also be found through the triggerid index, at two more page
// fetches per miss; reading it by its RID fetches only the heap page.
func TestMissIsOnePageFetch(t *testing.T) {
	bp := storage.NewBufferPool(storage.NewMem(), 512)
	c := openOn(t, bp, 16, false)
	withEmp(t, c)
	const n = 10000
	for id := uint64(1); id <= n; id++ {
		if _, err := c.CreateTrigger(raiseText(fmt.Sprintf("t%d", id), id)); err != nil {
			t.Fatal(err)
		}
	}
	// Each of the 16 shards holds one description, and consecutive pins
	// of a shard are 16 ids apart, so every pin below misses.
	cache0, pool0 := c.Cache().Stats(), bp.Stats()
	for id := uint64(1); id <= 2000; id++ {
		lt, unpin, err := c.Pin(id)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := raisedEvent(t, lt.Action), fmt.Sprintf("E%d", id); got != want {
			t.Fatalf("trigger %d raises %s, want %s", id, got, want)
		}
		unpin()
	}
	cache1, pool1 := c.Cache().Stats(), bp.Stats()
	misses := cache1.Misses - cache0.Misses
	fetches := (pool1.Hits + pool1.Misses) - (pool0.Hits + pool0.Misses)
	if misses != 2000 {
		t.Fatalf("%d misses in 2000 pins, want every pin to miss", misses)
	}
	if fetches != int(misses) {
		t.Errorf("%d page fetches for %d misses (%.2f per miss), want exactly 1 each",
			fetches, misses, float64(fetches)/float64(misses))
	}
}

// reloadKinds is one trigger of each kind a description can hold; the
// join is A-TREAT or Gator by the catalog's setting.
var reloadKinds = []struct{ name, text string }{
	{"single", `create trigger single from emp when emp.salary > 10 do raise event Single(emp.name, emp.salary + 1)`},
	{"audit", `create trigger audit from emp when emp.name = 'ann' do execSQL 'insert into audit values (:NEW.emp.name, :OLD.emp.salary)'`},
	{"pair", `create trigger pair from emp e, dept d when e.name = d.dname and e.salary > 5 do raise event Pair(e.name, d.dname)`},
	{"hot", `create trigger hot from emp group by name having count(salary) > 2 and sum(salary) > 10 do raise event Hot(emp.name, sum(salary))`},
}

// TestReloadEqualsFreshCreate is the restart oracle: a description the
// cache loads from the catalog row is the one buildLoaded makes from a
// fresh parse of the statement it was created from, for every kind of
// trigger, before and after the catalog is closed and reopened from its
// file.
func TestReloadEqualsFreshCreate(t *testing.T) {
	for _, gator := range []bool{false, true} {
		path := filepath.Join(t.TempDir(), "catalog.db")
		open := func() (*Catalog, func()) {
			disk, err := storage.OpenFile(path)
			if err != nil {
				t.Fatal(err)
			}
			bp := storage.NewBufferPool(disk, 64)
			return openOn(t, bp, 1, gator), func() {
				if err := errors.Join(bp.FlushAll(), disk.Sync(), disk.Close()); err != nil {
					t.Fatal(err)
				}
			}
		}
		c, closeCat := open()
		withEmp(t, c)
		if _, err := c.DefineDataSource("dept", types.MustSchema(
			types.Column{Name: "dname", Kind: types.KindVarchar})); err != nil {
			t.Fatal(err)
		}
		for _, k := range reloadKinds {
			if _, err := c.CreateTrigger(k.text); err != nil {
				t.Fatal(err)
			}
		}
		checkReloads(t, c, gator)
		closeCat()
		c, closeCat = open()
		checkReloads(t, c, gator)
		closeCat()
	}
}

func checkReloads(t *testing.T, c *Catalog, gator bool) {
	t.Helper()
	for _, k := range reloadKinds {
		name := k.name
		id, ok := c.TriggerByName(name)
		if !ok {
			t.Fatalf("trigger %s missing", name)
		}
		if err := c.Cache().Invalidate(id); err != nil {
			t.Fatal(err)
		}
		misses := c.Cache().Stats().Misses
		lt, unpin, err := c.Pin(id)
		if err != nil {
			t.Fatal(err)
		}
		if c.Cache().Stats().Misses != misses+1 {
			t.Fatalf("%s: pin did not miss", name)
		}
		st, err := parser.Parse(k.text)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := c.buildLoaded(lt.Info, st.(*parser.CreateTrigger))
		if err != nil {
			t.Fatal(err)
		}
		where := fmt.Sprintf("%s (gator %v)", name, gator)
		if !reflect.DeepEqual(lt.Action, fresh.Action) {
			t.Errorf("%s: reloaded action %#v, fresh %#v", where, lt.Action, fresh.Action)
		}
		if !reflect.DeepEqual(lt.VarIndex, fresh.VarIndex) {
			t.Errorf("%s: reloaded var index %v, fresh %v", where, lt.VarIndex, fresh.VarIndex)
		}
		if !reflect.DeepEqual(lt.Schemas, fresh.Schemas) || !reflect.DeepEqual(lt.Sources, fresh.Sources) {
			t.Errorf("%s: reloaded sources %v, fresh %v", where, lt.Sources, fresh.Sources)
		}
		if name == "pair" && (lt.Network != nil) == gator {
			t.Errorf("%s: network %v, gator %v", where, lt.Network != nil, lt.Gator != nil)
		}
		unpin()
	}
}

// TestPinRacesDropAndRecreate pins triggers while another goroutine
// drops them, recreates them into the freed heap slots, and rewrites
// their rows by enabling and disabling them. A pin returns the pinned
// trigger's own description or the "dropped" error, never a
// description built from another trigger's row.
func TestPinRacesDropAndRecreate(t *testing.T) {
	// Four descriptions per cache shard: the three pinners never hold
	// every slot of one, and each pin is invalidated once it is done, so
	// the next pin of the trigger loads it again.
	c := openOn(t, storage.NewBufferPool(storage.NewMem(), 64), 64, false)
	withEmp(t, c)
	const live, rounds = 8, 1000
	// Ids are handed out in creation order, so the k-th create is
	// trigger k and raises Ek.
	var latest atomic.Uint64
	create := func(slot int) {
		id := latest.Load() + 1
		if _, err := c.CreateTrigger(raiseText(fmt.Sprintf("s%d", slot), id)); err != nil {
			t.Error(err)
		}
		latest.Store(id)
	}
	for slot := 0; slot < live; slot++ {
		create(slot)
	}
	// Pinners load the oldest live trigger, the next one dropped, whose
	// heap slot the next create reuses.
	var stop atomic.Bool
	var pins, dropped atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < 3; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				id := latest.Load() - live + 1
				lt, unpin, err := c.Pin(id)
				if err != nil {
					if !strings.Contains(err.Error(), "dropped") {
						t.Errorf("pin %d: %v", id, err)
					}
					dropped.Add(1)
					continue
				}
				pins.Add(1)
				if re, ok := lt.Action.(*parser.RaiseEvent); !ok || re.Name != fmt.Sprintf("E%d", id) {
					t.Errorf("pin %d got trigger %s's action %#v", id, lt.Info.Name, lt.Action)
				}
				unpin()
				c.Cache().Invalidate(id)
			}
		}()
	}
	for r := 0; r < rounds; r++ {
		name := fmt.Sprintf("s%d", r%live)
		if err := errors.Join(c.SetTriggerEnabled(name, false), c.SetTriggerEnabled(name, true)); err != nil {
			t.Error(err)
		}
		// A drop takes effect whether or not a pinner holds the
		// description, and returns nil either way.
		if err := c.DropTrigger(name); err != nil {
			t.Error(err)
		}
		create(r % live)
	}
	stop.Store(true)
	wg.Wait()
	if pins.Load() == 0 || dropped.Load() == 0 {
		t.Errorf("%d pins loaded and %d found the trigger dropped, want some of each", pins.Load(), dropped.Load())
	}
	// Every pin is released: no dropped trigger's description stays.
	for id := uint64(1); id <= latest.Load()-live; id++ {
		if c.Cache().Resident(id) {
			t.Errorf("dropped trigger %d still resident", id)
		}
	}
}
