// Package cache implements the trigger cache of §5.1: complete trigger
// descriptions (ID, name, syntax tree, A-TREAT network skeleton) are
// kept on disk in the trigger catalog and pinned into a bounded
// main-memory cache when a token matches one of the trigger's
// predicates — "analogous to the pin operation in a traditional buffer
// pool" (§5.4).
//
// The cache is generic over the cached description type via the Loader
// function, so the catalog layer decides what a description contains.
package cache

import (
	"fmt"
	"sync"

	"triggerman/internal/lru"
)

// Entry is a cached trigger description.
type Entry struct {
	TriggerID uint64
	// Value is the loaded description (the catalog stores a
	// *catalog.LoadedTrigger here).
	Value interface{}

	pins int
	// dropped marks an entry invalidated while pinned: it cannot be
	// pinned again, and its last Unpin removes it.
	dropped bool
	lru     lru.Node[*Entry] // listed only while unpinned
}

// Loader fetches a trigger description from the catalog on a miss.
type Loader func(triggerID uint64) (interface{}, error)

// Observer receives per-trigger cache events for attribution and the
// structured event log. Callbacks run outside the cache lock but must
// be cheap and must not call back into the cache.
type Observer interface {
	CacheHit(triggerID uint64)
	CacheMiss(triggerID uint64)
	CacheEvict(triggerID uint64)
}

// Stats counts cache activity.
type Stats struct {
	Hits, Misses, Evictions int64
}

// Cache is a bounded pin-count LRU over trigger descriptions.
type Cache struct {
	mu       sync.Mutex
	capacity int
	loader   Loader
	entries  map[uint64]*Entry
	lru      lru.List[*Entry] // back = least recently used, unpinned only
	stats    Stats
	observer Observer
	// gen counts Invalidate calls. A miss loads outside the lock; if gen
	// moved meanwhile, the trigger may have been dropped after its row
	// was read, so the miss loads again rather than install it.
	gen uint64
}

// SetObserver installs the event observer (call before concurrent use).
func (c *Cache) SetObserver(o Observer) {
	c.mu.Lock()
	c.observer = o
	c.mu.Unlock()
}

// New builds a cache holding at most capacity descriptions. The paper's
// sizing example: 4KB per description, 64MB of cache = 16,384 triggers.
func New(capacity int, loader Loader) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{
		capacity: capacity,
		loader:   loader,
		entries:  make(map[uint64]*Entry, capacity),
	}
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Len reports the number of resident descriptions.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// errDropped is Pin's error for an entry invalidated while pinned.
func errDropped(triggerID uint64) error {
	return fmt.Errorf("cache: trigger %d was dropped", triggerID)
}

// Pin fetches the trigger description, loading it on a miss, and pins
// it so it cannot be evicted until Unpin. Callers must pair every Pin
// with an Unpin.
func (c *Cache) Pin(triggerID uint64) (*Entry, error) {
	c.mu.Lock()
	obs := c.observer
	if e, ok := c.entries[triggerID]; ok {
		if e.dropped {
			c.mu.Unlock()
			return nil, errDropped(triggerID)
		}
		c.stats.Hits++
		e.pins++
		c.lru.Remove(&e.lru)
		c.mu.Unlock()
		if obs != nil {
			obs.CacheHit(triggerID)
		}
		return e, nil
	}
	c.stats.Misses++
	// Make room before loading (load happens outside the lock; a
	// placeholder reserves the slot so concurrent pins of the same
	// trigger wait via double-check below).
	var evicted []uint64
	if len(c.entries) >= c.capacity {
		victim, err := c.evictLocked()
		if err != nil {
			c.mu.Unlock()
			return nil, err
		}
		evicted = append(evicted, victim)
	}
	gen := c.gen
	c.mu.Unlock()
	c.notify(obs, triggerID, evicted)

	var val interface{}
	for {
		v, err := c.loader(triggerID)
		if err != nil {
			return nil, err
		}
		c.mu.Lock()
		if c.gen == gen {
			val = v
			break
		}
		gen = c.gen
		c.mu.Unlock()
	}
	// Double-check: a concurrent loader may have installed it.
	if e, ok := c.entries[triggerID]; ok {
		if e.dropped {
			c.mu.Unlock()
			return nil, errDropped(triggerID)
		}
		e.pins++
		c.lru.Remove(&e.lru)
		c.mu.Unlock()
		return e, nil
	}
	evicted = evicted[:0]
	if len(c.entries) >= c.capacity {
		victim, err := c.evictLocked()
		if err != nil {
			c.mu.Unlock()
			return nil, err
		}
		evicted = append(evicted, victim)
	}
	e := &Entry{TriggerID: triggerID, Value: val, pins: 1}
	e.lru.Value = e
	c.entries[triggerID] = e
	c.mu.Unlock()
	if obs != nil {
		for _, v := range evicted {
			obs.CacheEvict(v)
		}
	}
	return e, nil
}

// notify delivers the miss and any eviction events outside the lock.
func (c *Cache) notify(obs Observer, missed uint64, evicted []uint64) {
	if obs == nil {
		return
	}
	obs.CacheMiss(missed)
	for _, v := range evicted {
		obs.CacheEvict(v)
	}
}

// Unpin releases one pin; at zero pins the entry becomes evictable, or
// leaves the cache if it was dropped while pinned.
func (c *Cache) Unpin(triggerID uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[triggerID]
	if !ok {
		return fmt.Errorf("cache: unpin of non-resident trigger %d", triggerID)
	}
	if e.pins <= 0 {
		return fmt.Errorf("cache: unpin of unpinned trigger %d", triggerID)
	}
	e.pins--
	switch {
	case e.pins > 0:
	case e.dropped:
		delete(c.entries, triggerID)
	default:
		c.lru.PushFront(&e.lru)
	}
	return nil
}

// Invalidate drops a trigger from the cache (after drop trigger). An
// unpinned entry leaves at once; a pinned one is marked dropped, so no
// new Pin gets it and the last Unpin removes it. Either way the drop
// has taken effect, and the error is always nil. Trigger ids are never
// reused while the process runs, so a dropped entry cannot shadow a
// newer trigger.
func (c *Cache) Invalidate(triggerID uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen++
	e, ok := c.entries[triggerID]
	if !ok {
		return nil
	}
	if e.pins > 0 {
		e.dropped = true
		return nil
	}
	c.lru.Remove(&e.lru)
	delete(c.entries, triggerID)
	return nil
}

func (c *Cache) evictLocked() (uint64, error) {
	back := c.lru.Back()
	if back == nil {
		return 0, fmt.Errorf("cache: all %d cached triggers are pinned", c.capacity)
	}
	victim := back.Value.TriggerID
	c.lru.Remove(back)
	delete(c.entries, victim)
	c.stats.Evictions++
	return victim, nil
}

// Resident reports whether the trigger is currently cached (tests).
func (c *Cache) Resident(triggerID uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[triggerID]
	return ok
}
