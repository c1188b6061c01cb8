package cache

// Sharded wraps N independent caches keyed by trigger ID so concurrent
// drivers pinning different triggers do not contend on one mutex. The
// capacity is divided evenly across shards, which preserves the global
// bound while making the LRU per-shard (a standard approximation).
type Sharded struct {
	shards []*Cache
}

// shardCount is a power of two so the modulo is a mask.
const shardCount = 16

// NewSharded builds a sharded cache with the given total capacity.
func NewSharded(capacity int, loader Loader) *Sharded {
	per := capacity / shardCount
	if per < 1 {
		per = 1
	}
	s := &Sharded{shards: make([]*Cache, shardCount)}
	for i := range s.shards {
		s.shards[i] = New(per, loader)
	}
	return s
}

// SetObserver installs the event observer on every shard.
func (s *Sharded) SetObserver(o Observer) {
	for _, c := range s.shards {
		c.SetObserver(o)
	}
}

func (s *Sharded) shard(id uint64) *Cache {
	return s.shards[id&(shardCount-1)]
}

// Pin pins a trigger description, loading on miss.
func (s *Sharded) Pin(triggerID uint64) (*Entry, error) {
	return s.shard(triggerID).Pin(triggerID)
}

// Unpin releases one pin.
func (s *Sharded) Unpin(triggerID uint64) error {
	return s.shard(triggerID).Unpin(triggerID)
}

// Invalidate drops an entry; a pinned one leaves at its last Unpin.
func (s *Sharded) Invalidate(triggerID uint64) error {
	return s.shard(triggerID).Invalidate(triggerID)
}

// Resident reports whether the trigger is cached.
func (s *Sharded) Resident(triggerID uint64) bool {
	return s.shard(triggerID).Resident(triggerID)
}

// Len sums resident descriptions across shards.
func (s *Sharded) Len() int {
	n := 0
	for _, c := range s.shards {
		n += c.Len()
	}
	return n
}

// Stats sums counters across shards.
func (s *Sharded) Stats() Stats {
	var out Stats
	for _, c := range s.shards {
		st := c.Stats()
		out.Hits += st.Hits
		out.Misses += st.Misses
		out.Evictions += st.Evictions
	}
	return out
}
