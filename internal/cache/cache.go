package cache

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/kb"
)

// ErrTooLarge reports that an entry cannot fit even after evicting every
// unpinned entry.
var ErrTooLarge = errors.New("cache: entry larger than available capacity")

// Stats counts cache activity. BytesFetched accumulates the sizes of
// entries admitted on miss, i.e. the backhaul traffic a real edge cache
// would generate.
type Stats struct {
	Hits         uint64
	Misses       uint64
	Evictions    uint64
	BytesFetched int64
}

// HitRate returns hits / (hits + misses), or 0 with no traffic.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// entry is one cached model.
type entry struct {
	model  *kb.Model
	size   int64
	pinned bool
}

// Cache is a byte-capacity-bounded model store with pluggable eviction.
// It is safe for concurrent use.
//
// Pinned entries (typically the domain-general models the paper keeps
// resident) never enter the eviction policy and can only be removed
// explicitly.
type Cache struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	entries  map[kb.Key]*entry
	policy   Policy
	guard    EvictionGuard
	stats    Stats
}

// EvictionGuard vets a proposed eviction victim: returning false asks the
// cache to spare the entry and try another victim. The mesh installs one
// for coordinated eviction — a member must not evict the mesh's last copy
// of a replicated general model. The guard runs under the cache lock and
// must not call back into the cache. Capacity still wins: when every
// remaining victim is vetoed, spared entries are evicted anyway rather
// than failing the insert.
type EvictionGuard func(k kb.Key) bool

// SetEvictionGuard installs guard (nil removes it).
func (c *Cache) SetEvictionGuard(guard EvictionGuard) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.guard = guard
}

// New returns a cache with the given byte capacity and eviction policy.
func New(capacity int64, policy Policy) (*Cache, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("cache: non-positive capacity %d", capacity)
	}
	if policy == nil {
		return nil, errors.New("cache: nil policy")
	}
	return &Cache{
		capacity: capacity,
		entries:  make(map[kb.Key]*entry, 16),
		policy:   policy,
	}, nil
}

// Get returns the cached model for k, recording a hit or miss.
func (c *Cache) Get(k kb.Key) (*kb.Model, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[k]
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	c.stats.Hits++
	if !e.pinned {
		c.policy.OnAccess(k)
	}
	return e.model, true
}

// Peek returns the cached model for k without recording a hit or miss and
// without touching eviction recency. Cooperative caching uses it: a
// neighbor probing this cache must not distort the local policy's view of
// local demand.
func (c *Cache) Peek(k kb.Key) (*kb.Model, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[k]
	if !ok {
		return nil, false
	}
	return e.model, true
}

// Contains reports presence without touching statistics or recency.
func (c *Cache) Contains(k kb.Key) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[k]
	return ok
}

// Put inserts m (replacing any entry under the same key), evicting
// unpinned entries as needed. Pinned entries never get evicted. The
// model's size counts as fetched bytes: Put is what a miss-path fetch
// calls after pulling the model from the origin.
func (c *Cache) Put(m *kb.Model, pinned bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	size := m.SizeBytes()
	if old, ok := c.entries[m.Key]; ok {
		c.removeLocked(m.Key, old, false)
	}
	if size > c.capacity {
		return fmt.Errorf("%w: %s is %d bytes, capacity %d", ErrTooLarge, m.Key, size, c.capacity)
	}
	// Entries vetoed by the guard leave the policy for the duration of the
	// eviction loop (so the policy proposes someone else) and re-enter it
	// afterwards; their history resets to freshly-admitted, which is the
	// right bias for an entry the mesh just declared precious.
	var spared []kb.Key
	defer func() {
		for _, k := range spared {
			if e, ok := c.entries[k]; ok {
				c.policy.OnAdmit(k, e.size)
			}
		}
	}()
	for c.used+size > c.capacity {
		victim, ok := c.policy.Victim()
		if !ok {
			// Out of regular victims: evict spared entries after all —
			// local capacity is a hard bound, mesh redundancy is not.
			if len(spared) > 0 {
				k := spared[0]
				spared = spared[1:]
				if e, ok := c.entries[k]; ok {
					delete(c.entries, k)
					c.used -= e.size
					c.stats.Evictions++
				}
				continue
			}
			return fmt.Errorf("%w: %s is %d bytes, %d in use by pinned entries",
				ErrTooLarge, m.Key, size, c.used)
		}
		ve, ok := c.entries[victim]
		if !ok {
			// A policy proposing an unknown key is a programming error in
			// the policy; drop it from the policy and continue.
			c.policy.OnRemove(victim)
			continue
		}
		if c.guard != nil && !c.guard(victim) {
			c.policy.OnRemove(victim)
			spared = append(spared, victim)
			continue
		}
		c.removeLocked(victim, ve, true)
	}
	c.entries[m.Key] = &entry{model: m, size: size, pinned: pinned}
	c.used += size
	if !pinned {
		c.policy.OnAdmit(m.Key, size)
	}
	c.stats.BytesFetched += size
	return nil
}

// removeLocked deletes an entry; the caller holds c.mu.
func (c *Cache) removeLocked(k kb.Key, e *entry, evicted bool) {
	delete(c.entries, k)
	c.used -= e.size
	if !e.pinned {
		c.policy.OnRemove(k)
	}
	if evicted {
		c.stats.Evictions++
	}
}

// Remove explicitly deletes the entry for k (pinned or not), reporting
// whether it was present.
func (c *Cache) Remove(k kb.Key) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[k]
	if !ok {
		return false
	}
	c.removeLocked(k, e, false)
	return true
}

// Used returns the bytes currently stored.
func (c *Cache) Used() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// Capacity returns the configured byte capacity.
func (c *Cache) Capacity() int64 { return c.capacity }

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// ResetStats zeroes the counters (capacity and contents are unchanged).
func (c *Cache) ResetStats() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats = Stats{}
}

// KeysWhere returns the cached keys satisfying pred, in no particular
// order. pred runs under the cache lock and must not call back into the
// cache.
func (c *Cache) KeysWhere(pred func(kb.Key) bool) []kb.Key {
	c.mu.Lock()
	defer c.mu.Unlock()
	var keys []kb.Key
	for k := range c.entries {
		if pred(k) {
			keys = append(keys, k)
		}
	}
	return keys
}
