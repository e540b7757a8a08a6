// Package cache implements the semantic model cache at the center of the
// paper's contribution: edge servers hold domain-specialized general models
// and user-specific individual models in bounded storage, with byte-level
// capacity accounting and a pluggable eviction Policy. The one policy here
// is LRU, the one the daemon serves; the FIFO, LFU and GDSF rows of the
// paper's cache tables live with the experiments that sweep them.
package cache

import (
	"container/list"

	"repro/internal/kb"
)

// Policy orders cache entries for eviction. Implementations are not safe
// for concurrent use; Cache serializes calls under its own lock.
type Policy interface {
	// OnAdmit records a newly inserted entry of the given size.
	OnAdmit(k kb.Key, size int64)
	// OnAccess records a cache hit.
	OnAccess(k kb.Key)
	// OnRemove forgets an entry (evicted or explicitly removed).
	OnRemove(k kb.Key)
	// Victim proposes the next entry to evict. It returns false when the
	// policy tracks no entries.
	Victim() (kb.Key, bool)
	// Len returns the number of tracked (unpinned) entries. The cache
	// invariant suite checks it against the entry table after every op.
	Len() int
}

// LRU evicts the least recently used entry.
type LRU struct {
	ll    *list.List // front = most recent
	items map[kb.Key]*list.Element
}

var _ Policy = (*LRU)(nil)

// NewLRU returns an empty LRU policy.
func NewLRU() *LRU {
	return &LRU{ll: list.New(), items: make(map[kb.Key]*list.Element, 16)}
}

// OnAdmit implements Policy.
func (p *LRU) OnAdmit(k kb.Key, _ int64) {
	if e, ok := p.items[k]; ok {
		p.ll.MoveToFront(e)
		return
	}
	p.items[k] = p.ll.PushFront(k)
}

// OnAccess implements Policy.
func (p *LRU) OnAccess(k kb.Key) {
	if e, ok := p.items[k]; ok {
		p.ll.MoveToFront(e)
	}
}

// OnRemove implements Policy.
func (p *LRU) OnRemove(k kb.Key) {
	if e, ok := p.items[k]; ok {
		p.ll.Remove(e)
		delete(p.items, k)
	}
}

// Victim implements Policy.
func (p *LRU) Victim() (kb.Key, bool) {
	e := p.ll.Back()
	if e == nil {
		return kb.Key{}, false
	}
	return e.Value.(kb.Key), true
}

// Len implements Policy.
func (p *LRU) Len() int { return len(p.items) }
