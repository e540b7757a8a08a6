// Package cache implements the semantic model cache at the center of the
// paper's contribution: edge servers hold domain-specialized general models
// and user-specific individual models in bounded storage, with pluggable
// eviction policies and byte-level capacity accounting.
package cache

import (
	"container/heap"
	"container/list"

	"repro/internal/kb"
)

// Policy orders cache entries for eviction. Implementations are not safe
// for concurrent use; Cache serializes calls under its own lock.
//
// All policies select victims in O(log n) or better: LRU and FIFO are
// list-based, LFU and GDSF keep an indexed min-heap so cluster-scale
// caches (tens of thousands of individual models) never pay a linear scan.
type Policy interface {
	// Name identifies the policy in experiment output.
	Name() string
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

// Name implements Policy.
func (p *LRU) Name() string { return "lru" }

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

// FIFO evicts the oldest-inserted entry regardless of use.
type FIFO struct {
	ll    *list.List // front = newest
	items map[kb.Key]*list.Element
}

var _ Policy = (*FIFO)(nil)

// NewFIFO returns an empty FIFO policy.
func NewFIFO() *FIFO {
	return &FIFO{ll: list.New(), items: make(map[kb.Key]*list.Element, 16)}
}

// Name implements Policy.
func (p *FIFO) Name() string { return "fifo" }

// OnAdmit implements Policy.
func (p *FIFO) OnAdmit(k kb.Key, _ int64) {
	if _, ok := p.items[k]; ok {
		return
	}
	p.items[k] = p.ll.PushFront(k)
}

// OnAccess implements Policy. FIFO ignores accesses.
func (p *FIFO) OnAccess(kb.Key) {}

// OnRemove implements Policy.
func (p *FIFO) OnRemove(k kb.Key) {
	if e, ok := p.items[k]; ok {
		p.ll.Remove(e)
		delete(p.items, k)
	}
}

// Victim implements Policy.
func (p *FIFO) Victim() (kb.Key, bool) {
	e := p.ll.Back()
	if e == nil {
		return kb.Key{}, false
	}
	return e.Value.(kb.Key), true
}

// Len implements Policy.
func (p *FIFO) Len() int { return len(p.items) }

// LFU evicts the least frequently used entry, breaking ties by least
// recent access. Entries live in an indexed min-heap ordered by
// (frequency, access tick); ticks are unique, so the order is total and
// Victim is an O(1) peek with O(log n) updates — identical eviction order
// to a full scan, proven by the property harness.
type LFU struct {
	items map[kb.Key]*lfuItem
	heap  lfuHeap
	now   uint64
}

// lfuItem is one heap-resident entry.
type lfuItem struct {
	key  kb.Key
	freq int
	tick uint64
	idx  int
}

// lfuHeap implements container/heap ordered by (freq, tick) ascending.
type lfuHeap []*lfuItem

func (h lfuHeap) Len() int { return len(h) }
func (h lfuHeap) Less(i, j int) bool {
	if h[i].freq != h[j].freq {
		return h[i].freq < h[j].freq
	}
	return h[i].tick < h[j].tick
}
func (h lfuHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}
func (h *lfuHeap) Push(x any) {
	it := x.(*lfuItem)
	it.idx = len(*h)
	*h = append(*h, it)
}
func (h *lfuHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return it
}

var _ Policy = (*LFU)(nil)

// NewLFU returns an empty LFU policy.
func NewLFU() *LFU {
	return &LFU{items: make(map[kb.Key]*lfuItem, 16)}
}

// Name implements Policy.
func (p *LFU) Name() string { return "lfu" }

// OnAdmit implements Policy.
func (p *LFU) OnAdmit(k kb.Key, _ int64) {
	p.now++
	if it, ok := p.items[k]; ok {
		it.tick = p.now
		heap.Fix(&p.heap, it.idx)
		return
	}
	it := &lfuItem{key: k, freq: 1, tick: p.now}
	p.items[k] = it
	heap.Push(&p.heap, it)
}

// OnAccess implements Policy.
func (p *LFU) OnAccess(k kb.Key) {
	p.now++
	if it, ok := p.items[k]; ok {
		it.freq++
		it.tick = p.now
		heap.Fix(&p.heap, it.idx)
	}
}

// OnRemove implements Policy.
func (p *LFU) OnRemove(k kb.Key) {
	if it, ok := p.items[k]; ok {
		heap.Remove(&p.heap, it.idx)
		delete(p.items, k)
	}
}

// Victim implements Policy.
func (p *LFU) Victim() (kb.Key, bool) {
	if len(p.heap) == 0 {
		return kb.Key{}, false
	}
	return p.heap[0].key, true
}

// Len implements Policy.
func (p *LFU) Len() int { return len(p.items) }

// GDSF is Greedy-Dual-Size-Frequency: priority = clock + frequency/size,
// favoring small, popular entries; the aging clock prevents stale popular
// entries from living forever. Size is measured in KiB so frequency and
// size terms stay comparable for model-scale objects. Entries live in an
// indexed min-heap ordered by (priority, key string): the key tie-break
// makes the order total, so the heap minimum matches what a full scan
// would pick (proven against a scan reference by the property harness).
type GDSF struct {
	items map[kb.Key]*gdsfItem
	heap  gdsfHeap
	clock float64
}

// gdsfItem is one heap-resident entry. keyStr caches key.String() so heap
// comparisons never re-render keys.
type gdsfItem struct {
	key    kb.Key
	keyStr string
	prio   float64
	freq   int
	size   int64
	idx    int
}

// gdsfHeap implements container/heap ordered by (prio, keyStr) ascending.
type gdsfHeap []*gdsfItem

func (h gdsfHeap) Len() int { return len(h) }
func (h gdsfHeap) Less(i, j int) bool {
	if h[i].prio != h[j].prio {
		return h[i].prio < h[j].prio
	}
	return h[i].keyStr < h[j].keyStr
}
func (h gdsfHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}
func (h *gdsfHeap) Push(x any) {
	it := x.(*gdsfItem)
	it.idx = len(*h)
	*h = append(*h, it)
}
func (h *gdsfHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return it
}

var _ Policy = (*GDSF)(nil)

// NewGDSF returns an empty GDSF policy.
func NewGDSF() *GDSF {
	return &GDSF{items: make(map[kb.Key]*gdsfItem, 16)}
}

// Name implements Policy.
func (p *GDSF) Name() string { return "gdsf" }

// sizeKiB converts bytes to KiB with a floor of 1 to avoid division blowup.
func sizeKiB(size int64) float64 {
	kib := float64(size) / 1024
	if kib < 1 {
		return 1
	}
	return kib
}

// OnAdmit implements Policy.
func (p *GDSF) OnAdmit(k kb.Key, size int64) {
	it, ok := p.items[k]
	if !ok {
		it = &gdsfItem{key: k, keyStr: k.String(), freq: 1, size: size}
		p.items[k] = it
		it.prio = p.clock + float64(it.freq)/sizeKiB(it.size)
		heap.Push(&p.heap, it)
		return
	}
	it.prio = p.clock + float64(it.freq)/sizeKiB(it.size)
	heap.Fix(&p.heap, it.idx)
}

// OnAccess implements Policy.
func (p *GDSF) OnAccess(k kb.Key) {
	it, ok := p.items[k]
	if !ok {
		return
	}
	it.freq++
	it.prio = p.clock + float64(it.freq)/sizeKiB(it.size)
	heap.Fix(&p.heap, it.idx)
}

// OnRemove implements Policy.
func (p *GDSF) OnRemove(k kb.Key) {
	it, ok := p.items[k]
	if !ok {
		return
	}
	if it.prio > p.clock {
		p.clock = it.prio // age the clock to the evicted priority
	}
	heap.Remove(&p.heap, it.idx)
	delete(p.items, k)
}

// Victim implements Policy.
func (p *GDSF) Victim() (kb.Key, bool) {
	if len(p.heap) == 0 {
		return kb.Key{}, false
	}
	return p.heap[0].key, true
}

// Len implements Policy.
func (p *GDSF) Len() int { return len(p.items) }

// NewPolicy builds a policy by name ("lru", "fifo", "lfu", "gdsf"),
// returning false for unknown names.
func NewPolicy(name string) (Policy, bool) {
	switch name {
	case "lru":
		return NewLRU(), true
	case "fifo":
		return NewFIFO(), true
	case "lfu":
		return NewLFU(), true
	case "gdsf":
		return NewGDSF(), true
	default:
		return nil, false
	}
}
