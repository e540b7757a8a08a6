package experiments

import (
	"container/heap"
	"container/list"
	"fmt"

	"repro/internal/cache"
	"repro/internal/kb"
)

// FIFO, LFU and GDSF, the policies E2 and E11 set beside the served LRU,
// select victims in O(log n) or better: FIFO is list-based, LFU and GDSF
// keep an indexed min-heap so cluster-scale caches (tens of thousands of
// individual models) never pay a linear scan.

// FIFO evicts the oldest-inserted entry regardless of use.
type FIFO struct {
	ll    *list.List // front = newest
	items map[kb.Key]*list.Element
}

var _ cache.Policy = (*FIFO)(nil)

// NewFIFO returns an empty FIFO policy.
func NewFIFO() *FIFO {
	return &FIFO{ll: list.New(), items: make(map[kb.Key]*list.Element, 16)}
}

// OnAdmit implements cache.Policy.
func (p *FIFO) OnAdmit(k kb.Key, _ int64) {
	if _, ok := p.items[k]; ok {
		return
	}
	p.items[k] = p.ll.PushFront(k)
}

// OnAccess implements cache.Policy. FIFO ignores accesses.
func (p *FIFO) OnAccess(kb.Key) {}

// OnRemove implements cache.Policy.
func (p *FIFO) OnRemove(k kb.Key) {
	if e, ok := p.items[k]; ok {
		p.ll.Remove(e)
		delete(p.items, k)
	}
}

// Victim implements cache.Policy.
func (p *FIFO) Victim() (kb.Key, bool) {
	e := p.ll.Back()
	if e == nil {
		return kb.Key{}, false
	}
	return e.Value.(kb.Key), true
}

// Len implements cache.Policy.
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

var _ cache.Policy = (*LFU)(nil)

// NewLFU returns an empty LFU policy.
func NewLFU() *LFU {
	return &LFU{items: make(map[kb.Key]*lfuItem, 16)}
}

// OnAdmit implements cache.Policy.
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

// OnAccess implements cache.Policy.
func (p *LFU) OnAccess(k kb.Key) {
	p.now++
	if it, ok := p.items[k]; ok {
		it.freq++
		it.tick = p.now
		heap.Fix(&p.heap, it.idx)
	}
}

// OnRemove implements cache.Policy.
func (p *LFU) OnRemove(k kb.Key) {
	if it, ok := p.items[k]; ok {
		heap.Remove(&p.heap, it.idx)
		delete(p.items, k)
	}
}

// Victim implements cache.Policy.
func (p *LFU) Victim() (kb.Key, bool) {
	if len(p.heap) == 0 {
		return kb.Key{}, false
	}
	return p.heap[0].key, true
}

// Len implements cache.Policy.
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

var _ cache.Policy = (*GDSF)(nil)

// NewGDSF returns an empty GDSF policy.
func NewGDSF() *GDSF {
	return &GDSF{items: make(map[kb.Key]*gdsfItem, 16)}
}

// sizeKiB converts bytes to KiB with a floor of 1 to avoid division blowup.
func sizeKiB(size int64) float64 {
	kib := float64(size) / 1024
	if kib < 1 {
		return 1
	}
	return kib
}

// OnAdmit implements cache.Policy.
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

// OnAccess implements cache.Policy.
func (p *GDSF) OnAccess(k kb.Key) {
	it, ok := p.items[k]
	if !ok {
		return
	}
	it.freq++
	it.prio = p.clock + float64(it.freq)/sizeKiB(it.size)
	heap.Fix(&p.heap, it.idx)
}

// OnRemove implements cache.Policy.
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

// Victim implements cache.Policy.
func (p *GDSF) Victim() (kb.Key, bool) {
	if len(p.heap) == 0 {
		return kb.Key{}, false
	}
	return p.heap[0].key, true
}

// Len implements cache.Policy.
func (p *GDSF) Len() int { return len(p.items) }

// NewPolicy builds a policy by name ("lru", "fifo", "lfu", "gdsf"),
// returning false for unknown names.
func NewPolicy(name string) (cache.Policy, bool) {
	switch name {
	case "lru":
		return cache.NewLRU(), true
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

// policyByName resolves a policy name to the constructor core.Config.Policy
// takes, refusing names NewPolicy does not know.
func policyByName(name string) (func() cache.Policy, error) {
	if _, ok := NewPolicy(name); !ok {
		return nil, fmt.Errorf("experiments: unknown cache policy %q", name)
	}
	return func() cache.Policy { p, _ := NewPolicy(name); return p }, nil
}
