package cache

import (
	"fmt"
	"testing"

	"repro/internal/kb"
	"repro/internal/mat"
)

// This file is the property/invariant harness over every eviction policy:
// random operation sequences drive a Cache while a shadow model checks,
// after every single operation, that
//
//   - Used() never exceeds Capacity() and always equals the sum of the
//     resident entry sizes,
//   - pinned entries are never evicted (only explicit Remove or a same-key
//     Put may take them out),
//   - the policy's bookkeeping tracks exactly the unpinned residents,
//   - Stats accounting balances: hits+misses equals the number of Gets,
//     BytesFetched equals the admitted bytes, and Evictions equals the
//     number of entries that vanished without an explicit Remove/replace.
//
// It also proves the heap-based LFU/GDSF rewrites evict in exactly the
// order of the original O(n) scan implementations, which are preserved
// below as references.

// scanLFU is the pre-heap LFU implementation: linear victim scan over
// (freq, tick). Kept as the eviction-order reference and the "before"
// side of the victim benchmarks.
type scanLFU struct {
	freq map[kb.Key]int
	tick map[kb.Key]uint64
	now  uint64
}

func newScanLFU() *scanLFU {
	return &scanLFU{freq: make(map[kb.Key]int, 16), tick: make(map[kb.Key]uint64, 16)}
}

func (p *scanLFU) Name() string { return "lfu-scan" }

func (p *scanLFU) OnAdmit(k kb.Key, _ int64) {
	p.now++
	if _, ok := p.freq[k]; !ok {
		p.freq[k] = 1
	}
	p.tick[k] = p.now
}

func (p *scanLFU) OnAccess(k kb.Key) {
	p.now++
	if _, ok := p.freq[k]; ok {
		p.freq[k]++
		p.tick[k] = p.now
	}
}

func (p *scanLFU) OnRemove(k kb.Key) {
	delete(p.freq, k)
	delete(p.tick, k)
}

func (p *scanLFU) Victim() (kb.Key, bool) {
	var best kb.Key
	bestFreq := -1
	var bestTick uint64
	for k, f := range p.freq {
		if bestFreq == -1 || f < bestFreq || (f == bestFreq && p.tick[k] < bestTick) {
			best, bestFreq, bestTick = k, f, p.tick[k]
		}
	}
	if bestFreq == -1 {
		return kb.Key{}, false
	}
	return best, true
}

func (p *scanLFU) Len() int { return len(p.freq) }

// scanGDSF is the pre-heap GDSF implementation: linear victim scan over
// (priority, key string).
type scanGDSF struct {
	prio  map[kb.Key]float64
	freq  map[kb.Key]int
	size  map[kb.Key]int64
	clock float64
}

func newScanGDSF() *scanGDSF {
	return &scanGDSF{
		prio: make(map[kb.Key]float64, 16),
		freq: make(map[kb.Key]int, 16),
		size: make(map[kb.Key]int64, 16),
	}
}

func (p *scanGDSF) Name() string { return "gdsf-scan" }

func (p *scanGDSF) OnAdmit(k kb.Key, size int64) {
	if _, ok := p.freq[k]; !ok {
		p.freq[k] = 1
		p.size[k] = size
	}
	p.prio[k] = p.clock + float64(p.freq[k])/sizeKiB(p.size[k])
}

func (p *scanGDSF) OnAccess(k kb.Key) {
	if _, ok := p.freq[k]; !ok {
		return
	}
	p.freq[k]++
	p.prio[k] = p.clock + float64(p.freq[k])/sizeKiB(p.size[k])
}

func (p *scanGDSF) OnRemove(k kb.Key) {
	if pr, ok := p.prio[k]; ok && pr > p.clock {
		p.clock = pr
	}
	delete(p.prio, k)
	delete(p.freq, k)
	delete(p.size, k)
}

func (p *scanGDSF) Victim() (kb.Key, bool) {
	var best kb.Key
	bestPrio := -1.0
	found := false
	for k, pr := range p.prio {
		if !found || pr < bestPrio || (pr == bestPrio && k.String() < best.String()) {
			best, bestPrio, found = k, pr, true
		}
	}
	return best, found
}

func (p *scanGDSF) Len() int { return len(p.prio) }

// propKey builds the i-th key of the harness key universe.
func propKey(i int) kb.Key {
	return kb.Key{Domain: fmt.Sprintf("d%02d", i%7), User: fmt.Sprintf("u%02d", i/7), Role: kb.RoleCodec}
}

// propSize is a deterministic per-key size in bytes, spanning well below
// and above the 1 KiB floor GDSF normalizes against.
func propSize(i int) int64 {
	return int64(200 + (i*977)%4000)
}

// TestHeapPoliciesMatchScanReference drives the heap LFU/GDSF and their
// scan references with identical random operation sequences and requires
// the identical victim after every step, then drains both to empty and
// requires the identical full eviction order.
func TestHeapPoliciesMatchScanReference(t *testing.T) {
	cases := []struct {
		name      string
		heap, ref Policy
	}{
		{"lfu", NewLFU(), newScanLFU()},
		{"gdsf", NewGDSF(), newScanGDSF()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := mat.NewRNG(42)
			const universe = 64
			live := make(map[int]bool)
			for step := 0; step < 4000; step++ {
				i := rng.Intn(universe)
				k := propKey(i)
				switch op := rng.Intn(10); {
				case op < 4: // admit
					tc.heap.OnAdmit(k, propSize(i))
					tc.ref.OnAdmit(k, propSize(i))
					live[i] = true
				case op < 8: // access (sometimes a key the policy never saw)
					tc.heap.OnAccess(k)
					tc.ref.OnAccess(k)
				default: // remove
					tc.heap.OnRemove(k)
					tc.ref.OnRemove(k)
					delete(live, i)
				}
				hv, hok := tc.heap.Victim()
				rv, rok := tc.ref.Victim()
				if hok != rok || hv != rv {
					t.Fatalf("step %d: heap victim (%v,%v) != scan victim (%v,%v)", step, hv, hok, rv, rok)
				}
				if tc.heap.Len() != len(live) || tc.ref.Len() != len(live) {
					t.Fatalf("step %d: Len heap=%d ref=%d want %d", step, tc.heap.Len(), tc.ref.Len(), len(live))
				}
			}
			// Full drain: eviction order must match to the last entry.
			for tc.ref.Len() > 0 {
				hv, hok := tc.heap.Victim()
				rv, rok := tc.ref.Victim()
				if !hok || !rok || hv != rv {
					t.Fatalf("drain: heap (%v,%v) != scan (%v,%v)", hv, hok, rv, rok)
				}
				tc.heap.OnRemove(hv)
				tc.ref.OnRemove(rv)
			}
			if _, ok := tc.heap.Victim(); ok {
				t.Fatal("drained heap policy still proposes a victim")
			}
		})
	}
}

// shadowEntry mirrors one resident cache entry in the harness model.
type shadowEntry struct {
	size   int64
	pinned bool
}

// checkInvariants verifies every cache invariant against the shadow model.
func checkInvariants(t *testing.T, step int, c *Cache, shadow map[kb.Key]shadowEntry, gets, admittedBytes int64, evictions uint64) {
	t.Helper()
	if c.Used() > c.Capacity() {
		t.Fatalf("step %d: Used %d exceeds Capacity %d", step, c.Used(), c.Capacity())
	}
	var wantUsed int64
	unpinned := 0
	for k, e := range shadow {
		wantUsed += e.size
		if !e.pinned {
			unpinned++
		}
		if !c.Contains(k) {
			t.Fatalf("step %d: shadow entry %v missing from cache", step, k)
		}
		if e.pinned {
			if _, ok := c.Peek(k); !ok {
				t.Fatalf("step %d: pinned entry %v was evicted", step, k)
			}
		}
	}
	if c.Used() != wantUsed {
		t.Fatalf("step %d: Used %d != shadow %d", step, c.Used(), wantUsed)
	}
	if c.Len() != len(shadow) {
		t.Fatalf("step %d: Len %d != shadow %d", step, c.Len(), len(shadow))
	}
	if got := c.policy.Len(); got != unpinned {
		t.Fatalf("step %d: policy %s tracks %d entries, want %d unpinned", step, c.policy.Name(), got, unpinned)
	}
	st := c.Stats()
	if int64(st.Hits+st.Misses) != gets {
		t.Fatalf("step %d: hits %d + misses %d != gets %d", step, st.Hits, st.Misses, gets)
	}
	if st.BytesFetched != admittedBytes {
		t.Fatalf("step %d: BytesFetched %d != admitted %d", step, st.BytesFetched, admittedBytes)
	}
	if st.Evictions != evictions {
		t.Fatalf("step %d: Evictions %d != observed %d", step, st.Evictions, evictions)
	}
}

// TestCacheInvariantsUnderRandomOps runs the random-op invariant harness
// over every registered policy.
func TestCacheInvariantsUnderRandomOps(t *testing.T) {
	steps := 3000
	if testing.Short() {
		steps = 800
	}
	for _, name := range []string{"lru", "fifo", "lfu", "gdsf"} {
		t.Run(name, func(t *testing.T) {
			policy, ok := NewPolicy(name)
			if !ok {
				t.Fatalf("unknown policy %q", name)
			}
			// Capacity fits roughly half the live universe so evictions are
			// constant; model sizes vary per role.
			roles := []kb.Role{kb.RoleEncoder, kb.RoleDecoder, kb.RoleCodec}
			base := testModel(t, "cap", "", kb.RoleCodec).SizeBytes()
			c, err := New(4*base, policy)
			if err != nil {
				t.Fatal(err)
			}
			rng := mat.NewRNG(7 + uint64(len(name)))
			shadow := make(map[kb.Key]shadowEntry)
			var gets, admittedBytes int64
			var evictions uint64
			const universe = 24
			for step := 0; step < steps; step++ {
				i := rng.Intn(universe)
				role := roles[i%len(roles)]
				m := testModel(t, fmt.Sprintf("d%d", i%5), fmt.Sprintf("u%d", i/5), role)
				switch op := rng.Intn(10); {
				case op < 5: // Put, occasionally pinned
					pinned := rng.Intn(8) == 0
					before := make(map[kb.Key]bool, len(shadow))
					for k := range shadow {
						before[k] = true
					}
					err := c.Put(m, pinned)
					// Put removes any same-key entry first, success or not.
					delete(shadow, m.Key)
					if err == nil {
						admittedBytes += m.SizeBytes()
						shadow[m.Key] = shadowEntry{size: m.SizeBytes(), pinned: pinned}
					}
					// Entries that vanished (other than the Put key itself)
					// were evicted by policy choice.
					for k := range before {
						if k != m.Key && !c.Contains(k) {
							delete(shadow, k)
							evictions++
						}
					}
				case op < 8: // Get
					_, hit := c.Get(m.Key)
					gets++
					if _, want := shadow[m.Key]; hit != want {
						t.Fatalf("step %d: Get(%v) hit=%v, shadow says %v", step, m.Key, hit, want)
					}
				case op < 9: // Remove
					removed := c.Remove(m.Key)
					if _, want := shadow[m.Key]; removed != want {
						t.Fatalf("step %d: Remove(%v)=%v, shadow says %v", step, m.Key, removed, want)
					}
					delete(shadow, m.Key)
				default: // Peek must not move any counter
					st := c.Stats()
					c.Peek(m.Key)
					if c.Stats() != st {
						t.Fatalf("step %d: Peek changed stats", step)
					}
				}
				checkInvariants(t, step, c, shadow, gets, admittedBytes, evictions)
			}
			if evictions == 0 {
				t.Fatal("harness never evicted; capacity too generous to test anything")
			}
		})
	}
}

// benchPolicyVictim measures the steady-state victim-selection cost at n
// resident entries: each iteration accesses one key (heap update path) and
// asks for a victim.
func benchPolicyVictim(b *testing.B, p Policy, n int) {
	for i := 0; i < n; i++ {
		p.OnAdmit(propKey(i), propSize(i))
	}
	rng := mat.NewRNG(9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.OnAccess(propKey(rng.Intn(n)))
		if _, ok := p.Victim(); !ok {
			b.Fatal("no victim")
		}
	}
}

// Victim-selection benchmarks at 10k entries: the heap implementations
// (shipped) against the preserved O(n) scan references (before).
func BenchmarkLFUVictim10k(b *testing.B) {
	b.Run("heap", func(b *testing.B) { benchPolicyVictim(b, NewLFU(), 10000) })
	b.Run("scan", func(b *testing.B) { benchPolicyVictim(b, newScanLFU(), 10000) })
}

func BenchmarkGDSFVictim10k(b *testing.B) {
	b.Run("heap", func(b *testing.B) { benchPolicyVictim(b, NewGDSF(), 10000) })
	b.Run("scan", func(b *testing.B) { benchPolicyVictim(b, newScanGDSF(), 10000) })
}
