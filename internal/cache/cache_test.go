package cache

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/kb"
	"repro/internal/semantic"
)

var (
	fixtureOnce  sync.Once
	fixtureCodec *semantic.Codec
)

// testModel returns a model with a real codec (shared, untrained — size is
// all that matters here) under the given key.
func testModel(t *testing.T, domain, user string, role kb.Role) *kb.Model {
	t.Helper()
	fixtureOnce.Do(func() {
		corp := corpus.Build()
		fixtureCodec = semantic.NewCodec(corp.Domain("it"), semantic.Config{
			EmbedDim: 8, FeatureDim: 4, HiddenDim: 8,
		})
	})
	return &kb.Model{Key: kb.Key{Domain: domain, User: user, Role: role}, Version: 1, Codec: fixtureCodec}
}

// capacityFor returns a capacity fitting exactly n codec-role models.
func capacityFor(t *testing.T, n int) int64 {
	t.Helper()
	m := testModel(t, "x", "", kb.RoleCodec)
	return m.SizeBytes() * int64(n)
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, NewLRU()); err == nil {
		t.Fatal("accepted zero capacity")
	}
	if _, err := New(-5, NewLRU()); err == nil {
		t.Fatal("accepted negative capacity")
	}
	if _, err := New(100, nil); err == nil {
		t.Fatal("accepted nil policy")
	}
}

func TestPutGetHitMiss(t *testing.T) {
	c, err := New(capacityFor(t, 4), NewLRU())
	if err != nil {
		t.Fatal(err)
	}
	m := testModel(t, "it", "", kb.RoleCodec)
	if _, ok := c.Get(m.Key); ok {
		t.Fatal("empty cache returned a model")
	}
	if err := c.Put(m, false); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(m.Key)
	if !ok || got != m {
		t.Fatal("Get after Put failed")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.BytesFetched != m.SizeBytes() {
		t.Fatalf("BytesFetched = %d, want %d", s.BytesFetched, m.SizeBytes())
	}
	if s.HitRate() != 0.5 {
		t.Fatalf("HitRate = %v", s.HitRate())
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c, err := New(capacityFor(t, 2), NewLRU())
	if err != nil {
		t.Fatal(err)
	}
	a := testModel(t, "a", "", kb.RoleCodec)
	b := testModel(t, "b", "", kb.RoleCodec)
	d := testModel(t, "d", "", kb.RoleCodec)
	if err := c.Put(a, false); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(b, false); err != nil {
		t.Fatal(err)
	}
	c.Get(a.Key) // a becomes most recent
	if err := c.Put(d, false); err != nil {
		t.Fatal(err)
	}
	if c.Contains(b.Key) {
		t.Fatal("LRU should have evicted b (least recently used)")
	}
	if !c.Contains(a.Key) || !c.Contains(d.Key) {
		t.Fatal("wrong eviction victim")
	}
	if c.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d", c.Stats().Evictions)
	}
}

func TestFIFOIgnoresAccess(t *testing.T) {
	c, err := New(capacityFor(t, 2), NewFIFO())
	if err != nil {
		t.Fatal(err)
	}
	a := testModel(t, "a", "", kb.RoleCodec)
	b := testModel(t, "b", "", kb.RoleCodec)
	d := testModel(t, "d", "", kb.RoleCodec)
	for _, m := range []*kb.Model{a, b} {
		if err := c.Put(m, false); err != nil {
			t.Fatal(err)
		}
	}
	c.Get(a.Key) // FIFO must not care
	if err := c.Put(d, false); err != nil {
		t.Fatal(err)
	}
	if c.Contains(a.Key) {
		t.Fatal("FIFO should have evicted a (oldest)")
	}
}

func TestLFUEvictsLeastFrequent(t *testing.T) {
	c, err := New(capacityFor(t, 2), NewLFU())
	if err != nil {
		t.Fatal(err)
	}
	a := testModel(t, "a", "", kb.RoleCodec)
	b := testModel(t, "b", "", kb.RoleCodec)
	d := testModel(t, "d", "", kb.RoleCodec)
	for _, m := range []*kb.Model{a, b} {
		if err := c.Put(m, false); err != nil {
			t.Fatal(err)
		}
	}
	c.Get(a.Key)
	c.Get(a.Key)
	c.Get(b.Key)
	if err := c.Put(d, false); err != nil {
		t.Fatal(err)
	}
	if c.Contains(b.Key) {
		t.Fatal("LFU should have evicted b (freq 2 vs a's 3)")
	}
}

func TestGDSFPrefersSmallPopular(t *testing.T) {
	// One decoder-role (smaller) popular entry and one codec-role (larger)
	// unpopular entry: GDSF must evict the large unpopular one.
	big := testModel(t, "big", "", kb.RoleCodec)
	small := testModel(t, "small", "", kb.RoleDecoder)
	next := testModel(t, "next", "", kb.RoleDecoder)
	capacity := big.SizeBytes() + small.SizeBytes()
	c, err := New(capacity, NewGDSF())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(big, false); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(small, false); err != nil {
		t.Fatal(err)
	}
	c.Get(small.Key)
	c.Get(small.Key)
	if err := c.Put(next, false); err != nil {
		t.Fatal(err)
	}
	if c.Contains(big.Key) {
		t.Fatal("GDSF should have evicted the large unpopular entry")
	}
	if !c.Contains(small.Key) {
		t.Fatal("GDSF evicted the small popular entry")
	}
}

func TestPinnedNeverEvicted(t *testing.T) {
	c, err := New(capacityFor(t, 2), NewLRU())
	if err != nil {
		t.Fatal(err)
	}
	pinned := testModel(t, "general", "", kb.RoleCodec)
	if err := c.Put(pinned, true); err != nil {
		t.Fatal(err)
	}
	// Fill and churn the remaining capacity.
	for i, name := range []string{"u1", "u2", "u3", "u4"} {
		_ = i
		m := testModel(t, "it", name, kb.RoleCodec)
		if err := c.Put(m, false); err != nil {
			t.Fatal(err)
		}
	}
	if !c.Contains(pinned.Key) {
		t.Fatal("pinned entry was evicted")
	}
}

func TestPutTooLargeFails(t *testing.T) {
	m := testModel(t, "it", "", kb.RoleCodec)
	c, err := New(m.SizeBytes()-1, NewLRU())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(m, false); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestPutBlockedByPinned(t *testing.T) {
	c, err := New(capacityFor(t, 1), NewLRU())
	if err != nil {
		t.Fatal(err)
	}
	pinned := testModel(t, "general", "", kb.RoleCodec)
	if err := c.Put(pinned, true); err != nil {
		t.Fatal(err)
	}
	other := testModel(t, "other", "", kb.RoleCodec)
	if err := c.Put(other, false); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge (pinned blocks)", err)
	}
	if !c.Contains(pinned.Key) {
		t.Fatal("pinned entry missing after failed Put")
	}
}

func TestReplaceSameKey(t *testing.T) {
	c, err := New(capacityFor(t, 2), NewLRU())
	if err != nil {
		t.Fatal(err)
	}
	m1 := testModel(t, "it", "u1", kb.RoleCodec)
	m2 := &kb.Model{Key: m1.Key, Version: 2, Codec: m1.Codec}
	if err := c.Put(m1, false); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(m2, false); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d after replace", c.Len())
	}
	got, _ := c.Get(m1.Key)
	if got.Version != 2 {
		t.Fatalf("Version = %d, want 2", got.Version)
	}
	if c.Used() != m2.SizeBytes() {
		t.Fatalf("Used = %d, want one model", c.Used())
	}
}

func TestRemove(t *testing.T) {
	c, err := New(capacityFor(t, 2), NewLRU())
	if err != nil {
		t.Fatal(err)
	}
	m := testModel(t, "it", "", kb.RoleCodec)
	if err := c.Put(m, false); err != nil {
		t.Fatal(err)
	}
	if !c.Remove(m.Key) {
		t.Fatal("Remove returned false for present key")
	}
	if c.Remove(m.Key) {
		t.Fatal("Remove returned true for absent key")
	}
	if c.Used() != 0 || c.Len() != 0 {
		t.Fatal("cache not empty after Remove")
	}
}

func TestUsedNeverExceedsCapacity(t *testing.T) {
	c, err := New(capacityFor(t, 3), NewLRU())
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"a", "b", "d", "e", "f", "g", "h"}
	for _, n := range names {
		if err := c.Put(testModel(t, n, "", kb.RoleCodec), false); err != nil {
			t.Fatal(err)
		}
		if c.Used() > c.Capacity() {
			t.Fatalf("Used %d exceeds capacity %d", c.Used(), c.Capacity())
		}
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
}

func TestResetStats(t *testing.T) {
	c, err := New(capacityFor(t, 2), NewLRU())
	if err != nil {
		t.Fatal(err)
	}
	c.Get(kb.Key{Domain: "x", Role: kb.RoleCodec})
	c.ResetStats()
	if s := c.Stats(); s.Misses != 0 {
		t.Fatalf("stats after reset = %+v", s)
	}
}

func TestNewPolicyByName(t *testing.T) {
	for _, name := range []string{"lru", "fifo", "lfu", "gdsf"} {
		p, ok := NewPolicy(name)
		if !ok || p.Name() != name {
			t.Fatalf("NewPolicy(%q) = %v, %v", name, p, ok)
		}
	}
	if _, ok := NewPolicy("belady"); ok {
		t.Fatal("NewPolicy accepted unknown name")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c, err := New(capacityFor(t, 4), NewLRU())
	if err != nil {
		t.Fatal(err)
	}
	models := []*kb.Model{
		testModel(t, "a", "", kb.RoleCodec),
		testModel(t, "b", "", kb.RoleCodec),
		testModel(t, "d", "", kb.RoleCodec),
		testModel(t, "e", "", kb.RoleCodec),
		testModel(t, "f", "", kb.RoleCodec),
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				m := models[(g+i)%len(models)]
				if i%3 == 0 {
					_ = c.Put(m, false)
				} else {
					c.Get(m.Key)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Used() > c.Capacity() {
		t.Fatal("capacity violated under concurrency")
	}
}

func TestPolicyVictimEmpty(t *testing.T) {
	for _, p := range []Policy{NewLRU(), NewFIFO(), NewLFU(), NewGDSF()} {
		if _, ok := p.Victim(); ok {
			t.Fatalf("%s: empty policy proposed a victim", p.Name())
		}
	}
}

func TestEvictionGuardSparesVetoedVictim(t *testing.T) {
	c, err := New(capacityFor(t, 2), NewLRU())
	if err != nil {
		t.Fatal(err)
	}
	a := testModel(t, "a", "", kb.RoleCodec)
	b := testModel(t, "b", "", kb.RoleCodec)
	d := testModel(t, "d", "", kb.RoleCodec)
	e := testModel(t, "e", "", kb.RoleCodec)
	if err := c.Put(a, false); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(b, false); err != nil {
		t.Fatal(err)
	}
	// LRU would evict a (oldest); the guard spares it, so b goes instead.
	c.SetEvictionGuard(func(k kb.Key) bool { return k.Domain != "a" })
	if err := c.Put(d, false); err != nil {
		t.Fatal(err)
	}
	if c.Contains(b.Key) {
		t.Fatal("guard veto did not redirect the eviction to b")
	}
	if !c.Contains(a.Key) || !c.Contains(d.Key) {
		t.Fatal("guarded entry or new entry missing")
	}
	if c.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", c.Stats().Evictions)
	}
	// Lifting the guard restores normal eviction, and the spared entry is
	// back in the policy (re-admitted fresh, so d is now the LRU victim).
	c.SetEvictionGuard(nil)
	if err := c.Put(e, false); err != nil {
		t.Fatal(err)
	}
	if c.Contains(d.Key) {
		t.Fatal("expected d evicted after the guard was lifted")
	}
	if !c.Contains(a.Key) || !c.Contains(e.Key) {
		t.Fatal("wrong victim after lifting the guard")
	}
}

func TestEvictionGuardCapacityWins(t *testing.T) {
	c, err := New(capacityFor(t, 2), NewLRU())
	if err != nil {
		t.Fatal(err)
	}
	a := testModel(t, "a", "", kb.RoleCodec)
	b := testModel(t, "b", "", kb.RoleCodec)
	d := testModel(t, "d", "", kb.RoleCodec)
	if err := c.Put(a, false); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(b, false); err != nil {
		t.Fatal(err)
	}
	// The guard vetoes everything; local capacity is a hard bound, so a
	// spared entry is evicted anyway rather than failing the insert.
	c.SetEvictionGuard(func(kb.Key) bool { return false })
	if err := c.Put(d, false); err != nil {
		t.Fatalf("insert failed with an all-vetoing guard: %v", err)
	}
	if !c.Contains(d.Key) {
		t.Fatal("new entry missing")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	if c.Used() > c.Capacity() {
		t.Fatal("capacity violated")
	}
	if c.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", c.Stats().Evictions)
	}
}

func TestEvictionGuardNeverSeesPinned(t *testing.T) {
	c, err := New(capacityFor(t, 2), NewLRU())
	if err != nil {
		t.Fatal(err)
	}
	pinned := testModel(t, "p", "", kb.RoleCodec)
	b := testModel(t, "b", "", kb.RoleCodec)
	d := testModel(t, "d", "", kb.RoleCodec)
	if err := c.Put(pinned, true); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(b, false); err != nil {
		t.Fatal(err)
	}
	c.SetEvictionGuard(func(k kb.Key) bool {
		if k.Domain == "p" {
			t.Error("guard consulted for a pinned entry")
		}
		return true
	})
	if err := c.Put(d, false); err != nil {
		t.Fatal(err)
	}
	if !c.Contains(pinned.Key) || !c.Contains(d.Key) || c.Contains(b.Key) {
		t.Fatal("wrong eviction outcome with a pinned entry present")
	}
}
