package channel

import (
	"sync"
	"testing"

	"repro/internal/mat"
)

// poolTestSNR is the SNR every pool test runs at; sharedLink builds the
// serialized reference for it: the link a pool instance holds, around an
// RNG the test reseeds itself.
const poolTestSNR = 12

func sharedLink() (FeatureLink, *mat.RNG) {
	rng := mat.NewRNG(0)
	return DefaultFeatureLink(&AWGN{SNRdB: poolTestSNR, Rng: rng}), rng
}

// poolTestPayload is a deterministic flat feature buffer.
func poolTestPayload(n int, seed uint64) []float64 {
	rng := mat.NewRNG(seed)
	flat := make([]float64, n)
	for i := range flat {
		flat[i] = 2*rng.Float64() - 1
	}
	return flat
}

// TestSendSeededMatchesSerializedReseed pins the pool's founding claim:
// checking ANY instance out of the pool and calling SendSeeded produces
// the exact bytes a single shared channel would under a lock — reseed,
// then SendFlatScratch. Instances are deliberately left warm (reused
// across seeds in a scrambled order) to prove buffer history is
// irrelevant.
func TestSendSeededMatchesSerializedReseed(t *testing.T) {
	const dims = 96
	seeds := []uint64{3, 11, 3, 900719, 11, 0xdeadbeef, 3}
	flat := poolTestPayload(dims, 42)

	// Serialized reference: one shared channel, reseeded per message.
	shared, sharedRng := sharedLink()
	var ts TxScratch
	want := make([][]float64, len(seeds))
	for i, seed := range seeds {
		sharedRng.Reseed(seed)
		dst := make([]float64, dims)
		shared.SendFlatScratch(&ts, dst, flat)
		want[i] = dst
	}

	// Pooled path: interleave two instances so each crossing runs on an
	// instance warmed by a DIFFERENT seed's history.
	pool := NewLinkPool(poolTestSNR)
	a, b := pool.Get(), pool.Get()
	insts := []*TxInstance{a, b}
	for i, seed := range seeds {
		dst := make([]float64, dims)
		insts[i%2].SendSeeded(seed, dst, flat)
		for j := range dst {
			if dst[j] != want[i][j] {
				t.Fatalf("seed %#x: pooled output[%d] = %v, serialized reference %v",
					seed, j, dst[j], want[i][j])
			}
		}
	}
	pool.Put(a)
	pool.Put(b)
}

// TestLinkPoolSameSeedSameBytes checks that two different instances given
// the same seed produce identical crossings — the property that makes
// WHICH instance serves a request irrelevant.
func TestLinkPoolSameSeedSameBytes(t *testing.T) {
	const dims = 64
	flat := poolTestPayload(dims, 7)
	pool := NewLinkPool(poolTestSNR)
	a, b := pool.Get(), pool.Get()
	// Warm b with unrelated traffic first.
	scratchDst := make([]float64, dims)
	b.SendSeeded(0xabcdef, scratchDst, flat)

	da := make([]float64, dims)
	db := make([]float64, dims)
	sa := a.SendSeeded(77, da, flat)
	sb := b.SendSeeded(77, db, flat)
	if sa != sb {
		t.Fatalf("stats diverge across instances: %+v vs %+v", sa, sb)
	}
	for i := range da {
		if da[i] != db[i] {
			t.Fatalf("output[%d] diverges across instances: %v vs %v", i, da[i], db[i])
		}
	}
	pool.Put(a)
	pool.Put(b)
}

// TestLinkPoolCheckoutZeroAllocs pins the steady-state cost of the
// lock-free channel stage at the channel layer: a warm Get → SendSeeded →
// Put cycle performs zero heap allocations. (The serve-path pin in core
// covers the same property end to end.)
func TestLinkPoolCheckoutZeroAllocs(t *testing.T) {
	if mat.RaceEnabled {
		t.Skip("allocation accounting differs under -race")
	}
	const dims = 96
	flat := poolTestPayload(dims, 9)
	dst := make([]float64, dims)
	pool := NewLinkPool(poolTestSNR)
	crossing := func() {
		inst := pool.Get()
		inst.SendSeeded(123, dst, flat)
		pool.Put(inst)
	}
	for i := 0; i < 8; i++ {
		crossing() // warm the instance's scratch to its high-water mark
	}
	if allocs := testing.AllocsPerRun(100, crossing); allocs != 0 {
		t.Fatalf("warm pooled crossing allocates %v times, want 0", allocs)
	}
}

// TestLinkPoolConcurrentCrossings hammers one pool from many goroutines
// under the race detector and checks every crossing still reproduces the
// serialized reference bytes for its seed.
func TestLinkPoolConcurrentCrossings(t *testing.T) {
	const (
		dims       = 48
		goroutines = 8
		perG       = 40
	)
	flat := poolTestPayload(dims, 21)

	// Reference bytes per seed, drawn serially.
	shared, sharedRng := sharedLink()
	var ts TxScratch
	want := make(map[uint64][]float64)
	for g := 0; g < goroutines; g++ {
		for i := 0; i < perG; i++ {
			seed := uint64(g*1000 + i)
			sharedRng.Reseed(seed)
			dst := make([]float64, dims)
			shared.SendFlatScratch(&ts, dst, flat)
			want[seed] = dst
		}
	}

	pool := NewLinkPool(poolTestSNR)
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dst := make([]float64, dims)
			for i := 0; i < perG; i++ {
				seed := uint64(g*1000 + i)
				inst := pool.Get()
				inst.SendSeeded(seed, dst, flat)
				pool.Put(inst)
				for j := range dst {
					if dst[j] != want[seed][j] {
						errs <- "concurrent pooled crossing diverged from serialized reference"
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}
