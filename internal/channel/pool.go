package channel

// This file implements the poolable channel stage: a TxInstance bundles
// one independently usable copy of the physical layer (a FeatureLink
// whose Channel owns a private noise RNG, plus the per-stage scratch
// buffers), and a LinkPool hands instances to concurrent transmissions
// without a lock. The design exists for per-message derived noise seeds
// (core's PerUserNoise mode): because every draw's seed is a pure
// function of (user, seq), WHICH physical instance performs the draw is
// irrelevant — reseeding any instance to the derived seed reproduces the
// exact bytes a single serialized channel would have produced under a
// global mutex. A system on the shared-RNG scheme — no daemon any more,
// only what core.Config.PerUserNoise lists — advances one noise stream in
// global arrival order, cannot use the pool and keeps its lock.

import (
	"sync"

	"repro/internal/mat"
)

// TxInstance is everything one in-flight transmission needs exclusive
// access to: the default feature link over an AWGN channel that owns a
// private RNG, and the reusable stage buffers. An instance is not safe for
// concurrent use; a LinkPool hands each transmission its own.
type TxInstance struct {
	link    FeatureLink
	rng     *mat.RNG
	scratch TxScratch
}

// SendSeeded resets the instance's noise stream to the exact state a
// freshly constructed channel with this seed would have and runs one
// allocation-free crossing. The output is bit-identical to reseeding a
// shared serialized channel under a lock and calling SendFlatScratch:
// the draw depends only on seed, never on which instance (or how warm a
// buffer) performs it.
func (t *TxInstance) SendSeeded(seed uint64, dst, flat []float64) LinkStats {
	t.rng.Reseed(seed)
	return t.link.SendFlatScratch(&t.scratch, dst, flat)
}

// LinkPool is a lock-free free list of TxInstances backing the parallel
// channel stage: Get checks an instance out (constructing one on a cold
// or post-GC pool), Put returns it warm. Steady-state checkout does not
// allocate — the zero-allocation serve-path pin covers it.
type LinkPool struct {
	pool sync.Pool
}

// NewLinkPool builds a pool of DefaultFeatureLink instances over AWGN at
// snrDB. Each instance owns its channel and RNG; the RNG's initial seed is
// never drawn from, because SendSeeded reseeds first.
func NewLinkPool(snrDB float64) *LinkPool {
	p := &LinkPool{}
	p.pool.New = func() interface{} {
		rng := mat.NewRNG(0)
		return &TxInstance{link: DefaultFeatureLink(&AWGN{SNRdB: snrDB, Rng: rng}), rng: rng}
	}
	return p
}

// Get checks an instance out for exclusive use.
func (p *LinkPool) Get() *TxInstance { return p.pool.Get().(*TxInstance) }

// Put returns an instance for reuse. The caller must not touch it after.
func (p *LinkPool) Put(t *TxInstance) { p.pool.Put(t) }
