package mat

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file implements the package's parallel compute layer: a bounded
// worker budget shared by every kernel, a ParallelFor primitive that shards
// index ranges across it, and the grain that keeps small kernel calls
// serial. The batched kernels (gemm.go) shard output rows through it, each
// output element accumulating in exactly its serial order, so results are
// bit-identical at any worker count: determinism never depends on
// SetParallelism. The per-vector kernels (MulVec, MulVecT, AddOuter) run
// only at layer sizes far below parallelCutoff and are plain serial loops.

// pool is the immutable worker budget snapshot ParallelFor operates on.
// sem has capacity workers-1: the calling goroutine always executes chunks
// too, so n workers means the caller plus at most n-1 helpers.
type pool struct {
	workers int
	sem     chan struct{}
}

var curPool atomic.Pointer[pool]

func init() { SetParallelism(runtime.GOMAXPROCS(0)) }

// SetParallelism sets the target number of concurrent workers used by the
// parallel kernels and ParallelFor. Values below 1 are clamped to 1, which
// forces fully serial execution. The default is runtime.GOMAXPROCS(0).
// Changing parallelism never changes numerical results.
func SetParallelism(n int) {
	if n < 1 {
		n = 1
	}
	curPool.Store(&pool{workers: n, sem: make(chan struct{}, n-1)})
}

// Parallelism returns the current target worker count.
func Parallelism() int { return curPool.Load().workers }

// ParallelFor runs body over contiguous chunks covering [0, n) using up to
// Parallelism() concurrent workers, including the calling goroutine. grain
// is the minimum chunk size: when n <= grain or parallelism is 1 the whole
// range runs inline as body(0, n), so small problems pay no scheduling
// overhead. Helper goroutines are drawn from a bounded budget; when the
// budget is exhausted (e.g. nested ParallelFor calls) chunks run inline on
// the caller, which makes nesting deadlock-free. ParallelFor returns only
// after every chunk has completed.
func ParallelFor(n, grain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	p := curPool.Load()
	if p.workers == 1 || n <= grain {
		body(0, n)
		return
	}
	parts := (n + grain - 1) / grain
	if parts > p.workers {
		parts = p.workers
	}
	chunk := (n + parts - 1) / parts
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi >= n {
			// Final chunk always runs on the calling goroutine.
			body(lo, n)
			break
		}
		select {
		case p.sem <- struct{}{}:
			wg.Add(1)
			go func(lo, hi int) {
				defer func() { <-p.sem; wg.Done() }()
				body(lo, hi)
			}(lo, hi)
		default:
			body(lo, hi)
		}
	}
	wg.Wait()
}

// parallelCutoff is the minimum number of scalar multiply-adds a kernel
// call must perform before sharding across workers pays for goroutine
// scheduling. Below it the kernels run their plain serial loops.
const parallelCutoff = 1 << 15

// kernelGrain converts a per-row cost into the ParallelFor grain that
// enforces parallelCutoff.
func kernelGrain(perIndex int) int {
	if perIndex <= 0 {
		return 1
	}
	g := parallelCutoff / perIndex
	if g < 1 {
		g = 1
	}
	return g
}
