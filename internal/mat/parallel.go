package mat

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file holds the repository's one fan-out: ForEach runs independent
// jobs — a domain's pretraining, an experiment's trial — across a worker
// budget. The codec kernels (gemm.go) are serial: a served daemon runs
// its requests in parallel across users, and the codec's matrices are far
// too small for sharding them to pay.

var workers atomic.Int64

func init() { SetParallelism(runtime.GOMAXPROCS(0)) }

// SetParallelism sets the number of goroutines ForEach runs its jobs on.
// Values below 1 are clamped to 1, which runs every job on the caller. The
// default is runtime.GOMAXPROCS(0).
func SetParallelism(n int) {
	if n < 1 {
		n = 1
	}
	workers.Store(int64(n))
}

// Parallelism returns the current worker count.
func Parallelism() int { return int(workers.Load()) }

// ForEach runs fn(0) … fn(n-1) on up to Parallelism() goroutines, handing
// out indices one at a time as workers free up. On failure it returns the
// error of the lowest-numbered failing job — the same error serial
// execution would return — so error reporting, like results, never depends
// on scheduling. Callers must make fn write results by index and derive
// any randomness from the index, not from the order jobs run in; then the
// result is bit-identical at any worker count.
func ForEach(n int, fn func(i int) error) error {
	w := min(Parallelism(), n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for range w {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
