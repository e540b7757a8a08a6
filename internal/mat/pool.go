package mat

import "sync"

// This file implements the reusable scratch arena the steady-state serving
// path allocates from. A Scratch hands out float64/int slices and Dense
// headers from grow-once backing buffers: after a few warm-up requests the
// buffers have reached their high-water mark and every subsequent
// Vec/Ints/Mat call is allocation-free. Scratches cycle through a
// package-level sync.Pool so concurrent requests each get a private arena
// without per-request heap garbage.

// Scratch is a bump-pointer arena for temporary kernel buffers. It is not
// safe for concurrent use; each goroutine takes its own via GetScratch.
// Buffers returned by Vec/Ints/Mat contain arbitrary stale data — callers
// must fully overwrite (or explicitly zero) them. Reset recycles every
// outstanding buffer at once: values handed out before a Reset must not be
// used after it.
type Scratch struct {
	arena []float64
	off   int
	ints  []int
	ioff  int
	mats  []*Dense
	nmat  int
}

// Reset recycles the arena: every slice and matrix previously handed out is
// up for reuse by subsequent calls.
func (s *Scratch) Reset() {
	s.off = 0
	s.ioff = 0
	s.nmat = 0
}

// Vec returns an uninitialized float64 slice of length n from the arena.
func (s *Scratch) Vec(n int) []float64 {
	if n < 0 {
		panic("mat: Scratch.Vec negative length")
	}
	if s.off+n > len(s.arena) {
		// A fresh backing array replaces the arena; slices handed out
		// earlier keep referencing the old array and stay valid.
		size := 2 * len(s.arena)
		if size < s.off+n {
			size = s.off + n
		}
		if size < 256 {
			size = 256
		}
		s.arena = make([]float64, size)
		s.off = 0
	}
	v := s.arena[s.off : s.off+n : s.off+n]
	s.off += n
	return v
}

// Ints returns an uninitialized int slice of length n from the arena.
func (s *Scratch) Ints(n int) []int {
	if n < 0 {
		panic("mat: Scratch.Ints negative length")
	}
	if s.ioff+n > len(s.ints) {
		size := 2 * len(s.ints)
		if size < s.ioff+n {
			size = s.ioff + n
		}
		if size < 64 {
			size = 64
		}
		s.ints = make([]int, size)
		s.ioff = 0
	}
	v := s.ints[s.ioff : s.ioff+n : s.ioff+n]
	s.ioff += n
	return v
}

// Mat returns an uninitialized rows x cols matrix backed by the arena.
// Unlike NewDense it tolerates rows == 0 (an empty token sequence), so hot
// paths need no special case.
func (s *Scratch) Mat(rows, cols int) *Dense {
	if rows < 0 || cols <= 0 {
		panic("mat: Scratch.Mat invalid dimensions")
	}
	d := s.header()
	d.Rows, d.Cols, d.Data = rows, cols, s.Vec(rows*cols)
	return d
}

// Wrap returns a rows x cols Dense header over caller-supplied data,
// reusing the arena's header storage so steady-state wrapping allocates
// nothing. It panics if data does not hold exactly rows*cols values.
func (s *Scratch) Wrap(rows, cols int, data []float64) *Dense {
	if rows < 0 || cols <= 0 || len(data) != rows*cols {
		panic("mat: Scratch.Wrap shape mismatch")
	}
	d := s.header()
	d.Rows, d.Cols, d.Data = rows, cols, data
	return d
}

// header returns the next reusable Dense header, growing the header pool on
// first use of each slot.
func (s *Scratch) header() *Dense {
	var d *Dense
	if s.nmat < len(s.mats) {
		d = s.mats[s.nmat]
	} else {
		d = new(Dense)
		s.mats = append(s.mats, d)
	}
	s.nmat++
	return d
}

// scratchPool recycles Scratch arenas across requests.
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// maxPooledScratchFloats bounds the arena size returned to the pool so one
// pathological request (e.g. a firehose message) cannot pin a giant buffer
// for the rest of the process lifetime.
const maxPooledScratchFloats = 1 << 22 // 32 MiB of float64

// GetScratch takes a reset Scratch from the package pool.
func GetScratch() *Scratch {
	s := scratchPool.Get().(*Scratch)
	s.Reset()
	return s
}

// PutScratch returns a Scratch to the package pool. The caller must not use
// s, or any buffer obtained from it, afterwards.
func PutScratch(s *Scratch) {
	if len(s.arena) > maxPooledScratchFloats {
		return
	}
	scratchPool.Put(s)
}
