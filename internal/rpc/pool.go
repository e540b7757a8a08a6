package rpc

import (
	"math/bits"
	"sync"
)

// Buffers of more than connBufBytes — the frames that carry model
// parameters, and the parameter bytes a handover exports before they are
// framed — cycle through one pool with a power-of-two size class per
// capacity from 8 KB to MaxMessageBytes. A buffer is taken for one frame
// or one export and put back once its bytes are spent, so a member that
// moves users steadily reuses a few buffers instead of allocating two or
// three model-sized ones per move. Being a sync.Pool, an idle pool gives
// its buffers back to the garbage collector.
const (
	minPoolShift = 13 // 8 KB, the first class above connBufBytes
	maxPoolShift = 20 // 1 MB, MaxMessageBytes
)

// pools[i] holds buffers whose capacity is at least 1<<(minPoolShift+i),
// each in a *[]byte from boxes.
var pools [maxPoolShift - minPoolShift + 1]sync.Pool

// boxes recycles the *[]byte a pooled buffer travels in, so putting a
// buffer back allocates nothing.
var boxes = sync.Pool{New: func() any { return new([]byte) }}

// classFor returns the index of the smallest class whose buffers hold n
// bytes, or -1 for a size the pool does not serve.
func classFor(n int) int {
	if n <= connBufBytes || n > 1<<maxPoolShift {
		return -1
	}
	return max(bits.Len(uint(n-1)), minPoolShift) - minPoolShift
}

// pooled returns an empty buffer with room for n bytes if the pool holds
// one of n's class, and nil otherwise: it never allocates.
func pooled(n int) []byte {
	c := classFor(n)
	if c < 0 {
		return nil
	}
	box, _ := pools[c].Get().(*[]byte)
	if box == nil {
		return nil
	}
	b := *box
	*box = nil
	boxes.Put(box)
	return b[:0]
}

// GetBuffer returns an empty buffer with room for at least n bytes: from
// the pool when it holds one of n's class, else newly allocated at the
// class's full size so that it serves the class once it is put back.
// Sizes the pool does not serve are allocated exactly.
func GetBuffer(n int) []byte {
	if b := pooled(n); b != nil {
		return b
	}
	if c := classFor(n); c >= 0 {
		return make([]byte, 0, 1<<(minPoolShift+c))
	}
	return make([]byte, 0, n)
}

// PutBuffer hands b back to the pool, filed under the largest class its
// capacity covers; one smaller than the smallest class is left to the
// garbage collector. Neither b nor any slice of it may be used afterwards.
func PutBuffer(b []byte) {
	shift := bits.Len(uint(cap(b))) - 1
	if shift < minPoolShift {
		return
	}
	box := boxes.Get().(*[]byte)
	*box = b[:0]
	pools[min(shift, maxPoolShift)-minPoolShift].Put(box)
}
