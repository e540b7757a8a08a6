package semantic

import (
	"sync"
	"sync/atomic"

	"repro/internal/mat"
	"repro/internal/nn"
)

// This file implements the sender table: what a codec's current weights
// make of the surfaces of its lexicon — the clean feature row the encoder
// produces, and the concept the codec's own decoder restores from that row.
//
// It is exact for the reason the decode memo is (memo.go): the codec is
// context-free per token and every GEMM output element is its own serial
// dot product, so a row computed in whatever batch first asked for it has
// the bits of the same row computed alone or inside any later message. A
// domain has under a hundred surfaces, so after a message or two the sender
// side of a transmit is a row gather (the encode) and an array read (the
// §II-C decoder copy). Clean rows therefore never reach the DecodeMemo,
// which serves only the receiver's noisy ones.
//
// Rows are filled on first use, not all at once: a model that moves with
// its user (roam hands one over every seven short messages) restamps long
// before it has used its lexicon, and a whole-lexicon pass per restamp
// (≈0.1 ms) read +7 % cpu_us_per_req there.
//
// Validity follows the memo's rule — checked at read, never promised by
// writers: a table is current exactly while the stamp it was created under
// is the codec's, so a restamp (Params, DecoderParams) orphans it and the
// next read starts an empty one. Reading a filled row takes no lock, so the
// connections sharing a general model do not serialize; only fills do.

// senderTable is the table of one model state. The concept column is int32
// like the memo's: a table is allocated after every update and import, and
// rss_mb pays for it.
type senderTable struct {
	stamp    uint64
	feats    *mat.Dense // vocab x FeatureDim: EncodeSurfaceID of each filled surface
	concepts []int32    // the decoder's concept for each filled feats row
	// filled has one bit per surface, set — after the row and its concept
	// are written — by fill, which mu serializes.
	filled []atomic.Uint64
	mu     sync.Mutex
}

// senderRows returns the table for the codec's current weights, publishing
// an empty one when the published one is stale. Losing the publish to a
// concurrent reader of the same state adopts the winner's table.
func (c *Codec) senderRows() *senderTable {
	stamp := c.stamp.Load()
	old := c.table.Load()
	if old != nil && old.stamp == stamp {
		return old
	}
	vocab := c.emb.Vocab()
	t := &senderTable{
		stamp:    stamp,
		feats:    mat.NewDense(vocab, c.cfg.FeatureDim),
		concepts: make([]int32, vocab),
		filled:   make([]atomic.Uint64, (vocab+63)/64),
	}
	if !c.table.CompareAndSwap(old, t) {
		if cur := c.table.Load(); cur.stamp == stamp {
			return cur
		}
	}
	return t
}

// has reports whether surface id (in range) is filled.
func (t *senderTable) has(id int) bool { return t.filled[id>>6].Load()>>(id&63)&1 != 0 }

// holds reports whether every surface of ids is filled: the warm path.
func (t *senderTable) holds(c *Codec, ids []int) bool {
	for _, id := range ids {
		if !t.has(c.surface(id)) {
			return false
		}
	}
	return true
}

// fill runs the surfaces of ids the table does not hold yet through the
// unchanged kernels, as one batch. A warm call finds none and allocates
// nothing.
func (t *senderTable) fill(c *Codec, ids []int) {
	if t.holds(c, ids) {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sc := mat.GetScratch()
	defer mat.PutScratch(sc)
	miss := sc.Ints(len(ids))[:0]
	for _, id := range ids {
		if id = c.surface(id); !t.has(id) {
			miss = append(miss, id) // a repeat within the message is computed twice, once
		}
	}
	rows := sc.Mat(len(miss), c.cfg.FeatureDim)
	c.enc.ForwardBatch(rows, c.packSurfaceEmbeddings(sc, miss))
	nn.TanhForward(rows.Data, rows.Data)
	concepts := sc.Ints(len(miss))
	c.DecodeFeaturesInto(sc, rows, concepts)
	for j, id := range miss {
		copy(t.feats.Row(id), rows.Row(j))
		t.concepts[id] = int32(concepts[j])
	}
	for _, id := range miss {
		t.filled[id>>6].Or(1 << (id & 63))
	}
}

// EncodeSurfaceIDsInto encodes local surface IDs into a len(ids) x
// FeatureDim feature matrix allocated from sc: a gather of sender-table
// rows, bit-identical to per-token EncodeSurfaceID calls (IDs outside the
// lexicon read the unknown surface's row). It is the zero-allocation encode
// of the steady-state serving path (a surface is computed on its first use
// after a weight write); the result is owned by sc and must be consumed
// before the scratch is reset or pooled.
func (c *Codec) EncodeSurfaceIDsInto(sc *mat.Scratch, ids []int) *mat.Dense {
	t := c.senderRows()
	t.fill(c, ids)
	dst := sc.Mat(len(ids), c.cfg.FeatureDim)
	for i, id := range ids {
		copy(dst.Row(i), t.feats.Row(c.surface(id)))
	}
	return dst
}

// DecoderCopyInto writes to dst (length len(ids)) the concept the codec's
// own decoder restores from the clean features of each surface ID — the
// §II-C decoder copy of a message, bit-identical to DecodeFeaturesInto over
// EncodeSurfaceIDsInto and read from the same table.
func (c *Codec) DecoderCopyInto(ids, dst []int) {
	if len(dst) != len(ids) {
		panic("semantic: DecoderCopyInto dst length mismatch")
	}
	t := c.senderRows()
	t.fill(c, ids)
	for i, id := range ids {
		dst[i] = int(t.concepts[c.surface(id)])
	}
}
