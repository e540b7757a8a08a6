package semantic

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/mat"
)

// This file implements the decode memo: a fixed-size table an edge server
// keeps from (weights stamp, exact bit pattern of one feature row) to the
// concept that row decodes to. It serves the receiver's decode, whose rows
// crossed the channel; the sender's decoder copy sees only clean rows, a
// function of the surface ID, and reads them from the sender table
// (table.go) without coming here.
//
// It is exact because the codec is context-free per token — a concept is
// the argmax of a two-layer MLP over ONE feature row — and because the
// GEMMs under DecodeFeaturesInto compute every output element as its own
// serial dot product (mat/gemm.go), so a row's result does not depend on
// the batch it sits in: decoding only the rows the table has not seen, in
// a smaller batch, yields the same bits. A domain has under a hundred
// surfaces and a received row is almost always the one quantized image of
// its clean row, so nearly every row of a message is a repeat. A codec
// whose decode looked at neighbouring tokens would have to drop the memo.
//
// Validity is checked at lookup, never promised by writers: the key
// carries the codec's stamp (see Codec.Params), so the entries of a
// fine-tuned, updated, imported or evicted model stop matching and age out
// by replacement. Nothing ever invalidates the table.

// Memo geometry: 512 sets x 4 ways = 2048 entries of 80 bytes, 160 KB per
// edge server. Memory picks the size, measured on the wire benchmark's
// rss_mb (bound +15 %) by the issue's prototype: a memo inside each codec
// (64 KB of keys plus a weight snapshot, re-allocated by every Personalize
// clone) read personalize 14.19 -> 17.72 MB (+25 %) and roam 30.06 ->
// 37.42; one per edge server at 4096 slots read +11 % / +8.7 %; at 2048
// slots +6 % / +3.8 %; at 1024 slots the misses of long_msg's eight
// domains x ~95 rows per edge gave a third of the gain back. Associativity
// is then free to choose, and at 37 % load it matters: with two ways,
// three live rows in one set keep evicting each other, and the long_msg
// shape (BenchmarkDecodeMemo/resident-8x95) re-misses 7.8 % of its rows,
// which doubles the cost of a message (98 vs 41 ns/row: every miss batch
// pays the kernel's fixed cost); four ways re-miss 1.4 % (57 ns/row),
// eight none but scan longer (62 ns/row). Constants, not knobs: no
// workload wants other values.
const (
	memoSetBits = 9
	memoSets    = 1 << memoSetBits
	memoWays    = 4
	// memoRowFloats is the widest feature row the table keys (the default
	// FeatureDim). Narrower rows are zero-padded — one stamp names one
	// codec, so one width — and wider ones go straight to the kernel.
	memoRowFloats = 8
)

// memoEntry is one cached decode. stamp 0 marks an empty slot: live stamps
// start at 1.
type memoEntry struct {
	stamp   uint64
	row     [memoRowFloats]uint64 // math.Float64bits of the feature row
	concept int32
	used    uint32 // DecodeMemo.tick at the last hit or insert: LRU within the set
}

// memoSet is the ways one key can live in.
type memoSet [memoWays]memoEntry

// find returns the way holding (stamp, key), or -1.
func (s *memoSet) find(stamp uint64, key *[memoRowFloats]uint64) int {
	for w := range s {
		if s[w].stamp == stamp && s[w].row == *key {
			return w
		}
	}
	return -1
}

// victim returns the way an insert overwrites: an empty one, else the
// least recently used (tick distances compare correctly across a wrap).
func (s *memoSet) victim() int {
	w := 0
	for v := 1; v < memoWays && s[w].stamp != 0; v++ {
		if s[v].stamp == 0 || int32(s[v].used-s[w].used) < 0 {
			w = v
		}
	}
	return w
}

// MemoStats counts a DecodeMemo's traffic since it was built. Hits/Lookups
// is the share of feature rows that skipped the decoder MLP; Replaced
// counts inserts that overwrote a live entry (capacity or conflict
// pressure, or a restamped model's dead rows ageing out).
type MemoStats struct {
	Lookups, Hits, Inserts, Replaced uint64
}

// Add folds o into s.
func (s *MemoStats) Add(o MemoStats) {
	s.Lookups += o.Lookups
	s.Hits += o.Hits
	s.Inserts += o.Inserts
	s.Replaced += o.Replaced
}

// DecodeMemo is the table. Its size is a compile-time constant: it is
// allocated once per edge server, on the first decode (a server that only
// ever sends holds none), and nothing is ever allocated per codec, per user
// or per request. It is safe for concurrent use, and any number of codecs
// may share one.
type DecodeMemo struct {
	mu   sync.Mutex
	tick uint32             // one per DecodeFeaturesInto call; wrapping only blurs the LRU order
	sets *[memoSets]memoSet // nil until the first lookup

	lookups, hits, inserts, replaced atomic.Uint64
}

// NewDecodeMemo returns an empty memo.
func NewDecodeMemo() *DecodeMemo { return new(DecodeMemo) }

// Stats returns the memo's counters. A nil memo reports zeros.
func (m *DecodeMemo) Stats() MemoStats {
	if m == nil {
		return MemoStats{}
	}
	return MemoStats{
		Lookups:  m.lookups.Load(),
		Hits:     m.hits.Load(),
		Inserts:  m.inserts.Load(),
		Replaced: m.replaced.Load(),
	}
}

// memoKey returns the bit pattern of row, zero-padded to the key width.
// Rows compare by bits, not by value: -0 and +0, or two NaN payloads, are
// distinct keys that each cache their own (identical or not) kernel result.
func memoKey(row []float64) (key [memoRowFloats]uint64) {
	for i, v := range row {
		key[i] = math.Float64bits(v)
	}
	return key
}

// set returns the set (stamp, key) maps to. The index is the top bits of a
// multiply-xorshift chain over the nine words, so every input bit reaches
// it: quantized rows differ only in a few exponent and high mantissa bits.
func (m *DecodeMemo) set(stamp uint64, key *[memoRowFloats]uint64) *memoSet {
	h := stamp * 0x9e3779b97f4a7c15
	for _, w := range key {
		h = (h ^ w) * 0xff51afd7ed558ccd
		h ^= h >> 32
	}
	return &m.sets[h>>(64-memoSetBits)]
}

// DecodeFeaturesInto is c.DecodeFeaturesInto(sc, feats, dst) — the same
// concepts, bit for bit — computing only the rows the memo does not hold
// for c's current weights: every row is looked up under one short lock,
// the misses are gathered into a scratch matrix and run through the
// unchanged kernel, and their results are inserted. Temporaries come from
// sc, so a warm call allocates nothing. A nil memo decodes directly.
func (m *DecodeMemo) DecodeFeaturesInto(sc *mat.Scratch, c *Codec, feats *mat.Dense, dst []int) {
	if m == nil || feats.Cols > memoRowFloats {
		c.DecodeFeaturesInto(sc, feats, dst)
		return
	}
	if len(dst) != feats.Rows || feats.Cols != c.cfg.FeatureDim {
		panic("semantic: DecodeMemo.DecodeFeaturesInto shape mismatch")
	}
	stamp := c.stamp.Load()
	missed := sc.Ints(feats.Rows)[:0]
	m.mu.Lock()
	if m.sets == nil {
		m.sets = new([memoSets]memoSet)
	}
	m.tick++
	for i := 0; i < feats.Rows; i++ {
		key := memoKey(feats.Row(i))
		set := m.set(stamp, &key)
		if w := set.find(stamp, &key); w >= 0 {
			dst[i] = int(set[w].concept)
			set[w].used = m.tick
		} else {
			missed = append(missed, i)
		}
	}
	m.mu.Unlock()
	m.lookups.Add(uint64(feats.Rows))
	m.hits.Add(uint64(feats.Rows - len(missed)))
	if len(missed) == 0 {
		return
	}

	x := sc.Mat(len(missed), feats.Cols)
	for j, i := range missed {
		copy(x.Row(j), feats.Row(i))
	}
	concepts := sc.Ints(len(missed))
	c.DecodeFeaturesInto(sc, x, concepts)
	for j, i := range missed {
		dst[i] = concepts[j]
	}
	if c.stamp.Load() != stamp {
		// The weights were handed out for writing meanwhile: the results
		// stand for this call, but no later lookup can match them.
		return
	}
	var inserts, replaced uint64
	m.mu.Lock()
	for j := range missed {
		key := memoKey(x.Row(j))
		set := m.set(stamp, &key)
		// A duplicate row earlier in this batch, or another goroutine
		// since the lookup, may have inserted the key already.
		w := set.find(stamp, &key)
		if w < 0 {
			w = set.victim()
			inserts++
			if set[w].stamp != 0 {
				replaced++
			}
			set[w] = memoEntry{stamp: stamp, row: key, concept: int32(concepts[j])}
		}
		set[w].used = m.tick
	}
	m.mu.Unlock()
	m.inserts.Add(inserts)
	m.replaced.Add(replaced)
}
