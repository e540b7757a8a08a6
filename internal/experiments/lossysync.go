package experiments

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/fl"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/semantic"
)

// This file holds what E4 and E7 measure beside the served decoder sync,
// which ships the decoder itself: lossy encodings of the decoder's change
// over one update, the sender/receiver agreement they cost, and the
// output-return feedback the decoder copy avoids.

// compressOptions selects the lossy encodings applied to a decoder delta
// before it is synced. The zero value is no encoding at all: the served
// sync, which copies the decoder.
type compressOptions struct {
	// topKFrac keeps only the given fraction (0,1] of entries per tensor,
	// chosen by largest magnitude. 0 or 1 keeps all entries.
	topKFrac float64
	// int8 quantizes values to int8 with a per-tensor scale factor.
	int8 bool
}

// compressedTensor is one tensor of a compressed delta.
type compressedTensor struct {
	name       string
	rows, cols int
	// idx holds flat indices of retained entries; nil means all entries in
	// order (dense).
	idx []uint32
	// val holds float64 values when q is nil.
	val []float64
	// q holds int8-quantized values with scale when quantization is on.
	q     []int8
	scale float64
}

// compressedDelta is a decoder delta under compressOptions.
type compressedDelta struct {
	tensors []compressedTensor
	// denseBytes is the served sync's cost of the uncompressed delta.
	denseBytes int
}

// compress encodes delta under opts. The input is not modified.
func compress(delta *nn.ParamSet, opts compressOptions) *compressedDelta {
	out := &compressedDelta{
		tensors:    make([]compressedTensor, 0, len(delta.Params)),
		denseBytes: nn.DenseSizeBytes(delta),
	}
	for _, p := range delta.Params {
		ct := compressedTensor{name: p.Name, rows: p.M.Rows, cols: p.M.Cols}
		data := p.M.Data
		var vals []float64
		if opts.topKFrac > 0 && opts.topKFrac < 1 {
			k := int(math.Ceil(opts.topKFrac * float64(len(data))))
			if k < 1 {
				k = 1
			}
			idx := topKIndices(data, k)
			ct.idx = make([]uint32, len(idx))
			vals = make([]float64, len(idx))
			for i, fi := range idx {
				ct.idx[i] = uint32(fi)
				vals[i] = data[fi]
			}
		} else {
			vals = mat.Clone(data)
		}
		if opts.int8 {
			scale := mat.MaxAbs(vals) / 127
			ct.scale = scale
			ct.q = make([]int8, len(vals))
			if scale > 0 {
				for i, v := range vals {
					q := math.Round(v / scale)
					if q > 127 {
						q = 127
					} else if q < -127 {
						q = -127
					}
					ct.q[i] = int8(q)
				}
			}
		} else {
			ct.val = vals
		}
		out.tensors = append(out.tensors, ct)
	}
	return out
}

// topKIndices returns the flat indices of the k largest-magnitude entries,
// in ascending index order for cache-friendly application.
func topKIndices(data []float64, k int) []int {
	idx := make([]int, len(data))
	for i := range idx {
		idx[i] = i
	}
	if k >= len(data) {
		return idx
	}
	sort.Slice(idx, func(a, b int) bool {
		return math.Abs(data[idx[a]]) > math.Abs(data[idx[b]])
	})
	kept := idx[:k]
	sort.Ints(kept)
	return kept
}

// applyTo adds the decompressed delta into params. Tensors are matched by
// name; a missing or shape-mismatched target is an error.
func (cd *compressedDelta) applyTo(params *nn.ParamSet) error {
	for i := range cd.tensors {
		ct := &cd.tensors[i]
		target := params.ByName(ct.name)
		if target == nil {
			return fmt.Errorf("experiments: apply: no parameter named %q", ct.name)
		}
		if target.Rows != ct.rows || target.Cols != ct.cols {
			return fmt.Errorf("experiments: apply: shape mismatch for %q: have %dx%d, update %dx%d",
				ct.name, target.Rows, target.Cols, ct.rows, ct.cols)
		}
		value := func(i int) float64 {
			if ct.q != nil {
				// The conversion rounds the product apart from the add,
				// so no GOAMD64 level fuses the two into other bits.
				return float64(float64(ct.q[i]) * ct.scale)
			}
			return ct.val[i]
		}
		if ct.idx == nil {
			for i := range target.Data {
				target.Data[i] += value(i)
			}
			continue
		}
		for i, fi := range ct.idx {
			target.Data[fi] += value(i)
		}
	}
	return nil
}

// sizeBytes is the sync's cost: the served dense cost with each tensor's
// values replaced by its retained indices and values (an int8 tensor
// carries its scale too).
func (cd *compressedDelta) sizeBytes() int {
	size := cd.denseBytes
	for i := range cd.tensors {
		ct := &cd.tensors[i]
		size += 4*len(ct.idx) - 8*ct.rows*ct.cols
		if ct.q != nil {
			size += 8 + len(ct.q)
		} else {
			size += 8 * len(ct.val)
		}
	}
	return size
}

// lossySync syncs upd to receiver as E4 and E7 meter a sync, and returns
// its cost in bytes. The zero opts is the served sync, fl.ApplyUpdate.
// Any other opts adds the decoder's change, upd.Decoder − before,
// compressed under opts, to the receiver's decoder; before is the sender's
// decoder taken before the fine-tune that made upd, and lossySync
// overwrites it with that change.
func lossySync(receiver *semantic.Codec, before *nn.ParamSet, upd *fl.Update, opts compressOptions) (int, error) {
	if opts == (compressOptions{}) {
		return upd.PayloadBytes, fl.ApplyUpdate(receiver, upd)
	}
	subFrom(before, upd.Decoder)
	cd := compress(before, opts)
	if err := cd.applyTo(receiver.DecoderParams()); err != nil {
		return 0, err
	}
	return cd.sizeBytes(), nil
}

// crossEvaluate measures end-to-end reconstruction accuracy when the
// sender's encoder feeds the receiver's decoder — the metric that exposes
// decoder-copy staleness and lossy-sync error. The whole example set is
// one batch: the sender's table encodes it, the receiver's GEMMs decode it.
func crossEvaluate(sender, receiver *semantic.Codec, examples []semantic.Example) float64 {
	if len(examples) == 0 {
		return 0
	}
	sc := mat.GetScratch()
	defer mat.PutScratch(sc)
	ids := sc.Ints(len(examples))
	for i, ex := range examples {
		ids[i] = ex.SurfaceID
	}
	concepts := sc.Ints(len(examples))
	receiver.DecodeFeaturesInto(sc, sender.EncodeSurfaceIDsInto(sc, ids), concepts)
	correct := 0
	for i, ex := range examples {
		if concepts[i] == ex.ConceptID {
			correct++
		}
	}
	return float64(correct) / float64(len(examples))
}

// outputReturnBytes is the feedback traffic a transaction would cost if the
// receiver had to send its decoded words back to the sender (the design
// rejected in §II-C): one byte per character of each word plus a
// separator.
func outputReturnBytes(words []string) int {
	n := 0
	for _, w := range words {
		n += len(w) + 1
	}
	return n
}
