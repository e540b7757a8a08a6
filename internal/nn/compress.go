package nn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/mat"
)

// CompressOptions selects the lossy encodings applied to a gradient (or
// model-delta) ParamSet before wire transport. The zero value means dense
// float64 — lossless.
type CompressOptions struct {
	// TopKFrac keeps only the given fraction (0,1] of entries per tensor,
	// chosen by largest magnitude. 0 or 1 transmits all entries.
	TopKFrac float64
	// Int8 quantizes values to int8 with a per-tensor scale factor.
	Int8 bool
}

// CompressedTensor is one tensor of a compressed update.
type CompressedTensor struct {
	Name       string
	Rows, Cols int
	// Idx holds flat indices of retained entries; nil means all entries in
	// order (dense).
	Idx []uint32
	// Val holds float64 values when Q is nil.
	Val []float64
	// Q holds int8-quantized values with Scale when quantization is on.
	Q     []int8
	Scale float64
}

// entries returns the number of retained values.
func (ct *CompressedTensor) entries() int {
	if ct.Q != nil {
		return len(ct.Q)
	}
	return len(ct.Val)
}

// CompressedGrads is a compressed parameter update ready for transport.
type CompressedGrads struct {
	Tensors []CompressedTensor
}

// Compress encodes grads under opts. The input is not modified.
func Compress(grads *ParamSet, opts CompressOptions) *CompressedGrads {
	out := &CompressedGrads{Tensors: make([]CompressedTensor, 0, len(grads.Params))}
	for _, p := range grads.Params {
		ct := CompressedTensor{Name: p.Name, Rows: p.M.Rows, Cols: p.M.Cols}
		data := p.M.Data
		var vals []float64
		if opts.TopKFrac > 0 && opts.TopKFrac < 1 {
			k := int(math.Ceil(opts.TopKFrac * float64(len(data))))
			if k < 1 {
				k = 1
			}
			idx := topKIndices(data, k)
			ct.Idx = make([]uint32, len(idx))
			vals = make([]float64, len(idx))
			for i, fi := range idx {
				ct.Idx[i] = uint32(fi)
				vals[i] = data[fi]
			}
		} else {
			vals = mat.Clone(data)
		}
		if opts.Int8 {
			scale := mat.MaxAbs(vals) / 127
			ct.Scale = scale
			ct.Q = make([]int8, len(vals))
			if scale > 0 {
				for i, v := range vals {
					q := math.Round(v / scale)
					if q > 127 {
						q = 127
					} else if q < -127 {
						q = -127
					}
					ct.Q[i] = int8(q)
				}
			}
		} else {
			ct.Val = vals
		}
		out.Tensors = append(out.Tensors, ct)
	}
	return out
}

// topKIndices returns the flat indices of the k largest-magnitude entries,
// in ascending index order for cache-friendly application.
func topKIndices(data []float64, k int) []int {
	if k >= len(data) {
		idx := make([]int, len(data))
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	idx := make([]int, len(data))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return math.Abs(data[idx[a]]) > math.Abs(data[idx[b]])
	})
	kept := idx[:k]
	sort.Ints(kept)
	return kept
}

// ApplyTo adds the decompressed update, multiplied by scale, into params.
// Tensors are matched by name; a missing or shape-mismatched target is an
// error.
func (cg *CompressedGrads) ApplyTo(params *ParamSet, scale float64) error {
	for i := range cg.Tensors {
		ct := &cg.Tensors[i]
		target := params.ByName(ct.Name)
		if target == nil {
			return fmt.Errorf("nn: apply: no parameter named %q", ct.Name)
		}
		if target.Rows != ct.Rows || target.Cols != ct.Cols {
			return fmt.Errorf("nn: apply: shape mismatch for %q: have %dx%d, update %dx%d",
				ct.Name, target.Rows, target.Cols, ct.Rows, ct.Cols)
		}
		value := func(i int) float64 {
			if ct.Q != nil {
				return float64(ct.Q[i]) * ct.Scale
			}
			return ct.Val[i]
		}
		if ct.Idx == nil {
			if ct.entries() != len(target.Data) {
				return fmt.Errorf("nn: apply: dense length mismatch for %q", ct.Name)
			}
			for i := range target.Data {
				target.Data[i] += scale * value(i)
			}
			continue
		}
		for i, fi := range ct.Idx {
			if int(fi) >= len(target.Data) {
				return fmt.Errorf("nn: apply: index %d out of range for %q", fi, ct.Name)
			}
			target.Data[fi] += scale * value(i)
		}
	}
	return nil
}

const (
	flagSparse = 1 << 0
	flagInt8   = 1 << 1
)

const gradMagic = uint32(0x47524431) // "GRD1"

// errBadGrads reports a malformed compressed-gradient payload.
var errBadGrads = errors.New("nn: malformed compressed gradients")

// Encode serializes the compressed update to a self-describing byte
// payload; its length is the wire cost counted by the experiments.
func (cg *CompressedGrads) Encode() []byte {
	buf := make([]byte, 0, cg.SizeBytes())
	var scratch [8]byte
	putU32 := func(v uint32) {
		binary.LittleEndian.PutUint32(scratch[:4], v)
		buf = append(buf, scratch[:4]...)
	}
	putU16 := func(v uint16) {
		binary.LittleEndian.PutUint16(scratch[:2], v)
		buf = append(buf, scratch[:2]...)
	}
	putF64 := func(v float64) {
		binary.LittleEndian.PutUint64(scratch[:8], math.Float64bits(v))
		buf = append(buf, scratch[:8]...)
	}
	putU32(gradMagic)
	putU32(uint32(len(cg.Tensors)))
	for i := range cg.Tensors {
		ct := &cg.Tensors[i]
		putU16(uint16(len(ct.Name)))
		buf = append(buf, ct.Name...)
		putU32(uint32(ct.Rows))
		putU32(uint32(ct.Cols))
		var flags byte
		if ct.Idx != nil {
			flags |= flagSparse
		}
		if ct.Q != nil {
			flags |= flagInt8
		}
		buf = append(buf, flags)
		putU32(uint32(ct.entries()))
		for _, ix := range ct.Idx {
			putU32(ix)
		}
		if ct.Q != nil {
			putF64(ct.Scale)
			for _, q := range ct.Q {
				buf = append(buf, byte(q))
			}
		} else {
			for _, v := range ct.Val {
				putF64(v)
			}
		}
	}
	return buf
}

// Encoded sizes: the payload opens with magic + tensor count, and every
// tensor with its name (length-prefixed), rows, cols, flags and entry count.
const payloadHeaderBytes = 8

func tensorHeaderBytes(name string) int { return 2 + len(name) + 4 + 4 + 1 + 4 }

// DenseSizeBytes returns what Compress(ps, CompressOptions{}).Encode()
// would weigh — the lossless wire cost of ps — from its shapes alone.
func DenseSizeBytes(ps *ParamSet) int {
	size := payloadHeaderBytes
	for _, p := range ps.Params {
		size += tensorHeaderBytes(p.Name) + 8*len(p.M.Data)
	}
	return size
}

// SizeBytes returns the encoded payload size without materializing it.
func (cg *CompressedGrads) SizeBytes() int {
	size := payloadHeaderBytes
	for i := range cg.Tensors {
		ct := &cg.Tensors[i]
		size += tensorHeaderBytes(ct.Name)
		if ct.Idx != nil {
			size += 4 * len(ct.Idx)
		}
		if ct.Q != nil {
			size += 8 + len(ct.Q) // scale + int8 values
		} else {
			size += 8 * len(ct.Val)
		}
	}
	return size
}

// DecodeCompressed parses a payload produced by Encode.
func DecodeCompressed(data []byte) (*CompressedGrads, error) {
	pos := 0
	need := func(n int) error {
		if pos+n > len(data) {
			return errBadGrads
		}
		return nil
	}
	getU32 := func() (uint32, error) {
		if err := need(4); err != nil {
			return 0, err
		}
		v := binary.LittleEndian.Uint32(data[pos:])
		pos += 4
		return v, nil
	}
	getU16 := func() (uint16, error) {
		if err := need(2); err != nil {
			return 0, err
		}
		v := binary.LittleEndian.Uint16(data[pos:])
		pos += 2
		return v, nil
	}
	getF64 := func() (float64, error) {
		if err := need(8); err != nil {
			return 0, err
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(data[pos:]))
		pos += 8
		return v, nil
	}
	magic, err := getU32()
	if err != nil {
		return nil, err
	}
	if magic != gradMagic {
		return nil, errBadGrads
	}
	count, err := getU32()
	if err != nil {
		return nil, err
	}
	if count > 1<<16 {
		return nil, errBadGrads
	}
	out := &CompressedGrads{Tensors: make([]CompressedTensor, 0, count)}
	for t := uint32(0); t < count; t++ {
		nameLen, err := getU16()
		if err != nil {
			return nil, err
		}
		if err := need(int(nameLen)); err != nil {
			return nil, err
		}
		name := string(data[pos : pos+int(nameLen)])
		pos += int(nameLen)
		rows, err := getU32()
		if err != nil {
			return nil, err
		}
		cols, err := getU32()
		if err != nil {
			return nil, err
		}
		if err := need(1); err != nil {
			return nil, err
		}
		flags := data[pos]
		pos++
		entries, err := getU32()
		if err != nil {
			return nil, err
		}
		if int64(rows)*int64(cols) > 1<<28 || entries > rows*cols {
			return nil, errBadGrads
		}
		ct := CompressedTensor{Name: name, Rows: int(rows), Cols: int(cols)}
		if flags&flagSparse != 0 {
			ct.Idx = make([]uint32, entries)
			for i := range ct.Idx {
				v, err := getU32()
				if err != nil {
					return nil, err
				}
				ct.Idx[i] = v
			}
		} else if entries != rows*cols {
			return nil, errBadGrads
		}
		if flags&flagInt8 != 0 {
			ct.Scale, err = getF64()
			if err != nil {
				return nil, err
			}
			if err := need(int(entries)); err != nil {
				return nil, err
			}
			ct.Q = make([]int8, entries)
			for i := range ct.Q {
				ct.Q[i] = int8(data[pos+i])
			}
			pos += int(entries)
		} else {
			ct.Val = make([]float64, entries)
			for i := range ct.Val {
				v, err := getF64()
				if err != nil {
					return nil, err
				}
				ct.Val[i] = v
			}
		}
		out.Tensors = append(out.Tensors, ct)
	}
	return out, nil
}
