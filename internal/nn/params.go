// Package nn is a small, pure-Go neural-network substrate: dense and
// embedding layers with manual backpropagation, SGD/Adam optimizers and
// parameter serialization.
//
// It exists because the reproduced paper's knowledge bases (KBs) are
// deep-learning encoder/decoder models that are trained, fine-tuned per
// user, and synchronized across edge servers by shipping their parameters.
// This package provides exactly those mechanics with no external
// dependencies.
package nn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/mat"
)

// Param is one named parameter tensor. Biases are stored as 1xN matrices so
// that every parameter flows through the same serialization and
// optimization paths.
type Param struct {
	Name string
	M    *mat.Dense
	// Rows, when non-nil, makes a gradient tensor row-sparse: every row it
	// does not list is zero, so an optimizer step — its scale, its clip norm,
	// its update and the clearing of the gradient — visits only the listed
	// rows. Nil (every tensor ZeroClone makes) is dense.
	Rows *RowSet
}

// RowSet lists rows of a row-sparse tensor, each once, in no particular
// order.
type RowSet struct {
	rows   []int
	listed []bool // by row
}

// NewRowSet returns an empty set over a tensor of n rows.
func NewRowSet(n int) *RowSet { return &RowSet{listed: make([]bool, n)} }

// Add lists row r; a listed row stays listed once.
func (s *RowSet) Add(r int) {
	if !s.listed[r] {
		s.listed[r] = true
		s.rows = append(s.rows, r)
	}
}

// clear empties the set.
func (s *RowSet) clear() {
	for _, r := range s.rows {
		s.listed[r] = false
	}
	s.rows = s.rows[:0]
}

// spans calls fn(lo, hi) for each stretch p.M.Data[lo:hi] that may hold a
// non-zero value: the whole tensor when it is dense, each listed row when
// it is row-sparse.
func (p *Param) spans(fn func(lo, hi int)) {
	if p.Rows == nil {
		fn(0, len(p.M.Data))
		return
	}
	for _, r := range p.Rows.rows {
		fn(r*p.M.Cols, (r+1)*p.M.Cols)
	}
}

// ParamSet is an ordered collection of named parameters. Order is
// significant: gradients, optimizer state and serialized forms all align by
// index.
type ParamSet struct {
	Params []Param
}

// Add appends a named tensor to the set.
func (ps *ParamSet) Add(name string, m *mat.Dense) {
	ps.Params = append(ps.Params, Param{Name: name, M: m})
}

// ByName returns the tensor with the given name, or nil if absent.
func (ps *ParamSet) ByName(name string) *mat.Dense {
	if p := ps.Param(name); p != nil {
		return p.M
	}
	return nil
}

// Param returns the entry of the named tensor (shared, so its Rows can be
// set), or nil if absent.
func (ps *ParamSet) Param(name string) *Param {
	for i := range ps.Params {
		if ps.Params[i].Name == name {
			return &ps.Params[i]
		}
	}
	return nil
}

// Clone returns a deep copy of the set.
func (ps *ParamSet) Clone() *ParamSet {
	out := &ParamSet{Params: make([]Param, 0, len(ps.Params))}
	for _, p := range ps.Params {
		out.Add(p.Name, p.M.Clone())
	}
	return out
}

// ZeroClone returns a set with the same names and shapes, all values zero.
// It is the canonical way to allocate a gradient buffer.
func (ps *ParamSet) ZeroClone() *ParamSet {
	out := &ParamSet{Params: make([]Param, 0, len(ps.Params))}
	for _, p := range ps.Params {
		out.Add(p.Name, mat.NewDense(p.M.Rows, p.M.Cols))
	}
	return out
}

// CheckSameShape reports the first way other differs from ps in tensor
// count, names or shapes, or nil if values can be copied between the two.
// It is the check to run on a set parsed from untrusted bytes before
// CopyFrom, which panics on a mismatch.
func (ps *ParamSet) CheckSameShape(other *ParamSet) error {
	if len(ps.Params) != len(other.Params) {
		return fmt.Errorf("nn: %d parameter tensors, want %d", len(other.Params), len(ps.Params))
	}
	for i, p := range ps.Params {
		o := other.Params[i]
		if p.Name != o.Name || p.M.Rows != o.M.Rows || p.M.Cols != o.M.Cols {
			return fmt.Errorf("nn: tensor %d is %q %dx%d, want %q %dx%d",
				i, o.Name, o.M.Rows, o.M.Cols, p.Name, p.M.Rows, p.M.Cols)
		}
	}
	return nil
}

// CheckFinite reports the first NaN or infinite value in the set, or nil.
// Run it, like CheckSameShape, on a set parsed from untrusted bytes before
// installing it: one non-finite weight makes every decode of that model an
// argmax over NaN logits — concept 0 for every token, silently.
func (ps *ParamSet) CheckFinite() error {
	for _, p := range ps.Params {
		for i, v := range p.M.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("nn: tensor %q holds %v at index %d", p.Name, v, i)
			}
		}
	}
	return nil
}

// CopyFrom copies values from src into ps. It panics if the sets are not
// shape-compatible.
func (ps *ParamSet) CopyFrom(src *ParamSet) {
	if len(ps.Params) != len(src.Params) {
		panic("nn: CopyFrom param count mismatch")
	}
	for i, p := range ps.Params {
		p.M.CopyFrom(src.Params[i].M)
	}
}

// NumValues returns the total number of scalar parameters.
func (ps *ParamSet) NumValues() int {
	n := 0
	for _, p := range ps.Params {
		n += len(p.M.Data)
	}
	return n
}

// DenseSizeBytes is the decoder sync's cost model: the bytes a
// self-describing lossless encoding of ps would take, from its shapes
// alone — an 8-byte set header, then per tensor a length-prefixed name,
// rows, cols, a flags byte and an entry count, and 8 bytes per value. No
// such encoding is built: both edges of a deployment share one process,
// and the decoder is handed over as it is.
func DenseSizeBytes(ps *ParamSet) int {
	size := 8
	for _, p := range ps.Params {
		size += 2 + len(p.Name) + 4 + 4 + 1 + 4 + 8*len(p.M.Data)
	}
	return size
}

// SizeBytes returns the serialized size of the set: the true footprint a
// model occupies in an edge cache or on the wire.
func (ps *ParamSet) SizeBytes() int64 {
	var n int64 = 4 // count header
	for _, p := range ps.Params {
		n += 2 + int64(len(p.Name)) + p.M.SizeBytes()
	}
	return n
}

// errBadParamSet reports a malformed serialized ParamSet.
var errBadParamSet = errors.New("nn: malformed serialized parameter set")

// minTensorBytes is the least a serialized tensor can take: a name length,
// a matrix header and one value.
const minTensorBytes = 2 + 12 + 8

// AppendTo appends the set's binary form to dst and returns the extended
// slice: a uint32 tensor count, then for each tensor a uint16 name length,
// the name bytes, and the matrix in mat binary form (little-endian
// throughout). dst grows at most once, by SizeBytes.
func (ps *ParamSet) AppendTo(dst []byte) ([]byte, error) {
	for _, p := range ps.Params {
		if len(p.Name) > 1<<16-1 {
			return dst, fmt.Errorf("nn: parameter name too long: %q", p.Name)
		}
	}
	dst = slices.Grow(dst, int(ps.SizeBytes()))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(ps.Params)))
	for _, p := range ps.Params {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(p.Name)))
		dst = append(dst, p.Name...)
		dst = p.M.AppendTo(dst)
	}
	return dst, nil
}

// ParseParamSet decodes a set AppendTo wrote, which must be all of b:
// trailing bytes are refused. Every count is checked against the bytes
// left before anything it sizes is allocated.
func ParseParamSet(b []byte) (*ParamSet, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("nn: read count: %w", io.ErrUnexpectedEOF)
	}
	count := binary.LittleEndian.Uint32(b)
	b = b[4:]
	if count > 1<<16 || uint64(count)*minTensorBytes > uint64(len(b)) {
		return nil, errBadParamSet
	}
	ps := &ParamSet{Params: make([]Param, 0, count)}
	for i := uint32(0); i < count; i++ {
		if len(b) < 2 {
			return nil, fmt.Errorf("nn: read name length: %w", io.ErrUnexpectedEOF)
		}
		nameLen := int(binary.LittleEndian.Uint16(b))
		b = b[2:]
		if len(b) < nameLen {
			return nil, fmt.Errorf("nn: read name: %w", io.ErrUnexpectedEOF)
		}
		name := string(b[:nameLen])
		m, rest, err := mat.ParseDense(b[nameLen:])
		if err != nil {
			return nil, fmt.Errorf("nn: read tensor %q: %w", name, err)
		}
		ps.Add(name, m)
		b = rest
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: %d bytes after the last tensor", errBadParamSet, len(b))
	}
	return ps, nil
}
