package mat

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
)

// Dense is a row-major dense matrix of float64 values.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewDense allocates a zeroed Rows x Cols matrix. It panics on non-positive
// dimensions.
func NewDense(rows, cols int) *Dense {
	if rows <= 0 || cols <= 0 {
		panic("mat: NewDense called with non-positive dimension")
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a mutable view of row i.
func (m *Dense) Row(i int) []float64 {
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// CopyFrom copies src's contents into m. It panics if shapes differ.
func (m *Dense) CopyFrom(src *Dense) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic("mat: CopyFrom shape mismatch")
	}
	copy(m.Data, src.Data)
}

// Randomize fills m with uniform values in [-scale, scale) drawn from rng.
func (m *Dense) Randomize(rng *RNG, scale float64) {
	for i := range m.Data {
		m.Data[i] = (2*rng.Float64() - 1) * scale
	}
}

// GlorotInit fills m with the Glorot/Xavier uniform initialization for a
// layer with fanIn inputs and fanOut outputs.
func (m *Dense) GlorotInit(rng *RNG, fanIn, fanOut int) {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	m.Randomize(rng, limit)
}

const denseMagic = uint32(0x4d415431) // "MAT1"

// denseHeaderBytes is the size of a serialized matrix's header: magic,
// rows and cols.
const denseHeaderBytes = 12

// errBadMatrix reports a malformed serialized matrix.
var errBadMatrix = errors.New("mat: malformed serialized matrix")

// AppendTo appends m's binary form to dst and returns the extended slice:
// magic, rows, cols (uint32 each, little-endian) followed by Rows*Cols
// float64 values. dst grows at most once, by SizeBytes.
func (m *Dense) AppendTo(dst []byte) []byte {
	dst = slices.Grow(dst, int(m.SizeBytes()))
	dst = binary.LittleEndian.AppendUint32(dst, denseMagic)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(m.Rows))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(m.Cols))
	n := len(dst)
	dst = dst[:n+8*len(m.Data)]
	for i, v := range m.Data {
		binary.LittleEndian.PutUint64(dst[n+8*i:], math.Float64bits(v))
	}
	return dst
}

// ParseDense decodes the matrix AppendTo wrote at the front of b and
// returns it with the bytes that follow it. The header, and the data's
// length against b, are checked before the matrix is allocated.
func ParseDense(b []byte) (*Dense, []byte, error) {
	if len(b) < denseHeaderBytes {
		return nil, nil, fmt.Errorf("mat: read header: %w", io.ErrUnexpectedEOF)
	}
	if binary.LittleEndian.Uint32(b[0:]) != denseMagic {
		return nil, nil, errBadMatrix
	}
	rows := int(binary.LittleEndian.Uint32(b[4:]))
	cols := int(binary.LittleEndian.Uint32(b[8:]))
	// The element-count bound is checked in uint64: on 32-bit platforms
	// rows*cols computed in int can overflow and wrap to a small positive
	// value, bypassing the limit before allocation. 1<<20 elements (8 MiB)
	// is orders of magnitude above any real model tensor while keeping the
	// worst-case allocation a forged header can demand modest.
	if rows <= 0 || cols <= 0 || uint64(rows)*uint64(cols) > 1<<20 {
		return nil, nil, errBadMatrix
	}
	b = b[denseHeaderBytes:]
	n := rows * cols
	if len(b) < 8*n {
		return nil, nil, fmt.Errorf("mat: read data: %w", io.ErrUnexpectedEOF)
	}
	m := NewDense(rows, cols)
	for i := range m.Data {
		m.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return m, b[8*n:], nil
}

// SizeBytes returns the serialized size of m in bytes.
func (m *Dense) SizeBytes() int64 { return denseHeaderBytes + int64(8*len(m.Data)) }
