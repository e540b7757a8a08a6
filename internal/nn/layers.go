package nn

import (
	"repro/internal/mat"
)

// Embedding maps integer token IDs to dense vectors via a VxE lookup table.
type Embedding struct {
	Table *mat.Dense // V rows, E cols
}

// NewEmbedding allocates a Glorot-initialized embedding table for vocab
// words of dim dimensions.
func NewEmbedding(rng *mat.RNG, vocab, dim int) *Embedding {
	e := &Embedding{Table: mat.NewDense(vocab, dim)}
	e.Table.GlorotInit(rng, vocab, dim)
	return e
}

// Vocab returns the number of rows (token IDs) in the table.
func (e *Embedding) Vocab() int { return e.Table.Rows }

// Lookup returns a read-only view of the embedding for token id.
func (e *Embedding) Lookup(id int) []float64 { return e.Table.Row(id) }

// AccumulateGrad adds dVec into the gradient row for token id. grad must be
// a ZeroClone-shaped gradient table for this embedding.
func (e *Embedding) AccumulateGrad(grad *mat.Dense, id int, dVec []float64) {
	mat.AddTo(grad.Row(id), dVec)
}

// Linear is a fully connected layer computing y = W*x + b.
type Linear struct {
	W *mat.Dense // Out x In
	B *mat.Dense // 1 x Out (kept as a matrix so it shares ParamSet plumbing)
}

// NewLinear allocates a Glorot-initialized layer with the given fan-in and
// fan-out.
func NewLinear(rng *mat.RNG, in, out int) *Linear {
	l := &Linear{W: mat.NewDense(out, in), B: mat.NewDense(1, out)}
	l.W.GlorotInit(rng, in, out)
	return l
}

// ForwardBatch computes dst = x*Wᵀ + b for a batch: row i of dst is the
// layer output W*x_i + b for row i of x, and a single example is a one-row
// batch. Each output element keeps the serial dot-product accumulation
// order, so a row's output does not depend on the rows beside it. dst must
// not alias x.
func (l *Linear) ForwardBatch(dst, x *mat.Dense) {
	mat.MulMatTAddRow(dst, x, l.W, l.B.Row(0))
}

// BackwardBatch accumulates parameter gradients for a batch of examples and
// computes per-example input gradients. Every gradient element accumulates
// the examples in ascending row order, so the result is bit-identical to
// running the batch one one-row call at a time.
//
//	x      — batch inputs, one example per row
//	dy     — batch output gradients, aligned with x
//	gW, gB — gradient accumulators shaped like W and B
//	dx     — batch input-gradient buffer (may be nil to skip)
func (l *Linear) BackwardBatch(x, dy *mat.Dense, gW, gB *mat.Dense, dx *mat.Dense) {
	mat.AddOuterBatch(gW, 1, dy, x)
	mat.AddRowsTo(gB.Row(0), dy)
	if dx != nil {
		mat.MulMat(dx, dy, l.W)
	}
}

// TanhForward applies tanh element-wise: dst = tanh(src). dst may alias src.
func TanhForward(dst, src []float64) { mat.Tanh(dst, src) }

// TanhBackward computes the input gradient of a tanh layer given the
// activation output y and the output gradient dy: dx = dy * (1 - y^2).
// dst may alias dy.
func TanhBackward(dst, y, dy []float64) {
	if len(dst) != len(y) || len(y) != len(dy) {
		panic("nn: TanhBackward length mismatch")
	}
	for i := range dst {
		dst[i] = dy[i] * (1 - y[i]*y[i])
	}
}
