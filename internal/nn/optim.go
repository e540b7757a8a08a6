package nn

import (
	"math"
	"slices"

	"repro/internal/mat"
)

// Optimizer updates a parameter set in place from a gradient set of the
// same shape.
type Optimizer interface {
	// Step applies one update from the gradient times scale (a minibatch
	// step passes 1/n for the mean over its n examples) and consumes the
	// gradient: every value is +0 and every row set empty on return.
	// Implementations must not retain grads.
	Step(params, grads *ParamSet, scale float64)
}

// A step is two sweeps over the gradient. The first (clipScale) multiplies
// it by the step's scale and stores the product, summing its squares for
// the clip norm on the way; the second updates the parameters and writes
// +0 back over every gradient value it reads.
//
// A step visits only what can move. A gradient tensor may be row-sparse
// (Param.Rows); the optimizers keep, per such tensor, the set of rows their
// state has ever been stepped on, and step the rows of that set after
// adding the gradient's. Every other row has zero state and a zero
// gradient, and the update of such a row is provably the identity: SGD
// adds −lr·(+0) (momentum: velocity m·0 − lr·0 = +0, then p + 0), Adam
// moves by −LR·0/(0+eps). The one exception is SGD with momentum on a
// weight that is exactly −0, which p + (+0) turns into +0 — and no weight
// this repository trains or loads is −0 (TestPretrainedWeightsHoldNoNegativeZero).

// SGD is stochastic gradient descent with optional momentum and global
// gradient-norm clipping.
type SGD struct {
	LR       float64 // learning rate; must be > 0
	Momentum float64 // 0 disables momentum
	Clip     float64 // 0 disables clipping; otherwise max global L2 norm

	velocity *ParamSet
}

var _ Optimizer = (*SGD)(nil)

// Step applies one SGD update to params.
func (o *SGD) Step(params, grads *ParamSet, scale float64) {
	clip := clipScale(grads, scale, o.Clip)
	if o.Momentum == 0 {
		for i := range params.Params {
			p, g := params.Params[i].M.Data, &grads.Params[i]
			g.spans(func(lo, hi int) {
				mat.AXPY(p[lo:hi], -o.LR*clip, g.M.Data[lo:hi])
				mat.Zero(g.M.Data[lo:hi])
			})
		}
		clearRows(grads)
		return
	}
	if o.velocity == nil {
		o.velocity = stateFor(params, grads)
	}
	lr := o.LR * clip
	for i := range params.Params {
		p, g, v := params.Params[i].M.Data, grads.Params[i].M.Data, &o.velocity.Params[i]
		v.track(&grads.Params[i])
		v.spans(func(lo, hi int) { mat.MomentumStep(p[lo:hi], v.M.Data[lo:hi], g[lo:hi], o.Momentum, lr) })
	}
	clearRows(grads)
}

// Adam is the Adam optimizer with bias correction, β1 = 0.9, β2 = 0.999
// and ε = 1e-8.
type Adam struct {
	LR   float64 // learning rate; must be > 0
	Clip float64 // 0 disables clipping

	m, v *ParamSet // m's row sets track the rows of both
	t    int
}

var _ Optimizer = (*Adam)(nil)

// Step applies one Adam update to params.
func (o *Adam) Step(params, grads *ParamSet, scale float64) {
	// Typed, so 1-b1 and 1-b2 round to float64 like a runtime subtraction:
	// untyped, 1-0.9 would fold exactly and change the pinned bits.
	const b1, b2, eps float64 = 0.9, 0.999, 1e-8
	if o.m == nil {
		o.m = stateFor(params, grads)
		o.v = params.ZeroClone()
	}
	o.t++
	clip := clipScale(grads, scale, o.Clip)
	c1 := 1 - math.Pow(b1, float64(o.t))
	c2 := 1 - math.Pow(b2, float64(o.t))
	for i := range params.Params {
		m := &o.m.Params[i]
		md, vd := m.M.Data, o.v.Params[i].M.Data
		gd, pd := grads.Params[i].M.Data, params.Params[i].M.Data
		m.track(&grads.Params[i])
		m.spans(func(lo, hi int) {
			for j := lo; j < hi; j++ {
				g := gd[j] * clip
				gd[j] = 0
				md[j] = b1*md[j] + (1-b1)*g
				vd[j] = b2*vd[j] + (1-b2)*g*g
				mHat := md[j] / c1
				vHat := vd[j] / c2
				pd[j] -= o.LR * mHat / (math.Sqrt(vHat) + eps)
			}
		})
	}
	clearRows(grads)
}

// clearRows empties the row set of every row-sparse gradient tensor, whose
// listed rows the step has just zeroed.
func clearRows(grads *ParamSet) {
	for _, p := range grads.Params {
		if p.Rows != nil {
			p.Rows.clear()
		}
	}
}

// stateFor returns zero optimizer state shaped like params, with an empty
// row set on every tensor whose gradient is row-sparse.
func stateFor(params, grads *ParamSet) *ParamSet {
	s := params.ZeroClone()
	for i, g := range grads.Params {
		if g.Rows != nil {
			s.Params[i].Rows = NewRowSet(g.M.Rows)
		}
	}
	return s
}

// track readies optimizer-state tensor s for a step with gradient g: a
// row-tracked s adds g's rows to its set, and turns dense for good when g
// is dense (that step writes every row's state).
func (s *Param) track(g *Param) {
	switch {
	case s.Rows == nil:
	case g.Rows == nil:
		s.Rows = nil
	default:
		for _, r := range g.Rows.rows {
			s.Rows.Add(r)
		}
	}
}

// clipScale multiplies every gradient value by s > 0 in place — the
// unlisted rows of a row-sparse tensor are +0, which s leaves as they are,
// so they are not visited — and returns the multiplier that rescales the
// result to global L2 norm at most clip (1 when clip is 0 or the norm is
// within bounds).
//
// The norm is the square root of the serial sum of squares, tensor by
// tensor in element order — a reordered sum rounds differently, and the
// scale must equal the reference step's bit for bit. The unlisted rows of
// a row-sparse tensor add +0, which leaves the sum's bits alone, so the sum
// visits only listed rows (in ascending order).
//
// That sum is one long chain of dependent adds, so it is first certified
// away: the scaling sweep (mat.ScaleSquares) also sums the same n terms g·g
// in four lanes, and any two orders of summing n non-negative terms differ
// by at most about 2n·u relative (u = 2⁻⁵³; each is within γ(n−1) ≈
// (n−1)·u of the exact sum). When the lane sum inflated by (4n+16)·u — that
// bound with room for the rounding of the bound itself — still has a
// square root ≤ clip, the serial sum's root is ≤ clip too (correctly
// rounded sqrt is monotone), the scale is exactly 1 and the serial sum is
// skipped. Otherwise it runs as the reference.
func clipScale(grads *ParamSet, s, clip float64) float64 {
	var acc [4]float64
	n := 0
	for i := range grads.Params {
		p := &grads.Params[i]
		p.spans(func(lo, hi int) {
			n += hi - lo
			mat.ScaleSquares(p.M.Data[lo:hi], s, &acc)
		})
	}
	if clip <= 0 {
		return 1
	}
	lanes := (acc[0] + acc[1]) + (acc[2] + acc[3])
	if math.Sqrt(lanes*(1+float64(4*n+16)*0x1p-53)) <= clip {
		return 1
	}
	sq := 0.0
	for i := range grads.Params {
		p := &grads.Params[i]
		if p.Rows != nil {
			slices.Sort(p.Rows.rows)
		}
		p.spans(func(lo, hi int) {
			for _, g := range p.M.Data[lo:hi] {
				sq += g * g
			}
		})
	}
	norm := math.Sqrt(sq)
	if norm <= clip {
		return 1
	}
	return clip / norm
}
