package nn

import (
	"math"

	"repro/internal/mat"
)

// Optimizer updates a parameter set in place from a gradient set of the
// same shape.
type Optimizer interface {
	// Step applies one update. Implementations must not retain grads.
	Step(params, grads *ParamSet)
}

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
func (o *SGD) Step(params, grads *ParamSet) {
	scale := clipScale(grads, o.Clip)
	if o.Momentum == 0 {
		forEachTensor(params, func(i int) {
			mat.AXPY(params.Params[i].M.Data, -o.LR*scale, grads.Params[i].M.Data)
		})
		return
	}
	if o.velocity == nil {
		o.velocity = params.ZeroClone()
	}
	lr := o.LR * scale
	forEachTensor(params, func(i int) {
		mat.MomentumStep(params.Params[i].M.Data, o.velocity.Params[i].M.Data, grads.Params[i].M.Data, o.Momentum, lr)
	})
}

// Adam is the Adam optimizer with bias correction.
type Adam struct {
	LR    float64 // learning rate; must be > 0
	Beta1 float64 // first-moment decay; 0 means default 0.9
	Beta2 float64 // second-moment decay; 0 means default 0.999
	Eps   float64 // 0 means default 1e-8
	Clip  float64 // 0 disables clipping

	m, v *ParamSet
	t    int
}

var _ Optimizer = (*Adam)(nil)

// Step applies one Adam update to params.
func (o *Adam) Step(params, grads *ParamSet) {
	b1, b2, eps := o.Beta1, o.Beta2, o.Eps
	if b1 == 0 {
		b1 = 0.9
	}
	if b2 == 0 {
		b2 = 0.999
	}
	if eps == 0 {
		eps = 1e-8
	}
	if o.m == nil {
		o.m = params.ZeroClone()
		o.v = params.ZeroClone()
	}
	o.t++
	scale := clipScale(grads, o.Clip)
	c1 := 1 - math.Pow(b1, float64(o.t))
	c2 := 1 - math.Pow(b2, float64(o.t))
	forEachTensor(params, func(i int) {
		md := o.m.Params[i].M.Data
		vd := o.v.Params[i].M.Data
		gd := grads.Params[i].M.Data
		pd := params.Params[i].M.Data
		for j := range pd {
			g := gd[j] * scale
			md[j] = b1*md[j] + (1-b1)*g
			vd[j] = b2*vd[j] + (1-b2)*g*g
			mHat := md[j] / c1
			vHat := vd[j] / c2
			pd[j] -= o.LR * mHat / (math.Sqrt(vHat) + eps)
		}
	})
}

// parallelStepThreshold is the minimum total scalar count before an
// optimizer step shards tensors across the mat worker pool; the paper's
// small codecs stay on the serial path.
const parallelStepThreshold = 1 << 15

// forEachTensor applies fn to every tensor index, sharding across the mat
// worker pool for large parameter sets. Tensors are disjoint, so the update
// is bit-identical to the serial loop at any parallelism.
func forEachTensor(ps *ParamSet, fn func(i int)) {
	if ps.NumValues() < parallelStepThreshold {
		for i := range ps.Params {
			fn(i)
		}
		return
	}
	mat.ParallelFor(len(ps.Params), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// clipScale returns the multiplier that rescales grads to global L2 norm at
// most clip (1 when clip is 0 or the norm is within bounds). The reduction
// stays serial deliberately: a sharded sum would change the floating-point
// accumulation order and break bit-reproducibility across worker counts.
func clipScale(grads *ParamSet, clip float64) float64 {
	if clip <= 0 {
		return 1
	}
	sq := 0.0
	for _, p := range grads.Params {
		for _, g := range p.M.Data {
			sq += g * g
		}
	}
	norm := math.Sqrt(sq)
	if norm <= clip {
		return 1
	}
	return clip / norm
}
