package semantic

import (
	"math"

	"repro/internal/mat"
	"repro/internal/nn"
)

// The references the batched, row-sparse training step is held to, bit
// for bit: the pre-GEMM per-example loop and the dense optimizers and clip
// as they were before gradients could be row-sparse. They share no code
// with the paths they check beyond the mat kernels (which mat's own tests
// hold to the pure-Go loops): the per-example layer passes are the deleted
// nn.Linear.Forward / Backward and the mat.Dense.MulVec / MulVecT /
// AddOuter loops under them, kept below verbatim.

// mulVecReference is mat.Dense.MulVec as it was: dst = m * x.
func mulVecReference(m *mat.Dense, dst, x []float64) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic("mat: MulVec length mismatch")
	}
	for i := range dst {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		s := 0.0
		for j, w := range row {
			s += w * x[j]
		}
		dst[i] = s
	}
}

// mulVecTReference is mat.Dense.MulVecT as it was: dst = mᵀ * x.
func mulVecTReference(m *mat.Dense, dst, x []float64) {
	if len(x) != m.Rows || len(dst) != m.Cols {
		panic("mat: MulVecT length mismatch")
	}
	mat.Zero(dst)
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, w := range row {
			dst[j] += w * xi
		}
	}
}

// addOuterReference is mat.Dense.AddOuter as it was: m += a * x * yᵀ.
func addOuterReference(m *mat.Dense, a float64, x, y []float64) {
	if len(x) != m.Rows || len(y) != m.Cols {
		panic("mat: AddOuter length mismatch")
	}
	for i, xi := range x {
		axi := a * xi
		if axi == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, yj := range y {
			row[j] += axi * yj
		}
	}
}

// linearForwardReference is nn.Linear.Forward as it was: dst = W*x + b.
func linearForwardReference(l *nn.Linear, dst, x []float64) {
	mulVecReference(l.W, dst, x)
	mat.AddTo(dst, l.B.Row(0))
}

// linearBackwardReference is nn.Linear.Backward as it was: gW += dy*xᵀ,
// gB += dy and, when dx is non-nil, dx = Wᵀ*dy.
func linearBackwardReference(l *nn.Linear, x, dy []float64, gW, gB *mat.Dense, dx []float64) {
	addOuterReference(gW, 1, dy, x)
	mat.AddTo(gB.Row(0), dy)
	if dx != nil {
		mulVecTReference(l.W, dx, dy)
	}
}

// trainEpochReference is the pre-GEMM per-example training loop, preserved
// as the bit-identity reference for the batched TrainEpoch: one example at
// a time through the per-example layer passes above with fresh per-call
// scratch slices, a dense gradient set, stepping the optimizer every 8
// examples. It computes no loss or accuracy (the cross-entropy is
// gradient-only); otherwise it is the historical loop verbatim.
func trainEpochReference(c *Codec, examples []Example, opt nn.Optimizer, rng *mat.RNG, noiseStd float64) {
	params := c.Params()
	grads := params.ZeroClone()
	gEmb := grads.ByName(ParamEncEmb)
	gEncW := grads.ByName(ParamEncW)
	gEncB := grads.ByName(ParamEncB)
	gDecW := grads.ByName(ParamDecW)
	gDecB := grads.ByName(ParamDecB)
	gOutW := grads.ByName(ParamOutW)
	gOutB := grads.ByName(ParamOutB)

	F, H := c.cfg.FeatureDim, c.cfg.HiddenDim
	V := c.domain.NumConcepts()
	pre := make([]float64, F)     // encoder pre-activation
	feat := make([]float64, F)    // tanh feature
	noisy := make([]float64, F)   // channel-noised feature
	hPre := make([]float64, H)    // decoder pre-activation
	h := make([]float64, H)       // decoder hidden
	logits := make([]float64, V)  // concept logits
	dLogits := make([]float64, V) // CE gradient
	dH := make([]float64, H)
	dFeat := make([]float64, F)
	dEmb := make([]float64, c.cfg.EmbedDim)

	order := rng.Perm(len(examples))
	const batch = 8
	inBatch := 0
	for _, oi := range order {
		ex := examples[oi]
		// Forward: encoder.
		x := c.emb.Lookup(ex.SurfaceID)
		linearForwardReference(c.enc, pre, x)
		nn.TanhForward(feat, pre)
		// Channel-noise injection (denoising training).
		copy(noisy, feat)
		if noiseStd > 0 {
			for i := range noisy {
				noisy[i] += noiseStd * rng.NormFloat64()
			}
		}
		// Forward: decoder.
		linearForwardReference(c.dec, hPre, noisy)
		nn.TanhForward(h, hPre)
		linearForwardReference(c.out, logits, h)
		mat.Softmax(dLogits, logits) // the cross-entropy gradient
		dLogits[ex.ConceptID] -= 1
		// Backward: decoder.
		linearBackwardReference(c.out, h, dLogits, gOutW, gOutB, dH)
		nn.TanhBackward(dH, h, dH)
		linearBackwardReference(c.dec, noisy, dH, gDecW, gDecB, dFeat)
		// Backward through the (noise-free) tanh feature into the encoder.
		nn.TanhBackward(dFeat, feat, dFeat)
		linearBackwardReference(c.enc, x, dFeat, gEncW, gEncB, dEmb)
		c.emb.AccumulateGrad(gEmb, ex.SurfaceID, dEmb)

		inBatch++
		if inBatch == batch {
			opt.Step(params, grads, 1/float64(batch))
			inBatch = 0
		}
	}
	if inBatch > 0 {
		opt.Step(params, grads, 1/float64(inBatch))
	}
}

// scaleGradsReference multiplies every gradient tensor by s.
func scaleGradsReference(grads *nn.ParamSet, s float64) {
	for _, p := range grads.Params {
		mat.Scale(p.M.Data, s)
	}
}

// zeroGradsReference sets every gradient value to +0.
func zeroGradsReference(grads *nn.ParamSet) {
	for _, p := range grads.Params {
		mat.Zero(p.M.Data)
	}
}

// sgdReference is nn.SGD's Step before row-sparse gradients, verbatim but
// for the serial tensor loop (the sharded one only starts at 1<<15 values,
// far above a codec's, and is bit-identical anyway). Like every
// nn.Optimizer it takes the minibatch scale and consumes the gradient:
// the scaling and the zeroing are the separate passes they were before
// the optimizers took them over, around the unchanged step.
type sgdReference struct {
	LR       float64
	Momentum float64
	Clip     float64

	velocity *nn.ParamSet
}

func (o *sgdReference) Step(params, grads *nn.ParamSet, s float64) {
	scaleGradsReference(grads, s)
	defer zeroGradsReference(grads)
	scale := clipScaleReference(grads, o.Clip)
	if o.Momentum == 0 {
		for i := range params.Params {
			mat.AXPY(params.Params[i].M.Data, -o.LR*scale, grads.Params[i].M.Data)
		}
		return
	}
	if o.velocity == nil {
		o.velocity = params.ZeroClone()
	}
	lr := o.LR * scale
	for i := range params.Params {
		mat.MomentumStep(params.Params[i].M.Data, o.velocity.Params[i].M.Data, grads.Params[i].M.Data, o.Momentum, lr)
	}
}

// adamReference is nn.Adam's Step before row-sparse gradients, verbatim
// but for the serial tensor loop, between the same scaling and zeroing
// passes as sgdReference.
type adamReference struct {
	LR    float64
	Beta1 float64
	Beta2 float64
	Eps   float64
	Clip  float64

	m, v *nn.ParamSet
	t    int
}

func (o *adamReference) Step(params, grads *nn.ParamSet, s float64) {
	scaleGradsReference(grads, s)
	defer zeroGradsReference(grads)
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
	scale := clipScaleReference(grads, o.Clip)
	c1 := 1 - math.Pow(b1, float64(o.t))
	c2 := 1 - math.Pow(b2, float64(o.t))
	for i := range params.Params {
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
	}
}

// clipScaleReference is clipScale before the certificate: the serial sum
// of squares over every gradient value, every step.
func clipScaleReference(grads *nn.ParamSet, clip float64) float64 {
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
