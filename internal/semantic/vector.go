package semantic

import (
	"errors"

	"repro/internal/mat"
	"repro/internal/nn"
)

// VectorCodec is the multimodal extension from the paper's §III-B: a
// semantic codec for continuous vector streams (avatar pose, sensor
// readings) rather than text. It is a denoising linear autoencoder with a
// tanh-bounded bottleneck, so its features ride the same quantize/code/
// modulate transport as the text codec's.
type VectorCodec struct {
	enc *nn.Linear // In -> F
	dec *nn.Linear // F -> In

	inDim, featDim int
}

// NewVectorCodec allocates an untrained codec compressing inDim-dimensional
// vectors to featDim features.
func NewVectorCodec(rng *mat.RNG, inDim, featDim int) *VectorCodec {
	return &VectorCodec{
		enc:     nn.NewLinear(rng, inDim, featDim),
		dec:     nn.NewLinear(rng, featDim, inDim),
		inDim:   inDim,
		featDim: featDim,
	}
}

// Params returns the parameter set (shared storage).
func (vc *VectorCodec) Params() *nn.ParamSet {
	ps := &nn.ParamSet{}
	ps.Add("venc.w", vc.enc.W)
	ps.Add("venc.b", vc.enc.B)
	ps.Add("vdec.w", vc.dec.W)
	ps.Add("vdec.b", vc.dec.B)
	return ps
}

// Encode computes the bounded feature vector for x. dst must have the
// codec's feature length.
func (vc *VectorCodec) Encode(dst, x []float64) {
	if len(x) != vc.inDim || len(dst) != vc.featDim {
		panic("semantic: VectorCodec.Encode length mismatch")
	}
	vc.enc.Forward(dst, x)
	nn.TanhForward(dst, dst)
}

// Decode reconstructs a source vector from features. dst must have the
// source vector length.
func (vc *VectorCodec) Decode(dst, feat []float64) {
	if len(feat) != vc.featDim || len(dst) != vc.inDim {
		panic("semantic: VectorCodec.Decode length mismatch")
	}
	vc.dec.Forward(dst, feat)
}

// errNoSamples reports training with no data.
var errNoSamples = errors.New("semantic: VectorCodec training needs samples")

// Train fits the autoencoder on samples by SGD over the reconstruction
// MSE, injecting Gaussian feature noise (denoising training) so decoding
// tolerates channel corruption. It returns the final epoch's mean squared
// error per dimension.
func (vc *VectorCodec) Train(samples [][]float64, epochs int, lr, noiseStd float64, rng *mat.RNG) (float64, error) {
	if len(samples) == 0 {
		return 0, errNoSamples
	}
	if epochs <= 0 {
		epochs = 10
	}
	if lr <= 0 {
		lr = 0.01
	}
	params := vc.Params()
	grads := params.ZeroClone()
	gEncW := grads.ByName("venc.w")
	gEncB := grads.ByName("venc.b")
	gDecW := grads.ByName("vdec.w")
	gDecB := grads.ByName("vdec.b")
	opt := &nn.Adam{LR: lr, Clip: 5}

	pre := make([]float64, vc.featDim)
	feat := make([]float64, vc.featDim)
	noisy := make([]float64, vc.featDim)
	out := make([]float64, vc.inDim)
	dOut := make([]float64, vc.inDim)
	dFeat := make([]float64, vc.featDim)

	var lastMSE float64
	const batch = 8
	for e := 0; e < epochs; e++ {
		order := rng.Perm(len(samples))
		total := 0.0
		inBatch := 0
		for _, si := range order {
			x := samples[si]
			vc.enc.Forward(pre, x)
			nn.TanhForward(feat, pre)
			copy(noisy, feat)
			if noiseStd > 0 {
				for i := range noisy {
					noisy[i] += noiseStd * rng.NormFloat64()
				}
			}
			vc.dec.Forward(out, noisy)
			total += nn.MSE(dOut, out, x)
			vc.dec.Backward(noisy, dOut, gDecW, gDecB, dFeat)
			nn.TanhBackward(dFeat, feat, dFeat)
			vc.enc.Backward(x, dFeat, gEncW, gEncB, nil)
			inBatch++
			if inBatch == batch {
				opt.Step(params, grads, 1/float64(batch))
				inBatch = 0
			}
		}
		if inBatch > 0 {
			opt.Step(params, grads, 1/float64(inBatch))
		}
		lastMSE = total / float64(len(samples)) / float64(vc.inDim) * 2 // MSE returns 0.5*sum
	}
	return lastMSE, nil
}
