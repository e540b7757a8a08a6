package experiments

import (
	"errors"

	"repro/internal/mat"
	"repro/internal/nn"
)

// VectorCodec is the multimodal extension from the paper's §III-B: a
// semantic codec for continuous vector streams (avatar pose, sensor
// readings) rather than text. It is a denoising linear autoencoder with a
// tanh-bounded bottleneck, so its features ride the same quantize/code/
// modulate transport as the text codec's. E10 and examples/metaverse run
// it; every layer call is the batched one, a single pose a one-row batch.
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

// params returns the parameter set (shared storage).
func (vc *VectorCodec) params() *nn.ParamSet {
	ps := &nn.ParamSet{}
	ps.Add("venc.w", vc.enc.W)
	ps.Add("venc.b", vc.enc.B)
	ps.Add("vdec.w", vc.dec.W)
	ps.Add("vdec.b", vc.dec.B)
	return ps
}

// rowOf wraps v as a one-row matrix sharing its storage.
func rowOf(v []float64) *mat.Dense { return &mat.Dense{Rows: 1, Cols: len(v), Data: v} }

// Encode computes the bounded feature vector for x. dst must have the
// codec's feature length.
func (vc *VectorCodec) Encode(dst, x []float64) {
	if len(x) != vc.inDim || len(dst) != vc.featDim {
		panic("experiments: VectorCodec.Encode length mismatch")
	}
	vc.enc.ForwardBatch(rowOf(dst), rowOf(x))
	nn.TanhForward(dst, dst)
}

// Decode reconstructs a source vector from features. dst must have the
// source vector length.
func (vc *VectorCodec) Decode(dst, feat []float64) {
	if len(feat) != vc.featDim || len(dst) != vc.inDim {
		panic("experiments: VectorCodec.Decode length mismatch")
	}
	vc.dec.ForwardBatch(rowOf(dst), rowOf(feat))
}

// errNoSamples reports training with no data.
var errNoSamples = errors.New("experiments: VectorCodec training needs samples")

// Train fits the autoencoder on samples by Adam over the reconstruction
// MSE in minibatches of 8 (the last one of an epoch may be smaller),
// injecting Gaussian feature noise (denoising training) so decoding
// tolerates channel corruption. It returns the final epoch's mean squared
// error per dimension.
func (vc *VectorCodec) Train(samples [][]float64, epochs int, lr, noiseStd float64, rng *mat.RNG) (float64, error) {
	if len(samples) == 0 {
		return 0, errNoSamples
	}
	params := vc.params()
	grads := params.ZeroClone()
	gEncW := grads.ByName("venc.w")
	gEncB := grads.ByName("venc.b")
	gDecW := grads.ByName("vdec.w")
	gDecB := grads.ByName("vdec.b")
	opt := &nn.Adam{LR: lr, Clip: 5}

	sc := mat.GetScratch()
	defer mat.PutScratch(sc)
	const batch = 8

	var lastMSE float64
	for e := 0; e < epochs; e++ {
		order := rng.Perm(len(samples))
		total := 0.0
		for lo := 0; lo < len(order); lo += batch {
			idx := order[lo:min(lo+batch, len(order))]
			n := len(idx)
			sc.Reset()
			x, feat, noisy := sc.Mat(n, vc.inDim), sc.Mat(n, vc.featDim), sc.Mat(n, vc.featDim)
			out, dOut, dFeat := sc.Mat(n, vc.inDim), sc.Mat(n, vc.inDim), sc.Mat(n, vc.featDim)
			for i, si := range idx {
				copy(x.Row(i), samples[si])
			}
			vc.enc.ForwardBatch(feat, x)
			nn.TanhForward(feat.Data, feat.Data)
			copy(noisy.Data, feat.Data)
			if noiseStd > 0 {
				for i := range noisy.Data {
					noisy.Data[i] += noiseStd * rng.NormFloat64()
				}
			}
			vc.dec.ForwardBatch(out, noisy)
			for i := 0; i < n; i++ {
				total += mse(dOut.Row(i), out.Row(i), x.Row(i))
			}
			vc.dec.BackwardBatch(noisy, dOut, gDecW, gDecB, dFeat)
			nn.TanhBackward(dFeat.Data, feat.Data, dFeat.Data)
			vc.enc.BackwardBatch(x, dFeat, gEncW, gEncB, nil)
			opt.Step(params, grads, 1/float64(n))
		}
		lastMSE = total / float64(len(samples)) / float64(vc.inDim) * 2 // mse returns 0.5*sum
	}
	return lastMSE, nil
}

// mse computes 0.5*||pred-target||^2 and writes the gradient (pred-target)
// into dPred. dPred may alias pred.
func mse(dPred, pred, target []float64) float64 {
	if len(pred) != len(target) || len(dPred) != len(pred) {
		panic("experiments: mse length mismatch")
	}
	loss := 0.0
	for i := range pred {
		d := pred[i] - target[i]
		loss += 0.5 * d * d
		dPred[i] = d
	}
	return loss
}
