package semantic

import (
	"repro/internal/corpus"
	"repro/internal/mat"
	"repro/internal/nn"
)

// Example is one supervised training pair: a surface ID observed on the
// sender side and the concept it expresses according to the domain KB.
type Example struct {
	SurfaceID int
	ConceptID int
}

// ExamplesFromMessage expands a generated message into per-token training
// examples for the codec of its domain.
func ExamplesFromMessage(d *corpus.Domain, m corpus.Message) []Example {
	out := make([]Example, 0, len(m.Words))
	for i, w := range m.Words {
		out = append(out, Example{SurfaceID: d.SurfaceID(w), ConceptID: m.ConceptIDs[i]})
	}
	return out
}

// trainBatch is the minibatch size: the optimizer steps once per
// trainBatch examples, with the trailing partial batch stepped on its own
// (matching the historical per-example loop's boundaries exactly).
const trainBatch = 8

// TrainEpoch runs one stochastic epoch over examples, updating the codec's
// parameters in place through opt. rng drives example shuffling and the
// denoising feature noise; noiseStd <= 0 disables noise injection.
//
// Each minibatch runs as batched matrix-matrix products (embedding gather,
// encoder GEMM, decoder GEMMs, batched backward). Every gradient element
// accumulates examples in ascending minibatch order and the noise RNG is
// consumed in the same example-major order as the per-example loop, so the
// parameter stream is bit-identical to the historical implementation.
//
// An epoch computes only what its parameter updates consume: the loss
// gradient, not the loss or the accuracy; and the embedding gradient of a
// minibatch is row-sparse — the at most trainBatch rows it touched — so
// scaling, clipping, stepping and zeroing it skip the untouched rows
// (internal/nn/optim.go says why the parameters come out the same). The
// softmax cross-entropy runs over the whole minibatch at once, and the
// optimizer scales, certifies the clip of, steps and clears the gradient
// in two sweeps.
func (c *Codec) TrainEpoch(examples []Example, opt nn.Optimizer, rng *mat.RNG, noiseStd float64) {
	c.trainEpoch(examples, opt, rng, noiseStd, c.newGrads())
}

// newGrads returns a zero gradient set for the codec's parameters whose
// embedding tensor is row-sparse.
func (c *Codec) newGrads() *nn.ParamSet {
	grads := c.params().ZeroClone()
	grads.Param(ParamEncEmb).Rows = nn.NewRowSet(c.emb.Vocab())
	return grads
}

// trainEpoch is TrainEpoch over a caller-owned gradient set (from
// newGrads, all zero on entry and again on return), so multi-epoch callers
// allocate it once.
func (c *Codec) trainEpoch(examples []Example, opt nn.Optimizer, rng *mat.RNG, noiseStd float64, grads *nn.ParamSet) {
	params := c.Params()
	gEmb := grads.Param(ParamEncEmb)
	gEncW := grads.ByName(ParamEncW)
	gEncB := grads.ByName(ParamEncB)
	gDecW := grads.ByName(ParamDecW)
	gDecB := grads.ByName(ParamDecB)
	gOutW := grads.ByName(ParamOutW)
	gOutB := grads.ByName(ParamOutB)

	E, F, H := c.cfg.EmbedDim, c.cfg.FeatureDim, c.cfg.HiddenDim
	V := c.domain.NumConcepts()
	sc := mat.GetScratch()
	defer mat.PutScratch(sc)
	// Full-size minibatch buffers; the trailing partial batch reuses their
	// storage through row-limited views.
	x := sc.Mat(trainBatch, E)       // gathered token embeddings
	pre := sc.Mat(trainBatch, F)     // encoder pre-activation
	feat := sc.Mat(trainBatch, F)    // tanh feature
	noisy := sc.Mat(trainBatch, F)   // channel-noised feature
	hPre := sc.Mat(trainBatch, H)    // decoder pre-activation
	h := sc.Mat(trainBatch, H)       // decoder hidden
	logits := sc.Mat(trainBatch, V)  // concept logits
	dLogits := sc.Mat(trainBatch, V) // CE gradient
	dH := sc.Mat(trainBatch, H)
	dFeat := sc.Mat(trainBatch, F)
	dX := sc.Mat(trainBatch, E)
	deviates := sc.Vec(trainBatch * F) // the minibatch's channel noise
	sids := sc.Ints(trainBatch)
	targets := sc.Ints(trainBatch)

	order := rng.Perm(len(examples))
	for start := 0; start < len(order); start += trainBatch {
		n := min(trainBatch, len(order)-start)
		xB, preB, featB, noisyB := x, pre, feat, noisy
		hPreB, hB, logitsB, dLogitsB := hPre, h, logits, dLogits
		dHB, dFeatB, dXB := dH, dFeat, dX
		if n < trainBatch {
			xB = sc.Wrap(n, E, x.Data[:n*E])
			preB = sc.Wrap(n, F, pre.Data[:n*F])
			featB = sc.Wrap(n, F, feat.Data[:n*F])
			noisyB = sc.Wrap(n, F, noisy.Data[:n*F])
			hPreB = sc.Wrap(n, H, hPre.Data[:n*H])
			hB = sc.Wrap(n, H, h.Data[:n*H])
			logitsB = sc.Wrap(n, V, logits.Data[:n*V])
			dLogitsB = sc.Wrap(n, V, dLogits.Data[:n*V])
			dHB = sc.Wrap(n, H, dH.Data[:n*H])
			dFeatB = sc.Wrap(n, F, dFeat.Data[:n*F])
			dXB = sc.Wrap(n, E, dX.Data[:n*E])
		}
		// Forward: encoder over the gathered minibatch.
		for t := 0; t < n; t++ {
			ex := examples[order[start+t]]
			sids[t] = ex.SurfaceID
			targets[t] = ex.ConceptID
			copy(xB.Row(t), c.emb.Lookup(ex.SurfaceID))
		}
		c.enc.ForwardBatch(preB, xB)
		nn.TanhForward(featB.Data, preB.Data)
		// Channel-noise injection (denoising training), drawn in
		// example-major order as one block: NormFloat64Block yields the
		// exact RNG stream of the serial per-element loop.
		copy(noisyB.Data, featB.Data)
		if noiseStd > 0 {
			z := deviates[:len(noisyB.Data)]
			rng.NormFloat64Block(z)
			for i, v := range z {
				noisyB.Data[i] += noiseStd * v
			}
		}
		// Forward: decoder.
		c.dec.ForwardBatch(hPreB, noisyB)
		nn.TanhForward(hB.Data, hPreB.Data)
		c.out.ForwardBatch(logitsB, hB)
		nn.SoftmaxCrossEntropy(dLogitsB, logitsB, targets[:n])
		// Backward: decoder.
		c.out.BackwardBatch(hB, dLogitsB, gOutW, gOutB, dHB)
		nn.TanhBackward(dHB.Data, hB.Data, dHB.Data)
		c.dec.BackwardBatch(noisyB, dHB, gDecW, gDecB, dFeatB)
		// Backward through the (noise-free) tanh feature into the encoder.
		nn.TanhBackward(dFeatB.Data, featB.Data, dFeatB.Data)
		c.enc.BackwardBatch(xB, dFeatB, gEncW, gEncB, dXB)
		for t := 0; t < n; t++ {
			c.emb.AccumulateGrad(gEmb.M, sids[t], dXB.Row(t))
			gEmb.Rows.Add(sids[t])
		}
		opt.Step(params, grads, 1/float64(n))
	}
}

// evalChunk bounds the scratch footprint of Evaluate: examples stream
// through the batched encode/decode pipeline this many at a time.
const evalChunk = 256

// Evaluate measures reconstruction concept accuracy over examples without
// updating parameters and without noise. Examples run through the batched
// GEMM pipeline in fixed-size chunks over one reused scratch arena instead
// of allocating per-example feature/hidden/logit buffers; the decoded
// concepts (and therefore the accuracy) are bit-identical to the
// per-example path.
func (c *Codec) Evaluate(examples []Example) float64 {
	if len(examples) == 0 {
		return 0
	}
	sc := mat.GetScratch()
	defer mat.PutScratch(sc)
	correct := 0
	for start := 0; start < len(examples); start += evalChunk {
		sc.Reset()
		n := min(evalChunk, len(examples)-start)
		chunk := examples[start : start+n]
		ids := sc.Ints(n)
		for t, ex := range chunk {
			ids[t] = ex.SurfaceID
		}
		feats := sc.Mat(n, c.cfg.FeatureDim)
		c.enc.ForwardBatch(feats, c.packSurfaceEmbeddings(sc, ids))
		nn.TanhForward(feats.Data, feats.Data)
		decoded := sc.Ints(n)
		c.DecodeFeaturesInto(sc, feats, decoded)
		for t, ex := range chunk {
			if decoded[t] == ex.ConceptID {
				correct++
			}
		}
	}
	return float64(correct) / float64(len(examples))
}

// Pretrain trains a fresh general codec for domain d on generated traffic
// with no idiolect. It is deterministic given cfg.Seed.
func Pretrain(d *corpus.Domain, corp *corpus.Corpus, cfg Config) *Codec {
	cfg = cfg.withDefaults()
	c := NewCodec(d, cfg)
	rng := mat.NewRNG(cfg.Seed + uint64(d.Index)*1009)
	gen := corpus.NewGenerator(corp, rng.Split())
	gen.Balanced = true // KBs pretrain on broad, balanced domain corpora
	// General corpora do not cover personal rare-synonym vocabulary: tail
	// surfaces stay untrained in the general model. The resulting mismatch
	// on idiolect-bearing traffic is exactly what §II-B's user-specific
	// individual models exist to fix.
	gen.TailProb = 0
	msgs := gen.Batch(d.Index, cfg.Sentences, nil)
	var examples []Example
	for _, m := range msgs {
		examples = append(examples, ExamplesFromMessage(d, m)...)
	}
	opt := &nn.Adam{LR: cfg.LR, Clip: 5}
	trainRNG := rng.Split()
	grads := c.newGrads()
	for e := 0; e < cfg.Epochs; e++ {
		c.trainEpoch(examples, opt, trainRNG, cfg.NoiseStd, grads)
	}
	return c
}

// PretrainAll builds one general codec per domain, in domain order. The
// domains train concurrently through mat.ForEach: each Pretrain derives its
// RNG purely from cfg.Seed and the domain index, so the result is
// bit-identical to the serial loop at any worker count.
func PretrainAll(corp *corpus.Corpus, cfg Config) []*Codec {
	out := make([]*Codec, len(corp.Domains))
	_ = mat.ForEach(len(corp.Domains), func(i int) error {
		out[i] = Pretrain(corp.Domains[i], corp, cfg)
		return nil
	})
	return out
}

// FineTune adapts a codec (typically a Clone of the general model) on a
// user's buffered traffic for the given number of epochs, at half the
// codec's pretraining rate. This is the individual-model update step of the
// paper's §II-D.
func (c *Codec) FineTune(examples []Example, epochs int, rng *mat.RNG) {
	opt := &nn.SGD{LR: c.cfg.LR / 2, Momentum: 0.5, Clip: 5}
	grads := c.newGrads()
	for e := 0; e < epochs; e++ {
		c.trainEpoch(examples, opt, rng, c.cfg.NoiseStd/2, grads)
	}
}
