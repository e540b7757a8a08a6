package semantic

import (
	"math"
	"testing"

	"repro/internal/corpus"
	"repro/internal/mat"
	"repro/internal/nn"
)

// trainExamples builds a deterministic example set whose size is NOT a
// multiple of the minibatch, so the partial trailing batch is exercised.
func trainExamples(corp *corpus.Corpus, n int) []Example {
	d := corp.Domain("it")
	gen := corpus.NewGenerator(corp, mat.NewRNG(77))
	var out []Example
	for _, m := range gen.Batch(d.Index, 64, nil) {
		out = append(out, ExamplesFromMessage(d, m)...)
	}
	return out[:n]
}

// sameParamBits fails on the first parameter scalar whose bits differ.
func sameParamBits(t *testing.T, what string, got, want *nn.ParamSet) {
	t.Helper()
	for i, p := range want.Params {
		for j, w := range p.M.Data {
			if g := got.Params[i].M.Data[j]; math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: %s[%d] = %v (%x), reference %v (%x)",
					what, p.Name, j, g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
	}
}

// clipCounter wraps a reference optimizer and counts the steps whose
// gradient norm the clip bounds (scale < 1) and the steps it leaves alone.
// It applies the minibatch scale itself, to see the norm the step clips,
// and hands the wrapped optimizer a scale of 1, which changes no bit.
type clipCounter struct {
	nn.Optimizer
	clip               float64
	clipped, unclipped int
}

func (c *clipCounter) Step(params, grads *nn.ParamSet, s float64) {
	scaleGradsReference(grads, s)
	if clipScaleReference(grads, c.clip) < 1 {
		c.clipped++
	} else {
		c.unclipped++
	}
	c.Optimizer.Step(params, grads, 1)
}

// TestTrainEpochMatchesReference holds the batched, row-sparse training
// step to the per-example loop on dense gradients and the pre-row-sparse
// optimizers and clip (train_reference_test.go): every parameter bit. The
// cases are pretraining's Adam, the fine-tune's
// momentum SGD (noiseless, and at the fine-tune's noise), a learning rate
// and clip where some steps clip and some do not (both sides of the clip
// certificate), examples that leave most embedding rows untouched, a
// whole FineTune of 3 epochs, and the daemon's update itself: a pretrained
// model fine-tuned for 3 epochs at clip 5 on a 32-message idiolect buffer,
// where some steps clip (41 of 102) and the rest do not.
func TestTrainEpochMatchesReference(t *testing.T) {
	corp := corpus.Build()
	base := NewCodec(corp.Domain("it"), Config{Seed: 9})
	examples := trainExamples(corp, 83) // 83 = 10 full batches + tail of 3
	var sparse []Example                // every third surface only
	for _, ex := range trainExamples(corp, 300) {
		if ex.SurfaceID%3 == 0 {
			sparse = append(sparse, ex)
		}
	}
	touched := map[int]bool{}
	for _, ex := range sparse {
		touched[ex.SurfaceID] = true
	}
	if len(touched) == 0 || len(touched) > base.emb.Vocab()/2 {
		t.Fatalf("sparse examples touch %d of %d embedding rows", len(touched), base.emb.Vocab())
	}

	// The daemon's update: a pretrained general model fine-tuned on one
	// user's 32-message idiolect buffer, whose size leaves a partial batch.
	d := corp.Domain("it")
	general := Pretrain(d, corp, Config{Seed: 9})
	idio := corpus.NewIdiolect(corp, mat.NewRNG(91), 0.8)
	gen := corpus.NewGenerator(corp, mat.NewRNG(92))
	var buffer []Example
	for i := 0; i < 32; i++ {
		buffer = append(buffer, ExamplesFromMessage(d, gen.Message(d.Index, idio))...)
	}
	if len(buffer)%trainBatch == 0 {
		t.Fatalf("idiolect buffer of %d examples leaves no partial batch", len(buffer))
	}

	cfg := base.Config()
	const clip = 0.8
	for _, tc := range []struct {
		name     string
		from     *Codec // nil: the untrained base
		examples []Example
		epochs   int // > 0: a FineTune of that many epochs instead of one TrainEpoch
		noiseStd float64
		opt      func() nn.Optimizer // the product optimizer
		ref      func() nn.Optimizer // its pre-row-sparse reference
	}{
		{"adam_noise", nil, examples, 0, 0.2,
			func() nn.Optimizer { return &nn.Adam{LR: 0.03, Clip: 5} },
			func() nn.Optimizer { return &adamReference{LR: 0.03, Clip: 5} }},
		{"sgd_noiseless", nil, examples, 0, 0,
			func() nn.Optimizer { return &nn.SGD{LR: 0.01, Momentum: 0.5, Clip: 5} },
			func() nn.Optimizer { return &sgdReference{LR: 0.01, Momentum: 0.5, Clip: 5} }},
		{"sgd_finetune_noise", nil, examples, 0, cfg.NoiseStd / 2,
			func() nn.Optimizer { return &nn.SGD{LR: cfg.LR / 2, Momentum: 0.5, Clip: 5} },
			func() nn.Optimizer { return &sgdReference{LR: cfg.LR / 2, Momentum: 0.5, Clip: 5} }},
		{"sgd_clipping", nil, examples, 0, 0.2,
			func() nn.Optimizer { return &nn.SGD{LR: 0.2, Momentum: 0.5, Clip: clip} },
			func() nn.Optimizer {
				return &clipCounter{Optimizer: &sgdReference{LR: 0.2, Momentum: 0.5, Clip: clip}, clip: clip}
			}},
		{"adam_clipping", nil, examples, 0, 0.2,
			func() nn.Optimizer { return &nn.Adam{LR: 0.05, Clip: clip} },
			func() nn.Optimizer { return &clipCounter{Optimizer: &adamReference{LR: 0.05, Clip: clip}, clip: clip} }},
		{"adam_untouched_rows", nil, sparse, 0, 0.2,
			func() nn.Optimizer { return &nn.Adam{LR: 0.03, Clip: 5} },
			func() nn.Optimizer { return &adamReference{LR: 0.03, Clip: 5} }},
		{"sgd_untouched_rows", nil, sparse, 0, 0.1,
			func() nn.Optimizer { return &nn.SGD{LR: 0.015, Momentum: 0.5, Clip: 5} },
			func() nn.Optimizer { return &sgdReference{LR: 0.015, Momentum: 0.5, Clip: 5} }},
		{"finetune_3_epochs", nil, examples, 3, cfg.NoiseStd / 2, nil,
			func() nn.Optimizer { return &sgdReference{LR: cfg.LR / 2, Momentum: 0.5, Clip: 5} }},
		{"finetune_idiolect_buffer", general, buffer, 3, cfg.NoiseStd / 2, nil,
			func() nn.Optimizer {
				return &clipCounter{Optimizer: &sgdReference{LR: cfg.LR / 2, Momentum: 0.5, Clip: 5}, clip: 5}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			from := base
			if tc.from != nil {
				from = tc.from
			}
			ref := from.Clone()
			refOpt := tc.ref()
			rng := mat.NewRNG(31)
			for e := 0; e < max(tc.epochs, 1); e++ {
				trainEpochReference(ref, tc.examples, refOpt, rng, tc.noiseStd)
			}
			if cc, ok := refOpt.(*clipCounter); ok {
				if cc.clipped == 0 || cc.unclipped == 0 {
					t.Fatalf("clip %v bounds %d steps and leaves %d: want both kinds", cc.clip, cc.clipped, cc.unclipped)
				}
				t.Logf("%d examples: clip %v bounds %d steps and leaves %d", len(tc.examples), cc.clip, cc.clipped, cc.unclipped)
			}
			want := ref.Params()

			got := from.Clone()
			if tc.epochs > 0 {
				got.FineTune(tc.examples, tc.epochs, mat.NewRNG(31))
			} else {
				got.TrainEpoch(tc.examples, tc.opt(), mat.NewRNG(31), tc.noiseStd)
			}
			sameParamBits(t, "batched", got.Params(), want)
		})
	}
}

// decodeOne decodes one feature vector as a one-row batch: the per-token
// decode the message-wide batches and the sender table are held to.
func decodeOne(c *Codec, feat []float64) int {
	sc := mat.GetScratch()
	defer mat.PutScratch(sc)
	var dst [1]int
	c.DecodeFeaturesInto(sc, sc.Wrap(1, len(feat), feat), dst[:])
	return dst[0]
}

// TestEncodeDecodeGEMMMatchesPerToken asserts the batched encode/decode
// entry points are bit-identical to the per-token path: EncodeSurfaceID
// and a one-row decode per token.
func TestEncodeDecodeGEMMMatchesPerToken(t *testing.T) {
	corp, codec := sharedFixtures(t)
	msgs := batchMessages(corp, 12)
	sc := mat.GetScratch()
	defer mat.PutScratch(sc)

	for _, words := range msgs {
		// Per-token reference path.
		wantFeats := make([][]float64, len(words))
		for i, w := range words {
			f := make([]float64, codec.FeatureDim())
			codec.EncodeSurfaceID(codec.Domain().SurfaceID(w), f)
			wantFeats[i] = f
		}
		wantConcepts := make([]int, len(words))
		for i, f := range wantFeats {
			wantConcepts[i] = decodeOne(codec, f)
		}

		sc.Reset()
		feats := codec.EncodeWordsInto(sc, words)
		for i := range words {
			for j, v := range wantFeats[i] {
				if feats.At(i, j) != v {
					t.Fatalf("feature (%d,%d) = %v, want %v", i, j, feats.At(i, j), v)
				}
			}
		}
		got := make([]int, len(words))
		codec.DecodeFeaturesInto(sc, feats, got)
		for i := range got {
			if got[i] != wantConcepts[i] {
				t.Fatalf("concept %d = %d, want %d", i, got[i], wantConcepts[i])
			}
		}
		// RoundTripInto must agree with encode-then-decode.
		sc.Reset()
		rt := make([]int, len(words))
		codec.RoundTripInto(sc, words, rt)
		for i := range rt {
			if rt[i] != wantConcepts[i] {
				t.Fatalf("roundtrip concept %d = %d, want %d", i, rt[i], wantConcepts[i])
			}
		}
	}
}

// TestEvaluateMatchesPerExample asserts the chunked batched Evaluate equals
// the per-example encode/decode accuracy, across chunk boundaries.
func TestEvaluateMatchesPerExample(t *testing.T) {
	corp, codec := sharedFixtures(t)
	examples := trainExamples(corp, 300) // straddles the 256-example chunk

	feat := make([]float64, codec.FeatureDim())
	correct := 0
	for _, ex := range examples {
		codec.EncodeSurfaceID(ex.SurfaceID, feat)
		if decodeOne(codec, feat) == ex.ConceptID {
			correct++
		}
	}
	want := float64(correct) / float64(len(examples))
	if got := codec.Evaluate(examples); got != want {
		t.Fatalf("Evaluate = %v, want %v", got, want)
	}
}
