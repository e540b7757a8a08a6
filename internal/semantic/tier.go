package semantic

import (
	"fmt"

	"repro/internal/corpus"
	"repro/internal/mat"
	"repro/internal/nn"
)

// Tier selects the numeric kernels the codec's serving entry points
// (EncodeWordsInto/DecodeFeaturesInto and the APIs built on them) run on.
// Training and the single-token EncodeSurfaceID always run the bit-exact
// f64 path regardless of tier, so tiers never change what a model learns —
// only how cheaply it serves. Evaluate decodes through the
// serving tier, so it reports the accuracy users of that tier would see.
type Tier uint8

const (
	// TierF64 is the bit-exact float64 reference: serving output is
	// bit-identical to the historical implementation. The default.
	TierF64 Tier = iota
	// TierF32 runs float32 kernels with a relaxed (but fixed and
	// deterministic) accumulation order and a polynomial tanh.
	TierF32
	// TierInt8 serves frozen weights as 8-bit codes on per-row affine
	// grids with int32 accumulation, dequantizing on output. Updated
	// (fine-tuned) models are transparently re-quantized on next use.
	TierInt8
)

// String returns the flag/config spelling of the tier.
func (t Tier) String() string {
	switch t {
	case TierF64:
		return "f64"
	case TierF32:
		return "f32"
	case TierInt8:
		return "int8"
	}
	return fmt.Sprintf("tier(%d)", uint8(t))
}

// ParseTier parses a tier name. The empty string selects the f64 default,
// so an unset flag or config field keeps bit-exact behavior.
func ParseTier(s string) (Tier, error) {
	switch s {
	case "", "f64":
		return TierF64, nil
	case "f32":
		return TierF32, nil
	case "int8":
		return TierInt8, nil
	}
	return TierF64, fmt.Errorf("semantic: unknown kernel tier %q (want f64, f32 or int8)", s)
}

// Tiers lists every tier, for sweeps and flag documentation.
func Tiers() []Tier { return []Tier{TierF64, TierF32, TierInt8} }

// tierState caches the reduced-precision weight shadows of one codec for
// one tier. It is immutable once built; the codec swaps whole states
// atomically, so concurrent readers either see a complete state or build
// their own identical one (the build is deterministic).
type tierState struct {
	tier  Tier
	emb32 *mat.Dense32 // vocab x E, shared by f32 and int8 tiers

	enc32, dec32, out32 *nn.Linear32 // f32 tier
	encQ8, decQ8, outQ8 *nn.LinearQ8 // int8 tier
}

// Tier returns the codec's current kernel tier.
func (c *Codec) Tier() Tier { return c.cfg.Tier }

// SetTier selects the kernel tier for subsequent serving calls and drops
// any cached weight shadows. It returns an error for an undefined tier
// value. Safe to call on a live codec: in-flight decodes finish on the
// shadows they already loaded.
func (c *Codec) SetTier(t Tier) error {
	if t > TierInt8 {
		return fmt.Errorf("semantic: undefined kernel tier %d", uint8(t))
	}
	c.cfg.Tier = t
	c.tiers.Store(nil)
	return nil
}

// InvalidateTierCache drops the cached reduced-precision weight shadows.
// Every path that mutates parameter tensors must invalidate: TrainEpoch
// (covering Pretrain/FineTune/fl.RunUpdate) does it internally, and
// fl.ApplyUpdate — which writes through shared ParamSet storage — calls
// this explicitly. The next tiered call lazily re-derives the shadows from
// the current weights.
func (c *Codec) InvalidateTierCache() { c.tiers.Store(nil) }

// tierShadow returns the weight shadows for the current tier, building and
// caching them on first use (or after an invalidation). Concurrent callers
// may race to build; the results are identical and one winner is kept.
func (c *Codec) tierShadow() *tierState {
	if ts := c.tiers.Load(); ts != nil && ts.tier == c.cfg.Tier {
		return ts
	}
	ts := &tierState{tier: c.cfg.Tier, emb32: mat.Dense32From(c.emb.Table)}
	switch c.cfg.Tier {
	case TierF32:
		ts.enc32 = nn.NewLinear32(c.enc)
		ts.dec32 = nn.NewLinear32(c.dec)
		ts.out32 = nn.NewLinear32(c.out)
	case TierInt8:
		ts.encQ8 = nn.NewLinearQ8(c.enc)
		ts.decQ8 = nn.NewLinearQ8(c.dec)
		ts.outQ8 = nn.NewLinearQ8(c.out)
	}
	c.tiers.Store(ts)
	return ts
}

// embeddingRow32 returns the f32 embedding for id, clamping out-of-lexicon
// IDs like embeddingRow.
func (c *Codec) embeddingRow32(ts *tierState, id int) []float32 {
	if id < 0 || id >= ts.emb32.Rows {
		id = corpus.UnknownSurfaceID
	}
	return ts.emb32.Row(id)
}

// encodeWordsToTiered is the f32/int8 body of encodeWordsTo: gather the f32
// embeddings, run the tier's encoder kernel, apply the polynomial tanh and
// widen the features into dst for the (float64) channel layer.
func (c *Codec) encodeWordsToTiered(sc *mat.Scratch, dst *mat.Dense, words []string) {
	ts := c.tierShadow()
	x := sc.Mat32(len(words), c.cfg.EmbedDim)
	for i, w := range words {
		copy(x.Row(i), c.embeddingRow32(ts, c.domain.SurfaceID(w)))
	}
	f := sc.Mat32(x.Rows, c.cfg.FeatureDim)
	if ts.tier == TierInt8 {
		ts.encQ8.ForwardBatch(sc, f, x)
	} else {
		ts.enc32.ForwardBatch(f, x)
	}
	mat.Tanh32(f.Data, f.Data)
	mat.Widen(dst.Data, f.Data)
}

// decodeFeaturesIntoTiered is the f32/int8 body of DecodeFeaturesInto:
// narrow the features, run the tier's two decoder kernels and argmax in
// float32.
func (c *Codec) decodeFeaturesIntoTiered(sc *mat.Scratch, feats *mat.Dense, dst []int) {
	ts := c.tierShadow()
	f := sc.Mat32(feats.Rows, feats.Cols)
	mat.Narrow(f.Data, feats.Data)
	h := sc.Mat32(feats.Rows, c.cfg.HiddenDim)
	logits := sc.Mat32(feats.Rows, c.domain.NumConcepts())
	if ts.tier == TierInt8 {
		ts.decQ8.ForwardBatch(sc, h, f)
		mat.Tanh32(h.Data, h.Data)
		ts.outQ8.ForwardBatch(sc, logits, h)
	} else {
		ts.dec32.ForwardBatch(h, f)
		mat.Tanh32(h.Data, h.Data)
		ts.out32.ForwardBatch(logits, h)
	}
	for i := 0; i < feats.Rows; i++ {
		dst[i] = mat.Argmax32(logits.Row(i))
	}
}
