// Package semantic implements the knowledge-base (KB) encoder/decoder pair
// at the core of the semantic communication workflow: semantic encoding
// extracts per-token feature vectors from a message; semantic decoding
// restores the meaning (domain concepts) from possibly noise-corrupted
// features.
//
// A Codec is a domain-specialized bottleneck network:
//
//	surface id -> Embedding -> Linear -> tanh  = feature vector  (encoder)
//	feature    -> Linear -> tanh -> Linear -> softmax over concepts (decoder)
//
// Features are bounded in (-1,1) by the tanh, which lets the channel layer
// quantize them uniformly. Training is denoising: Gaussian noise is added
// to features so decoding stays robust under channel corruption, mirroring
// how DeepSC-style systems train through the channel.
//
// The codec is context-free per token: a feature row is a function of one
// surface id and the encoder weights, a decoded concept a function of one
// feature row and the decoder weights — no attention, no recurrence, no
// statistic over the message. Two things rely on exactly that, and a
// contextual codec would have to drop both: the sender table (table.go)
// encodes and decoder-copies each surface once per model state, and
// DecodeMemo (memo.go) decodes each distinct received row once per model
// state.
package semantic

import (
	"fmt"
	"sync/atomic"

	"repro/internal/corpus"
	"repro/internal/mat"
	"repro/internal/nn"
)

// Config sets codec hyper-parameters. The zero value selects the defaults
// used throughout the experiments.
type Config struct {
	EmbedDim   int     // token embedding width (default 16)
	FeatureDim int     // transmitted feature width (default 8)
	HiddenDim  int     // decoder hidden width (default 24)
	NoiseStd   float64 // training-time feature noise (default 0.20)
	LR         float64 // optimizer learning rate (default 0.03)
	Epochs     int     // pretraining epochs (default 5)
	Sentences  int     // pretraining sentences (default 1000)
	Seed       uint64  // weight-init / training seed (default 1)
}

// withDefaults returns cfg with zero fields replaced by defaults.
func (cfg Config) withDefaults() Config {
	if cfg.EmbedDim == 0 {
		cfg.EmbedDim = 16
	}
	if cfg.FeatureDim == 0 {
		cfg.FeatureDim = 8
	}
	if cfg.HiddenDim == 0 {
		cfg.HiddenDim = 24
	}
	if cfg.NoiseStd == 0 {
		cfg.NoiseStd = 0.20
	}
	if cfg.LR == 0 {
		cfg.LR = 0.03
	}
	if cfg.Epochs == 0 {
		cfg.Epochs = 5
	}
	if cfg.Sentences == 0 {
		cfg.Sentences = 1000
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return cfg
}

// Parameter tensor names. The decoder names are what the federated-style
// update process ships between edge servers.
const (
	ParamEncEmb = "enc.emb"
	ParamEncW   = "enc.w"
	ParamEncB   = "enc.b"
	ParamDecW   = "dec.w"
	ParamDecB   = "dec.b"
	ParamOutW   = "out.w"
	ParamOutB   = "out.b"
)

// Codec is a domain-specialized semantic encoder/decoder pair.
type Codec struct {
	domain *corpus.Domain
	cfg    Config

	emb *nn.Embedding // vocab x E
	enc *nn.Linear    // E -> F
	dec *nn.Linear    // F -> H
	out *nn.Linear    // H -> concepts

	// stamp names "exactly these weights" for the DecodeMemo and the sender
	// table: a value no other codec and no earlier state of this one ever
	// had. See restamp.
	stamp atomic.Uint64
	// table is the sender table last built, current while its stamp is.
	table atomic.Pointer[senderTable]
}

// lastStamp is the process-wide source of codec stamps.
var lastStamp atomic.Uint64

// restamp gives the codec a fresh stamp. It runs when the codec is built
// (NewCodec, Clone) and every time mutable parameter storage is handed
// out (Params, DecoderParams — the only doors to the tensors), so memo
// entries and the sender table computed from weights that may since have
// been written stop matching. Writers promise nothing; reads that must not
// orphan a model's entries go through the read-only methods instead.
func (c *Codec) restamp() { c.stamp.Store(lastStamp.Add(1)) }

// NewCodec builds an untrained codec for domain d.
func NewCodec(d *corpus.Domain, cfg Config) *Codec {
	cfg = cfg.withDefaults()
	rng := mat.NewRNG(cfg.Seed)
	c := &Codec{
		domain: d,
		cfg:    cfg,
		emb:    nn.NewEmbedding(rng, d.VocabSize(), cfg.EmbedDim),
		enc:    nn.NewLinear(rng, cfg.EmbedDim, cfg.FeatureDim),
		dec:    nn.NewLinear(rng, cfg.FeatureDim, cfg.HiddenDim),
		out:    nn.NewLinear(rng, cfg.HiddenDim, d.NumConcepts()),
	}
	c.restamp()
	return c
}

// Domain returns the domain the codec specializes in.
func (c *Codec) Domain() *corpus.Domain { return c.domain }

// Config returns the effective configuration.
func (c *Codec) Config() Config { return c.cfg }

// FeatureDim returns the width of transmitted feature vectors.
func (c *Codec) FeatureDim() int { return c.cfg.FeatureDim }

// Params returns the full parameter set (shared storage, not a copy) for
// writing, and restamps the codec: write through the handle right away. A
// caller that keeps it and writes again after a later decode must call
// Params again, or a DecodeMemo may serve rows decoded in between.
func (c *Codec) Params() *nn.ParamSet {
	c.restamp()
	return c.params()
}

// DecoderParams returns the decoder-side tensors (shared storage) under
// the contract of Params. These are the tensors synchronized to the
// receiver edge in the update process.
func (c *Codec) DecoderParams() *nn.ParamSet {
	c.restamp()
	return c.decoderParams()
}

// params is Params for code that only reads the tensors: no restamp.
func (c *Codec) params() *nn.ParamSet {
	return &nn.ParamSet{Params: []nn.Param{
		{Name: ParamEncEmb, M: c.emb.Table},
		{Name: ParamEncW, M: c.enc.W},
		{Name: ParamEncB, M: c.enc.B},
		{Name: ParamDecW, M: c.dec.W},
		{Name: ParamDecB, M: c.dec.B},
		{Name: ParamOutW, M: c.out.W},
		{Name: ParamOutB, M: c.out.B},
	}}
}

// encoderParams returns the encoder-side tensors (shared storage), for
// code that only reads them: no restamp.
func (c *Codec) encoderParams() *nn.ParamSet {
	return &nn.ParamSet{Params: c.params().Params[:3:3]}
}

// decoderParams is the read-only DecoderParams.
func (c *Codec) decoderParams() *nn.ParamSet {
	return &nn.ParamSet{Params: c.params().Params[3:]}
}

// AppendParams appends the full parameter set in nn.ParamSet binary form
// (nn.ParamSet.AppendTo) to dst without restamping: exporting a model does
// not orphan its memo entries.
func (c *Codec) AppendParams(dst []byte) ([]byte, error) { return c.params().AppendTo(dst) }

// WithParams returns a codec of c's domain and configuration built on ps's
// tensors, which it adopts rather than copies: the caller hands ps over
// and must not touch it again. ps must hold the codec's tensors by name
// and shape. c is only read.
func (c *Codec) WithParams(ps *nn.ParamSet) (*Codec, error) { return newCodecOn(c.domain, c.cfg, ps) }

// newCodecOn builds a codec for domain d and cfg (defaults applied) on
// ps's tensors, adopted as they are, after checking that ps holds exactly
// the tensors NewCodec would allocate: the same names, order and shapes.
func newCodecOn(d *corpus.Domain, cfg Config, ps *nn.ParamSet) (*Codec, error) {
	names := [...]string{ParamEncEmb, ParamEncW, ParamEncB, ParamDecW, ParamDecB, ParamOutW, ParamOutB}
	t := ps.Params
	if len(t) != len(names) {
		return nil, fmt.Errorf("%w: %d tensors, want %d", errBadCodec, len(t), len(names))
	}
	for i, name := range names {
		if t[i].Name != name {
			return nil, fmt.Errorf("%w: tensor %d is %q, want %q", errBadCodec, i, t[i].Name, name)
		}
	}
	c := &Codec{
		domain: d,
		cfg:    cfg,
		emb:    &nn.Embedding{Table: t[0].M},
		enc:    &nn.Linear{W: t[1].M, B: t[2].M},
		dec:    &nn.Linear{W: t[3].M, B: t[4].M},
		out:    &nn.Linear{W: t[5].M, B: t[6].M},
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	c.restamp()
	return c, nil
}

// CheckParamShape reports the first way other differs from the codec's
// full parameter set in tensor count, names or shapes (see
// nn.ParamSet.CheckSameShape), without restamping.
func (c *Codec) CheckParamShape(other *nn.ParamSet) error { return c.params().CheckSameShape(other) }

// Clone returns a deep copy of the codec. Individual (user-specific) models
// start as clones of the domain's general model, exactly as in the paper's
// Fig. 1 step 2.
func (c *Codec) Clone() *Codec {
	out := &Codec{
		domain: c.domain,
		cfg:    c.cfg,
		emb:    &nn.Embedding{Table: c.emb.Table.Clone()},
		enc:    &nn.Linear{W: c.enc.W.Clone(), B: c.enc.B.Clone()},
		dec:    &nn.Linear{W: c.dec.W.Clone(), B: c.dec.B.Clone()},
		out:    &nn.Linear{W: c.out.W.Clone(), B: c.out.B.Clone()},
	}
	out.restamp()
	return out
}

// SizeBytes returns the serialized size of all parameters: the footprint
// the codec occupies in an edge cache.
func (c *Codec) SizeBytes() int64 { return c.params().SizeBytes() }

// EncoderSizeBytes returns the serialized size of the encoder tensors.
func (c *Codec) EncoderSizeBytes() int64 { return c.encoderParams().SizeBytes() }

// DecoderSizeBytes returns the serialized size of the decoder tensors.
func (c *Codec) DecoderSizeBytes() int64 { return c.decoderParams().SizeBytes() }

// EncodeSurfaceID computes the feature vector for one local surface ID
// through the encoder as a one-row batch, without the sender table: the
// per-token reference the table (EncodeSurfaceIDsInto) is tested against.
func (c *Codec) EncodeSurfaceID(id int, dst []float64) {
	if len(dst) != c.cfg.FeatureDim {
		panic("semantic: EncodeSurfaceID dst length mismatch")
	}
	x := c.embeddingRow(id)
	c.enc.ForwardBatch(&mat.Dense{Rows: 1, Cols: len(dst), Data: dst}, &mat.Dense{Rows: 1, Cols: len(x), Data: x})
	nn.TanhForward(dst, dst)
}

// surface clamps an out-of-lexicon ID to the unknown surface.
func (c *Codec) surface(id int) int {
	if id < 0 || id >= c.emb.Vocab() {
		return corpus.UnknownSurfaceID
	}
	return id
}

// embeddingRow returns the embedding for id (clamped, see surface).
func (c *Codec) embeddingRow(id int) []float64 { return c.emb.Lookup(c.surface(id)) }

// packSurfaceEmbeddings gathers the embeddings of the given surface IDs
// into an n x EmbedDim scratch matrix (row order = id order).
func (c *Codec) packSurfaceEmbeddings(sc *mat.Scratch, ids []int) *mat.Dense {
	x := sc.Mat(len(ids), c.cfg.EmbedDim)
	for i, id := range ids {
		copy(x.Row(i), c.embeddingRow(id))
	}
	return x
}

// EncodeWordsInto encodes a token sequence into a len(words) x FeatureDim
// feature matrix allocated from sc: each word is resolved to its surface ID
// and the rows are gathered from the sender table (EncodeSurfaceIDsInto).
// Words outside the domain lexicon encode as the unknown surface.
func (c *Codec) EncodeWordsInto(sc *mat.Scratch, words []string) *mat.Dense {
	ids := sc.Ints(len(words))
	c.domain.SurfaceIDsInto(ids, words)
	return c.EncodeSurfaceIDsInto(sc, ids)
}

// DecodeFeaturesInto decodes a feats.Rows x FeatureDim feature matrix into
// concept indices written to dst (length feats.Rows): two batched GEMMs
// (hidden, logits) and an argmax sweep, with all temporaries drawn from sc.
// It is the zero-allocation decode of the steady-state serving path, and a
// row's concept does not depend on the rows decoded beside it.
func (c *Codec) DecodeFeaturesInto(sc *mat.Scratch, feats *mat.Dense, dst []int) {
	if len(dst) != feats.Rows {
		panic("semantic: DecodeFeaturesInto dst length mismatch")
	}
	h := sc.Mat(feats.Rows, c.cfg.HiddenDim)
	c.dec.ForwardBatch(h, feats)
	nn.TanhForward(h.Data, h.Data)
	logits := sc.Mat(feats.Rows, c.domain.NumConcepts())
	c.out.ForwardBatch(logits, h)
	for i := 0; i < feats.Rows; i++ {
		dst[i] = mat.Argmax(logits.Row(i))
	}
}

// RestoreWords renders concept indices as canonical surface forms: the
// restored message shown to the receiving user.
func (c *Codec) RestoreWords(concepts []int) []string {
	out := make([]string, len(concepts))
	for i, ci := range concepts {
		out[i] = c.domain.Canonical(ci)
	}
	return out
}

// RoundTripInto encodes then decodes words with no channel in between,
// writing the decoded concepts into dst (length len(words)). All
// temporaries come from sc, so steady-state calls allocate nothing.
func (c *Codec) RoundTripInto(sc *mat.Scratch, words []string, dst []int) {
	c.DecodeFeaturesInto(sc, c.EncodeWordsInto(sc, words), dst)
}

// Validate reports the first tensor whose shape is not the one the
// codec's domain and configuration call for — what NewCodec allocates.
// It is cheap, and every codec built on parsed tensors passes it first.
func (c *Codec) Validate() error {
	d, cfg := c.domain, c.cfg
	for _, w := range []struct {
		name       string
		m          *mat.Dense
		rows, cols int
	}{
		{ParamEncEmb, c.emb.Table, d.VocabSize(), cfg.EmbedDim},
		{ParamEncW, c.enc.W, cfg.FeatureDim, cfg.EmbedDim},
		{ParamEncB, c.enc.B, 1, cfg.FeatureDim},
		{ParamDecW, c.dec.W, cfg.HiddenDim, cfg.FeatureDim},
		{ParamDecB, c.dec.B, 1, cfg.HiddenDim},
		{ParamOutW, c.out.W, d.NumConcepts(), cfg.HiddenDim},
		{ParamOutB, c.out.B, 1, d.NumConcepts()},
	} {
		if w.m.Rows != w.rows || w.m.Cols != w.cols {
			return fmt.Errorf("semantic: tensor %q is %dx%d, want %dx%d for domain %q",
				w.name, w.m.Rows, w.m.Cols, w.rows, w.cols, d.Name)
		}
	}
	return nil
}
