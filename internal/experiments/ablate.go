package experiments

import (
	"fmt"

	"repro/internal/channel"
	"repro/internal/corpus"
	"repro/internal/mat"
	"repro/internal/semantic"
)

// AblationOptions parameterizes the design-choice ablations.
type AblationOptions struct {
	// SNRdB is the operating point (default 6: noisy but workable).
	SNRdB float64
	// Messages per configuration (default 200).
	Messages int
	// Domain under test (default "it").
	Domain string
	// Seed (default 1).
	Seed uint64
}

func (o AblationOptions) withDefaults() AblationOptions {
	if o.SNRdB == 0 {
		o.SNRdB = 6
	}
	if o.Messages == 0 {
		o.Messages = 200
	}
	if o.Domain == "" {
		o.Domain = "it"
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// AblationRow is one configuration's outcome.
type AblationRow struct {
	Config       string
	Similarity   float64
	ConceptAcc   float64
	PayloadBytes float64
}

// AblationResult groups rows per study.
type AblationResult struct {
	FeatureDim []AblationRow
	Transport  []AblationRow
	// Erasure compares semantic and traditional pipelines under symbol
	// erasures (§III-C losses/congestion); Config holds the erasure rate.
	Erasure []ErasureRow
}

// ErasureRow is one erasure-rate measurement.
type ErasureRow struct {
	ErasureP       float64
	SemanticAcc    float64
	TraditionalAcc float64
}

// RunAblations measures two design choices: codec bottleneck width
// (feature dimension, which trades payload against fidelity) and feature
// transport (digital quantized+coded versus DeepSC-style analog, plus
// channel-code choices).
func RunAblations(env *Env, opts AblationOptions) (*AblationResult, error) {
	opts = opts.withDefaults()
	d := env.Corpus.Domain(opts.Domain)
	res := &AblationResult{}

	// Study 1: feature dimension sweep (retrains small codecs).
	for _, dim := range []int{2, 4, 8, 16} {
		codec := semantic.Pretrain(d, env.Corpus, semantic.Config{
			FeatureDim: dim, Seed: opts.Seed,
		})
		row := measureTransport(env, codec, "digital/hamming", opts)
		row.Config = fmt.Sprintf("feature_dim=%d", dim)
		res.FeatureDim = append(res.FeatureDim, row)
	}

	// Study 2: transport comparison on the default codec.
	codec := env.Generals[d.Index]
	for _, name := range []string{"digital/hamming", "digital/none", "digital/rep3", "analog"} {
		row := measureTransport(env, codec, name, opts)
		row.Config = name
		res.Transport = append(res.Transport, row)
	}

	// Study 3: symbol erasures (losses/congestion). Both pipelines use
	// Hamming(7,4) + BPSK; the channel drops symbols independently.
	for _, p := range []float64{0.01, 0.03, 0.05, 0.10, 0.20} {
		res.Erasure = append(res.Erasure, measureErasure(env, codec, p, opts))
	}
	return res, nil
}

// measureErasure compares meaning recovery under a symbol-erasure channel.
func measureErasure(env *Env, codec *semantic.Codec, p float64, opts AblationOptions) ErasureRow {
	d := codec.Domain()
	rng := mat.NewRNG(opts.Seed + 991)
	gen := corpus.NewGenerator(env.Corpus, rng.Split())
	ch := &erasureChannel{p: p, rng: rng.Split()}
	link := channel.DefaultFeatureLink(ch)
	pipe := newTradPipeline(env, ch)

	sc := mat.GetScratch()
	defer mat.PutScratch(sc)
	var ts channel.TxScratch
	row := ErasureRow{ErasureP: p}
	for i := 0; i < opts.Messages; i++ {
		m := gen.Message(d.Index, nil)
		decoded, _ := roundTrip(sc, &ts, codec, codec, link, m.Words)
		row.SemanticAcc += semantic.ConceptAccuracy(decoded, m.ConceptIDs)

		got, _, _ := pipe.send(m.Text())
		concepts := conceptsOfText(d, got, len(m.ConceptIDs))
		row.TraditionalAcc += semantic.ConceptAccuracy(concepts, m.ConceptIDs)
	}
	n := float64(opts.Messages)
	row.SemanticAcc /= n
	row.TraditionalAcc /= n
	return row
}

// measureTransport runs messages through one transport configuration.
func measureTransport(env *Env, codec *semantic.Codec, name string, opts AblationOptions) AblationRow {
	d := codec.Domain()
	rng := mat.NewRNG(opts.Seed + 77)
	gen := corpus.NewGenerator(env.Corpus, rng.Split())
	ch := &channel.AWGN{SNRdB: opts.SNRdB, Rng: rng.Split()}

	digital := channel.DefaultFeatureLink(ch)
	var link transport
	switch name {
	case "digital/hamming":
		link = digital
	case "digital/none":
		digital.Code = identityCode{}
		link = digital
	case "digital/rep3":
		digital.Code = repetitionCode{n: 3}
		link = digital
	default: // analog
		link = &analogLink{ch: ch}
	}

	sc := mat.GetScratch()
	defer mat.PutScratch(sc)
	var ts channel.TxScratch
	var row AblationRow
	for i := 0; i < opts.Messages; i++ {
		m := gen.Message(d.Index, nil)
		decoded, stats := roundTrip(sc, &ts, codec, codec, link, m.Words)
		row.Similarity += semantic.Similarity(codec, decoded, m.ConceptIDs)
		row.ConceptAcc += semantic.ConceptAccuracy(decoded, m.ConceptIDs)
		row.PayloadBytes += float64(stats.PayloadBytes())
	}
	n := float64(opts.Messages)
	row.Similarity /= n
	row.ConceptAcc /= n
	row.PayloadBytes /= n
	return row
}

// Tables renders all ablation studies.
func (r *AblationResult) Tables() []*table {
	t1 := newTable("Ablation 1: codec bottleneck width (6 dB AWGN)",
		"config", "similarity", "concept_acc", "bytes_per_msg")
	for _, row := range r.FeatureDim {
		t1.addRow(row.Config, fixed(row.Similarity, 3), fixed(row.ConceptAcc, 3),
			fixed(row.PayloadBytes, 1))
	}
	t2 := newTable("Ablation 2: feature transport (6 dB AWGN)",
		"config", "similarity", "concept_acc", "bytes_per_msg")
	for _, row := range r.Transport {
		t2.addRow(row.Config, fixed(row.Similarity, 3), fixed(row.ConceptAcc, 3),
			fixed(row.PayloadBytes, 1))
	}
	t3 := newTable("Ablation 3: symbol erasures (losses/congestion)",
		"erasure_p", "semantic_concept_acc", "traditional_concept_acc")
	for _, row := range r.Erasure {
		t3.addRow(fixed(row.ErasureP, 2), fixed(row.SemanticAcc, 3),
			fixed(row.TraditionalAcc, 3))
	}
	return []*table{t1, t2, t3}
}
