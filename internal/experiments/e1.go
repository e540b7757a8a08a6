package experiments

import (
	"repro/internal/channel"
	"repro/internal/corpus"
	"repro/internal/mat"
	"repro/internal/semantic"
	"repro/internal/text"
)

// E1Options parameterizes the semantic-versus-traditional comparison.
type E1Options struct {
	// SNRs lists the SNR sweep points in dB (default -6..18 step 3).
	SNRs []float64
	// MessagesPerDomain per SNR point (default 150).
	MessagesPerDomain int
	// Domains under test (default it, medical, sports).
	Domains []string
	// Rayleigh switches the channel model from AWGN to Rayleigh fading.
	Rayleigh bool
	// Seed drives message generation and noise (default 1).
	Seed uint64
}

func (o E1Options) withDefaults() E1Options {
	if len(o.SNRs) == 0 {
		o.SNRs = []float64{-6, -3, 0, 3, 6, 9, 12, 15, 18}
	}
	if o.MessagesPerDomain == 0 {
		o.MessagesPerDomain = 150
	}
	if len(o.Domains) == 0 {
		o.Domains = []string{"it", "medical", "sports"}
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// E1Point is one SNR sweep point.
type E1Point struct {
	SNRdB float64
	// Semantic pipeline metrics.
	SemSimilarity  float64
	SemConceptAcc  float64
	SemPayloadByte float64
	// Traditional pipeline metrics.
	TradConceptAcc  float64
	TradExactRate   float64 // fraction of messages recovered bit-exact
	TradPayloadByte float64
}

// E1Result is the full sweep.
type E1Result struct {
	Points   []E1Point
	Rayleigh bool
}

// RunE1 compares the semantic pipeline against the traditional
// Huffman-coded pipeline over the same channel, code and modulation,
// sweeping SNR. Fidelity is meaning recovery: decoded words mapped through
// the true domain KB to concepts, compared against the ground truth.
func RunE1(env *Env, opts E1Options) (*E1Result, error) {
	opts = opts.withDefaults()
	rng := mat.NewRNG(opts.Seed)
	gen := corpus.NewGenerator(env.Corpus, rng.Split())

	// Pre-generate one message set per domain, reused at every SNR so the
	// sweep isolates channel effects.
	type msgSet struct {
		domain *corpus.Domain
		codec  *semantic.Codec
		msgs   []corpus.Message
	}
	sets := make([]msgSet, 0, len(opts.Domains))
	for _, name := range opts.Domains {
		d := env.Corpus.Domain(name)
		sets = append(sets, msgSet{
			domain: d,
			codec:  env.Generals[d.Index],
			msgs:   gen.Batch(d.Index, opts.MessagesPerDomain, nil),
		})
	}

	// RNG splits happen serially up front so the per-SNR noise streams are
	// independent of scheduling; the sweep points then run concurrently
	// (codecs, messages and the Huffman coder are all read-only here).
	noiseRNGs := make([]*mat.RNG, len(opts.SNRs))
	for i := range noiseRNGs {
		noiseRNGs[i] = rng.Split()
	}
	res := &E1Result{Rayleigh: opts.Rayleigh, Points: make([]E1Point, len(opts.SNRs))}
	err := mat.ForEach(len(opts.SNRs), func(pi int) error {
		snr := opts.SNRs[pi]
		var ch channel.Channel
		if opts.Rayleigh {
			ch = newRayleigh(snr, noiseRNGs[pi])
		} else {
			ch = &channel.AWGN{SNRdB: snr, Rng: noiseRNGs[pi]}
		}
		link := channel.DefaultFeatureLink(ch)
		pipe := newTradPipeline(env, ch)
		sc := mat.GetScratch()
		defer mat.PutScratch(sc)
		var ts channel.TxScratch
		var pt E1Point
		pt.SNRdB = snr
		var n float64
		for _, set := range sets {
			for _, m := range set.msgs {
				n++
				// Semantic pipeline.
				decoded, stats := roundTrip(sc, &ts, set.codec, set.codec, link, m.Words)
				pt.SemSimilarity += semantic.Similarity(set.codec, decoded, m.ConceptIDs)
				pt.SemConceptAcc += semantic.ConceptAccuracy(decoded, m.ConceptIDs)
				pt.SemPayloadByte += float64(stats.PayloadBytes())

				// Traditional pipeline: recover text, then meaning.
				txt := m.Text()
				got, _, tstats := pipe.send(txt)
				if got == txt {
					pt.TradExactRate++
				}
				concepts := conceptsOfText(set.domain, got, len(m.ConceptIDs))
				pt.TradConceptAcc += semantic.ConceptAccuracy(concepts, m.ConceptIDs)
				pt.TradPayloadByte += float64(tstats.PayloadBytes())
			}
		}
		pt.SemSimilarity /= n
		pt.SemConceptAcc /= n
		pt.SemPayloadByte /= n
		pt.TradConceptAcc /= n
		pt.TradExactRate /= n
		pt.TradPayloadByte /= n
		res.Points[pi] = pt
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// conceptsOfText tokenizes decoded text and maps each token to its domain
// concept (-1 for unknown), truncating/padding to want positions.
func conceptsOfText(d *corpus.Domain, s string, want int) []int {
	tokens := text.Tokenize(s)
	out := make([]int, 0, want)
	for _, tok := range tokens {
		out = append(out, d.SurfaceConcept(d.SurfaceID(tok)))
	}
	return out
}

// FigureA renders the fidelity-versus-SNR series.
func (r *E1Result) FigureA() *table {
	name := "Figure A: meaning fidelity vs SNR (AWGN, BPSK, Hamming(7,4))"
	if r.Rayleigh {
		name = "Figure A': meaning fidelity vs SNR (Rayleigh, BPSK, Hamming(7,4))"
	}
	t := newTable(name,
		"snr_db", "semantic_similarity", "semantic_concept_acc", "traditional_concept_acc", "traditional_exact")
	for _, p := range r.Points {
		t.addRow(fixed(p.SNRdB, 0), fixed(p.SemSimilarity, 3),
			fixed(p.SemConceptAcc, 3), fixed(p.TradConceptAcc, 3),
			fixed(p.TradExactRate, 3))
	}
	return t
}

// TableA renders the payload comparison at the highest-SNR point.
func (r *E1Result) TableA() *table {
	t := newTable("Table A: transmitted payload per message",
		"pipeline", "bytes_per_message", "relative")
	if len(r.Points) == 0 {
		return t
	}
	last := r.Points[len(r.Points)-1]
	t.addRow("semantic", fixed(last.SemPayloadByte, 1), "1.00x")
	ratio := last.TradPayloadByte / last.SemPayloadByte
	t.addRow("traditional", fixed(last.TradPayloadByte, 1), fixed(ratio, 2)+"x")
	return t
}
