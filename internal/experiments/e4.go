package experiments

import (
	"repro/internal/corpus"
	"repro/internal/fl"
	"repro/internal/mat"
)

// E4Options parameterizes the decoder-copy traffic comparison.
type E4Options struct {
	// Rounds of buffer-fill + update (default 30).
	Rounds int
	// BufferSize transactions per round (default 32).
	BufferSize int
	// Domain under test (default "it").
	Domain string
	// IdiolectStrength for the simulated user (default 0.4).
	IdiolectStrength float64
	// Seed (default 1).
	Seed uint64
}

func (o E4Options) withDefaults() E4Options {
	if o.Rounds == 0 {
		o.Rounds = 30
	}
	if o.BufferSize == 0 {
		o.BufferSize = 32
	}
	if o.Domain == "" {
		o.Domain = "it"
	}
	if o.IdiolectStrength == 0 {
		o.IdiolectStrength = 0.4
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// E4Mechanism is one feedback/sync mechanism's traffic accounting.
type E4Mechanism struct {
	Name string
	// FeedbackBytesPerRound is per-message feedback traffic accumulated
	// over one buffer round (receiver -> sender).
	FeedbackBytesPerRound float64
	// SyncBytesPerUpdate is the decoder-synchronization payload
	// (sender -> receiver).
	SyncBytesPerUpdate float64
	// TotalBytes over all rounds (feedback + sync).
	TotalBytes float64
	// PostAccuracy is the receiver-side accuracy after the final update.
	PostAccuracy float64
}

// E4Result compares mechanisms.
type E4Result struct {
	Mechanisms []E4Mechanism
	Rounds     int
}

// RunE4 quantifies §II-C: computing mismatch by returning receiver outputs
// to the sender versus caching a decoder copy on the sender edge. All
// mechanisms end with identical fine-tuning; they differ only in traffic.
func RunE4(env *Env, opts E4Options) (*E4Result, error) {
	opts = opts.withDefaults()
	d := env.Corpus.Domain(opts.Domain)
	general := env.Generals[d.Index]
	rng := mat.NewRNG(opts.Seed)
	idio := corpus.NewIdiolect(env.Corpus, rng.Split(), opts.IdiolectStrength)

	type mech struct {
		name         string
		outputReturn bool
		compress     compressOptions
	}
	mechs := []mech{
		{name: "output-return + dense sync", outputReturn: true},
		{name: "decoder-copy + dense sync"},
		{name: "decoder-copy + top10% sync", compress: compressOptions{topKFrac: 0.10}},
		{name: "decoder-copy + top10% int8 sync", compress: compressOptions{topKFrac: 0.10, int8: true}},
	}

	sc := mat.GetScratch()
	defer mat.PutScratch(sc)
	res := &E4Result{Rounds: opts.Rounds}
	for _, mc := range mechs {
		sender := general.Clone()
		receiver := general.Clone()
		gen := corpus.NewGenerator(env.Corpus, mat.NewRNG(opts.Seed+7))
		ftRNG := mat.NewRNG(opts.Seed + 13)

		var feedbackTotal, syncTotal float64
		var lastExamples []fl.Transaction
		for round := 0; round < opts.Rounds; round++ {
			buf := fl.NewBuffer(d.Name, "u1", opts.BufferSize)
			for i := 0; i < opts.BufferSize; i++ {
				msg := gen.Message(d.Index, idio)
				var tx fl.Transaction
				if mc.outputReturn {
					// The receiver decodes and returns its output text.
					tx = transaction(sc, d, msg, sender, receiver)
					feedbackTotal += float64(outputReturnBytes(receiver.RestoreWords(tx.Decoded)))
				} else {
					// Decoder copy: computed locally, no feedback traffic.
					tx = transaction(sc, d, msg, sender, sender)
				}
				buf.Add(tx)
			}
			upd, err := fl.RunUpdate(sender, buf, round, fl.UpdateConfig{
				Epochs: 3, Seed: ftRNG.Uint64()%1000 + 1,
			})
			if err != nil {
				return nil, err
			}
			bytes, err := lossySync(receiver, upd, mc.compress)
			if err != nil {
				return nil, err
			}
			syncTotal += float64(bytes)
			lastExamples = buf.Transactions()
		}
		// Post-sync receiver accuracy on the final round's traffic.
		var exs []fl.Transaction = lastExamples
		buf := fl.NewBuffer(d.Name, "u1", 1)
		for _, tx := range exs {
			buf.Add(tx)
		}
		post := crossEvaluate(sender, receiver, buf.Examples())

		res.Mechanisms = append(res.Mechanisms, E4Mechanism{
			Name:                  mc.name,
			FeedbackBytesPerRound: feedbackTotal / float64(opts.Rounds),
			SyncBytesPerUpdate:    syncTotal / float64(opts.Rounds),
			TotalBytes:            feedbackTotal + syncTotal,
			PostAccuracy:          post,
		})
	}
	return res, nil
}

// TableB renders the traffic comparison.
func (r *E4Result) TableB() *table {
	t := newTable("Table B: mismatch-feedback and decoder-sync traffic (per user, per domain)",
		"mechanism", "feedback_B_per_round", "sync_B_per_update", "total_B", "post_sync_accuracy")
	for _, m := range r.Mechanisms {
		t.addRow(m.Name,
			fixed(m.FeedbackBytesPerRound, 0),
			fixed(m.SyncBytesPerUpdate, 0),
			fixed(m.TotalBytes, 0),
			fixed(m.PostAccuracy, 3))
	}
	return t
}
