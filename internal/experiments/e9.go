package experiments

import (
	"repro/internal/corpus"
	"repro/internal/mat"
	"repro/internal/metrics"
	"repro/internal/semantic"
)

// E9Options parameterizes the federated general-model improvement
// experiment (extension of §II-D via the paper's FL reference).
type E9Options struct {
	// Donors contributing individual-model improvements (default 10).
	Donors int
	// SentencesPerDonor of local traffic (default 48).
	SentencesPerDonor int
	// Rounds of FedAvg (default 4).
	Rounds int
	// ProbeUsers are fresh users measuring cold-start quality (default 6).
	ProbeUsers int
	// Domain under test (default "it").
	Domain string
	// IdiolectStrength for donors and probes (default 0.5).
	IdiolectStrength float64
	// Seed (default 1).
	Seed uint64
}

func (o E9Options) withDefaults() E9Options {
	if o.Donors == 0 {
		o.Donors = 10
	}
	if o.SentencesPerDonor == 0 {
		o.SentencesPerDonor = 48
	}
	if o.Rounds == 0 {
		o.Rounds = 4
	}
	if o.ProbeUsers == 0 {
		o.ProbeUsers = 6
	}
	if o.Domain == "" {
		o.Domain = "it"
	}
	if o.IdiolectStrength == 0 {
		o.IdiolectStrength = 0.5
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// E9Row is one model variant's cold-start measurement.
type E9Row struct {
	Model             string
	ColdStartAcc      float64
	GenericAcc        float64
	ColdStartMismatch float64
}

// E9Result compares the stock general model against the FedAvg-improved
// one.
type E9Result struct {
	Rows []E9Row
}

// RunE9 measures whether federating many users' individual-model deltas
// back into the general model improves cold start for brand-new users with
// unseen idiolects — the paper's future-work relaxation of "general models
// remain the same".
func RunE9(env *Env, opts E9Options) (*E9Result, error) {
	opts = opts.withDefaults()
	d := env.Corpus.Domain(opts.Domain)
	stock := env.Generals[d.Index]
	rng := mat.NewRNG(opts.Seed)

	donors := make([][]semantic.Example, opts.Donors)
	for i := range donors {
		idio := corpus.NewIdiolect(env.Corpus, rng.Split(), opts.IdiolectStrength)
		gen := corpus.NewGenerator(env.Corpus, rng.Split())
		var exs []semantic.Example
		for _, m := range gen.Batch(d.Index, opts.SentencesPerDonor, idio) {
			exs = append(exs, semantic.ExamplesFromMessage(d, m)...)
		}
		donors[i] = exs
	}
	improved, err := RunFederated(stock, donors, FederatedConfig{
		Rounds: opts.Rounds, LocalEpochs: 2, Seed: opts.Seed + 99,
	})
	if err != nil {
		return nil, err
	}

	// Fresh probe users: idiolects never seen by any donor.
	var cold, generic []semantic.Example
	for p := 0; p < opts.ProbeUsers; p++ {
		idio := corpus.NewIdiolect(env.Corpus, rng.Split(), opts.IdiolectStrength)
		gen := corpus.NewGenerator(env.Corpus, rng.Split())
		for _, m := range gen.Batch(d.Index, 40, idio) {
			cold = append(cold, semantic.ExamplesFromMessage(d, m)...)
		}
		for _, m := range gen.Batch(d.Index, 20, nil) {
			generic = append(generic, semantic.ExamplesFromMessage(d, m)...)
		}
	}

	res := &E9Result{}
	for _, row := range []struct {
		name  string
		codec *semantic.Codec
	}{
		{"stock general", stock},
		{"fedavg general", improved},
	} {
		ca := row.codec.Evaluate(cold)
		res.Rows = append(res.Rows, E9Row{
			Model:             row.name,
			ColdStartAcc:      ca,
			GenericAcc:        row.codec.Evaluate(generic),
			ColdStartMismatch: 1 - ca,
		})
	}
	return res, nil
}

// TableE renders the FedAvg comparison.
func (r *E9Result) TableE() *metrics.Table {
	t := metrics.NewTable("Table E (extension): FedAvg-improved general model, cold-start users",
		"model", "coldstart_acc", "coldstart_mismatch", "generic_acc")
	for _, row := range r.Rows {
		t.AddRow(row.Model,
			metrics.F(row.ColdStartAcc, 3),
			metrics.F(row.ColdStartMismatch, 3),
			metrics.F(row.GenericAcc, 3))
	}
	return t
}
