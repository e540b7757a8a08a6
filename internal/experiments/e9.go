package experiments

import (
	"repro/internal/corpus"
	"repro/internal/mat"
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
	const idiolectStrength float64 = 0.5 // donors' and probes'
	d := env.Corpus.Domain("it")
	stock := env.Generals[d.Index]
	rng := mat.NewRNG(tableSeed)

	donors := make([][]semantic.Example, opts.Donors)
	for i := range donors {
		idio := corpus.NewIdiolect(env.Corpus, rng.Split(), idiolectStrength)
		gen := corpus.NewGenerator(env.Corpus, rng.Split())
		var exs []semantic.Example
		for _, m := range gen.Batch(d.Index, opts.SentencesPerDonor, idio) {
			exs = append(exs, semantic.ExamplesFromMessage(d, m)...)
		}
		donors[i] = exs
	}
	improved, err := RunFederated(stock, donors, FederatedConfig{
		Rounds: opts.Rounds, LocalEpochs: 2, Seed: tableSeed + 99,
	})
	if err != nil {
		return nil, err
	}

	// Fresh probe users: idiolects never seen by any donor.
	var cold, generic []semantic.Example
	for p := 0; p < opts.ProbeUsers; p++ {
		idio := corpus.NewIdiolect(env.Corpus, rng.Split(), idiolectStrength)
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
func (r *E9Result) TableE() *table {
	t := newTable("Table E (extension): FedAvg-improved general model, cold-start users",
		"model", "coldstart_acc", "coldstart_mismatch", "generic_acc")
	for _, row := range r.Rows {
		t.addRow(row.Model,
			fixed(row.ColdStartAcc, 3),
			fixed(row.ColdStartMismatch, 3),
			fixed(row.GenericAcc, 3))
	}
	return t
}
