package experiments

import (
	"repro/internal/corpus"
	"repro/internal/fl"
	"repro/internal/mat"
	"repro/internal/semantic"
)

// E3Options parameterizes the personalization experiment.
type E3Options struct {
	// Users is the simulated user count (default 12).
	Users int
	// Rounds is the number of communication rounds (default 40).
	Rounds int
	// BufferThreshold transactions trigger a fine-tune (default 32).
	BufferThreshold int
	// IdiolectStrength in [0,1] (default 0.3).
	IdiolectStrength float64
}

func (o E3Options) withDefaults() E3Options {
	if o.Users == 0 {
		o.Users = 12
	}
	if o.Rounds == 0 {
		o.Rounds = 40
	}
	if o.BufferThreshold == 0 {
		o.BufferThreshold = 32
	}
	if o.IdiolectStrength == 0 {
		o.IdiolectStrength = 0.3
	}
	return o
}

// E3Round is one round's mean mismatch across users.
type E3Round struct {
	Round              int
	GeneralMismatch    float64
	IndividualMismatch float64
	UpdatesFired       int
}

// E3Result is the mismatch trajectory.
type E3Result struct {
	Rounds []E3Round
	// FinalGap is general minus individual mismatch averaged over the
	// last quarter of rounds.
	FinalGap float64
}

// RunE3 tracks semantic mismatch over communication rounds for users with
// idiolects, comparing a frozen general model against individual models
// updated through the paper's buffer-triggered fine-tuning.
func RunE3(env *Env, opts E3Options) (*E3Result, error) {
	opts = opts.withDefaults()
	const messagesPerRound = 8 // per user
	d := env.Corpus.Domain("it")
	general := env.Generals[d.Index]
	rng := mat.NewRNG(tableSeed)

	type user struct {
		idio       *corpus.Idiolect
		individual *semantic.Codec
		buf        *fl.Buffer
		gen        *corpus.Generator
		ftRNG      *mat.RNG
	}
	users := make([]*user, opts.Users)
	for i := range users {
		users[i] = &user{
			idio:       corpus.NewIdiolect(env.Corpus, rng.Split(), opts.IdiolectStrength),
			individual: general.Clone(),
			buf:        fl.NewBuffer(d.Name, "u", opts.BufferThreshold),
			gen:        corpus.NewGenerator(env.Corpus, rng.Split()),
			ftRNG:      rng.Split(),
		}
	}

	sc := mat.GetScratch()
	defer mat.PutScratch(sc)
	res := &E3Result{Rounds: make([]E3Round, 0, opts.Rounds)}
	for round := 0; round < opts.Rounds; round++ {
		row := E3Round{Round: round + 1}
		for _, u := range users {
			for m := 0; m < messagesPerRound; m++ {
				msg := u.gen.Message(d.Index, u.idio)
				exs := semantic.ExamplesFromMessage(d, msg)
				// General-model mismatch (frozen baseline).
				row.GeneralMismatch += 1 - general.Evaluate(exs)
				// Individual-model mismatch + buffering.
				row.IndividualMismatch += 1 - u.individual.Evaluate(exs)
				u.buf.Add(transaction(sc, d, msg, u.individual, u.individual))
			}
			if u.buf.Ready() {
				if _, err := fl.RunUpdate(u.individual, u.buf, 0, fl.UpdateConfig{
					Epochs: 3, Seed: u.ftRNG.Uint64()%1000 + 1,
				}); err != nil {
					return nil, err
				}
				u.buf.Reset()
				row.UpdatesFired++
			}
		}
		n := float64(opts.Users * messagesPerRound)
		row.GeneralMismatch /= n
		row.IndividualMismatch /= n
		res.Rounds = append(res.Rounds, row)
	}
	quarter := opts.Rounds / 4
	if quarter == 0 {
		quarter = 1
	}
	for _, row := range res.Rounds[len(res.Rounds)-quarter:] {
		res.FinalGap += (row.GeneralMismatch - row.IndividualMismatch) / float64(quarter)
	}
	return res, nil
}

// FigureC renders the mismatch trajectory.
func (r *E3Result) FigureC() *table {
	t := newTable("Figure C: semantic mismatch vs communication round (idiolect users)",
		"round", "general_model", "individual_model", "updates_fired")
	for _, row := range r.Rounds {
		t.addRow(fixed(float64(row.Round), 0),
			fixed(row.GeneralMismatch, 4),
			fixed(row.IndividualMismatch, 4),
			fixed(float64(row.UpdatesFired), 0))
	}
	return t
}
