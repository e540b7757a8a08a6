package experiments

import (
	"math"

	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/trace"
)

// E5Options parameterizes the model-selection comparison.
type E5Options struct {
	// Selectors to compare (default oracle, static, naivebayes, sticky,
	// qlearn, ucb).
	Selectors []string
	// Messages per selector (default 3000).
	Messages int
	// Users sharing the stream (default 6).
	Users int
}

func (o E5Options) withDefaults() E5Options {
	if len(o.Selectors) == 0 {
		o.Selectors = []string{"oracle", "static", "naivebayes", "sticky", "qlearn", "ucb"}
	}
	if o.Messages == 0 {
		o.Messages = 3000
	}
	if o.Users == 0 {
		o.Users = 6
	}
	return o
}

// E5Row is one selector's end-to-end outcome.
type E5Row struct {
	Selector          string
	SelectionAccuracy float64
	WordAccuracy      float64
	Similarity        float64
	Mismatch          float64
}

// E5Result compares selection policies.
type E5Result struct {
	Rows []E5Row
}

// RunE5 runs the full system under each selection policy on an ambiguous
// workload (short, function-word-heavy messages under topic drift), where
// per-message classification is unreliable and the §III-A context/RL
// approaches should win.
func RunE5(env *Env, opts E5Options) (*E5Result, error) {
	opts = opts.withDefaults()
	sels := make([]core.SelectorFunc, len(opts.Selectors))
	oracles := make([]*Static, len(opts.Selectors))
	for i, name := range opts.Selectors {
		var err error
		if sels[i], oracles[i], err = selectorByName(name); err != nil {
			return nil, err
		}
	}
	// Each selector gets its own full System (cloned from the shared
	// pretrained codecs) and a deterministic workload, so the comparison
	// rows run through mat.ForEach and land by index.
	res := &E5Result{Rows: make([]E5Row, len(opts.Selectors))}
	err := mat.ForEach(len(opts.Selectors), func(si int) error {
		sys, err := core.NewSystem(core.Config{
			Selector:        sels[si],
			PinGeneral:      true,
			BufferThreshold: math.MaxInt,
			Seed:            tableSeed,
			Pretrained:      env.Generals,
		})
		if err != nil {
			return err
		}
		w := trace.Generate(sys.Corpus, trace.Config{
			Users: opts.Users, Messages: opts.Messages,
			MeanRunLength: 12,
			MinLen:        3, MaxLen: 6, FuncProb: 0.55,
			Seed: tableSeed + 100,
		})
		results, err := RunTrace(sys, oracles[si], w)
		if err != nil {
			return err
		}
		sum, err := Summarize(results)
		if err != nil {
			return err
		}
		res.Rows[si] = E5Row{
			Selector:          opts.Selectors[si],
			SelectionAccuracy: sum.SelectionAccuracy,
			WordAccuracy:      sum.MeanWordAccuracy,
			Similarity:        sum.MeanSimilarity,
			Mismatch:          sum.MeanMismatch,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// FigureD renders the selection comparison.
func (r *E5Result) FigureD() *table {
	t := newTable("Figure D: model selection under topic drift (ambiguous short messages)",
		"selector", "selection_acc", "word_acc", "similarity", "sender_mismatch")
	for _, row := range r.Rows {
		t.addRow(row.Selector,
			fixed(row.SelectionAccuracy, 3),
			fixed(row.WordAccuracy, 3),
			fixed(row.Similarity, 3),
			fixed(row.Mismatch, 3))
	}
	return t
}
