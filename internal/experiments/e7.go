package experiments

import (
	"fmt"

	"repro/internal/corpus"
	"repro/internal/fl"
	"repro/internal/mat"
)

// E7Options parameterizes the gradient-compression ablation.
type E7Options struct {
	// TopKFracs to sweep (default 1, 0.5, 0.25, 0.1, 0.05, 0.01).
	TopKFracs []float64
	// BufferSize transactions per update (default 64).
	BufferSize int
	// Updates applied sequentially per setting (default 6).
	Updates int
}

func (o E7Options) withDefaults() E7Options {
	if len(o.TopKFracs) == 0 {
		o.TopKFracs = []float64{1, 0.5, 0.25, 0.1, 0.05, 0.01}
	}
	if o.BufferSize == 0 {
		o.BufferSize = 64
	}
	if o.Updates == 0 {
		o.Updates = 6
	}
	return o
}

// E7Point is one compression setting's outcome.
type E7Point struct {
	TopKFrac     float64
	Int8         bool
	BytesPerSync float64
	// SenderAccuracy is the fine-tuned sender-local accuracy (upper
	// bound); ReceiverAccuracy is after lossy sync.
	SenderAccuracy   float64
	ReceiverAccuracy float64
}

// E7Result is the compression sweep.
type E7Result struct {
	Points []E7Point
}

// RunE7 sweeps decoder-update compression (top-k sparsification with and
// without int8 quantization), measuring sync payload against the
// receiver-side accuracy retained after a sequence of lossy updates.
func RunE7(env *Env, opts E7Options) (*E7Result, error) {
	opts = opts.withDefaults()
	d := env.Corpus.Domain("it")
	general := env.Generals[d.Index]

	sc := mat.GetScratch()
	defer mat.PutScratch(sc)
	res := &E7Result{}
	for _, int8q := range []bool{false, true} {
		for _, frac := range opts.TopKFracs {
			compress := compressOptions{int8: int8q}
			if frac < 1 {
				compress.topKFrac = frac
			}
			rng := mat.NewRNG(tableSeed)
			idio := corpus.NewIdiolect(env.Corpus, rng.Split(), 0.4)
			gen := corpus.NewGenerator(env.Corpus, rng.Split())
			sender := general.Clone()
			receiver := general.Clone()

			var syncBytes float64
			var lastBuf *fl.Buffer
			for u := 0; u < opts.Updates; u++ {
				buf := fl.NewBuffer(d.Name, "u1", opts.BufferSize)
				for i := 0; i < opts.BufferSize; i++ {
					msg := gen.Message(d.Index, idio)
					buf.Add(transaction(sc, d, msg, sender, sender))
				}
				before := sender.DecoderParams().Clone()
				upd, err := fl.RunUpdate(sender, buf, u, fl.UpdateConfig{
					Epochs: 3, Seed: uint64(u) + 1,
				})
				if err != nil {
					return nil, err
				}
				bytes, err := lossySync(receiver, before, upd, compress)
				if err != nil {
					return nil, err
				}
				syncBytes += float64(bytes)
				lastBuf = buf
			}
			exs := lastBuf.Examples()
			res.Points = append(res.Points, E7Point{
				TopKFrac:         frac,
				Int8:             int8q,
				BytesPerSync:     syncBytes / float64(opts.Updates),
				SenderAccuracy:   sender.Evaluate(exs),
				ReceiverAccuracy: crossEvaluate(sender, receiver, exs),
			})
		}
	}
	return res, nil
}

// FigureE renders the compression sweep.
func (r *E7Result) FigureE() *table {
	t := newTable("Figure E: decoder-update compression vs post-sync accuracy",
		"topk_frac", "int8", "bytes_per_sync", "sender_acc", "receiver_acc", "acc_loss")
	for _, p := range r.Points {
		t.addRow(
			fixed(p.TopKFrac, 2),
			fmt.Sprintf("%v", p.Int8),
			fixed(p.BytesPerSync, 0),
			fixed(p.SenderAccuracy, 3),
			fixed(p.ReceiverAccuracy, 3),
			fixed(p.SenderAccuracy-p.ReceiverAccuracy, 3))
	}
	return t
}
