package semantic

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/mat"
)

// batchMessages generates a deterministic batch of IT-domain messages.
func batchMessages(corp *corpus.Corpus, n int) [][]string {
	gen := corpus.NewGenerator(corp, mat.NewRNG(99))
	d := corp.Domain("it")
	msgs := make([][]string, 0, n)
	for _, m := range gen.Batch(d.Index, n, nil) {
		msgs = append(msgs, m.Words)
	}
	return msgs
}

// TestPretrainAllParallelDeterminism asserts PretrainAll produces the same
// models regardless of worker count: per-domain training must be seeded
// independently of scheduling.
func TestPretrainAllParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping multi-pretrain determinism check in -short")
	}
	corp := corpus.Build()
	cfg := testConfig()
	cfg.Sentences = 120
	cfg.Epochs = 1

	prev := mat.Parallelism()
	defer mat.SetParallelism(prev)

	mat.SetParallelism(1)
	serial := PretrainAll(corp, cfg)
	mat.SetParallelism(8)
	parallel := PretrainAll(corp, cfg)

	if len(serial) != len(parallel) {
		t.Fatalf("codec counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		a, b := serial[i].Params(), parallel[i].Params()
		for j := range a.Params {
			am, bm := a.Params[j].M, b.Params[j].M
			for k := range am.Data {
				if am.Data[k] != bm.Data[k] {
					t.Fatalf("domain %d tensor %q differs at %d: %v vs %v",
						i, a.Params[j].Name, k, am.Data[k], bm.Data[k])
				}
			}
		}
	}
}
