package semantic

import (
	"reflect"
	"sync"
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

// TestBatchMatchesSerial asserts EncodeBatch/DecodeBatch are bit-identical
// to per-message EncodeWords/DecodeFeatures at any worker count.
func TestBatchMatchesSerial(t *testing.T) {
	corp, codec := sharedFixtures(t)
	msgs := batchMessages(corp, 40)

	prev := mat.Parallelism()
	defer mat.SetParallelism(prev)

	mat.SetParallelism(1)
	wantFeats := make([][][]float64, len(msgs))
	for i, m := range msgs {
		wantFeats[i] = codec.EncodeWords(m)
	}
	wantConcepts := make([][]int, len(msgs))
	for i, f := range wantFeats {
		wantConcepts[i] = codec.DecodeFeatures(f)
	}

	for _, workers := range []int{1, 2, 8} {
		mat.SetParallelism(workers)
		feats := codec.EncodeBatch(msgs)
		if !reflect.DeepEqual(feats, wantFeats) {
			t.Fatalf("EncodeBatch at %d workers differs from serial encode", workers)
		}
		concepts := codec.DecodeBatch(feats)
		if !reflect.DeepEqual(concepts, wantConcepts) {
			t.Fatalf("DecodeBatch at %d workers differs from serial decode", workers)
		}
	}
}

// TestConcurrentBatchEncode hammers one shared codec from many goroutines
// at full parallelism. Under -race this proves the encode/decode read path
// is free of data races (the CI race job runs it).
func TestConcurrentBatchEncode(t *testing.T) {
	corp, codec := sharedFixtures(t)
	msgs := batchMessages(corp, 24)

	prev := mat.Parallelism()
	defer mat.SetParallelism(prev)
	mat.SetParallelism(8)

	want := codec.DecodeBatch(codec.EncodeBatch(msgs))

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 4; iter++ {
				got := codec.DecodeBatch(codec.EncodeBatch(msgs))
				if !reflect.DeepEqual(got, want) {
					errs <- "concurrent batch encode/decode not deterministic"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
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
