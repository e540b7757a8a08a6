// Command semkb manages knowledge-base model files: pretrain the
// domain-specialized general codecs and persist them to disk, inspect a
// saved model, or verify a directory of models against the corpus.
//
// Usage:
//
//	semkb -pretrain -out ./kb                 # write one .kbm per domain
//	semkb -inspect ./kb/it.kbm                # print model metadata
//	semkb -verify ./kb                        # reload + self-check all models (exit 1 if any is missing or degraded)
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/corpus"
	"repro/internal/mat"
	"repro/internal/semantic"
)

func main() {
	if err := run(); err != nil {
		log.SetFlags(0)
		log.Fatalf("semkb: %v", err)
	}
}

func run() error {
	var (
		pretrain = flag.Bool("pretrain", false, "pretrain general models and write them to -out")
		out      = flag.String("out", "./kb", "output directory for -pretrain")
		inspect  = flag.String("inspect", "", "print metadata for one .kbm file")
		verify   = flag.String("verify", "", "reload every domain's .kbm in a directory and self-check; fails if one is missing or degraded")
		seed     = flag.Uint64("seed", 1, "pretraining seed")
	)
	flag.Parse()

	switch {
	case *pretrain:
		return runPretrain(*out, *seed)
	case *inspect != "":
		return runInspect(*inspect)
	case *verify != "":
		return runVerify(*verify)
	default:
		flag.Usage()
		return fmt.Errorf("one of -pretrain, -inspect or -verify is required")
	}
}

// runPretrain trains every domain's general codec (semantic.PretrainAll,
// the training core.NewSystem runs, domains in parallel) and persists each.
func runPretrain(dir string, seed uint64) error {
	corp := corpus.Build()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t0 := time.Now()
	codecs := semantic.PretrainAll(corp, semantic.Config{Seed: seed})
	fmt.Printf("trained %d domains in %v\n", len(codecs), time.Since(t0).Round(time.Millisecond))
	for _, codec := range codecs {
		path := filepath.Join(dir, codec.Domain().Name+".kbm")
		stream, err := codec.AppendTo(nil)
		if err == nil {
			err = os.WriteFile(path, stream, 0o666)
		}
		if err != nil {
			return fmt.Errorf("write %s: %w", path, err)
		}
		fmt.Printf("%-14s -> %s (%d bytes)\n", codec.Domain().Name, path, len(stream))
	}
	return nil
}

// runInspect prints one model's metadata.
func runInspect(path string) error {
	corp := corpus.Build()
	stream, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	codec, err := semantic.ParseCodec(stream, corp)
	if err != nil {
		return err
	}
	cfg := codec.Config()
	d := codec.Domain()
	fmt.Printf("domain        : %s\n", d.Name)
	fmt.Printf("lexicon       : %d surfaces, %d concepts (%d function)\n",
		d.VocabSize(), d.NumConcepts(), d.NumFunction)
	fmt.Printf("architecture  : embed %d -> feature %d -> hidden %d -> concepts %d\n",
		cfg.EmbedDim, cfg.FeatureDim, cfg.HiddenDim, d.NumConcepts())
	fmt.Printf("size          : %d bytes total (%d encoder, %d decoder)\n",
		codec.SizeBytes(), codec.EncoderSizeBytes(), codec.DecoderSizeBytes())
	fmt.Printf("params        : %d scalars\n", codec.Params().NumValues())
	return nil
}

// runVerify checks the store `edged -kb dir` loads: each corpus domain's
// .kbm must parse as that domain's codec and restore held-out traffic
// with accuracy at least 0.85. It reports every model, then fails if any
// is missing, unreadable or degraded.
func runVerify(dir string) error {
	corp := corpus.Build()
	failed := 0
	for _, d := range corp.Domains {
		acc, err := verifyModel(filepath.Join(dir, d.Name+".kbm"), d, corp)
		switch {
		case err != nil:
			fmt.Printf("%-14s %v\n", d.Name, err)
		case acc < 0.85:
			fmt.Printf("%-14s accuracy %.3f  DEGRADED\n", d.Name, acc)
		default:
			fmt.Printf("%-14s accuracy %.3f  ok\n", d.Name, acc)
			continue
		}
		failed++
	}
	if failed > 0 {
		return fmt.Errorf("%s: %d of %d domain models missing, unreadable or degraded", dir, failed, len(corp.Domains))
	}
	return nil
}

// verifyModel loads path as domain d's codec and returns its accuracy on
// 100 seeded messages of d.
func verifyModel(path string, d *corpus.Domain, corp *corpus.Corpus) (float64, error) {
	stream, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	codec, err := semantic.ParseCodec(stream, corp)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	if got := codec.Domain().Name; got != d.Name {
		return 0, fmt.Errorf("%s holds domain %q", path, got)
	}
	var exs []semantic.Example
	for _, m := range corpus.NewGenerator(corp, mat.NewRNG(99)).Batch(d.Index, 100, nil) {
		exs = append(exs, semantic.ExamplesFromMessage(d, m)...)
	}
	return codec.Evaluate(exs), nil
}
