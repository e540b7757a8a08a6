// Command semkb manages knowledge-base model files: pretrain the
// domain-specialized general codecs and persist them to disk, inspect a
// saved model, or verify a directory of models against the corpus.
//
// Usage:
//
//	semkb -pretrain -out ./kb                 # write one .kbm per domain
//	semkb -inspect ./kb/it.kbm                # print model metadata
//	semkb -verify ./kb                        # reload + self-check all models
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
		verify   = flag.String("verify", "", "reload every .kbm in a directory and self-check")
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

// runPretrain trains and persists every domain's general codec.
func runPretrain(dir string, seed uint64) error {
	corp := corpus.Build()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, d := range corp.Domains {
		t0 := time.Now()
		codec := semantic.Pretrain(d, corp, semantic.Config{Seed: seed})
		path := filepath.Join(dir, d.Name+".kbm")
		stream, err := codec.AppendTo(nil)
		if err == nil {
			err = os.WriteFile(path, stream, 0o666)
		}
		if err != nil {
			return fmt.Errorf("write %s: %w", path, err)
		}
		fmt.Printf("%-14s -> %s (%d bytes, trained in %v)\n",
			d.Name, path, len(stream), time.Since(t0).Round(time.Millisecond))
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

// runVerify reloads every model and checks reconstruction sanity.
func runVerify(dir string) error {
	corp := corpus.Build()
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	checked := 0
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".kbm" {
			continue
		}
		path := filepath.Join(dir, e.Name())
		stream, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		codec, err := semantic.ParseCodec(stream, corp)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		d := codec.Domain()
		gen := corpus.NewGenerator(corp, mat.NewRNG(99))
		var exs []semantic.Example
		for _, m := range gen.Batch(d.Index, 100, nil) {
			exs = append(exs, semantic.ExamplesFromMessage(d, m)...)
		}
		acc := codec.Evaluate(exs)
		status := "ok"
		if acc < 0.85 {
			status = "DEGRADED"
		}
		fmt.Printf("%-20s accuracy %.3f  %s\n", e.Name(), acc, status)
		checked++
	}
	if checked == 0 {
		return fmt.Errorf("no .kbm files in %s", dir)
	}
	return nil
}
