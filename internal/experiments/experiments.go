// Package experiments implements the reproduction harness: one runner per
// experiment in DESIGN.md's experiment index (E1-E8 plus ablations), each
// producing the table or figure series the evaluation reports. Runners are
// deterministic given their Options and run by cmd/sembench.
package experiments

import (
	"sync"

	"repro/internal/baseline"
	"repro/internal/corpus"
	"repro/internal/mat"
	"repro/internal/semantic"
)

// Env is the shared expensive state (pretrained general codecs, trained
// Huffman coder) reused across experiments within one process.
type Env struct {
	Corpus   *corpus.Corpus
	Generals []*semantic.Codec
	Huffman  *baseline.Huffman
}

var (
	envOnce sync.Once
	envInst *Env
)

// Environment returns the lazily built shared environment. The build is
// deterministic: default codec config, seed 1.
func Environment() *Env {
	envOnce.Do(func() {
		corp := corpus.Build()
		generals := semantic.PretrainAll(corp, semantic.Config{})
		gen := corpus.NewGenerator(corp, mat.NewRNG(1))
		samples := make([]string, 0, 8*120)
		for di := range corp.Domains {
			for _, m := range gen.Batch(di, 120, nil) {
				samples = append(samples, m.Text())
			}
		}
		envInst = &Env{
			Corpus:   corp,
			Generals: generals,
			Huffman:  baseline.Train(samples),
		}
	})
	return envInst
}

// General returns the pretrained general codec for a domain name.
func (e *Env) General(name string) *semantic.Codec {
	d := e.Corpus.Domain(name)
	if d == nil {
		return nil
	}
	return e.Generals[d.Index]
}
