//go:build amd64

package mat_test

import (
	"math"
	"testing"

	"repro/internal/corpus"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/semantic"
)

// sameParams reports the first parameter scalar whose bits differ.
func sameParams(t *testing.T, what string, got, want *nn.ParamSet) {
	t.Helper()
	for i, p := range want.Params {
		for j, w := range p.M.Data {
			if g := got.Params[i].M.Data[j]; math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: %s[%d] = %x with the f64 kernels, %x with the Go loops",
					what, p.Name, j, math.Float64bits(g), math.Float64bits(w))
			}
		}
	}
}

// TestTrainingBitExactWithF64Kernels runs the two training entry points the
// system uses — one Pretrain epoch (Adam) and a FineTune (momentum SGD, the
// §II-D update) at the default codec shapes — once on the assembly kernels
// (the f64 GEMM and element-wise ones, and exp and tanh) and once on the
// pure-Go loops and the math package, and requires every parameter bit to
// agree: f64 stays the reference tier, so no golden moves.
func TestTrainingBitExactWithF64Kernels(t *testing.T) {
	mat.RequireAVX2(t)
	corp := corpus.Build()
	d := corp.Domain("it")
	cfg := semantic.Config{Epochs: 1, Sentences: 300, Seed: 7}

	var want *semantic.Codec
	mat.PureGo(func() { want = semantic.Pretrain(d, corp, cfg) })
	got := semantic.Pretrain(d, corp, cfg)
	sameParams(t, "Pretrain", got.Params(), want.Params())

	idio := corpus.NewIdiolect(corp, mat.NewRNG(91), 0.5)
	gen := corpus.NewGenerator(corp, mat.NewRNG(92))
	var examples []semantic.Example
	for i := 0; i < 32; i++ {
		examples = append(examples, semantic.ExamplesFromMessage(d, gen.Message(d.Index, idio))...)
	}
	mat.PureGo(func() { want.FineTune(examples, 3, mat.NewRNG(5)) })
	got.FineTune(examples, 3, mat.NewRNG(5))
	sameParams(t, "FineTune", got.Params(), want.Params())
}
