package nn

import (
	"math"
	"testing"

	"repro/internal/mat"
)

// toyProblem builds a 2-class linearly separable classification task of 40
// examples, runs 201 full-batch updates through ForwardBatch /
// BackwardBatch and returns the mean loss of the first and the last.
func toyProblem(opt Optimizer) (loss0, lossN float64) {
	rng := mat.NewRNG(7)
	l := NewLinear(rng, 2, 2)
	params := &ParamSet{}
	params.Add("W", l.W)
	params.Add("B", l.B)
	grads := params.ZeroClone()

	const n = 40
	x := mat.NewDense(n, 2)
	targets := make([]int, n)
	for i := range targets {
		x.Set(i, 0, rng.NormFloat64())
		x.Set(i, 1, rng.NormFloat64())
		if x.At(i, 0)+x.At(i, 1) > 0 {
			targets[i] = 1
		}
	}

	y := mat.NewDense(n, 2)
	dy := mat.NewDense(n, 2)
	step := func() float64 {
		l.ForwardBatch(y, x)
		total := batchCE(y, targets)
		SoftmaxCrossEntropy(dy, y, targets)
		l.BackwardBatch(x, dy, grads.ByName("W"), grads.ByName("B"), nil)
		opt.Step(params, grads, 1/float64(n))
		return total / n
	}

	loss0 = step()
	for i := 0; i < 200; i++ {
		lossN = step()
	}
	return loss0, lossN
}

func TestSGDConverges(t *testing.T) {
	loss0, lossN := toyProblem(&SGD{LR: 0.5})
	if lossN >= loss0/2 {
		t.Fatalf("SGD did not converge: %v -> %v", loss0, lossN)
	}
}

func TestSGDMomentumConverges(t *testing.T) {
	loss0, lossN := toyProblem(&SGD{LR: 0.2, Momentum: 0.9})
	if lossN >= loss0/2 {
		t.Fatalf("SGD+momentum did not converge: %v -> %v", loss0, lossN)
	}
}

func TestAdamConverges(t *testing.T) {
	loss0, lossN := toyProblem(&Adam{LR: 0.05})
	if lossN >= loss0/2 {
		t.Fatalf("Adam did not converge: %v -> %v", loss0, lossN)
	}
}

func TestClipScale(t *testing.T) {
	ps := &ParamSet{}
	ps.Add("a", mat.NewDense(1, 2))
	copy(ps.ByName("a").Data, []float64{3, 4}) // norm 5
	if s := clipScale(ps, 1, 10); s != 1 {
		t.Fatalf("clip above norm should be 1, got %v", s)
	}
	if s := clipScale(ps, 1, 2.5); s != 0.5 {
		t.Fatalf("clip to half norm should be 0.5, got %v", s)
	}
	if s := clipScale(ps, 1, 0); s != 1 {
		t.Fatalf("clip 0 disables clipping, got %v", s)
	}
	// The scale lands in the gradient first; the clip bounds the product.
	if s := clipScale(ps, 2, 5); s != 0.5 {
		t.Fatalf("clip 5 of the doubled norm 10 should be 0.5, got %v", s)
	}
	if got := ps.ByName("a").Data; got[0] != 6 || got[1] != 8 {
		t.Fatalf("gradient after scale 2 = %v, want [6 8]", got)
	}
	if s := clipScale(ps, 0.5, 0); s != 1 || ps.ByName("a").Data[1] != 4 {
		t.Fatalf("clip 0 must still scale: got %v and %v", s, ps.ByName("a").Data)
	}
}

func TestSGDClippedStepBounded(t *testing.T) {
	ps := &ParamSet{}
	ps.Add("a", mat.NewDense(1, 2))
	grads := ps.ZeroClone()
	copy(grads.ByName("a").Data, []float64{300, 400}) // norm 500
	opt := &SGD{LR: 1, Clip: 1}
	opt.Step(ps, grads, 1)
	// After clipping to norm 1, the step must have magnitude <= 1.
	if n := mat.L2(ps.ByName("a").Data); n > 1+1e-9 {
		t.Fatalf("clipped step norm = %v, want <= 1", n)
	}
}

// sparsePair returns two identical parameter sets (a 12x5 "table" and a
// dense 3x4 tensor, values in (-1, 1), none of them -0) and two zero
// gradient sets for them, the first with a row-sparse table.
func sparsePair() (pSparse, pDense, gSparse, gDense *ParamSet) {
	rng := mat.NewRNG(41)
	pSparse = &ParamSet{}
	pSparse.Add("table", mat.NewDense(12, 5))
	pSparse.Add("w", mat.NewDense(3, 4))
	for _, p := range pSparse.Params {
		p.M.Randomize(rng, 1)
	}
	pDense = pSparse.Clone()
	gSparse = pSparse.ZeroClone()
	gSparse.Param("table").Rows = NewRowSet(12)
	gDense = pSparse.ZeroClone()
	return pSparse, pDense, gSparse, gDense
}

// TestRowSparseStepsMatchDense drives each optimizer for 30 steps on a
// row-sparse gradient and on the same gradient stored dense — rows touched
// in some steps and not in others, rows never touched, scales that clip
// and scales that do not — and requires identical parameter bits, and each
// Step to leave both gradient sets +0 and the row set empty.
func TestRowSparseStepsMatchDense(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  func() Optimizer
	}{
		{"sgd", func() Optimizer { return &SGD{LR: 0.1, Clip: 1} }},
		{"sgd_momentum", func() Optimizer { return &SGD{LR: 0.05, Momentum: 0.5, Clip: 2} }},
		{"adam", func() Optimizer { return &Adam{LR: 0.03, Clip: 1.5} }},
		{"adam_noclip", func() Optimizer { return &Adam{LR: 0.03} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pS, pD, gS, gD := sparsePair()
			optS, optD := tc.opt(), tc.opt()
			rng := mat.NewRNG(43)
			for step := 0; step < 30; step++ {
				mag := 0.1 + 3*rng.Float64() // some steps clip, some do not
				for k := 0; k < 1+rng.Intn(4); k++ {
					r := rng.Intn(10) // rows 10 and 11 are never touched
					gS.Param("table").Rows.Add(r)
					for j := 0; j < 5; j++ {
						v := (2*rng.Float64() - 1) * mag
						gS.ByName("table").Data[r*5+j] += v
						gD.ByName("table").Data[r*5+j] += v
					}
				}
				for j := range gS.ByName("w").Data {
					v := (2*rng.Float64() - 1) * mag
					gS.ByName("w").Data[j] = v
					gD.ByName("w").Data[j] = v
				}
				optS.Step(pS, gS, 0.5)
				optD.Step(pD, gD, 0.5)
				for i, p := range pD.Params {
					for j, want := range p.M.Data {
						if got := pS.Params[i].M.Data[j]; math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("step %d: %s[%d] = %v row-sparse, %v dense", step, p.Name, j, got, want)
						}
					}
				}
				for _, g := range []*ParamSet{gS, gD} {
					for _, p := range g.Params {
						for j, v := range p.M.Data {
							if math.Float64bits(v) != 0 {
								t.Fatalf("step %d: gradient %s[%d] = %v after Step, want +0", step, p.Name, j, v)
							}
						}
					}
				}
				if rows := gS.Param("table").Rows.rows; len(rows) != 0 {
					t.Fatalf("step %d: row set %v not empty after Step", step, rows)
				}
			}
		})
	}
}

// serialClipScale is clipScale without the certificate: the serial sum of
// squares over every value, the reference the certified version must
// reproduce bit for bit.
func serialClipScale(grads *ParamSet, clip float64) float64 {
	if clip <= 0 {
		return 1
	}
	sq := 0.0
	for _, p := range grads.Params {
		for _, g := range p.M.Data {
			sq += g * g
		}
	}
	norm := math.Sqrt(sq)
	if norm <= clip {
		return 1
	}
	return clip / norm
}

// TestClipScaleCertificate compares clipScale with the serial reference on
// gradients of ~3.4k values (the codec's size) whose norm sits just below,
// at and just above the clip — within a few ulps, where the certificate
// must decline — and far from it on either side, dense and row-sparse.
func TestClipScaleCertificate(t *testing.T) {
	rng := mat.NewRNG(47)
	grads := &ParamSet{}
	grads.Add("table", mat.NewDense(100, 16))
	grads.Add("w", mat.NewDense(59, 24))
	grads.Add("b", mat.NewDense(1, 59))
	sparse := grads.ZeroClone()
	sparse.Param("table").Rows = NewRowSet(100)
	for trial := 0; trial < 200; trial++ {
		// Every trial writes the same rows, so no stale value survives.
		for _, r := range []int{71, 3, 3, 40, 99, 0, 12, 58} { // unsorted, repeated
			sparse.Param("table").Rows.Add(r)
			for j := 0; j < 16; j++ {
				v := 2*rng.Float64() - 1
				grads.ByName("table").Data[r*16+j] = v
				sparse.ByName("table").Data[r*16+j] = v
			}
		}
		for _, name := range []string{"w", "b"} {
			for j := range grads.ByName(name).Data {
				v := (2*rng.Float64() - 1) * 0.1
				grads.ByName(name).Data[j] = v
				sparse.ByName(name).Data[j] = v
			}
		}
		norm := math.Sqrt(func() float64 {
			sq := 0.0
			for _, p := range grads.Params {
				for _, g := range p.M.Data {
					sq += g * g
				}
			}
			return sq
		}())
		clip := norm
		switch trial % 5 {
		case 0:
			clip = norm * 2
		case 1:
			clip = norm / 2
		case 2:
			for k := 0; k < trial%7; k++ {
				clip = math.Nextafter(clip, 0)
			}
		case 3:
			for k := 0; k < trial%7; k++ {
				clip = math.Nextafter(clip, math.Inf(1))
			}
		}
		want := serialClipScale(grads, clip)
		if got := clipScale(grads, 1, clip); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d dense: clipScale = %v, serial %v (clip %v, norm %v)", trial, got, want, clip, norm)
		}
		if got := clipScale(sparse, 1, clip); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d row-sparse: clipScale = %v, serial %v (clip %v, norm %v)", trial, got, want, clip, norm)
		}
	}
}
