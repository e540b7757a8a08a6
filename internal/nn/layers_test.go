package nn

import (
	"math"
	"testing"

	"repro/internal/mat"
)

// crossEntropy is the loss whose gradient SoftmaxCrossEntropy writes:
// −log softmax(logits)[target].
func crossEntropy(logits []float64, target int) float64 {
	p := make([]float64, len(logits))
	mat.Softmax(p, logits)
	return -math.Log(p[target])
}

// rowCE runs SoftmaxCrossEntropy on one example: a minibatch of one row.
func rowCE(dLogits, logits []float64, target int) {
	SoftmaxCrossEntropy(&mat.Dense{Rows: 1, Cols: len(dLogits), Data: dLogits},
		&mat.Dense{Rows: 1, Cols: len(logits), Data: logits}, []int{target})
}

// numericalGrad estimates d(loss)/d(param) by central differences.
func numericalGrad(param *float64, loss func() float64) float64 {
	const h = 1e-6
	orig := *param
	*param = orig + h
	up := loss()
	*param = orig - h
	down := loss()
	*param = orig
	return (up - down) / (2 * h)
}

// TestLinearGradCheck verifies the analytic backward pass of Linear against
// numerical differentiation through a softmax cross-entropy head.
func TestLinearGradCheck(t *testing.T) {
	rng := mat.NewRNG(1)
	l := NewLinear(rng, 4, 3)
	x := []float64{0.3, -0.5, 0.9, 0.1}
	target := 2

	loss := func() float64 {
		y := make([]float64, 3)
		l.Forward(y, x)
		return crossEntropy(y, target)
	}

	// Analytic gradients.
	y := make([]float64, 3)
	l.Forward(y, x)
	dy := make([]float64, 3)
	rowCE(dy, y, target)
	gW := mat.NewDense(3, 4)
	gB := mat.NewDense(1, 3)
	dx := make([]float64, 4)
	l.Backward(x, dy, gW, gB, dx)

	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			num := numericalGrad(&l.W.Data[i*4+j], loss)
			if math.Abs(num-gW.At(i, j)) > 1e-5 {
				t.Errorf("dW[%d,%d]: analytic %v numeric %v", i, j, gW.At(i, j), num)
			}
		}
	}
	for j := 0; j < 3; j++ {
		num := numericalGrad(&l.B.Data[j], loss)
		if math.Abs(num-gB.Data[j]) > 1e-5 {
			t.Errorf("dB[%d]: analytic %v numeric %v", j, gB.Data[j], num)
		}
	}
	for j := 0; j < 4; j++ {
		num := numericalGrad(&x[j], loss)
		if math.Abs(num-dx[j]) > 1e-5 {
			t.Errorf("dx[%d]: analytic %v numeric %v", j, dx[j], num)
		}
	}
}

// TestTanhGradCheck verifies the tanh backward pass within a two-layer net.
func TestTanhGradCheck(t *testing.T) {
	rng := mat.NewRNG(2)
	l1 := NewLinear(rng, 3, 5)
	l2 := NewLinear(rng, 5, 2)
	x := []float64{0.2, -0.7, 0.4}
	target := 1

	loss := func() float64 {
		h := make([]float64, 5)
		l1.Forward(h, x)
		TanhForward(h, h)
		y := make([]float64, 2)
		l2.Forward(y, h)
		return crossEntropy(y, target)
	}

	// Forward.
	h := make([]float64, 5)
	l1.Forward(h, x)
	TanhForward(h, h)
	y := make([]float64, 2)
	l2.Forward(y, h)
	dy := make([]float64, 2)
	rowCE(dy, y, target)
	// Backward.
	g2W := mat.NewDense(2, 5)
	g2B := mat.NewDense(1, 2)
	dh := make([]float64, 5)
	l2.Backward(h, dy, g2W, g2B, dh)
	TanhBackward(dh, h, dh)
	g1W := mat.NewDense(5, 3)
	g1B := mat.NewDense(1, 5)
	l1.Backward(x, dh, g1W, g1B, nil)

	for i := 0; i < 5; i++ {
		for j := 0; j < 3; j++ {
			num := numericalGrad(&l1.W.Data[i*3+j], loss)
			if math.Abs(num-g1W.At(i, j)) > 1e-5 {
				t.Errorf("dW1[%d,%d]: analytic %v numeric %v", i, j, g1W.At(i, j), num)
			}
		}
	}
}

// TestEmbeddingGradCheck verifies the embedding gradient accumulation.
func TestEmbeddingGradCheck(t *testing.T) {
	rng := mat.NewRNG(3)
	emb := NewEmbedding(rng, 6, 4)
	l := NewLinear(rng, 4, 3)
	id := 2
	target := 0

	loss := func() float64 {
		y := make([]float64, 3)
		l.Forward(y, emb.Lookup(id))
		return crossEntropy(y, target)
	}

	y := make([]float64, 3)
	l.Forward(y, emb.Lookup(id))
	dy := make([]float64, 3)
	rowCE(dy, y, target)
	gW := mat.NewDense(3, 4)
	gB := mat.NewDense(1, 3)
	dEmb := make([]float64, 4)
	l.Backward(emb.Lookup(id), dy, gW, gB, dEmb)
	gTable := mat.NewDense(6, 4)
	emb.AccumulateGrad(gTable, id, dEmb)

	for j := 0; j < 4; j++ {
		num := numericalGrad(&emb.Table.Data[id*4+j], loss)
		if math.Abs(num-gTable.At(id, j)) > 1e-5 {
			t.Errorf("dEmb[%d]: analytic %v numeric %v", j, gTable.At(id, j), num)
		}
	}
	// Untouched rows must have zero gradient.
	for r := 0; r < 6; r++ {
		if r == id {
			continue
		}
		if mat.MaxAbs(gTable.Row(r)) != 0 {
			t.Errorf("embedding row %d has nonzero gradient without lookup", r)
		}
	}
}

func TestMSE(t *testing.T) {
	pred := []float64{1, 2}
	target := []float64{0, 2}
	d := make([]float64, 2)
	loss := MSE(d, pred, target)
	if loss != 0.5 {
		t.Fatalf("MSE loss = %v, want 0.5", loss)
	}
	if d[0] != 1 || d[1] != 0 {
		t.Fatalf("MSE grad = %v", d)
	}
}

func TestSoftmaxCrossEntropyTargetPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range target")
		}
	}()
	logits := mat.NewDense(2, 2)
	SoftmaxCrossEntropy(logits, logits, []int{1, 5})
}
