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

// rowOf wraps v as a one-row batch sharing its storage.
func rowOf(v []float64) *mat.Dense { return &mat.Dense{Rows: 1, Cols: len(v), Data: v} }

// batchCE is the summed cross-entropy of every row of logits against its
// target.
func batchCE(logits *mat.Dense, targets []int) float64 {
	total := 0.0
	for i, target := range targets {
		total += crossEntropy(logits.Row(i), target)
	}
	return total
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

// TestLinearGradCheck verifies the batched backward pass of Linear against
// numerical differentiation through a softmax cross-entropy head, on a
// batch of three examples: gW and gB sum over the rows, and each row of dx
// is that example's input gradient.
func TestLinearGradCheck(t *testing.T) {
	rng := mat.NewRNG(1)
	l := NewLinear(rng, 4, 3)
	x := &mat.Dense{Rows: 3, Cols: 4, Data: []float64{
		0.3, -0.5, 0.9, 0.1,
		-0.8, 0.2, 0.4, -0.6,
		0.7, 0.05, -0.3, 0.5,
	}}
	targets := []int{2, 0, 1}

	loss := func() float64 {
		y := mat.NewDense(3, 3)
		l.ForwardBatch(y, x)
		return batchCE(y, targets)
	}

	// Analytic gradients.
	y := mat.NewDense(3, 3)
	l.ForwardBatch(y, x)
	dy := mat.NewDense(3, 3)
	SoftmaxCrossEntropy(dy, y, targets)
	gW := mat.NewDense(3, 4)
	gB := mat.NewDense(1, 3)
	dx := mat.NewDense(3, 4)
	l.BackwardBatch(x, dy, gW, gB, dx)

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
	for r := 0; r < 3; r++ {
		for j := 0; j < 4; j++ {
			num := numericalGrad(&x.Data[r*4+j], loss)
			if math.Abs(num-dx.At(r, j)) > 1e-5 {
				t.Errorf("dx[%d,%d]: analytic %v numeric %v", r, j, dx.At(r, j), num)
			}
		}
	}
}

// TestTanhGradCheck verifies the tanh backward pass within a two-layer net.
func TestTanhGradCheck(t *testing.T) {
	rng := mat.NewRNG(2)
	l1 := NewLinear(rng, 3, 5)
	l2 := NewLinear(rng, 5, 2)
	x := rowOf([]float64{0.2, -0.7, 0.4})
	targets := []int{1}

	forward := func() (h, y *mat.Dense) {
		h = mat.NewDense(1, 5)
		l1.ForwardBatch(h, x)
		TanhForward(h.Data, h.Data)
		y = mat.NewDense(1, 2)
		l2.ForwardBatch(y, h)
		return h, y
	}
	loss := func() float64 {
		_, y := forward()
		return batchCE(y, targets)
	}

	h, y := forward()
	dy := mat.NewDense(1, 2)
	SoftmaxCrossEntropy(dy, y, targets)
	// Backward.
	g2W := mat.NewDense(2, 5)
	g2B := mat.NewDense(1, 2)
	dh := mat.NewDense(1, 5)
	l2.BackwardBatch(h, dy, g2W, g2B, dh)
	TanhBackward(dh.Data, h.Data, dh.Data)
	g1W := mat.NewDense(5, 3)
	g1B := mat.NewDense(1, 5)
	l1.BackwardBatch(x, dh, g1W, g1B, nil)

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
	targets := []int{0}
	x := rowOf(emb.Lookup(id)) // a view: perturbing the table moves x

	loss := func() float64 {
		y := mat.NewDense(1, 3)
		l.ForwardBatch(y, x)
		return batchCE(y, targets)
	}

	y := mat.NewDense(1, 3)
	l.ForwardBatch(y, x)
	dy := mat.NewDense(1, 3)
	SoftmaxCrossEntropy(dy, y, targets)
	gW := mat.NewDense(3, 4)
	gB := mat.NewDense(1, 3)
	dEmb := mat.NewDense(1, 4)
	l.BackwardBatch(x, dy, gW, gB, dEmb)
	gTable := mat.NewDense(6, 4)
	emb.AccumulateGrad(gTable, id, dEmb.Row(0))

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

func TestSoftmaxCrossEntropyTargetPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range target")
		}
	}()
	logits := mat.NewDense(2, 2)
	SoftmaxCrossEntropy(logits, logits, []int{1, 5})
}
