package nn

import (
	"repro/internal/mat"
)

// SoftmaxCrossEntropy writes, for every row of a minibatch of logits, the
// gradient of the cross-entropy loss against that row's target class
// w.r.t. the logits into the same row of dLogits: softmax(logits) with 1
// subtracted at the target. The rows run through mat.SoftmaxRows together.
// dLogits may alias logits. Training consumes only this gradient, so the
// loss value itself is not computed.
func SoftmaxCrossEntropy(dLogits, logits *mat.Dense, targets []int) {
	if len(targets) != logits.Rows {
		panic("nn: SoftmaxCrossEntropy target count mismatch")
	}
	for _, t := range targets {
		if t < 0 || t >= logits.Cols {
			panic("nn: SoftmaxCrossEntropy target out of range")
		}
	}
	mat.SoftmaxRows(dLogits, logits)
	for i, t := range targets {
		dLogits.Data[i*dLogits.Cols+t] -= 1
	}
}
