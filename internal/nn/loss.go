package nn

import (
	"repro/internal/mat"
)

// SoftmaxCrossEntropy writes the gradient of the cross-entropy loss of
// logits against the target class, w.r.t. the logits, into dLogits:
// softmax(logits) with 1 subtracted at the target. dLogits may alias
// logits. Training consumes only this gradient, so the loss value itself is
// not computed.
func SoftmaxCrossEntropy(dLogits, logits []float64, target int) {
	if target < 0 || target >= len(logits) {
		panic("nn: SoftmaxCrossEntropy target out of range")
	}
	mat.Softmax(dLogits, logits)
	dLogits[target] -= 1
}

// MSE computes 0.5*||pred-target||^2 and writes the gradient (pred-target)
// into dPred. dPred may alias pred.
func MSE(dPred, pred, target []float64) float64 {
	if len(pred) != len(target) || len(dPred) != len(pred) {
		panic("nn: MSE length mismatch")
	}
	loss := 0.0
	for i := range pred {
		d := pred[i] - target[i]
		loss += 0.5 * d * d
		dPred[i] = d
	}
	return loss
}
