package experiments

import (
	"testing"

	"repro/internal/mat"
)

func TestVectorCodecLearnsCompressibleData(t *testing.T) {
	rng := mat.NewRNG(5)
	// Train and test must share the mixing matrix: one draw, then split.
	all := genPoses(mat.NewRNG(7), 500, 12, 4)
	train, test := all[:400], all[400:]

	vc := NewVectorCodec(rng.Split(), 12, 5)
	before := vc.nmse(test)
	mse, err := vc.Train(train, 30, 0.02, 0.05, rng.Split())
	if err != nil {
		t.Fatal(err)
	}
	after := vc.nmse(test)
	if after >= before {
		t.Fatalf("training did not reduce NMSE: %v -> %v", before, after)
	}
	// Latent dim 4 < feature dim 5: near-lossless compression is possible.
	if after > 0.15 {
		t.Fatalf("NMSE = %v, want <= 0.15 for compressible data", after)
	}
	if mse <= 0 {
		t.Fatalf("training MSE = %v", mse)
	}
}

func TestVectorCodecBottleneckLimits(t *testing.T) {
	// With feature dim below the latent dimension, reconstruction must be
	// lossy: NMSE stays well above the roomy codec's.
	all := genPoses(mat.NewRNG(9), 500, 12, 6)
	train, test := all[:400], all[400:]
	rng := mat.NewRNG(10)

	tight := NewVectorCodec(rng.Split(), 12, 2)
	if _, err := tight.Train(train, 30, 0.02, 0.05, rng.Split()); err != nil {
		t.Fatal(err)
	}
	roomy := NewVectorCodec(rng.Split(), 12, 8)
	if _, err := roomy.Train(train, 30, 0.02, 0.05, rng.Split()); err != nil {
		t.Fatal(err)
	}
	if tight.nmse(test) <= roomy.nmse(test) {
		t.Fatalf("2-dim bottleneck (%v) should reconstruct worse than 8-dim (%v)",
			tight.nmse(test), roomy.nmse(test))
	}
}

func TestVectorCodecFeaturesBounded(t *testing.T) {
	all := genPoses(mat.NewRNG(11), 50, 8, 3)
	vc := NewVectorCodec(mat.NewRNG(12), 8, 4)
	feat := make([]float64, 4)
	for _, x := range all {
		vc.Encode(feat, x)
		for _, v := range feat {
			if v < -1 || v > 1 {
				t.Fatalf("feature %v outside [-1,1]", v)
			}
		}
	}
}

func TestVectorCodecValidation(t *testing.T) {
	vc := NewVectorCodec(mat.NewRNG(1), 8, 4)
	if _, err := vc.Train(nil, 5, 0.01, 0, mat.NewRNG(2)); err == nil {
		t.Fatal("empty training set accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch not caught")
		}
	}()
	vc.Encode(make([]float64, 4), make([]float64, 3))
}

func TestVectorCodecNMSEEmpty(t *testing.T) {
	vc := NewVectorCodec(mat.NewRNG(1), 4, 2)
	if vc.nmse(nil) != 0 {
		t.Fatal("empty NMSE should be 0")
	}
}

func TestMSE(t *testing.T) {
	pred := []float64{1, 2}
	target := []float64{0, 2}
	d := make([]float64, 2)
	loss := mse(d, pred, target)
	if loss != 0.5 {
		t.Fatalf("MSE loss = %v, want 0.5", loss)
	}
	if d[0] != 1 || d[1] != 0 {
		t.Fatalf("MSE grad = %v", d)
	}
}

// nmse is these tests' quality measure: the normalized mean squared
// reconstruction error of the codec over samples (reconstruction energy
// relative to signal energy), without noise. Lower is better; 0 is perfect.
func (vc *VectorCodec) nmse(samples [][]float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	feat := make([]float64, vc.featDim)
	out := make([]float64, vc.inDim)
	num, den := 0.0, 0.0
	for _, x := range samples {
		vc.Encode(feat, x)
		vc.Decode(out, feat)
		for i := range x {
			d := out[i] - x[i]
			num += d * d
			den += x[i] * x[i]
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}
