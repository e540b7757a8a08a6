package semantic

import (
	"testing"

	"repro/internal/mat"
)

// poseSamples synthesizes correlated "avatar pose" vectors: observable
// dim-D vectors generated from a low-dimensional latent, i.e. compressible
// structure a semantic codec can exploit.
func poseSamples(rng *mat.RNG, n, dim, latent int) [][]float64 {
	// Fixed mixing matrix.
	mix := mat.NewDense(dim, latent)
	mix.Randomize(rng, 1)
	out := make([][]float64, n)
	z := make([]float64, latent)
	for i := range out {
		for j := range z {
			z[j] = rng.NormFloat64()
		}
		x := make([]float64, dim)
		mix.MulVec(x, z)
		for j := range x {
			x[j] += 0.02 * rng.NormFloat64() // small observation noise
		}
		out[i] = x
	}
	return out
}

func TestVectorCodecLearnsCompressibleData(t *testing.T) {
	rng := mat.NewRNG(5)
	// Train and test must share the mixing matrix: one draw, then split.
	all := poseSamples(mat.NewRNG(7), 500, 12, 4)
	train, test := all[:400], all[400:]

	vc := NewVectorCodec(rng.Split(), 12, 5)
	before := vc.NMSE(test)
	mse, err := vc.Train(train, 30, 0.02, 0.05, rng.Split())
	if err != nil {
		t.Fatal(err)
	}
	after := vc.NMSE(test)
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
	all := poseSamples(mat.NewRNG(9), 500, 12, 6)
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
	if tight.NMSE(test) <= roomy.NMSE(test) {
		t.Fatalf("2-dim bottleneck (%v) should reconstruct worse than 8-dim (%v)",
			tight.NMSE(test), roomy.NMSE(test))
	}
}

func TestVectorCodecFeaturesBounded(t *testing.T) {
	all := poseSamples(mat.NewRNG(11), 50, 8, 3)
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
	if vc.NMSE(nil) != 0 {
		t.Fatal("empty NMSE should be 0")
	}
}

// NMSE is these tests' quality measure: the normalized mean squared
// reconstruction error of the codec over samples (reconstruction energy
// relative to signal energy), without noise. Lower is better; 0 is perfect.
func (vc *VectorCodec) NMSE(samples [][]float64) float64 {
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
