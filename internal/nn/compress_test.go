package nn

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mat"
)

func gradFixture(seed uint64) *ParamSet {
	rng := mat.NewRNG(seed)
	ps := &ParamSet{}
	w := mat.NewDense(8, 10)
	w.Randomize(rng, 1)
	b := mat.NewDense(1, 8)
	b.Randomize(rng, 1)
	ps.Add("dec.W", w)
	ps.Add("dec.B", b)
	return ps
}

func TestCompressDenseLossless(t *testing.T) {
	g := gradFixture(1)
	cg := Compress(g, CompressOptions{})
	target := g.ZeroClone()
	if err := cg.ApplyTo(target, 1); err != nil {
		t.Fatalf("ApplyTo: %v", err)
	}
	for i, p := range g.Params {
		for j := range p.M.Data {
			if p.M.Data[j] != target.Params[i].M.Data[j] {
				t.Fatalf("dense compress not lossless at %s[%d]", p.Name, j)
			}
		}
	}
}

func TestCompressTopKKeepsLargest(t *testing.T) {
	g := &ParamSet{}
	w := mat.NewDense(1, 10)
	copy(w.Data, []float64{0.1, -5, 0.2, 3, -0.1, 0.05, 4, -0.3, 0.01, 2})
	g.Add("w", w)
	cg := Compress(g, CompressOptions{TopKFrac: 0.3})
	ct := cg.Tensors[0]
	if len(ct.Idx) != 3 {
		t.Fatalf("top-30%% of 10 = %d entries, want 3", len(ct.Idx))
	}
	// Largest magnitudes are -5 (idx 1), 4 (idx 6), 3 (idx 3).
	want := map[uint32]bool{1: true, 3: true, 6: true}
	for _, ix := range ct.Idx {
		if !want[ix] {
			t.Fatalf("top-k kept unexpected index %d", ix)
		}
	}
}

func TestCompressInt8BoundedError(t *testing.T) {
	g := gradFixture(2)
	cg := Compress(g, CompressOptions{Int8: true})
	target := g.ZeroClone()
	if err := cg.ApplyTo(target, 1); err != nil {
		t.Fatalf("ApplyTo: %v", err)
	}
	for i, p := range g.Params {
		maxAbs := mat.MaxAbs(p.M.Data)
		tol := maxAbs/127 + 1e-12 // one quantization step
		for j := range p.M.Data {
			diff := math.Abs(p.M.Data[j] - target.Params[i].M.Data[j])
			if diff > tol {
				t.Fatalf("int8 error %v exceeds one step %v at %s[%d]", diff, tol, p.Name, j)
			}
		}
	}
}

func TestCompressSizeOrdering(t *testing.T) {
	g := gradFixture(3)
	dense := Compress(g, CompressOptions{}).SizeBytes()
	topk := Compress(g, CompressOptions{TopKFrac: 0.1}).SizeBytes()
	topkQ := Compress(g, CompressOptions{TopKFrac: 0.1, Int8: true}).SizeBytes()
	q := Compress(g, CompressOptions{Int8: true}).SizeBytes()
	if !(topkQ < topk && topk < dense) {
		t.Fatalf("size ordering violated: topkQ=%d topk=%d dense=%d", topkQ, topk, dense)
	}
	if q >= dense {
		t.Fatalf("int8 (%d) not smaller than dense (%d)", q, dense)
	}
	if got := DenseSizeBytes(g); got != dense {
		t.Fatalf("DenseSizeBytes = %d, lossless Compress weighs %d", got, dense)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, opts := range []CompressOptions{
		{},
		{TopKFrac: 0.25},
		{Int8: true},
		{TopKFrac: 0.25, Int8: true},
	} {
		g := gradFixture(4)
		cg := Compress(g, opts)
		payload := cg.Encode()
		if len(payload) != cg.SizeBytes() {
			t.Fatalf("opts %+v: payload %d bytes, SizeBytes %d", opts, len(payload), cg.SizeBytes())
		}
		got, err := DecodeCompressed(payload)
		if err != nil {
			t.Fatalf("opts %+v: decode: %v", opts, err)
		}
		// Applying original and decoded must produce identical results.
		a := g.ZeroClone()
		b := g.ZeroClone()
		if err := cg.ApplyTo(a, 1); err != nil {
			t.Fatal(err)
		}
		if err := got.ApplyTo(b, 1); err != nil {
			t.Fatal(err)
		}
		for i := range a.Params {
			for j := range a.Params[i].M.Data {
				if a.Params[i].M.Data[j] != b.Params[i].M.Data[j] {
					t.Fatalf("opts %+v: decoded apply differs", opts)
				}
			}
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	g := gradFixture(5)
	payload := Compress(g, CompressOptions{TopKFrac: 0.5}).Encode()
	if _, err := DecodeCompressed(payload[:len(payload)/2]); err == nil {
		t.Fatal("accepted truncated payload")
	}
	bad := append([]byte{}, payload...)
	bad[0] ^= 0xff // corrupt magic
	if _, err := DecodeCompressed(bad); err == nil {
		t.Fatal("accepted corrupted magic")
	}
	if _, err := DecodeCompressed(nil); err == nil {
		t.Fatal("accepted empty payload")
	}
}

func TestApplyToNameMismatch(t *testing.T) {
	g := gradFixture(6)
	cg := Compress(g, CompressOptions{})
	other := &ParamSet{}
	other.Add("different", mat.NewDense(8, 10))
	if err := cg.ApplyTo(other, 1); err == nil {
		t.Fatal("applied to mismatched parameter set")
	}
}

func TestApplyToShapeMismatch(t *testing.T) {
	g := gradFixture(7)
	cg := Compress(g, CompressOptions{})
	other := &ParamSet{}
	other.Add("dec.W", mat.NewDense(2, 2))
	other.Add("dec.B", mat.NewDense(1, 8))
	if err := cg.ApplyTo(other, 1); err == nil {
		t.Fatal("applied despite shape mismatch")
	}
}

// Property: encode/decode round-trips for arbitrary seeds and compression
// settings, and top-k never increases the payload.
func TestCompressQuick(t *testing.T) {
	f := func(seed uint64, frac float64, int8q bool) bool {
		frac = math.Abs(math.Mod(frac, 1))
		g := gradFixture(seed)
		cg := Compress(g, CompressOptions{TopKFrac: frac, Int8: int8q})
		payload := cg.Encode()
		got, err := DecodeCompressed(payload)
		if err != nil {
			return false
		}
		return len(got.Tensors) == len(cg.Tensors) &&
			cg.SizeBytes() <= Compress(g, CompressOptions{Int8: int8q}).SizeBytes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
