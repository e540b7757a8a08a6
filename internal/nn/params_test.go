package nn

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/mat"
)

func sampleParams(seed uint64) *ParamSet {
	rng := mat.NewRNG(seed)
	ps := &ParamSet{}
	a := mat.NewDense(3, 4)
	a.Randomize(rng, 1)
	b := mat.NewDense(1, 4)
	b.Randomize(rng, 1)
	ps.Add("enc.W", a)
	ps.Add("enc.B", b)
	return ps
}

func TestParamSetByName(t *testing.T) {
	ps := sampleParams(1)
	if ps.ByName("enc.W") == nil || ps.ByName("enc.B") == nil {
		t.Fatal("ByName missed present tensors")
	}
	if ps.ByName("nope") != nil {
		t.Fatal("ByName returned tensor for absent name")
	}
}

func TestParamSetCloneIndependence(t *testing.T) {
	ps := sampleParams(2)
	c := ps.Clone()
	c.ByName("enc.W").Data[0] = 999
	if ps.ByName("enc.W").Data[0] == 999 {
		t.Fatal("Clone shares storage")
	}
}

func TestZeroCloneShape(t *testing.T) {
	ps := sampleParams(3)
	z := ps.ZeroClone()
	if z.NumValues() != ps.NumValues() {
		t.Fatalf("ZeroClone values = %d, want %d", z.NumValues(), ps.NumValues())
	}
	for _, p := range z.Params {
		if mat.MaxAbs(p.M.Data) != 0 {
			t.Fatalf("ZeroClone tensor %q not zero", p.Name)
		}
	}
}

func TestAddScaledAndCopyFrom(t *testing.T) {
	ps := sampleParams(4)
	orig := ps.Clone()
	delta := ps.ZeroClone()
	delta.ByName("enc.W").Data[0] = 2
	ps.AddScaled(0.5, delta)
	if got := ps.ByName("enc.W").Data[0]; got != orig.ByName("enc.W").Data[0]+1 {
		t.Fatalf("AddScaled result %v", got)
	}
	ps.CopyFrom(orig)
	if ps.ByName("enc.W").Data[0] != orig.ByName("enc.W").Data[0] {
		t.Fatal("CopyFrom did not restore")
	}
}

func TestParamSetSerializationRoundTrip(t *testing.T) {
	ps := sampleParams(5)
	var buf bytes.Buffer
	n, err := ps.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != ps.SizeBytes() {
		t.Fatalf("wrote %d bytes, SizeBytes = %d", n, ps.SizeBytes())
	}
	got, err := ReadParamSet(&buf)
	if err != nil {
		t.Fatalf("ReadParamSet: %v", err)
	}
	if len(got.Params) != 2 {
		t.Fatalf("round-trip param count = %d", len(got.Params))
	}
	for i, p := range ps.Params {
		q := got.Params[i]
		if q.Name != p.Name {
			t.Fatalf("name %q != %q", q.Name, p.Name)
		}
		for j := range p.M.Data {
			if p.M.Data[j] != q.M.Data[j] {
				t.Fatalf("tensor %q differs at %d", p.Name, j)
			}
		}
	}
}

func TestReadParamSetRejectsGarbage(t *testing.T) {
	if _, err := ReadParamSet(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Fatal("accepted truncated input")
	}
}

// TestCheckFinite: a set parsed from a peer's bytes may hold any bit
// pattern; CheckFinite names the first NaN or infinity and passes
// everything else, subnormals and huge values included.
func TestCheckFinite(t *testing.T) {
	ps := &ParamSet{}
	ps.Add("w", mat.NewDense(2, 3))
	ps.Add("b", mat.NewDense(1, 3))
	ps.Params[0].M.Data[4] = math.SmallestNonzeroFloat64
	ps.Params[1].M.Data[0] = -math.MaxFloat64
	if err := ps.CheckFinite(); err != nil {
		t.Fatalf("finite set refused: %v", err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		ps.Params[1].M.Data[2] = bad
		err := ps.CheckFinite()
		if err == nil || !strings.Contains(err.Error(), `"b"`) {
			t.Fatalf("%v in tensor b: err = %v", bad, err)
		}
	}
}
