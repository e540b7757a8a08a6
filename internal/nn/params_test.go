package nn

import (
	"encoding/binary"
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

func TestCopyFrom(t *testing.T) {
	ps := sampleParams(4)
	orig := ps.Clone()
	ps.ByName("enc.W").Data[0] += 1
	ps.CopyFrom(orig)
	if ps.ByName("enc.W").Data[0] != orig.ByName("enc.W").Data[0] {
		t.Fatal("CopyFrom did not restore")
	}
}

func TestParamSetSerializationRoundTrip(t *testing.T) {
	ps := sampleParams(5)
	b, err := ps.AppendTo(nil)
	if err != nil {
		t.Fatalf("AppendTo: %v", err)
	}
	if int64(len(b)) != ps.SizeBytes() {
		t.Fatalf("wrote %d bytes, SizeBytes = %d", len(b), ps.SizeBytes())
	}
	if allocs := testing.AllocsPerRun(20, func() { ps.AppendTo(nil) }); allocs != 1 && !mat.RaceEnabled {
		t.Fatalf("AppendTo(nil) made %v allocations, want the one buffer", allocs)
	}
	got, err := ParseParamSet(b)
	if err != nil {
		t.Fatalf("ParseParamSet: %v", err)
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

// TestReadParamSetRejectsGarbage: the parser refuses every malformed set
// — truncated anywhere, a tensor count the bytes cannot hold, trailing
// bytes — and a forged count is refused before the entries it would size
// are allocated.
func TestReadParamSetRejectsGarbage(t *testing.T) {
	valid, err := sampleParams(5).AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	hugeCount := binary.LittleEndian.AppendUint32(nil, 1<<16)
	hugeCount = append(hugeCount, valid[4:]...)
	cases := map[string][]byte{
		"truncated count":       {1, 2, 3},
		"empty":                 nil,
		"truncated name length": valid[:5],
		"truncated name":        valid[:7],
		"truncated tensor":      valid[:len(valid)-1],
		"count past the bytes":  hugeCount,
		"trailing byte":         append(append([]byte(nil), valid...), 0),
		"over the count limit":  binary.LittleEndian.AppendUint32(nil, 1<<16+1),
	}
	for name, b := range cases {
		if _, err := ParseParamSet(b); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// The refusal allocates nothing. AllocsPerRun counts on one P after a
	// warm-up call, so no other goroutine's allocation lands in the window.
	if n := testing.AllocsPerRun(100, func() { ParseParamSet(hugeCount) }); n != 0 {
		t.Fatalf("a forged count of %d tensors made %v allocations before it was refused", 1<<16, n)
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
