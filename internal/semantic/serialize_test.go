package semantic

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/corpus"
	"repro/internal/mat"
	"repro/internal/nn"
)

func TestCodecSerializationRoundTrip(t *testing.T) {
	corp, c := sharedFixtures(t)
	b, err := c.AppendTo(nil)
	if err != nil {
		t.Fatalf("AppendTo: %v", err)
	}
	if want := c.headerBytes() + int(c.SizeBytes()); len(b) != want {
		t.Fatalf("AppendTo wrote %d bytes, want %d", len(b), want)
	}
	if allocs := testing.AllocsPerRun(10, func() { c.AppendTo(nil) }); allocs > 3 && !mat.RaceEnabled {
		t.Fatalf("AppendTo(nil) made %v allocations: the buffer must grow once", allocs)
	}
	got, err := ParseCodec(b, corp)
	if err != nil {
		t.Fatalf("ParseCodec: %v", err)
	}
	if got.Domain().Name != "it" {
		t.Fatalf("domain = %q", got.Domain().Name)
	}
	if got.Config().FeatureDim != c.Config().FeatureDim {
		t.Fatal("config not preserved")
	}
	// Loaded codec must behave identically.
	gen := corpus.NewGenerator(corp, mat.NewRNG(321))
	sc := mat.GetScratch()
	defer mat.PutScratch(sc)
	for i := 0; i < 20; i++ {
		m := gen.Message(corp.Domain("it").Index, nil)
		a, b := make([]int, len(m.Words)), make([]int, len(m.Words))
		c.RoundTripInto(sc, m.Words, a)
		got.RoundTripInto(sc, m.Words, b)
		for j := range a {
			if a[j] != b[j] {
				t.Fatal("loaded codec decodes differently")
			}
		}
	}
}

// TestCodecBytesUnchanged pins the .kbm and handover bytes of a pretrained
// codec to the SHA-256 the streaming writers produced before the byte
// codec replaced them: the files on disk and the bytes on the wire did
// not move.
func TestCodecBytesUnchanged(t *testing.T) {
	_, c := sharedFixtures(t)
	stream, err := c.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	params, err := c.AppendParams(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, pin := range []struct {
		name string
		b    []byte
		n    int
		sha  string
	}{
		{"codec stream", stream, 19505, "60269aa55d41949732a699619c5c92fcee7df99e79c3b2f42be2242aac6596f0"},
		{"parameter set", params, 19459, "2186cbc89e483c7eb84f7577f0ef5bebef48d685313e7c1c6d2f221f30820dc6"},
	} {
		if got := fmt.Sprintf("%x", sha256.Sum256(pin.b)); len(pin.b) != pin.n || got != pin.sha {
			t.Errorf("%s: %d bytes, sha256 %s; want %d bytes, %s", pin.name, len(pin.b), got, pin.n, pin.sha)
		}
	}
}

func TestReadCodecRejectsGarbage(t *testing.T) {
	corp := corpus.Build()
	if _, err := ParseCodec([]byte("not a codec"), corp); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ParseCodec(nil, corp); err == nil {
		t.Fatal("empty input accepted")
	}
}

// TestReadCodecRejectsTruncated: a stream cut anywhere, or one with bytes
// after its last tensor, is refused.
func TestReadCodecRejectsTruncated(t *testing.T) {
	corp, c := sharedFixtures(t)
	data, err := c.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{5, 20, len(data) / 2, len(data) - 3} {
		if _, err := ParseCodec(data[:cut], corp); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	for _, extra := range [][]byte{{0}, data[:8]} {
		if _, err := ParseCodec(append(data[:len(data):len(data)], extra...), corp); err == nil {
			t.Fatalf("%d trailing bytes accepted", len(extra))
		}
	}
}

func TestReadCodecUnknownDomain(t *testing.T) {
	corp, c := sharedFixtures(t)
	data, err := c.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the domain name ("it" sits after magic + name length).
	data[8] = 'z'
	data[9] = 'z'
	if _, err := ParseCodec(data, corp); err == nil {
		t.Fatal("unknown domain accepted")
	}
}

// TestReadCodecRejectsNonFiniteWeights: a stream whose shapes all fit but
// which carries one NaN or infinite weight is a malformed codec, not a
// model that decodes every token to concept 0.
func TestReadCodecRejectsNonFiniteWeights(t *testing.T) {
	corp, c := sharedFixtures(t)
	valid, err := c.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		data := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint64(data[len(data)-8:], math.Float64bits(bad)) // the last output bias
		if _, err := ParseCodec(data, corp); !errors.Is(err, errBadCodec) {
			t.Fatalf("weight %v: err = %v, want errBadCodec", bad, err)
		}
	}
}

// TestWithParamsAdoptsTensors: a codec built on a parsed set uses that
// set's storage, decodes like the codec the bytes came from, and refuses
// a set of another shape.
func TestWithParamsAdoptsTensors(t *testing.T) {
	_, c := sharedFixtures(t)
	b, err := c.AppendParams(nil)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := nn.ParseParamSet(b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.WithParams(ps)
	if err != nil {
		t.Fatal(err)
	}
	if got.params().ByName(ParamOutW) != ps.ByName(ParamOutW) {
		t.Fatal("WithParams copied the tensors instead of adopting them")
	}
	if got.stamp.Load() == c.stamp.Load() {
		t.Fatal("the new codec shares its source's stamp")
	}
	if got.Domain() != c.Domain() || got.Config() != c.Config() {
		t.Fatal("the new codec has another domain or configuration")
	}
	again, err := got.AppendParams(nil)
	if err != nil || !bytes.Equal(again, b) {
		t.Fatalf("the new codec serializes differently (err %v)", err)
	}
	if _, err := c.WithParams(c.decoderParams().Clone()); err == nil {
		t.Fatal("the decoder tensors alone were accepted as a codec")
	}
}
