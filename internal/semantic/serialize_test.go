package semantic

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"repro/internal/corpus"
	"repro/internal/mat"
)

func TestCodecSerializationRoundTrip(t *testing.T) {
	corp, c := sharedFixtures(t)
	var buf bytes.Buffer
	n, err := c.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := ReadCodec(&buf, corp)
	if err != nil {
		t.Fatalf("ReadCodec: %v", err)
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

func TestReadCodecRejectsGarbage(t *testing.T) {
	corp := corpus.Build()
	if _, err := ReadCodec(bytes.NewReader([]byte("not a codec")), corp); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadCodec(bytes.NewReader(nil), corp); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestReadCodecRejectsTruncated(t *testing.T) {
	corp, c := sharedFixtures(t)
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{5, 20, len(data) / 2, len(data) - 3} {
		if _, err := ReadCodec(bytes.NewReader(data[:cut]), corp); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestReadCodecUnknownDomain(t *testing.T) {
	corp, c := sharedFixtures(t)
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Corrupt the domain name ("it" sits after magic + name length).
	data[8] = 'z'
	data[9] = 'z'
	if _, err := ReadCodec(bytes.NewReader(data), corp); err == nil {
		t.Fatal("unknown domain accepted")
	}
}

// TestReadCodecRejectsNonFiniteWeights: a stream whose shapes all fit but
// which carries one NaN or infinite weight is a malformed codec, not a
// model that decodes every token to concept 0.
func TestReadCodecRejectsNonFiniteWeights(t *testing.T) {
	corp, c := sharedFixtures(t)
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		data := append([]byte(nil), buf.Bytes()...)
		binary.LittleEndian.PutUint64(data[len(data)-8:], math.Float64bits(bad)) // the last output bias
		if _, err := ReadCodec(bytes.NewReader(data), corp); !errors.Is(err, errBadCodec) {
			t.Fatalf("weight %v: err = %v, want errBadCodec", bad, err)
		}
	}
}
