package baseline

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/channel"
	"repro/internal/corpus"
	"repro/internal/mat"
)

// trainedHuffman returns a Huffman coder trained on generated corpus text.
func trainedHuffman(t *testing.T) (*Huffman, []string) {
	t.Helper()
	corp := corpus.Build()
	gen := corpus.NewGenerator(corp, mat.NewRNG(1))
	var samples []string
	for di := range corp.Domains {
		for _, m := range gen.Batch(di, 50, nil) {
			samples = append(samples, m.Text())
		}
	}
	return Train(samples), samples
}

func TestHuffmanRoundTrip(t *testing.T) {
	h, samples := trainedHuffman(t)
	for _, s := range samples[:100] {
		got := h.Decode(h.Encode(s))
		if got != s {
			t.Fatalf("round trip failed: %q -> %q", s, got)
		}
	}
}

func TestHuffmanCompresses(t *testing.T) {
	h, samples := trainedHuffman(t)
	bits, bytes := 0, 0
	for _, s := range samples {
		bits += len(h.Encode(s))
		bytes += len(s)
	}
	mean := float64(bits) / float64(bytes)
	if mean <= 0 || mean >= 8 {
		t.Fatalf("mean bits/byte = %v, want in (0,8)", mean)
	}
	// English-like lowercase text should compress well below 6 bits/byte.
	if mean > 6 {
		t.Fatalf("mean bits/byte = %v, expected < 6 for corpus text", mean)
	}
}

func TestHuffmanPrefixFree(t *testing.T) {
	h, _ := trainedHuffman(t)
	var codes []string
	for b := 0; b < 256; b++ {
		if len(h.codes[byte(b)]) > 0 {
			var sb strings.Builder
			for _, bit := range h.codes[byte(b)] {
				if bit {
					sb.WriteByte('1')
				} else {
					sb.WriteByte('0')
				}
			}
			codes = append(codes, sb.String())
		}
	}
	for i, a := range codes {
		for j, b := range codes {
			if i != j && strings.HasPrefix(b, a) {
				t.Fatalf("code %q is a prefix of %q", a, b)
			}
		}
	}
}

func TestHuffmanSmoothedAlphabetAlwaysEncodable(t *testing.T) {
	h := Train([]string{"aaa"}) // minimal training data
	s := "the quick brown fox 0123456789"
	if got := h.Decode(h.Encode(s)); got != s {
		t.Fatalf("smoothed alphabet round trip failed: %q", got)
	}
}

func TestHuffmanBitFlipCorruptsSuffix(t *testing.T) {
	h, samples := trainedHuffman(t)
	s := samples[0]
	bits := h.Encode(s)
	// Flip an early bit: decoding desynchronizes and the text diverges.
	bits[2] = !bits[2]
	got := h.Decode(bits)
	if got == s {
		t.Fatal("bit flip did not corrupt Huffman decoding")
	}
}

func TestHuffmanDeterministic(t *testing.T) {
	_, samples := trainedHuffman(t)
	h1 := Train(samples)
	h2 := Train(samples)
	for b := 0; b < 256; b++ {
		if len(h1.codes[byte(b)]) != len(h2.codes[byte(b)]) {
			t.Fatal("Huffman training not deterministic")
		}
	}
}

func TestPipelineCleanChannel(t *testing.T) {
	h, samples := trainedHuffman(t)
	p := Pipeline{Huff: h, Code: channel.Hamming74{}, Mod: channel.BPSK{}, Ch: channel.Clean{}}
	for _, s := range samples[:20] {
		got, ok, stats := p.Send(s)
		if !ok {
			t.Fatalf("clean channel CRC failed for %q", s)
		}
		if got != s {
			t.Fatalf("clean channel corrupted %q -> %q", s, got)
		}
		if stats.InfoBits <= 0 || stats.CodedBits < stats.InfoBits || stats.Symbols <= 0 {
			t.Fatalf("implausible stats %+v", stats)
		}
	}
}

func TestPipelineHighSNRMostlyClean(t *testing.T) {
	h, samples := trainedHuffman(t)
	rng := mat.NewRNG(33)
	p := Pipeline{
		Huff: h,
		Code: channel.Hamming74{},
		Mod:  channel.BPSK{},
		Ch:   &channel.AWGN{SNRdB: 12, Rng: rng.Split()},
	}
	okCount := 0
	for _, s := range samples[:50] {
		_, ok, _ := p.Send(s)
		if ok {
			okCount++
		}
	}
	if okCount < 45 {
		t.Fatalf("only %d/50 frames survived 12 dB with Hamming", okCount)
	}
}

func TestPipelineLowSNRFails(t *testing.T) {
	h, samples := trainedHuffman(t)
	rng := mat.NewRNG(34)
	p := Pipeline{
		Huff: h,
		Code: channel.Identity{},
		Mod:  channel.BPSK{},
		Ch:   &channel.AWGN{SNRdB: -4, Rng: rng.Split()},
	}
	exact := 0
	for _, s := range samples[:50] {
		got, _, _ := p.Send(s)
		if got == s {
			exact++
		}
	}
	if exact > 5 {
		t.Fatalf("%d/50 messages survived -4 dB uncoded; the cliff is missing", exact)
	}
}

func TestPipelineCRCDetectsCorruption(t *testing.T) {
	h, samples := trainedHuffman(t)
	rng := mat.NewRNG(35)
	p := Pipeline{
		Huff: h,
		Code: channel.Identity{},
		Mod:  channel.BPSK{},
		Ch:   &channel.AWGN{SNRdB: 2, Rng: rng.Split()},
	}
	falseAccepts := 0
	for _, s := range samples[:100] {
		got, ok, _ := p.Send(s)
		if ok && got != s {
			falseAccepts++
		}
	}
	// CRC-16 misses at most ~2^-16 of corrupted frames; in 100 noisy
	// frames false accepts should be absent.
	if falseAccepts > 1 {
		t.Fatalf("%d corrupted frames passed CRC", falseAccepts)
	}
}

// Property: round-trip holds for arbitrary strings drawn from the smoothed
// alphabet.
func TestHuffmanQuick(t *testing.T) {
	h := Train([]string{"the server is down and the network has a bug"})
	alphabet := "abcdefghijklmnopqrstuvwxyz 0123456789"
	f := func(seed uint64, lnRaw uint8) bool {
		rng := mat.NewRNG(seed)
		ln := int(lnRaw % 40)
		var sb strings.Builder
		for i := 0; i < ln; i++ {
			sb.WriteByte(alphabet[rng.Intn(len(alphabet))])
		}
		s := sb.String()
		return h.Decode(h.Encode(s)) == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
