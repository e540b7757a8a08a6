package experiments

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/channel"
	"repro/internal/corpus"
	"repro/internal/mat"
)

// trainedHuffman returns a Huffman coder trained on generated corpus text.
func trainedHuffman(t *testing.T) (*huffman, []string) {
	t.Helper()
	corp := corpus.Build()
	gen := corpus.NewGenerator(corp, mat.NewRNG(1))
	var samples []string
	for di := range corp.Domains {
		for _, m := range gen.Batch(di, 50, nil) {
			samples = append(samples, m.Text())
		}
	}
	return trainHuffman(samples), samples
}

func TestHuffmanRoundTrip(t *testing.T) {
	h, samples := trainedHuffman(t)
	for _, s := range samples[:100] {
		got := h.decode(h.encode(s))
		if got != s {
			t.Fatalf("round trip failed: %q -> %q", s, got)
		}
	}
}

func TestHuffmanCompresses(t *testing.T) {
	h, samples := trainedHuffman(t)
	bits, bytes := 0, 0
	for _, s := range samples {
		bits += len(h.encode(s))
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
	h := trainHuffman([]string{"aaa"}) // minimal training data
	s := "the quick brown fox 0123456789"
	if got := h.decode(h.encode(s)); got != s {
		t.Fatalf("smoothed alphabet round trip failed: %q", got)
	}
}

func TestHuffmanBitFlipCorruptsSuffix(t *testing.T) {
	h, samples := trainedHuffman(t)
	s := samples[0]
	bits := h.encode(s)
	// Flip an early bit: decoding desynchronizes and the text diverges.
	bits[2] = !bits[2]
	got := h.decode(bits)
	if got == s {
		t.Fatal("bit flip did not corrupt Huffman decoding")
	}
}

func TestHuffmanDeterministic(t *testing.T) {
	_, samples := trainedHuffman(t)
	h1 := trainHuffman(samples)
	h2 := trainHuffman(samples)
	for b := 0; b < 256; b++ {
		if len(h1.codes[byte(b)]) != len(h2.codes[byte(b)]) {
			t.Fatal("Huffman training not deterministic")
		}
	}
}

func TestPipelineCleanChannel(t *testing.T) {
	h, samples := trainedHuffman(t)
	p := tradPipeline{huff: h, code: channel.Hamming74{}, mod: channel.BPSK{}, ch: channel.Clean{}}
	for _, s := range samples[:20] {
		got, ok, stats := p.send(s)
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
	p := tradPipeline{
		huff: h,
		code: channel.Hamming74{},
		mod:  channel.BPSK{},
		ch:   &channel.AWGN{SNRdB: 12, Rng: rng.Split()},
	}
	okCount := 0
	for _, s := range samples[:50] {
		_, ok, _ := p.send(s)
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
	p := tradPipeline{
		huff: h,
		code: identityCode{},
		mod:  channel.BPSK{},
		ch:   &channel.AWGN{SNRdB: -4, Rng: rng.Split()},
	}
	exact := 0
	for _, s := range samples[:50] {
		got, _, _ := p.send(s)
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
	p := tradPipeline{
		huff: h,
		code: identityCode{},
		mod:  channel.BPSK{},
		ch:   &channel.AWGN{SNRdB: 2, Rng: rng.Split()},
	}
	falseAccepts := 0
	for _, s := range samples[:100] {
		got, ok, _ := p.send(s)
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
	h := trainHuffman([]string{"the server is down and the network has a bug"})
	alphabet := "abcdefghijklmnopqrstuvwxyz 0123456789"
	f := func(seed uint64, lnRaw uint8) bool {
		rng := mat.NewRNG(seed)
		ln := int(lnRaw % 40)
		var sb strings.Builder
		for i := 0; i < ln; i++ {
			sb.WriteByte(alphabet[rng.Intn(len(alphabet))])
		}
		s := sb.String()
		return h.decode(h.encode(s)) == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	rng := mat.NewRNG(1)
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 100} {
		bits := randomBits(rng, n)
		got := unpackBits(packBits(bits), n)
		if bitErrors(bits, got) != 0 {
			t.Fatalf("pack/unpack round trip failed for n=%d", n)
		}
	}
}

func TestUnpackPanicsOnOverrun(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	unpackBits([]byte{0xff}, 9)
}

func TestCRC16KnownVector(t *testing.T) {
	// CRC-16/CCITT-FALSE of "123456789" is 0x29B1.
	data := []byte("123456789")
	if got := crc16(unpackBits(data, 8*len(data))); got != 0x29B1 {
		t.Fatalf("crc16 = %#x, want 0x29B1", got)
	}
}

func TestCRCDetectsChange(t *testing.T) {
	rng := mat.NewRNG(2)
	bits := randomBits(rng, 128)
	orig := crc16(bits)
	bits[17] = !bits[17]
	if crc16(bits) == orig {
		t.Fatal("single bit flip not detected")
	}
}

// unpackBits expands bytes into n bits, most significant bit first: the
// inverse of packBits. It panics if n exceeds the available bits.
func unpackBits(data []byte, n int) []bool {
	if n > 8*len(data) {
		panic("experiments: unpackBits length exceeds data")
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = data[i/8]&(1<<(7-uint(i%8))) != 0
	}
	return out
}
