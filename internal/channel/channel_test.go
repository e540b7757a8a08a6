package channel

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mat"
)

func randomBits(rng *mat.RNG, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = rng.Float64() < 0.5
	}
	return out
}

func TestPackUnpackRoundTrip(t *testing.T) {
	rng := mat.NewRNG(1)
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 100} {
		bits := randomBits(rng, n)
		got := UnpackBits(PackBits(bits), n)
		if BitErrors(bits, got) != 0 {
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
	UnpackBits([]byte{0xff}, 9)
}

func TestBitErrors(t *testing.T) {
	a := []bool{true, false, true}
	b := []bool{true, true, true}
	if BitErrors(a, b) != 1 {
		t.Fatal("BitErrors miscounted")
	}
	if BitErrors(a, a[:2]) != 1 {
		t.Fatal("length difference should count as errors")
	}
	if BitErrors(nil, nil) != 0 {
		t.Fatal("empty comparison should be 0")
	}
}

func TestCRC16KnownVector(t *testing.T) {
	// CRC-16/CCITT-FALSE of "123456789" is 0x29B1.
	bits := BytesToBits([]byte("123456789"))
	if got := CRC16(bits); got != 0x29B1 {
		t.Fatalf("CRC16 = %#x, want 0x29B1", got)
	}
}

func TestCRCDetectsChange(t *testing.T) {
	rng := mat.NewRNG(2)
	bits := randomBits(rng, 128)
	orig := CRC16(bits)
	bits[17] = !bits[17]
	if CRC16(bits) == orig {
		t.Fatal("single bit flip not detected")
	}
}

func TestQuantizerRoundTripError(t *testing.T) {
	q := Quantizer{Bits: 6, Lo: -1, Hi: 1}
	rng := mat.NewRNG(3)
	vals := make([]float64, 200)
	for i := range vals {
		vals[i] = 2*rng.Float64() - 1
	}
	got := q.Decode(q.Encode(vals))
	if len(got) != len(vals) {
		t.Fatalf("decode length %d, want %d", len(got), len(vals))
	}
	for i := range vals {
		if math.Abs(got[i]-vals[i]) > q.StepSize() {
			t.Fatalf("quantization error %v exceeds step %v", math.Abs(got[i]-vals[i]), q.StepSize())
		}
	}
}

func TestQuantizerClamps(t *testing.T) {
	q := Quantizer{Bits: 4, Lo: -1, Hi: 1}
	got := q.Decode(q.Encode([]float64{-5, 5}))
	if got[0] != -1 || got[1] != 1 {
		t.Fatalf("clamp failed: %v", got)
	}
}

func TestQuantizerBitsBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Bits=0")
		}
	}()
	Quantizer{Bits: 0, Lo: 0, Hi: 1}.Encode([]float64{0.5})
}

func TestCodesRoundTripClean(t *testing.T) {
	rng := mat.NewRNG(4)
	for _, code := range []Code{Identity{}, Repetition{N: 3}, Repetition{N: 5}, Hamming74{}} {
		bits := randomBits(rng, 64)
		decoded := code.DecodeTo(nil, code.EncodeTo(nil, bits))
		if len(decoded) < len(bits) {
			t.Fatalf("%T: decoded shorter than input", code)
		}
		if BitErrors(bits, decoded[:len(bits)]) != 0 {
			t.Fatalf("%T: clean round trip corrupted bits", code)
		}
	}
}

func TestHamming74CorrectsSingleErrors(t *testing.T) {
	rng := mat.NewRNG(5)
	code := Hamming74{}
	bits := randomBits(rng, 64)
	coded := code.EncodeTo(nil, bits)
	// Flip exactly one bit in every 7-bit block.
	for blk := 0; blk*7 < len(coded); blk++ {
		pos := blk*7 + rng.Intn(7)
		coded[pos] = !coded[pos]
	}
	decoded := code.DecodeTo(nil, coded)
	if BitErrors(bits, decoded[:len(bits)]) != 0 {
		t.Fatal("Hamming74 failed to correct single errors per block")
	}
}

func TestRepetitionCorrectsMinorityErrors(t *testing.T) {
	code := Repetition{N: 3}
	bits := []bool{true, false, true, true}
	coded := code.EncodeTo(nil, bits)
	coded[0] = !coded[0] // one of three copies
	coded[5] = !coded[5]
	decoded := code.DecodeTo(nil, coded)
	if BitErrors(bits, decoded) != 0 {
		t.Fatal("rep3 failed to correct single flips")
	}
}

func TestModulationsRoundTripClean(t *testing.T) {
	bits := randomBits(mat.NewRNG(6), 48)
	rx := BPSK{}.DemodulateTo(nil, BPSK{}.ModulateTo(nil, bits))
	if BitErrors(bits, rx) != 0 {
		t.Fatal("clean BPSK demodulation corrupted bits")
	}
}

func TestModulationUnitEnergy(t *testing.T) {
	symbols := BPSK{}.ModulateTo(nil, randomBits(mat.NewRNG(7), 1024))
	e := 0.0
	for _, s := range symbols {
		e += real(s)*real(s) + imag(s)*imag(s)
	}
	if e /= float64(len(symbols)); math.Abs(e-1) > 0.1 {
		t.Fatalf("mean BPSK symbol energy %v, want ~1", e)
	}
}

func TestAWGNBERDecreasesWithSNR(t *testing.T) {
	rng := mat.NewRNG(8)
	bits := randomBits(rng, 20000)
	ber := func(snr float64) float64 {
		ch := &AWGN{SNRdB: snr, Rng: rng.Split()}
		return bpskBER(ch, bits)
	}
	low := ber(-2)
	mid := ber(4)
	high := ber(10)
	if !(low > mid && mid > high) {
		t.Fatalf("BER not monotone with SNR: %v %v %v", low, mid, high)
	}
	if high > 1e-3 {
		t.Fatalf("BER at 10 dB BPSK = %v, want < 1e-3", high)
	}
	if low < 0.01 {
		t.Fatalf("BER at -2 dB BPSK = %v, suspiciously low", low)
	}
}

func TestAWGNTheoreticalBER(t *testing.T) {
	// BPSK over AWGN: Pb = Q(sqrt(2*SNR)). At 6 dB, Pb ~ 2.4e-3.
	rng := mat.NewRNG(9)
	bits := randomBits(rng, 200000)
	got := bpskBER(&AWGN{SNRdB: 6, Rng: rng.Split()}, bits)
	want := 0.5 * math.Erfc(math.Sqrt(math.Pow(10, 0.6)))
	if got < want/2 || got > want*2 {
		t.Fatalf("BPSK BER at 6 dB = %v, theory %v", got, want)
	}
}

func TestRayleighWorseThanAWGN(t *testing.T) {
	rng := mat.NewRNG(10)
	bits := randomBits(rng, 30000)
	berA := bpskBER(&AWGN{SNRdB: 8, Rng: rng.Split()}, bits)
	berR := bpskBER(&Rayleigh{SNRdB: 8, Rng: rng.Split()}, bits)
	if berR <= berA {
		t.Fatalf("Rayleigh BER %v should exceed AWGN BER %v at equal SNR", berR, berA)
	}
}

// TestRayleighDegradesVsAWGN is the same claim one layer up, on the link
// every system crosses: at 6 dB, features sent through DefaultFeatureLink
// arrive further from what was sent over Rayleigh fading than over AWGN,
// Hamming(7,4) included.
func TestRayleighDegradesVsAWGN(t *testing.T) {
	rng := mat.NewRNG(71)
	flat := make([]float64, 80*8*8) // 80 messages of 8 tokens x 8 dims
	for i := range flat {
		flat[i] = 2*rng.Float64() - 1
	}
	mse := func(ch Channel) float64 {
		rx := make([]float64, len(flat))
		DefaultFeatureLink(ch).SendFlatScratch(nil, rx, flat)
		sum := 0.0
		for i := range flat {
			sum += (rx[i] - flat[i]) * (rx[i] - flat[i])
		}
		return sum / float64(len(flat))
	}
	a := mse(&AWGN{SNRdB: 6, Rng: rng.Split()})
	r := mse(&Rayleigh{SNRdB: 6, Rng: rng.Split()})
	// Quantization alone costs both links 0.027; AWGN adds next to nothing
	// behind the code, fading about as much again.
	if r <= 1.5*a {
		t.Fatalf("feature MSE over Rayleigh (%v) should be well above AWGN (%v) at 6 dB", r, a)
	}
}

func TestErasureRate(t *testing.T) {
	rng := mat.NewRNG(11)
	ch := &Erasure{P: 0.2, Rng: rng.Split()}
	symbols := make([]complex128, 10000)
	for i := range symbols {
		symbols[i] = complex(1, 0)
	}
	rx := ch.TransmitTo(nil, symbols)
	erased := 0
	for _, s := range rx {
		if s == 0 {
			erased++
		}
	}
	frac := float64(erased) / float64(len(rx))
	if math.Abs(frac-0.2) > 0.03 {
		t.Fatalf("erasure fraction %v, want ~0.2", frac)
	}
}

func TestCleanChannelIdentity(t *testing.T) {
	in := []complex128{1, complex(0, 1), complex(-0.5, 0.5)}
	out := Clean{}.TransmitTo(nil, in)
	for i := range in {
		if in[i] != out[i] {
			t.Fatal("clean channel altered symbols")
		}
	}
	// Must be a copy, not an alias.
	out[0] = 99
	if in[0] == 99 {
		t.Fatal("clean channel aliased input")
	}
}

func TestFeatureLinkCleanRoundTrip(t *testing.T) {
	link := DefaultFeatureLink(Clean{})
	feats := []float64{0.5, -0.5, 0.25, -0.25, 0.1, 0.9, -0.9, 0} // 2 tokens x 4 dims
	rx := make([]float64, len(feats))
	stats := link.SendFlatScratch(nil, rx, feats)
	for i := range feats {
		if math.Abs(rx[i]-feats[i]) > link.Quant.StepSize() {
			t.Fatalf("clean link error beyond quantization at [%d]", i)
		}
	}
	if stats.InfoBits != 2*4*3 {
		t.Fatalf("InfoBits = %d, want 24 (2 tokens x 4 dims x 3 bits)", stats.InfoBits)
	}
	if stats.CodedBits <= stats.InfoBits {
		t.Fatal("Hamming coding should expand the stream")
	}
	if stats.PayloadBytes() != 3 {
		t.Fatalf("PayloadBytes = %d, want 3", stats.PayloadBytes())
	}
}

func TestFeatureLinkNoisePerturbsGracefully(t *testing.T) {
	rng := mat.NewRNG(12)
	link := DefaultFeatureLink(&AWGN{SNRdB: 0, Rng: rng.Split()})
	feats := []float64{0.5, -0.5, 0.25, -0.25}
	rx := make([]float64, len(feats))
	link.SendFlatScratch(nil, rx, feats)
	// Values stay within the quantizer range even under noise.
	for _, v := range rx {
		if v < -1 || v > 1 {
			t.Fatalf("received feature %v outside quantizer range", v)
		}
	}
}

func TestAnalogLinkCleanIsExact(t *testing.T) {
	link := AnalogLink{Ch: Clean{}}
	feats := []float64{0.3, -0.7, 0.1, 0.2}
	rx := make([]float64, len(feats))
	stats := link.SendFlatScratch(nil, rx, feats)
	for i := range feats {
		if rx[i] != feats[i] {
			t.Fatal("analog clean transport should be exact")
		}
	}
	if stats.Symbols != 2 {
		t.Fatalf("symbols = %d, want 2 (two dims per symbol)", stats.Symbols)
	}
}

// Property: Hamming(7,4) corrects any single-bit error in any block for
// arbitrary payloads.
func TestHammingQuick(t *testing.T) {
	f := func(seed uint64, flipPos uint8) bool {
		rng := mat.NewRNG(seed)
		bits := randomBits(rng, 32)
		code := Hamming74{}
		coded := code.EncodeTo(nil, bits)
		pos := int(flipPos) % len(coded)
		coded[pos] = !coded[pos]
		decoded := code.DecodeTo(nil, coded)
		return BitErrors(bits, decoded[:len(bits)]) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: quantizer round-trip error never exceeds one step.
func TestQuantizerQuick(t *testing.T) {
	f := func(seed uint64, bitsRaw uint8) bool {
		bits := int(bitsRaw%8) + 1
		q := Quantizer{Bits: bits, Lo: -1, Hi: 1}
		rng := mat.NewRNG(seed)
		vals := make([]float64, 32)
		for i := range vals {
			vals[i] = 2*rng.Float64() - 1
		}
		got := q.Decode(q.Encode(vals))
		for i := range vals {
			if math.Abs(got[i]-vals[i]) > q.StepSize() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// The bit helpers below serve only these tests (as the inverse of PackBits
// and as the error count every round-trip assertion uses).

// bpskBER sends bits over ch as BPSK symbols and returns the share the
// hard decision gets wrong.
func bpskBER(ch Channel, bits []bool) float64 {
	rx := BPSK{}.DemodulateTo(nil, ch.TransmitTo(nil, BPSK{}.ModulateTo(nil, bits)))
	return float64(BitErrors(bits, rx)) / float64(len(bits))
}

// UnpackBits expands bytes into n bits, most significant bit first. It
// panics if n exceeds the available bits.
func UnpackBits(data []byte, n int) []bool {
	if n > 8*len(data) {
		panic("channel: UnpackBits length exceeds data")
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = data[i/8]&(1<<(7-uint(i%8))) != 0
	}
	return out
}

// BytesToBits converts a byte slice to its full bit representation.
func BytesToBits(data []byte) []bool {
	return UnpackBits(data, 8*len(data))
}

// BitErrors counts positions where a and b differ, comparing over the
// shorter length and adding the length difference as errors.
func BitErrors(a, b []bool) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	errs := 0
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			errs++
		}
	}
	if len(a) > n {
		errs += len(a) - n
	} else if len(b) > n {
		errs += len(b) - n
	}
	return errs
}
