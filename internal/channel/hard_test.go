package channel

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/mat"
)

// stagedHamming74 is Hamming74 under a distinct type: FeatureLink.hardLink
// does not recognise it, so a link built with it takes the staged pipeline
// (through the same EncodeTo/DecodeTo) and serves as the reference the
// fused crossing is compared against.
type stagedHamming74 struct{ Hamming74 }

// hardPair builds the fused link and its staged twin over equal-seeded
// generators.
func hardPair(q Quantizer, snr float64, seed uint64) (fused, staged FeatureLink) {
	fused = FeatureLink{Quant: q, Code: Hamming74{}, Mod: BPSK{}, Ch: &AWGN{SNRdB: snr, Rng: mat.NewRNG(seed)}}
	staged = FeatureLink{Quant: q, Code: stagedHamming74{}, Mod: BPSK{}, Ch: &AWGN{SNRdB: snr, Rng: mat.NewRNG(seed)}}
	return fused, staged
}

// hardFeats draws n feature values in [-1.2, 1.2]: mostly in range, some
// past both clamps.
func hardFeats(rng *mat.RNG, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 2.4*rng.Float64() - 1.2
	}
	return out
}

// crossing is one way of sending a message: a link on its continuing
// stream, or a fresh stream per message.
type crossing func(dst, flat []float64) LinkStats

// viaLink crosses on l's continuing stream.
func viaLink(l FeatureLink) crossing {
	var ts TxScratch
	return func(dst, flat []float64) LinkStats { return l.SendFlatScratch(&ts, dst, flat) }
}

// crossBoth sends flat both ways and fails unless outputs and stats are
// equal; it returns how many received values differ from what a clean
// channel would have delivered (the crossings that exercised a flip).
func crossBoth(t testing.TB, q Quantizer, fused, staged crossing, flat []float64, label string) int {
	t.Helper()
	got := make([]float64, len(flat))
	want := make([]float64, len(flat))
	if gotStats, wantStats := fused(got, flat), staged(want, flat); gotStats != wantStats {
		t.Fatalf("%s: fused stats %+v, staged %+v", label, gotStats, wantStats)
	}
	corrupted := 0
	clean := q.Decode(q.Encode(flat))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: value %d fused %v, staged %v", label, i, got[i], want[i])
		}
		if want[i] != clean[i] {
			corrupted++
		}
	}
	return corrupted
}

// sameStream fails unless both links' generators are in the same state:
// the next message on a continuing stream must see the same noise.
func sameStream(t testing.TB, fused, staged FeatureLink, label string) {
	t.Helper()
	f, s := fused.Ch.(*AWGN).Rng, staged.Ch.(*AWGN).Rng
	if f.HasSpare() != s.HasSpare() {
		t.Fatalf("%s: spare state diverged", label)
	}
	// Compare on copies so the streams under test keep running.
	fc, sc := *f, *s
	if fc.Uint64() != sc.Uint64() {
		t.Fatalf("%s: generator states diverged", label)
	}
}

// hardRoute reports which way the fused crossing of an n-value message on
// l will go — "skipped" (coded·thr past hardScanBound), "certified" (the
// clean-crossing scan holds) or "fallback" (the scan fails and the
// per-symbol receiver runs) — scanning a copy of l's generator.
func hardRoute(l FeatureLink, n int) string {
	ch := l.Ch.(*AWGN)
	ch.noiseSigmaCached()
	coded := (n*l.Quant.Bits + 3) / 4 * 7
	if float64(coded)*ch.hardThr > hardScanBound {
		return "skipped"
	}
	if rng := *ch.Rng; rng.PolarClear(coded, ch.hardThr) {
		return "certified"
	}
	return "fallback"
}

var hardSNRs = []float64{-6, -2, 0, 3, 6, 9, 12, 20}

// TestHardCrossingMatchesStaged is the proof obligation of the fused path:
// over the SNR range the experiments sweep, every quantizer width, whole
// and padded final blocks, and both ways a stream is used — consecutive
// messages on one continuing stream (classic), where outputs, LinkStats
// and generator state must equal the staged pipeline's, and one fresh
// stream per message (reseeded: SeededLink.Send against the staged link
// reseeded to the same seed), where outputs and LinkStats must — on every
// route through the crossing: the bound skipping the clean-crossing scan,
// the scan certifying a message, and the scan failing and restoring the
// generator for the receiver.
func TestHardCrossingMatchesStaged(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	t.Run("classic", func(t *testing.T) {
		routes := map[string]int{}
		defer func() {
			t.Logf("routes: %v", routes)
			for _, r := range []string{"skipped", "certified", "fallback"} {
				if routes[r] == 0 {
					t.Errorf("no message took the %s route (%v)", r, routes)
				}
			}
		}()
		for _, snr := range hardSNRs {
			corrupted := 0
			for bits := 1; bits <= 8; bits++ {
				q := Quantizer{Bits: bits, Lo: -1, Hi: 1}
				for seed := 0; seed < seeds; seed++ {
					fused, staged := hardPair(q, snr, uint64(seed)*977+uint64(bits))
					src := mat.NewRNG(uint64(seed) + 1)
					// 3 values: bits*3 is a multiple of 4 only for bits 4 and 8,
					// so most widths end on a padded block; 96 is a daemon
					// message (12 tokens x 8 dims).
					for msg, n := range []int{3, 96, 0, 17} {
						label := fmt.Sprintf("snr %v bits %d seed %d msg %d", snr, bits, seed, msg)
						routes[hardRoute(fused, n)]++
						corrupted += crossBoth(t, q, viaLink(fused), viaLink(staged), hardFeats(src, n), label)
						sameStream(t, fused, staged, label)
					}
				}
			}
			// The exact branch must have been exercised, not just skipped.
			if snr <= 6 && corrupted == 0 {
				t.Errorf("snr %v: no received value was corrupted; the flip branch was never taken", snr)
			}
			t.Logf("snr %v dB: %d corrupted values", snr, corrupted)
		}
	})
	t.Run("reseeded", func(t *testing.T) {
		for _, snr := range hardSNRs {
			for _, bits := range []int{3, 5} {
				q := Quantizer{Bits: bits, Lo: -1, Hi: 1}
				sigma := (&AWGN{SNRdB: snr}).NoiseSigma()
				seeded := SeededLink{quant: q, sigma: sigma, thr: hardFlipThreshold(sigma)}
				_, staged := hardPair(q, snr, 0)
				stagedRng := staged.Ch.(*AWGN).Rng
				src := mat.NewRNG(uint64(bits))
				for msg := 0; msg < seeds; msg++ {
					seed := mat.NewRNG(uint64(msg)).Uint64()
					fresh := func(dst, flat []float64) LinkStats { return seeded.Send(seed, dst, flat) }
					reseeded := func(dst, flat []float64) LinkStats {
						stagedRng.Reseed(seed)
						return viaLink(staged)(dst, flat)
					}
					label := fmt.Sprintf("snr %v bits %d msg %d", snr, bits, msg)
					crossBoth(t, q, fresh, reseeded, hardFeats(src, 3+msg%40), label)
				}
			}
		}
	})
}

// TestHardCrossingDefersToStagedOnSpare enters with a cached polar spare —
// an odd number of normals was drawn from the stream first — and checks
// the link declines the fused path and still reproduces the staged
// pipeline, spare included.
func TestHardCrossingDefersToStagedOnSpare(t *testing.T) {
	for _, snr := range []float64{0, 6} {
		fused, staged := hardPair(DefaultQuantizer(), snr, 77)
		fused.Ch.(*AWGN).Rng.NormFloat64()
		staged.Ch.(*AWGN).Rng.NormFloat64()
		if _, ok := fused.hardLink(); ok {
			t.Fatal("hardLink accepted a generator holding a spare")
		}
		src := mat.NewRNG(5)
		for msg := 0; msg < 3; msg++ {
			label := fmt.Sprintf("snr %v msg %d", snr, msg)
			crossBoth(t, fused.Quant, viaLink(fused), viaLink(staged), hardFeats(src, 41), label)
			sameStream(t, fused, staged, label)
		}
	}
}

// TestHardLinkSelection pins which links take the fused path: exactly
// Hamming74 + BPSK + *AWGN, chosen from the link's own values.
func TestHardLinkSelection(t *testing.T) {
	awgn := func() Channel { return &AWGN{SNRdB: 6, Rng: mat.NewRNG(1)} }
	cases := []struct {
		name string
		link FeatureLink
		want bool
	}{
		{"default", DefaultFeatureLink(awgn()), true},
		{"another modulation", FeatureLink{Quant: DefaultQuantizer(), Code: Hamming74{}, Mod: struct{ BPSK }{}, Ch: awgn()}, false},
		{"identity", FeatureLink{Quant: DefaultQuantizer(), Code: Identity{}, Mod: BPSK{}, Ch: awgn()}, false},
		{"rayleigh", DefaultFeatureLink(&Rayleigh{SNRdB: 6, Rng: mat.NewRNG(1)}), false},
		{"clean", DefaultFeatureLink(Clean{}), false},
		{"staged twin", FeatureLink{Quant: DefaultQuantizer(), Code: stagedHamming74{}, Mod: BPSK{}, Ch: awgn()}, false},
	}
	for _, c := range cases {
		if _, got := c.link.hardLink(); got != c.want {
			t.Errorf("%s: hardLink = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestHardReceiveBound tests the shortcut directly: over a million
// accepted polar pairs per sigma, whenever hardReceive answers without
// evaluating the deviate, the staged expression on the full deviate gives
// the same bit, for both symbol signs.
func TestHardReceiveBound(t *testing.T) {
	pairs := 1 << 20
	if testing.Short() {
		pairs = 1 << 16
	}
	for _, snr := range hardSNRs {
		sigma := (&AWGN{SNRdB: snr}).NoiseSigma()
		thr := hardFlipThreshold(sigma)
		rng := mat.NewRNG(uint64(1000 + snr))
		skipped, flips := 0, 0
		us, vs, ss := make([]float64, pairs), make([]float64, pairs), make([]float64, pairs)
		rng.PolarPairs(us, vs, ss)
		for i, u := range us {
			s := ss[i]
			n := u * mat.PolarScale(s)
			for _, sent := range []bool{false, true} {
				x := -1.0
				if sent {
					x = 1
				}
				exact := bpskDecide(awgnComponent(x, sigma, n))
				if exact != sent {
					flips++
				}
				if got := hardReceive(sent, u, s, sigma, thr); got != exact {
					t.Fatalf("snr %v: sent %v u %v s %v: hardReceive %v, staged expression %v", snr, sent, u, s, got, exact)
				}
				if s > thr {
					skipped++
				}
			}
		}
		t.Logf("snr %v dB: threshold %.3g, %d of %d decisions skipped by it, %d flips", snr, thr, skipped, 2*pairs, flips)
	}
	// Adversarial pairs no random draw reaches: the smallest s the generator
	// can produce (|v| = 2^-52, u = 0), the largest, and the worst case of
	// the bound itself — s one ulp above the threshold with all of it in u
	// (v = 0, so u² = s and the inequality is tight).
	for _, snr := range []float64{-1, 0, 3, 6, 9, 12, 20, 28, 40, 400} {
		sigma := (&AWGN{SNRdB: snr}).NoiseSigma()
		thr := hardFlipThreshold(sigma)
		edges := [][2]float64{{0, 0x1p-104}, {0x1p-52, 0x1p-104}, {-0x1p-52, 0x1p-104}, {-0.999, 0.999}, {0.999, 0.999}}
		if tight := math.Nextafter(thr, 2); thr > 0 && tight < 1 {
			edges = append(edges, [2]float64{math.Sqrt(tight), tight}, [2]float64{-math.Sqrt(tight), tight})
		}
		for _, us := range edges {
			u, s := us[0], us[1]
			for _, sent := range []bool{false, true} {
				x := -1.0
				if sent {
					x = 1
				}
				exact := bpskDecide(awgnComponent(x, sigma, u*mat.PolarScale(s)))
				if got := hardReceive(sent, u, s, sigma, thr); got != exact {
					t.Fatalf("snr %v edge u %v s %v sent %v: hardReceive %v, staged expression %v", snr, u, s, sent, got, exact)
				}
			}
		}
	}
}

// TestHamming74TablesMatchCode checks the packed tables against the code
// they were generated from, in the kernel's bit order.
func TestHamming74TablesMatchCode(t *testing.T) {
	for n := 0; n < 16; n++ {
		nibble := []bool{n&8 != 0, n&4 != 0, n&2 != 0, n&1 != 0}
		cw := hamming74Enc[n]
		for e := -1; e < 7; e++ { // every single-bit error, and none
			word := cw
			if e >= 0 {
				word ^= 1 << uint(e)
			}
			if got := hamming74Dec[word]; int(got) != n {
				t.Fatalf("nibble %04b error bit %d: decoded %04b", n, e, got)
			}
		}
		coded := Hamming74{}.EncodeTo(nil, nibble)
		for i, b := range coded {
			if b != (cw>>uint(6-i)&1 != 0) {
				t.Fatalf("nibble %04b: table codeword %07b disagrees with EncodeTo at bit %d", n, cw, i)
			}
		}
	}
}

// TestHardCrossingZeroAllocs pins the fused crossing at zero heap
// allocations — it has no stage buffers to warm.
func TestHardCrossingZeroAllocs(t *testing.T) {
	if mat.RaceEnabled {
		t.Skip("allocation accounting differs under -race")
	}
	l := DefaultFeatureLink(&AWGN{SNRdB: 3, Rng: mat.NewRNG(9)})
	if _, ok := l.hardLink(); !ok {
		t.Fatal("default link does not take the fused path")
	}
	flat := hardFeats(mat.NewRNG(1), 96)
	dst := make([]float64, len(flat))
	send := func() { l.SendFlatScratch(nil, dst, flat) }
	send()
	if allocs := testing.AllocsPerRun(100, send); allocs != 0 {
		t.Fatalf("fused crossing allocates %v times per call, want 0", allocs)
	}
}

// FuzzHardCrossing lets the fuzzer pick the seed, SNR, quantizer width and
// feature values and requires the fused and staged crossings to agree on
// two consecutive messages of one stream: outputs, stats, generator state.
func FuzzHardCrossing(f *testing.F) {
	f.Add(uint64(1), int16(1200), uint8(3), []byte("a daemon-shaped message at the serving snr"))
	f.Add(uint64(2), int16(-600), uint8(5), []byte{0, 255, 128, 7, 200, 31, 90}) // low SNR, padded last block
	f.Add(uint64(3), int16(0), uint8(1), []byte{1, 2, 3, 4, 5})
	f.Add(uint64(4), int16(300), uint8(16), []byte{9})
	f.Add(uint64(5), int16(32767), uint8(8), []byte{})
	f.Fuzz(func(t *testing.T, seed uint64, snrCentiDB int16, bits uint8, payload []byte) {
		q := Quantizer{Bits: 1 + int(bits)%16, Lo: -1, Hi: 1}
		flat := make([]float64, len(payload))
		for i, b := range payload {
			flat[i] = 2.4*float64(b)/255 - 1.2
		}
		fused, staged := hardPair(q, float64(snrCentiDB)/100, seed)
		for msg := 0; msg < 2; msg++ {
			label := fmt.Sprintf("msg %d", msg)
			crossBoth(t, q, viaLink(fused), viaLink(staged), flat, label)
			sameStream(t, fused, staged, label)
		}
	})
}

// BenchmarkHardCrossing times one long_msg-shaped crossing (96 tokens x 8
// dims x 3 bits = 4,032 symbols): on the fused path at the daemon's 12 dB,
// where the clean-crossing certificate almost always holds; at 10 dB, where
// coded·thr ≈ 0.37 is inside hardScanBound and the certificate holds on
// about seven crossings in ten; at 6 dB, where the bound sends it straight
// to the per-symbol receiver; on the staged reference; and, at 12 dB, the
// certificate's scan alone and the per-symbol receiver alone — the S and E
// that hardScanBound weighs.
func BenchmarkHardCrossing(b *testing.B) {
	flat := hardFeats(mat.NewRNG(1), 96*8)
	dst := make([]float64, len(flat))
	fused12, staged12 := hardPair(DefaultQuantizer(), 12, 1)
	fused10, _ := hardPair(DefaultQuantizer(), 10, 1)
	fused6, _ := hardPair(DefaultQuantizer(), 6, 1)
	for _, c := range []struct {
		name string
		link FeatureLink
	}{{"fused", fused12}, {"fused-10dB", fused10}, {"fused-6dB", fused6}, {"staged", staged12}} {
		b.Run(c.name, func(b *testing.B) {
			var ts TxScratch
			for i := 0; i < b.N; i++ {
				c.link.SendFlatScratch(&ts, dst, flat)
			}
		})
	}
	ch := fused12.Ch.(*AWGN)
	sigma := ch.noiseSigmaCached()
	seeded := SeededLink{quant: fused12.Quant, sigma: sigma, thr: ch.hardThr}
	coded := (len(flat)*DefaultQuantizer().Bits + 3) / 4 * 7
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ch.Rng.PolarClear(coded, ch.hardThr)
		}
	})
	b.Run("receiver", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			seeded.receive(ch.Rng, dst, flat, coded)
		}
	})
}
