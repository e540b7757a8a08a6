package channel

import (
	"math"

	"repro/internal/mat"
)

// This file is the fused crossing of the one link every daemon builds:
// quantize → Hamming(7,4) → BPSK → AWGN → hard decision → decode, run as a
// single pass over bit-packed words. It is bit-identical to the staged
// pipeline in SendFlatScratch — outputs, LinkStats and the noise
// generator's state afterwards — and exists because the staged pipeline
// spends most of its time computing noise deviates whose only use is a
// sign test they cannot change.
//
// A BPSK receiver keeps sign(x + σ·n), x = ±1, of each symbol's real
// component. The staged path draws n as u·f from an accepted Marsaglia
// polar pair (u, v, s), f = sqrt(-2 ln(s) / s). Because u² <= s,
//
//	(u·f)² = (u²/s)·(-2 ln s) <= -2 ln s,
//
// so |σ·n| >= 1 — the least that can move the sum across zero — needs
// s <= exp(-1/(2σ²)): at 12 dB about one accepted pair in eight million.
// The per-symbol receiver draws exactly the uniforms the staged path draws
// (one polar pair per symbol; the imaginary deviate v·f is never read by a
// BPSK decision) and evaluates the log and square root only for a pair
// that passes neither that test nor the sign test below; for those it
// evaluates the staged path's own expression (awgnComponent, bpskDecide).
//
// Most crossings never reach that receiver. An accepted pair's (u, v) is
// uniform on the unit disk, so s = u² + v², the squared radius, is uniform
// on (0, 1): a message of n symbols has a pair at or below the threshold
// with probability 1 - (1-thr)^n ≈ n·thr, about one 4,032-symbol message
// in a thousand at the daemon's 12 dB. sendHard therefore first runs
// mat.RNG.PolarClear over the message's n pairs. It consumes the same
// uniforms in the same order, through the same a, b and s = a*a + b*b
// expressions as the PolarPairs batches the receiver reads, so it stops on
// the same last accepted pair and sees every s the receiver would. On AVX2
// hardware it runs four attempts at a time, one per lane, each lane
// computing those same expressions, and finishes the last few acceptances
// on the Go loop; it is about four times cheaper than the receiver. When
// every s clears the threshold, no decision flips, every codeword decodes
// to its own nibble, and the output is each value's quantize → dequantize
// round trip; the generator is already where the receiver would leave it.
// Otherwise the generator is restored and the per-symbol receiver runs
// over the same pairs: it stays the exact reference and the fallback.

// hardFlipMargin is the safety factor on the threshold exp(-1/(2σ²)): a
// pair is taken as unable to flip only when s exceeds the threshold
// hardFlipMargin times over. The derivation above is in exact arithmetic;
// a factor of 2 in s leaves |σ·n| below 1 by a relative σ²·ln 2 or more
// (>= 4.6e-4 wherever the threshold has not underflowed to zero), eleven
// orders of magnitude above the rounding error of the float64 evaluation.
const hardFlipMargin = 2

// hardFlipThreshold returns the value of s above which a polar pair cannot
// flip a BPSK decision at noise level sigma. Below about -1.6 dB it is >= 1
// and no pair passes it: every decision falls to the sign test or the
// exact expression.
func hardFlipThreshold(sigma float64) float64 {
	return hardFlipMargin * math.Exp(-1/(2*sigma*sigma))
}

// hardReceive returns the hard decision for one BPSK symbol carrying sent
// across AWGN, given the symbol's accepted polar pair (u, s). It equals
// the staged path's decision on the same pair by construction: either the
// noise provably cannot cross the boundary — s above thr here, or the
// real deviate pointing away from it in hardDecide — or the staged
// expression itself decides. The common case stays small enough to inline
// into the kernel's symbol loop.
func hardReceive(sent bool, u, s, sigma, thr float64) bool {
	if s > thr {
		return sent
	}
	return hardDecide(sent, u, s, sigma)
}

// hardDecide is hardReceive for a pair the threshold could not clear. The
// deviate u·f has the sign of u (f > 0), so noise that pushes the symbol
// away from zero leaves the decision alone whatever its size; only the
// rest pay for the log and square root of the staged expression.
func hardDecide(sent bool, u, s, sigma float64) bool {
	x := -1.0
	if sent {
		if u >= 0 {
			return true
		}
		x = 1
	} else if u <= 0 {
		return false
	}
	return bpskDecide(awgnComponent(x, sigma, u*mat.PolarScale(s)))
}

// hamming74Enc maps an information nibble (first bit most significant) to
// its codeword, and hamming74Dec maps a received 7-bit word to the decoded
// nibble after single-error correction; in both the first transmitted bit
// is the most significant. They are filled from Hamming74.EncodeTo and
// DecodeTo so the code keeps one definition.
var (
	hamming74Enc [16]uint8
	hamming74Dec [128]uint8
)

func init() {
	pack := func(bits []bool) (w uint8) {
		for _, b := range bits {
			w <<= 1
			if b {
				w |= 1
			}
		}
		return w
	}
	unpack := func(dst []bool, w int) {
		for i := range dst {
			dst[i] = w>>(len(dst)-1-i)&1 != 0
		}
	}
	var nibble [4]bool
	var word [7]bool
	for n := range hamming74Enc {
		unpack(nibble[:], n)
		hamming74Enc[n] = pack(Hamming74{}.EncodeTo(nil, nibble[:]))
	}
	for w := range hamming74Dec {
		unpack(word[:], w)
		hamming74Dec[w] = pack(Hamming74{}.DecodeTo(nil, word[:]))
	}
}

// hardLink reports whether l is the configuration the fused crossing
// implements, and returns its channel. A generator holding a cached polar
// spare is declined: the staged path would hand that spare to the first
// symbol, which the pair-at-a-time kernel cannot reproduce. (A link that
// only ever carries feature messages never has one — every crossing draws
// whole pairs — and SendSeeded reseeds first.)
func (l FeatureLink) hardLink() (*AWGN, bool) {
	ch, ok := l.Ch.(*AWGN)
	if !ok || l.Code != Code(Hamming74{}) || l.Mod != Modulation(BPSK{}) || ch.Rng.HasSpare() {
		return nil, false
	}
	return ch, true
}

// hardBatch is how many symbols' polar pairs the kernel draws per
// mat.RNG.PolarPairs call: whole codewords, and enough of them that the
// generator's branch-free batch loop is amortised.
const hardBatch = 16 * 7

// hardScanBound is the largest coded·thr for which sendHard tries the
// clean-crossing certificate. The scan costs S whatever its verdict and
// saves the per-symbol receiver's E only when it holds, with probability
// p ≈ exp(-coded·thr), so it pays when p·E > S, that is when coded·thr <
// ln(E/S). On a long_msg crossing the four-lane AVX2 scan is a quarter of
// the receiver or less (BenchmarkHardCrossing/scan ≈ 17–19 µs against
// /receiver ≈ 66–85 µs on a 2-core 2 GHz Xeon: S/E ≈ 0.20–0.29), so the
// break-even sits near ln(4) ≈ 1.4 and no lower than 1.2. Half of that,
// rounded down to 1/2, leaves a margin for hardware where the ratio is
// less favourable: on a CPU without AVX2 the scan is the Go loop, S/E is
// 0.6–0.8 and a crossing near the bound pays up to a fifth more than the
// receiver alone. The daemon's 12 dB reads coded·thr ≈ 1e-3 on its longest
// messages and 10 dB ≈ 0.37, where the scan holds on seven crossings in
// ten (BenchmarkHardCrossing/fused-10dB); 9 dB and below are sent straight
// to the receiver.
const hardScanBound = 1.0 / 2

// hardNoise hands the kernel one codeword's polar pairs at a time from
// stack-sized batches, drawing exactly the pairs the message needs — never
// one past its last symbol — so the generator is left where the staged
// path leaves it.
type hardNoise struct {
	rng       *mat.RNG
	remaining int // symbols of the message not yet drawn
	pos, have int
	u, v, s   [hardBatch]float64
}

// next returns the u and s of the next seven symbols' pairs. (v would
// scale to the imaginary deviate, which a BPSK decision never reads.)
func (n *hardNoise) next() (u, s []float64) {
	if n.pos == n.have {
		n.pos, n.have = 0, min(hardBatch, n.remaining)
		n.remaining -= n.have
		n.rng.PolarPairs(n.u[:n.have], n.v[:n.have], n.s[:n.have])
	}
	u, s = n.u[n.pos:n.pos+7], n.s[n.pos:n.pos+7]
	n.pos += 7
	return u, s
}

// crossNibble sends one information nibble across the channel as the seven
// BPSK symbols of its codeword, symbol i riding the noise of pair (u[i],
// s[i]), and returns the nibble the receiver decodes.
func crossNibble(nibble uint8, u, s []float64, sigma, thr float64) uint8 {
	cw := hamming74Enc[nibble]
	var word uint8
	for i := 0; i < 7; i++ {
		word <<= 1
		if hardReceive(cw>>uint(6-i)&1 != 0, u[i], s[i], sigma, thr) {
			word |= 1
		}
	}
	return hamming74Dec[word]
}

// sendHard is the fused crossing; see the file comment. Unless
// coded·thr is past hardScanBound, it first certifies a clean crossing
// and, if that holds, returns each value's quantize → dequantize round
// trip. Otherwise the per-symbol receiver runs.
func (l FeatureLink) sendHard(ch *AWGN, dst, flat []float64) LinkStats {
	q := l.Quant
	q.validate()
	levels := q.levels()
	span := q.Hi - q.Lo
	sigma := ch.noiseSigmaCached()
	thr := ch.hardThr
	info := len(flat) * q.Bits
	coded := (info + 3) / 4 * 7
	stats := LinkStats{InfoBits: info, CodedBits: coded, Symbols: coded}
	if float64(coded)*thr <= hardScanBound {
		saved := *ch.Rng
		if ch.Rng.PolarClear(coded, thr) {
			for i, v := range flat {
				dst[i] = q.value(q.index(v, levels, span), levels, span)
			}
			return stats
		}
		*ch.Rng = saved
	}
	l.receiveHard(ch.Rng, dst, flat, coded, sigma, thr)
	return stats
}

// receiveHard is the per-symbol receiver over the message's coded symbols,
// drawing their pairs from rng. Quantizer codes stream through a bit
// accumulator into nibbles, each nibble crosses the channel, and the
// decoded nibbles stream through a second accumulator back into quantizer
// codes, so nothing message-sized is materialised between flat and dst.
// The last nibble is zero-padded as Hamming74.EncodeTo pads it, and
// decoding stops at len(dst) values as the staged path's truncation to the
// sent bit count does.
func (l FeatureLink) receiveHard(rng *mat.RNG, dst, flat []float64, coded int, sigma, thr float64) {
	q := l.Quant
	levels := q.levels()
	span := q.Hi - q.Lo
	width := uint(q.Bits)
	mask := uint64(levels - 1)
	noise := hardNoise{rng: rng, remaining: coded}

	var tx, rx uint64 // bit accumulators, newest bit least significant
	var txBits, rxBits uint
	out := 0
	for i := 0; i <= len(flat); i++ {
		if i < len(flat) {
			tx = tx<<width | uint64(q.index(flat[i], levels, span))
			txBits += width
		} else if txBits > 0 {
			tx <<= 4 - txBits
			txBits = 4
		}
		for txBits >= 4 {
			txBits -= 4
			u, s := noise.next()
			rx = rx<<4 | uint64(crossNibble(uint8(tx>>txBits&15), u, s, sigma, thr))
			rxBits += 4
			for rxBits >= width && out < len(dst) {
				rxBits -= width
				dst[out] = q.value(int(rx>>rxBits&mask), levels, span)
				out++
			}
		}
	}
}
