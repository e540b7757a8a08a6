// Package channel simulates the physical layer of the semantic
// communication workflow: feature quantization, the Hamming(7,4) channel
// code, BPSK modulation and the AWGN channel, each stage one append-style
// call, and the fused hard-decision crossing of the one link every daemon
// builds. The experiments' other codes and channels (and their traditional
// bit-oriented pipeline) plug into the same Code, Modulation and Channel
// interfaces, so comparisons see identical channel conditions.
package channel

// LinkStats reports the transport cost of one transmission.
type LinkStats struct {
	// InfoBits is the payload size before channel coding.
	InfoBits int
	// CodedBits is the size after channel coding.
	CodedBits int
	// Symbols is the number of channel symbols sent.
	Symbols int
}

// PayloadBytes returns the information payload rounded up to whole bytes —
// the figure the experiments report as "bytes per message".
func (s LinkStats) PayloadBytes() int { return (s.InfoBits + 7) / 8 }

// FeatureLink carries semantic feature vectors across the physical layer:
// quantize, channel-encode, modulate, transmit, and reverse. It is the
// digital feature transport used by the semantic pipeline.
type FeatureLink struct {
	Quant Quantizer
	Code  Code
	Mod   Modulation
	Ch    Channel
}

// DefaultFeatureLink builds the standard configuration used by the
// experiments and every daemon: DefaultQuantizer (3 bits per dimension),
// Hamming(7,4) and BPSK over ch.
func DefaultFeatureLink(ch Channel) FeatureLink {
	return FeatureLink{
		Quant: DefaultQuantizer(),
		Code:  Hamming74{},
		Mod:   BPSK{},
		Ch:    ch,
	}
}

// SendFlatScratch transmits a flat feature buffer (token-major, the Data
// layout of a feature matrix) and writes the received values into dst,
// which must have length len(flat); positions past the received stream are
// zeroed. Every intermediate (bit streams, symbol vectors) appends into
// the caller-owned ts, so a warm steady-state transmission allocates
// nothing. ts may be nil, which falls back to fresh buffers.
//
// A Hamming74 + BPSK + *AWGN link — what DefaultFeatureLink over AWGN and
// every daemon build — crosses through the fused kernel in hard.go
// instead, which needs no stage buffers and leaves ts untouched; every
// other link runs the stages below, which are also the reference the
// kernel is tested against. The choice is made from the link's own values
// and changes no output bit, LinkStats field or RNG state.
func (l FeatureLink) SendFlatScratch(ts *TxScratch, dst, flat []float64) LinkStats {
	if len(dst) != len(flat) {
		panic("channel: SendFlatScratch buffer length mismatch")
	}
	if ch, ok := l.hardLink(); ok {
		return l.sendHard(ch, dst, flat)
	}
	if ts == nil {
		ts = new(TxScratch)
	}
	ts.info = l.Quant.EncodeTo(ts.info[:0], flat)
	ts.coded = l.Code.EncodeTo(ts.coded[:0], ts.info)
	ts.symbols = l.Mod.ModulateTo(ts.symbols[:0], ts.coded)
	ts.received = l.Ch.TransmitTo(ts.received[:0], ts.symbols)
	codedRx := l.Mod.DemodulateTo(ts.codedRx[:0], ts.received)
	ts.codedRx = codedRx
	if len(codedRx) > len(ts.coded) {
		codedRx = codedRx[:len(ts.coded)]
	}
	infoRx := l.Code.DecodeTo(ts.infoRx[:0], codedRx)
	ts.infoRx = infoRx
	if len(infoRx) > len(ts.info) {
		infoRx = infoRx[:len(ts.info)]
	}
	n := l.Quant.DecodeInto(dst, infoRx)
	for i := n; i < len(dst); i++ {
		dst[i] = 0
	}
	return LinkStats{InfoBits: len(ts.info), CodedBits: len(ts.coded), Symbols: len(ts.symbols)}
}
