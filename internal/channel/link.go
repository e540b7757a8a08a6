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
// experiments: 6-bit quantization, Hamming(7,4) and BPSK over ch.
func DefaultFeatureLink(ch Channel) FeatureLink {
	return FeatureLink{
		Quant: DefaultQuantizer(),
		Code:  Hamming74{},
		Mod:   BPSK{},
		Ch:    ch,
	}
}

// SendFlat transmits a flat feature buffer (token-major, the Data layout
// of a feature matrix) and writes the received values into dst, which must
// have length len(flat); positions past the received stream are zeroed. It
// is bit-identical to Send on the same values but lets callers reuse one
// receive buffer across transmissions instead of allocating per-token
// vectors.
func (l FeatureLink) SendFlat(dst, flat []float64) LinkStats {
	return l.SendFlatScratch(nil, dst, flat)
}

// SendFlatScratch is SendFlat with caller-owned stage buffers: every
// intermediate (bit streams, symbol vectors) appends into ts, so a warm
// steady-state transmission allocates nothing when the configured code,
// modulation and channel implement the fast-path interfaces (all stock
// implementations do). ts may be nil, which falls back to fresh buffers.
// Results are bit-identical to Send/SendFlat.
//
// A Hamming74 + BPSK + *AWGN link — what DefaultFeatureLink over AWGN and
// every daemon build — crosses through the fused kernel in hard.go
// instead, which needs no stage buffers and leaves ts untouched; every
// other link runs the stages below, which are also the reference the
// kernel is tested against. The choice is made from the link's own values
// and changes no output bit, LinkStats field or RNG state.
func (l FeatureLink) SendFlatScratch(ts *TxScratch, dst, flat []float64) LinkStats {
	if len(dst) != len(flat) {
		panic("channel: SendFlat buffer length mismatch")
	}
	if ch, ok := l.hardLink(); ok {
		return l.sendHard(ch, dst, flat)
	}
	if ts == nil {
		ts = new(TxScratch)
	}
	ts.info = l.Quant.EncodeTo(ts.info[:0], flat)
	ts.coded = codeEncode(l.Code, ts.coded[:0], ts.info)
	ts.symbols = modulate(l.Mod, ts.symbols[:0], ts.coded)
	ts.received = transmit(l.Ch, ts.received[:0], ts.symbols)
	codedRx := demodulate(l.Mod, ts.codedRx[:0], ts.received)
	ts.codedRx = codedRx
	if len(codedRx) > len(ts.coded) {
		codedRx = codedRx[:len(ts.coded)]
	}
	infoRx := codeDecode(l.Code, ts.infoRx[:0], codedRx)
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

// Send transmits per-token feature vectors and returns the received
// feature vectors together with transport statistics. The feature
// dimensionality dim must match every vector.
func (l FeatureLink) Send(feats [][]float64, dim int) ([][]float64, LinkStats) {
	flat := make([]float64, 0, len(feats)*dim)
	for _, f := range feats {
		flat = append(flat, f...)
	}
	rx := make([]float64, len(flat))
	stats := l.SendFlat(rx, flat)
	out := make([][]float64, len(feats))
	for i := range out {
		v := make([]float64, dim)
		copy(v, rx[min(len(rx), i*dim):min(len(rx), (i+1)*dim)])
		out[i] = v
	}
	return out, stats
}

// AnalogLink transmits features directly as symbol amplitudes (two feature
// dimensions per complex symbol) with no quantization or coding — the
// DeepSC-style analog transport used as an ablation.
type AnalogLink struct {
	Ch Channel
}

// Send transmits feature vectors in analog form. Payload accounting
// charges the equivalent of one 6-bit code per dimension so analog and
// digital rows are comparable in the ablation tables.
func (l AnalogLink) Send(feats [][]float64, dim int) ([][]float64, LinkStats) {
	flat := make([]float64, 0, len(feats)*dim)
	for _, f := range feats {
		flat = append(flat, f...)
	}
	n := (len(flat) + 1) / 2
	symbols := make([]complex128, n)
	for i := 0; i < n; i++ {
		re := flat[2*i]
		im := 0.0
		if 2*i+1 < len(flat) {
			im = flat[2*i+1]
		}
		symbols[i] = complex(re, im)
	}
	received := l.Ch.Transmit(symbols)
	values := make([]float64, len(flat))
	for i := 0; i < n; i++ {
		values[2*i] = real(received[i])
		if 2*i+1 < len(flat) {
			values[2*i+1] = imag(received[i])
		}
	}
	out := make([][]float64, len(feats))
	for i := range out {
		v := make([]float64, dim)
		copy(v, values[i*dim:min(len(values), (i+1)*dim)])
		out[i] = v
	}
	bits := 6 * len(flat)
	return out, LinkStats{InfoBits: bits, CodedBits: bits, Symbols: n}
}

// AdaptiveCode selects a channel code from the estimated channel SNR — a
// small instance of the paper's §III-C communication-optimization
// direction: spend redundancy only when the channel needs it.
//
//	SNR >= GoodSNRdB        -> no coding (rate 1)
//	SNR >= FairSNRdB        -> Hamming(7,4)
//	otherwise               -> Hamming(7,4) + repetition(3)
type AdaptiveCode struct {
	// GoodSNRdB and FairSNRdB are the selection thresholds; zero values
	// select 10 dB and 2 dB.
	GoodSNRdB float64
	FairSNRdB float64
}

// ForSNR returns the code chosen for the given channel estimate.
func (a AdaptiveCode) ForSNR(snrDB float64) Code {
	good, fair := a.GoodSNRdB, a.FairSNRdB
	if good == 0 {
		good = 10
	}
	if fair == 0 {
		fair = 2
	}
	switch {
	case snrDB >= good:
		return Identity{}
	case snrDB >= fair:
		return Hamming74{}
	default:
		return concatCode{outer: Repetition{N: 3}, inner: Hamming74{}}
	}
}

// concatCode concatenates two codes: information bits pass through the
// inner code, then the outer code protects the inner codeword.
type concatCode struct {
	outer, inner Code
}

var _ Code = concatCode{}

// Name implements Code.
func (c concatCode) Name() string { return c.inner.Name() + "+" + c.outer.Name() }

// Rate implements Code.
func (c concatCode) Rate() float64 { return c.inner.Rate() * c.outer.Rate() }

// Encode implements Code.
func (c concatCode) Encode(bits []bool) []bool {
	return c.outer.Encode(c.inner.Encode(bits))
}

// Decode implements Code.
func (c concatCode) Decode(coded []bool) []bool {
	return c.inner.Decode(c.outer.Decode(coded))
}
