package experiments

import (
	"repro/internal/channel"
	"repro/internal/mat"
)

// E10Options parameterizes the multimodal (continuous vector stream)
// experiment from §III-B: semantic compression of avatar pose data.
type E10Options struct {
	// PoseDim is the observable pose dimensionality (default 12).
	PoseDim int
	// LatentDim is the true generative latent width (default 4).
	LatentDim int
	// FeatureDim is the semantic bottleneck (default 5).
	FeatureDim int
	// Frames measured per transport (default 300).
	Frames int
	// SNRdB is the channel operating point (default 6).
	SNRdB float64
	// Seed (default 1).
	Seed uint64
}

func (o E10Options) withDefaults() E10Options {
	if o.PoseDim == 0 {
		o.PoseDim = 12
	}
	if o.LatentDim == 0 {
		o.LatentDim = 4
	}
	if o.FeatureDim == 0 {
		o.FeatureDim = 5
	}
	if o.Frames == 0 {
		o.Frames = 300
	}
	if o.SNRdB == 0 {
		o.SNRdB = 6
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// E10Row is one transport's outcome.
type E10Row struct {
	Transport    string
	NMSE         float64
	BytesPerPose float64
}

// E10Result compares pose-stream transports.
type E10Result struct {
	Rows []E10Row
}

// genPoses synthesizes correlated pose vectors from a low-dimensional
// latent, normalized to roughly unit scale.
func genPoses(rng *mat.RNG, n, dim, latent int) [][]float64 {
	mix := mat.NewDense(dim, latent)
	mix.Randomize(rng, 0.6)
	out := make([][]float64, n)
	z := make([]float64, latent)
	for i := range out {
		for j := range z {
			z[j] = rng.NormFloat64()
		}
		x := make([]float64, dim)
		mat.MulMatT(rowOf(x), rowOf(z), mix)
		for j := range x {
			x[j] += 0.02 * rng.NormFloat64()
		}
		out[i] = x
	}
	return out
}

// RunE10 trains a vector semantic codec on synthetic avatar-pose streams
// and compares it against raw scalar quantization of every dimension over
// the same channel: semantic compression exploits the pose manifold, raw
// quantization cannot.
func RunE10(env *Env, opts E10Options) (*E10Result, error) {
	opts = opts.withDefaults()
	rng := mat.NewRNG(opts.Seed)
	all := genPoses(rng.Split(), 800+opts.Frames, opts.PoseDim, opts.LatentDim)
	train, test := all[:800], all[800:]

	vc := NewVectorCodec(rng.Split(), opts.PoseDim, opts.FeatureDim)
	if _, err := vc.Train(train, 60, 0.02, 0.05, rng.Split()); err != nil {
		return nil, err
	}

	res := &E10Result{}
	// Pose values exceed [-1,1]; raw transports quantize over [-4,4].
	rawRange := 4.0

	// score sends every test pose across its own Hamming(7,4) / BPSK / AWGN
	// link quantizing with q — carry puts one pose on the link and returns
	// what the receiver restores — and appends the transport's row.
	score := func(name string, q channel.Quantizer, carry func(link channel.FeatureLink, x []float64) ([]float64, channel.LinkStats)) {
		link := channel.DefaultFeatureLink(&channel.AWGN{SNRdB: opts.SNRdB, Rng: rng.Split()})
		link.Quant = q
		num, den, bytes := 0.0, 0.0, 0.0
		for _, x := range test {
			out, stats := carry(link, x)
			for i := range x {
				dd := out[i] - x[i]
				num += dd * dd
				den += x[i] * x[i]
			}
			bytes += float64(stats.PayloadBytes())
		}
		res.Rows = append(res.Rows, E10Row{
			Transport:    name,
			NMSE:         num / den,
			BytesPerPose: bytes / float64(len(test)),
		})
	}

	// Transport 1: semantic features at 6 bits each.
	feat := make([]float64, opts.FeatureDim)
	rxFeat := make([]float64, opts.FeatureDim)
	pose := make([]float64, opts.PoseDim)
	score("semantic (vector codec, 5x6b)", channel.Quantizer{Bits: 6, Lo: -1, Hi: 1},
		func(link channel.FeatureLink, x []float64) ([]float64, channel.LinkStats) {
			vc.Encode(feat, x)
			stats := link.SendFlatScratch(nil, rxFeat, feat)
			vc.Decode(pose, rxFeat)
			return pose, stats
		})

	// Transports 2-3: raw per-dimension quantization, once at an equal
	// byte budget (3 bits/dim ~ the semantic payload) and once at 6
	// bits/dim (2.4x the bytes) to show what raw transport must pay to
	// beat the semantic codec on quality.
	raw := func(link channel.FeatureLink, x []float64) ([]float64, channel.LinkStats) {
		return pose, link.SendFlatScratch(nil, pose, x)
	}
	score("raw quantized (12x3b, equal bytes)", channel.Quantizer{Bits: 3, Lo: -rawRange, Hi: rawRange}, raw)
	score("raw quantized (12x6b, 2.4x bytes)", channel.Quantizer{Bits: 6, Lo: -rawRange, Hi: rawRange}, raw)
	return res, nil
}

// TableF renders the multimodal comparison.
func (r *E10Result) TableF() *table {
	t := newTable("Table F (extension): avatar pose streams — semantic vs raw transport (6 dB AWGN)",
		"transport", "nmse", "bytes_per_pose")
	for _, row := range r.Rows {
		t.addRow(row.Transport, fixed(row.NMSE, 4), fixed(row.BytesPerPose, 1))
	}
	return t
}
