package experiments

import (
	"errors"
	"math"

	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/semantic"
)

// This file implements the federated-learning extension the paper points
// at via its FL reference and §III research directions: periodically
// aggregating many users' individual-model improvements back into the
// domain-general model (FedAvg), so new users cold-start from a model that
// already knows the population's rare vocabulary. The base system keeps
// general models immutable (§II-D); this is the explicit relaxation (E9
// and examples/federated).

// subFrom overwrites before, a copy taken before an update, with the
// update's delta after − before: each value b becomes a + (−1·b), a being
// after's value at the same place — the expression mat.AXPY(a, −1, b)
// evaluates on a copy of after, so the same bits (for every value but NaN,
// whose sign bit the compiler's −1· may flip) without that copy. It panics
// on shape mismatch.
func subFrom(before, after *nn.ParamSet) {
	if len(before.Params) != len(after.Params) {
		panic("experiments: subFrom param count mismatch")
	}
	for i, p := range before.Params {
		a := after.Params[i].M
		if a.Rows != p.M.Rows || a.Cols != p.M.Cols {
			panic("experiments: subFrom shape mismatch")
		}
		for j, b := range p.M.Data {
			p.M.Data[j] = a.Data[j] + -1*b
		}
	}
}

// codecDelta returns the full parameter delta after - before. The codecs
// must share shapes (clones of a common ancestor).
func codecDelta(after, before *semantic.Codec) *nn.ParamSet {
	delta := before.Params().Clone()
	subFrom(delta, after.Params())
	return delta
}

// errNoDeltas reports an aggregation call with no inputs.
var errNoDeltas = errors.New("experiments: no deltas to aggregate")

// applyAverageDelta applies the FedAvg aggregate (the element-wise mean of
// deltas) to codec's parameters in place.
func applyAverageDelta(codec *semantic.Codec, deltas []*nn.ParamSet) error {
	if len(deltas) == 0 {
		return errNoDeltas
	}
	target := codec.Params()
	factor := 1 / float64(len(deltas))
	for _, d := range deltas {
		if err := target.CheckSameShape(d); err != nil {
			return err
		}
	}
	for _, d := range deltas {
		for i, p := range target.Params {
			mat.AXPY(p.M.Data, factor, d.Params[i].M.Data)
		}
	}
	return nil
}

// DPConfig enables differentially private aggregation (the §III-C
// privacy direction): every donor delta is clipped to a global L2 norm
// and Gaussian noise proportional to that sensitivity is added before
// averaging, so no single user's update is identifiable in the aggregate.
type DPConfig struct {
	// ClipNorm bounds each donor delta's L2 norm; <= 0 disables DP.
	ClipNorm float64
	// NoiseMultiplier sets the noise standard deviation as a multiple of
	// ClipNorm (sigma = NoiseMultiplier * ClipNorm), applied per
	// aggregated coordinate after averaging.
	NoiseMultiplier float64
}

// Enabled reports whether DP processing is active.
func (c DPConfig) Enabled() bool { return c.ClipNorm > 0 }

// FederatedConfig parameterizes RunFederated.
type FederatedConfig struct {
	// Rounds of donor fine-tuning + aggregation (default 5).
	Rounds int
	// LocalEpochs per donor per round (default 2).
	LocalEpochs int
	// DP optionally makes the aggregation differentially private.
	DP DPConfig
	// Seed drives fine-tuning and DP noise (default 1).
	Seed uint64
}

func (c FederatedConfig) withDefaults() FederatedConfig {
	if c.Rounds == 0 {
		c.Rounds = 5
	}
	if c.LocalEpochs == 0 {
		c.LocalEpochs = 2
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// RunFederated improves a general codec by FedAvg over per-donor example
// sets: each round, every donor fine-tunes a clone of the current global
// model on its local data, and the mean delta is folded back. It returns
// the improved codec, leaving the input untouched.
func RunFederated(general *semantic.Codec, donorData [][]semantic.Example, cfg FederatedConfig) (*semantic.Codec, error) {
	if len(donorData) == 0 {
		return nil, errNoDeltas
	}
	cfg = cfg.withDefaults()
	global := general.Clone()
	noiseRNG := mat.NewRNG(cfg.Seed ^ 0xd9)
	for round := 0; round < cfg.Rounds; round++ {
		deltas := make([]*nn.ParamSet, 0, len(donorData))
		for di, examples := range donorData {
			if len(examples) == 0 {
				continue
			}
			local := global.Clone()
			seed := cfg.Seed + uint64(round*1009+di*31+1)
			local.FineTune(examples, cfg.LocalEpochs, mat.NewRNG(seed))
			delta := codecDelta(local, global)
			if cfg.DP.Enabled() {
				clipToNorm(delta, cfg.DP.ClipNorm)
			}
			deltas = append(deltas, delta)
		}
		if err := applyAverageDelta(global, deltas); err != nil {
			return nil, err
		}
		if cfg.DP.Enabled() && cfg.DP.NoiseMultiplier > 0 {
			// Gaussian mechanism: per-coordinate noise scaled to the
			// clipped per-donor sensitivity divided by the donor count.
			sigma := cfg.DP.NoiseMultiplier * cfg.DP.ClipNorm / float64(len(deltas))
			addGaussianNoise(global.Params(), sigma, noiseRNG)
		}
	}
	return global, nil
}

// clipToNorm rescales ps so its global L2 norm is at most clip.
func clipToNorm(ps *nn.ParamSet, clip float64) {
	sq := 0.0
	for _, p := range ps.Params {
		for _, v := range p.M.Data {
			sq += v * v
		}
	}
	norm := math.Sqrt(sq)
	if norm <= clip || norm == 0 {
		return
	}
	scale := clip / norm
	for _, p := range ps.Params {
		mat.Scale(p.M.Data, scale)
	}
}

// addGaussianNoise perturbs every parameter coordinate with N(0, sigma^2).
func addGaussianNoise(ps *nn.ParamSet, sigma float64, rng *mat.RNG) {
	if sigma <= 0 {
		return
	}
	for _, p := range ps.Params {
		for i := range p.M.Data {
			p.M.Data[i] += sigma * rng.NormFloat64()
		}
	}
}
