// Metaverse: a multi-user session across two edge servers, the scenario
// that motivates the paper. Avatars chat across domains (gaming voice
// chat, entertainment streams, IT support) while the edges cache
// domain-general models, spin up user-specific individual models, and
// synchronize decoder updates — all over a noisy 8 dB radio channel.
//
// Run with: go run ./examples/metaverse
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mat"
	"repro/internal/trace"
)

func main() {
	fmt.Println("== Metaverse session over semantic 6G edges ==")
	fmt.Println("booting edges and pretraining knowledge bases...")
	sys, err := core.NewSystem(core.Config{
		Selector:        core.SelectorSticky,
		SNRdB:           8,
		PinGeneral:      true,
		BufferThreshold: 24,
		Seed:            7,
	})
	if err != nil {
		log.Fatalf("metaverse: %v", err)
	}

	// Six avatars with personal speech styles, topics drifting between
	// gaming, entertainment and IT — a plausible Metaverse mix.
	w := trace.Generate(sys.Corpus, trace.Config{
		Users:            6,
		Messages:         600,
		MeanRunLength:    10,
		IdiolectStrength: 0.35,
		Seed:             7,
	})
	fmt.Printf("running %d messages from %d avatars...\n\n", len(w.Requests), len(w.Users))

	results, err := experiments.RunTrace(sys, w)
	if err != nil {
		log.Fatalf("metaverse: %v", err)
	}

	// Show a short transcript excerpt.
	fmt.Println("transcript excerpt (message 200 onward):")
	for _, r := range results[200:205] {
		fmt.Printf("  [%s -> %s] %q\n", r.Req.User,
			sys.Corpus.Domains[r.SelectedDomain].Name, r.Req.Msg.Text())
		fmt.Printf("      restored as %q (similarity %.2f)\n",
			joinWords(r.RestoredWords), r.Similarity)
	}

	// Session-level report.
	sum, err := experiments.Summarize(results)
	if err != nil {
		log.Fatalf("metaverse: %v", err)
	}
	fmt.Println("\nsession report:")
	fmt.Printf("  semantic similarity : %.3f mean\n", sum.MeanSimilarity)
	fmt.Printf("  selection accuracy  : %.3f\n", sum.SelectionAccuracy)
	fmt.Printf("  payload             : %.1f B/message\n", sum.MeanPayloadBytes)
	fmt.Printf("  latency             : %.2f ms mean, %.2f ms p95\n",
		ms(sum.MeanLatency), ms(sum.P95Latency))
	fmt.Printf("  individual models   : used on %.0f%% of messages\n", 100*sum.IndividualShare)
	fmt.Printf("  decoder updates     : %d shipped, %d bytes total\n",
		sys.SyncCount(), sys.SyncBytes())
	st := sys.Sender.CacheStats()
	fmt.Printf("  sender cache        : %.1f%% hit rate, %d models resident\n",
		100*st.HitRate(), sys.Sender.Cache().Len())

	// Personalization effect: first versus last 100 messages.
	var early, late float64
	for i := 0; i < 100; i++ {
		early += results[i].Mismatch
		late += results[len(results)-100+i].Mismatch
	}
	fmt.Printf("  semantic mismatch   : %.3f (first 100) -> %.3f (last 100) as avatars personalize\n",
		early/100, late/100)

	streamPoses()
}

// streamPoses demonstrates the §III-B multimodal extension: avatar pose
// vectors (12 dims driven by a 4-dim body model) ride the same physical
// layer through a trained vector semantic codec.
func streamPoses() {
	fmt.Println("\navatar pose streaming (multimodal semantic codec):")
	rng := mat.NewRNG(99)
	mix := mat.NewDense(12, 4)
	mix.Randomize(rng.Split(), 0.6)
	samplePose := func(dst []float64) {
		z := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		mat.MulMatT(&mat.Dense{Rows: 1, Cols: len(dst), Data: dst}, &mat.Dense{Rows: 1, Cols: len(z), Data: z}, mix)
	}
	train := make([][]float64, 600)
	for i := range train {
		train[i] = make([]float64, 12)
		samplePose(train[i])
	}
	vc := experiments.NewVectorCodec(rng.Split(), 12, 5)
	if _, err := vc.Train(train, 40, 0.02, 0.05, rng.Split()); err != nil {
		log.Fatalf("metaverse: pose codec: %v", err)
	}
	link := channel.FeatureLink{
		Quant: channel.Quantizer{Bits: 6, Lo: -1, Hi: 1},
		Code:  channel.Hamming74{},
		Mod:   channel.BPSK{},
		Ch:    &channel.AWGN{SNRdB: 8, Rng: rng.Split()},
	}
	feat := make([]float64, 5)
	rx := make([]float64, 5)
	out := make([]float64, 12)
	num, den, bytes := 0.0, 0.0, 0
	const frames = 200
	for i := 0; i < frames; i++ {
		x := make([]float64, 12)
		samplePose(x)
		vc.Encode(feat, x)
		stats := link.SendFlatScratch(nil, rx, feat)
		vc.Decode(out, rx)
		for j := range x {
			d := out[j] - x[j]
			num += d * d
			den += x[j] * x[j]
		}
		bytes += stats.PayloadBytes()
	}
	fmt.Printf("  %d pose frames, %.1f B/frame (vs %d B raw float32), NMSE %.4f over an 8 dB channel\n",
		frames, float64(bytes)/frames, 12*4, num/den)
}

func joinWords(words []string) string {
	out := ""
	for i, w := range words {
		if i > 0 {
			out += " "
		}
		out += w
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
