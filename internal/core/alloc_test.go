package core

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/mat"
)

// allocSystem builds a warm pinned system with automatic updates off, so
// repeated transmits stay on the steady-state path. perUser selects the
// pooled lock-free PerUserNoise channel stage over the shared link.
func allocSystem(t *testing.T, perUser bool) *System {
	t.Helper()
	cfg := goldenConfig()
	cfg.DisableAutoUpdate = true
	cfg.PerUserNoise = perUser
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Sender.Prefetch(s.Corpus.Names()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Receiver.Prefetch(s.Corpus.Names()); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestTransmitCodecPathZeroAllocs pins the steady-state Transmit codec
// path — batched encode on the sender edge, the physical channel, batched
// decode on the receiver edge, and the decoder-copy mismatch decode — at
// zero heap allocations per message. This is exactly the per-message
// compute transmitSelected performs, crossing the channel through
// sendOverChannel so both schemes are covered: the classic serialized
// link AND the pooled lock-free PerUserNoise stage, whose steady-state
// pool checkout must not allocate. What remains outside are the retained
// artifacts (Result, transaction buffers, restored words), which hold
// amortized state by design.
func TestTransmitCodecPathZeroAllocs(t *testing.T) {
	if mat.RaceEnabled {
		t.Skip("allocation accounting differs under -race")
	}
	for _, noise := range []struct {
		name    string
		perUser bool
	}{{"shared", false}, {"pooled", true}} {
		t.Run(noise.name, func(t *testing.T) {
			s := allocSystem(t, noise.perUser)
			words := corpus.NewGenerator(s.Corpus, mat.NewRNG(5)).Message(s.Corpus.Domain("it").Index, nil).Words
			const domain, user = "it", "alloc-user"

			prev := mat.Parallelism()
			defer mat.SetParallelism(prev)
			mat.SetParallelism(1) // sharding spawns goroutines, which allocate

			sc := mat.GetScratch()
			defer mat.PutScratch(sc)
			mismatch := make([]int, len(words))

			var seq uint64
			codecPath := func() {
				sc.Reset()
				enc, err := s.Sender.Encode(sc, domain, user, words)
				if err != nil {
					t.Fatal(err)
				}
				rx := sc.Mat(enc.Features.Rows, enc.Model.Codec.FeatureDim())
				// The channel crossing transmitSelected performs: a derived
				// per-message seed in PerUserNoise mode (advancing like the
				// user's stream would), ignored by the classic shared link.
				seed := noiseSeed(s.cfg.Seed, 12345, seq)
				seq++
				s.sendOverChannel(seed, rx.Data, enc.Features.Data)
				if _, err := s.Receiver.DecodeConcepts(sc, domain, user, rx); err != nil {
					t.Fatal(err)
				}
				// Decoder-copy mismatch: reuses the already-encoded features,
				// as RecordTransaction does inside Transmit.
				enc.Model.Codec.DecodeFeaturesInto(sc, enc.Features, mismatch)
			}
			for i := 0; i < 8; i++ {
				codecPath() // warm every arena and channel buffer to its high-water mark
			}
			if allocs := testing.AllocsPerRun(100, codecPath); allocs != 0 {
				t.Fatalf("steady-state Transmit codec path (%s) allocates %v times per message, want 0", noise.name, allocs)
			}
		})
	}
}

// TestTransmitAllocBudget bounds the WHOLE steady-state TransmitText,
// including the retained artifacts the codec path excludes. The count is
// three — the Result, the restored words, and the one backing array of the
// buffered transaction — and the budget is that plus two: a fourth retained
// artifact is a decision, and anything per message or per token that creeps
// back in (the selector's temporaries, a concatenated buffer key, a slice
// per transaction field) fails here.
func TestTransmitAllocBudget(t *testing.T) {
	if mat.RaceEnabled {
		t.Skip("allocation accounting differs under -race")
	}
	s := allocSystem(t, false)
	words := corpus.NewGenerator(s.Corpus, mat.NewRNG(6)).Message(s.Corpus.Domain("it").Index, nil).Words

	prev := mat.Parallelism()
	defer mat.SetParallelism(prev)
	mat.SetParallelism(1)

	transmit := func() {
		if _, err := s.TransmitText("budget-user", words); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 32; i++ {
		transmit()
	}
	const budget = 5
	if allocs := testing.AllocsPerRun(50, transmit); allocs > budget {
		t.Fatalf("steady-state TransmitText allocates %v times per message, budget %d", allocs, budget)
	}
}
