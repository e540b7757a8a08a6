package core

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/mat"
)

// allocSystem builds a warm pinned system with automatic updates off, so
// repeated transmits stay on the steady-state path.
func allocSystem(t *testing.T) *System {
	t.Helper()
	cfg := goldenConfig()
	cfg.DisableAutoUpdate = true
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

// TestTransmitCodecPathZeroAllocs pins the steady-state TransmitText codec
// path — batched encode on the sender edge, the physical channel, batched
// decode on the receiver edge, and the decoder-copy mismatch decode — at
// zero heap allocations per message. This is exactly the per-message
// compute TransmitText performs, crossing the channel on the
// message's derived seed as every transmit does. What remains outside are
// the retained artifacts (Result, transaction buffers, restored words),
// which hold amortized state by design.
func TestTransmitCodecPathZeroAllocs(t *testing.T) {
	if mat.RaceEnabled {
		t.Skip("allocation accounting differs under -race")
	}
	s := allocSystem(t)
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
		// The channel crossing TransmitText performs, on a derived
		// per-message seed advancing like the user's stream would.
		seed := noiseSeed(s.cfg.Seed, 12345, seq)
		seq++
		s.link.Send(seed, rx.Data, enc.Features.Data)
		if _, err := s.Receiver.DecodeConcepts(sc, domain, user, rx); err != nil {
			t.Fatal(err)
		}
		// Decoder-copy mismatch: reuses the already-encoded features,
		// as RecordTransaction does inside TransmitText.
		enc.Model.Codec.DecodeFeaturesInto(sc, enc.Features, mismatch)
	}
	for i := 0; i < 8; i++ {
		codecPath() // warm every arena to its high-water mark
	}
	if allocs := testing.AllocsPerRun(100, codecPath); allocs != 0 {
		t.Fatalf("steady-state TransmitText codec path allocates %v times per message, want 0", allocs)
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
	s := allocSystem(t)
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
