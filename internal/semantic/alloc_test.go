package semantic

import (
	"testing"

	"repro/internal/mat"
)

// TestCodecSteadyStateZeroAllocs pins the warm codec hot path at zero heap
// allocations: encode, batched decode (a whole batch in one matrix), and
// the decoder-copy round trip, all against one reused scratch arena — for
// a short message and for a 96-token one, the long_msg workload's shape.
// Any regression that reintroduces per-token or per-call buffers, or a
// kernel that fans a long message out over goroutines, fails here. The
// race detector instruments allocations, so the budget only holds in
// non-race builds.
func TestCodecSteadyStateZeroAllocs(t *testing.T) {
	if mat.RaceEnabled {
		t.Skip("allocation accounting differs under -race")
	}
	corp, codec := sharedFixtures(t)
	msgs := batchMessages(corp, 8)
	words := msgs[0]

	sc := mat.GetScratch()
	defer mat.PutScratch(sc)
	concepts := make([]int, len(words))

	// The per-message codec path exactly as TransmitText drives it: batched
	// encode, batched decode of the received features, and the decoder-copy
	// round trip reusing the encoded features.
	var long []string
	for _, m := range msgs {
		long = append(long, m...)
	}
	long = long[:96]
	longConcepts := make([]int, len(long))
	for _, tc := range []struct {
		name     string
		words    []string
		concepts []int
	}{{"short", words, concepts}, {"long", long, longConcepts}} {
		message := func() {
			sc.Reset()
			feats := codec.EncodeWordsInto(sc, tc.words)
			codec.DecodeFeaturesInto(sc, feats, tc.concepts)
			codec.DecodeFeaturesInto(sc, feats, tc.concepts)
		}
		message() // warm the arena to its high-water mark
		if allocs := testing.AllocsPerRun(100, message); allocs != 0 {
			t.Fatalf("steady-state encode/decode of a %d-token message allocates %v times per message, want 0",
				len(tc.words), allocs)
		}
	}

	// The batched decode path: every token of a whole message batch packed
	// into one matrix, decoded in place.
	total := 0
	for _, m := range msgs {
		total += len(m)
	}
	batchConcepts := make([]int, total)
	batch := func() {
		sc.Reset()
		d := sc.Mat(total, codec.FeatureDim())
		row := 0
		for _, m := range msgs {
			copy(d.Data[row*codec.FeatureDim():], codec.EncodeWordsInto(sc, m).Data)
			row += len(m)
		}
		codec.DecodeFeaturesInto(sc, d, batchConcepts)
	}
	batch()
	if allocs := testing.AllocsPerRun(100, batch); allocs != 0 {
		t.Fatalf("steady-state batched decode allocates %v times per batch, want 0", allocs)
	}

	// RoundTripInto is the scratch-arena variant RecordTransaction uses on
	// the decoder-copy path.
	roundTrip := func() {
		sc.Reset()
		codec.RoundTripInto(sc, words, concepts)
	}
	roundTrip()
	if allocs := testing.AllocsPerRun(100, roundTrip); allocs != 0 {
		t.Fatalf("steady-state round trip allocates %v times per message, want 0", allocs)
	}
}
