package semantic

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/corpus"
	"repro/internal/mat"
)

func TestConceptAccuracy(t *testing.T) {
	tests := []struct {
		name      string
		got, want []int
		expect    float64
	}{
		{"perfect", []int{1, 2, 3}, []int{1, 2, 3}, 1},
		{"none", []int{9, 9, 9}, []int{1, 2, 3}, 0},
		{"half", []int{1, 9}, []int{1, 2}, 0.5},
		{"short candidate", []int{1}, []int{1, 2}, 0.5},
		{"long candidate", []int{1, 2, 3, 4}, []int{1, 2}, 1},
		{"empty reference", []int{1}, nil, 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := ConceptAccuracy(tc.got, tc.want); got != tc.expect {
				t.Fatalf("ConceptAccuracy = %v, want %v", got, tc.expect)
			}
		})
	}
}

func TestWordAccuracy(t *testing.T) {
	if got := WordAccuracy([]string{"a", "b"}, []string{"a", "c"}); got != 0.5 {
		t.Fatalf("WordAccuracy = %v", got)
	}
	if got := WordAccuracy(nil, nil); got != 0 {
		t.Fatalf("WordAccuracy empty = %v", got)
	}
}

func TestSimilarityBounds(t *testing.T) {
	_, c := sharedFixtures(t)
	d := c.Domain()
	content := d.ContentConcepts()
	want := content[:4]
	// Identical sequences score exactly 1.
	if got := Similarity(c, want, want); got != 1 {
		t.Fatalf("Similarity identical = %v", got)
	}
	// Mismatches score strictly below exact matches but may earn partial
	// credit in [0, 0.9].
	got := Similarity(c, []int{content[5], content[6], content[7], content[8]}, want)
	if got < 0 || got >= 1 {
		t.Fatalf("Similarity mismatch = %v, want in [0,1)", got)
	}
	if Similarity(c, nil, nil) != 0 {
		t.Fatal("Similarity empty = nonzero")
	}
}

func TestSimilarityRewardsExactOverMismatch(t *testing.T) {
	_, c := sharedFixtures(t)
	d := c.Domain()
	content := d.ContentConcepts()
	want := content[:6]
	exact := Similarity(c, want, want)
	oneOff := append([]int{}, want...)
	oneOff[0] = content[10]
	partial := Similarity(c, oneOff, want)
	if partial >= exact {
		t.Fatalf("one mismatch (%v) should score below exact (%v)", partial, exact)
	}
}

func TestSimilarityHandlesInvalidConcepts(t *testing.T) {
	_, c := sharedFixtures(t)
	got := Similarity(c, []int{-1, 99999}, []int{1, 2})
	if got < 0 || got > 1 || math.IsNaN(got) {
		t.Fatalf("Similarity with invalid concepts = %v", got)
	}
}

// Property: ConceptAccuracy is within [0,1] and equals 1 iff sequences
// agree on the reference prefix.
func TestConceptAccuracyQuick(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		rng := mat.NewRNG(seed)
		ln := int(n%10) + 1
		want := make([]int, ln)
		got := make([]int, ln)
		allMatch := true
		for i := range want {
			want[i] = rng.Intn(5)
			got[i] = rng.Intn(5)
			if got[i] != want[i] {
				allMatch = false
			}
		}
		acc := ConceptAccuracy(got, want)
		if acc < 0 || acc > 1 {
			return false
		}
		return (acc == 1) == allMatch
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestExamplesFromMessage(t *testing.T) {
	corp := corpus.Build()
	d := corp.Domain("sports")
	gen := corpus.NewGenerator(corp, mat.NewRNG(3))
	m := gen.Message(d.Index, nil)
	exs := ExamplesFromMessage(d, m)
	if len(exs) != len(m.Words) {
		t.Fatalf("examples = %d, words = %d", len(exs), len(m.Words))
	}
	for i, ex := range exs {
		if ex.SurfaceID != d.SurfaceID(m.Words[i]) {
			t.Fatal("surface ID mismatch")
		}
		if ex.ConceptID != m.ConceptIDs[i] {
			t.Fatal("concept ID mismatch")
		}
	}
}
