package semantic

import (
	"repro/internal/corpus"
	"repro/internal/mat"
)

// ConceptAccuracy returns the fraction of positions where got matches want
// exactly. Sequences of different lengths are compared over the shorter
// prefix with missing positions counted as errors.
func ConceptAccuracy(got, want []int) float64 {
	if len(want) == 0 {
		return 0
	}
	n := len(want)
	correct := 0
	for i := 0; i < n && i < len(got); i++ {
		if got[i] == want[i] {
			correct++
		}
	}
	return float64(correct) / float64(n)
}

// Similarity measures graded semantic similarity between a decoded concept
// sequence and the ground truth, in [0,1]. Exact concept matches score 1;
// mismatches score the embedding-cosine similarity (mapped from [-1,1] to
// [0,1]) between the canonical surfaces of the two concepts under the
// reference codec. This rewards decoding errors that land on semantically
// close meanings — the graceful-degradation property that motivates
// semantic communication.
func Similarity(ref *Codec, got, want []int) float64 {
	if len(want) == 0 {
		return 0
	}
	d := ref.domain
	total := 0.0
	for i := range want {
		if i < len(got) && got[i] == want[i] {
			total += 1
			continue
		}
		if i >= len(got) {
			continue
		}
		a := embOfConcept(ref, d, got[i])
		b := embOfConcept(ref, d, want[i])
		if a == nil || b == nil {
			continue
		}
		cos := mat.Cosine(a, b)
		total += (cos + 1) / 2 * 0.8 // cap partial credit below exact match
	}
	return total / float64(len(want))
}

// embOfConcept returns the reference embedding of a concept's canonical
// surface, or nil for invalid concepts.
func embOfConcept(ref *Codec, d *corpus.Domain, ci int) []float64 {
	if ci < 0 || ci >= d.NumConcepts() {
		return nil
	}
	sid := d.SurfaceID(d.Canonical(ci))
	return ref.emb.Lookup(sid)
}

// WordAccuracy compares restored words against reference words
// position-wise (exact string match), over the reference length.
func WordAccuracy(got, want []string) float64 {
	if len(want) == 0 {
		return 0
	}
	correct := 0
	for i := range want {
		if i < len(got) && got[i] == want[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(want))
}
