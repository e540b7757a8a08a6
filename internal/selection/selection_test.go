package selection

import (
	"math"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/mat"
	"repro/internal/trace"
)

var (
	selOnce sync.Once
	selCorp *corpus.Corpus
	selNB   *NaiveBayes
)

func fixtures(t *testing.T) (*corpus.Corpus, *NaiveBayes) {
	t.Helper()
	selOnce.Do(func() {
		selCorp = corpus.Build()
		selNB = TrainNaiveBayes(selCorp, 120, 5)
	})
	return selCorp, selNB
}

// accuracy runs a selector family over a workload and returns the fraction
// of correct domain selections, feeding back a simple oracle reward
// (1 correct, 0 wrong) to learning selectors. Context is tracked per user.
func accuracy(corp *corpus.Corpus, factory func() Selector, seed uint64, n int) float64 {
	w := trace.Generate(corp, trace.Config{Users: 4, Messages: n, Seed: seed})
	return accuracyOn(w, factory)
}

// ambiguousAccuracy uses short, function-word-heavy messages: the regime
// where per-message classification is unreliable and context matters.
func ambiguousAccuracy(corp *corpus.Corpus, factory func() Selector, seed uint64, n int) float64 {
	w := trace.Generate(corp, trace.Config{
		Users: 4, Messages: n, Seed: seed,
		MinLen: 3, MaxLen: 5, FuncProb: 0.6,
	})
	return accuracyOn(w, factory)
}

func accuracyOn(w *trace.Workload, factory func() Selector) float64 {
	per := map[string]Selector{}
	correct := 0
	for _, r := range w.Requests {
		sel, ok := per[r.User]
		if !ok {
			sel = factory()
			per[r.User] = sel
		}
		got := sel.Select(r.Msg.Words)
		if got == r.Msg.DomainIndex {
			correct++
			sel.Feedback(1)
		} else {
			sel.Feedback(0)
		}
	}
	return float64(correct) / float64(len(w.Requests))
}

func TestNaiveBayesAccuracy(t *testing.T) {
	corp, nb := fixtures(t)
	acc := accuracy(corp, func() Selector { return nb }, 11, 600)
	if acc < 0.8 {
		t.Fatalf("naive Bayes accuracy = %v, want >= 0.8", acc)
	}
}

func TestNaiveBayesObviousMessages(t *testing.T) {
	corp, nb := fixtures(t)
	cases := []struct {
		words  []string
		domain string
	}{
		{[]string{"the", "server", "has", "a", "kernel", "bug"}, "it"},
		{[]string{"the", "doctor", "and", "the", "nurse", "are", "in", "surgery"}, "medical"},
		{[]string{"the", "team", "has", "a", "goal", "in", "the", "league"}, "sports"},
		{[]string{"the", "market", "and", "shares", "are", "in", "recession"}, "finance"},
	}
	for _, tc := range cases {
		got := nb.Select(tc.words)
		if corp.Domains[got].Name != tc.domain {
			t.Errorf("Select(%v) = %s, want %s", tc.words, corp.Domains[got].Name, tc.domain)
		}
	}
}

func TestStickyBeatsNaiveBayesOnAmbiguousRunningTopics(t *testing.T) {
	corp, nb := fixtures(t)
	nbAcc := ambiguousAccuracy(corp, func() Selector { return nb }, 17, 1500)
	stickyAcc := ambiguousAccuracy(corp, func() Selector { return NewSticky(nb, 0) }, 17, 1500)
	if nbAcc > 0.97 {
		t.Fatalf("ambiguous workload too easy for NB: %v", nbAcc)
	}
	if stickyAcc <= nbAcc {
		t.Fatalf("context-aware sticky (%v) should beat per-message NB (%v) under topic runs",
			stickyAcc, nbAcc)
	}
}

// TestStickyResetClearsContext: importing a nil belief — what a handover
// of a user with no context carries — clears the topic memory.
func TestStickyResetClearsContext(t *testing.T) {
	_, nb := fixtures(t)
	s := NewSticky(nb, 0.9)
	s.Select([]string{"the", "server", "kernel"})
	s.ImportBelief(nil)
	if s.belief != nil || s.ExportBelief() != nil {
		t.Fatal("ImportBelief(nil) did not clear belief state")
	}
}

// mapNaiveBayes is the classifier as it was before the dense matrix: one
// word -> log-likelihood map per domain, probed once per (domain, word).
// It stays here as the reference the matrix must reproduce bit for bit.
type mapNaiveBayes struct {
	logPrior, logUnseen []float64
	logLik              []map[string]float64
}

func trainMapNaiveBayes(corp *corpus.Corpus, sentencesPerDomain int, seed uint64) *mapNaiveBayes {
	gen := corpus.NewGenerator(corp, mat.NewRNG(seed))
	n := len(corp.Domains)
	nb := &mapNaiveBayes{logPrior: make([]float64, n), logUnseen: make([]float64, n), logLik: make([]map[string]float64, n)}
	vocab := map[string]struct{}{}
	counts := make([]map[string]int, n)
	totals := make([]int, n)
	for di := range corp.Domains {
		counts[di] = map[string]int{}
		for _, m := range gen.Batch(di, sentencesPerDomain, nil) {
			for _, w := range m.Words {
				counts[di][w]++
				totals[di]++
				vocab[w] = struct{}{}
			}
		}
	}
	v := float64(len(vocab))
	for di := range corp.Domains {
		nb.logPrior[di] = math.Log(1 / float64(n))
		nb.logLik[di] = map[string]float64{}
		denom := float64(totals[di]) + v
		for w, c := range counts[di] {
			nb.logLik[di][w] = math.Log((float64(c) + 1) / denom)
		}
		nb.logUnseen[di] = math.Log(1 / denom)
	}
	return nb
}

func (nb *mapNaiveBayes) scores(words []string) []float64 {
	scores := make([]float64, len(nb.logPrior))
	for di := range scores {
		s := nb.logPrior[di]
		for _, w := range words {
			if ll, ok := nb.logLik[di][w]; ok {
				s += ll
			} else {
				s += nb.logUnseen[di]
			}
		}
		scores[di] = s
	}
	return scores
}

// TestDenseScoresMatchPerDomainMaps: the words x domains matrix yields the
// per-domain-map sums bit for bit — on in-domain traffic, on idiolect
// traffic, and on messages spliced from two domains with out-of-vocabulary
// words between them — and Sticky, which scores into its own reused
// buffer, selects what a fresh Sticky over the same scores would.
func TestDenseScoresMatchPerDomainMaps(t *testing.T) {
	corp, nb := fixtures(t)
	ref := trainMapNaiveBayes(corp, 120, 5)
	rng := mat.NewRNG(17)
	gen := corpus.NewGenerator(corp, rng.Split())
	idio := corpus.NewIdiolect(corp, rng.Split(), 0.5)
	sticky := NewSticky(nb, 0)
	for i := 0; i < 400; i++ {
		a, b := rng.Intn(len(corp.Domains)), rng.Intn(len(corp.Domains))
		var words []string
		switch i % 4 {
		case 0:
			words = gen.Message(a, nil).Words
		case 1:
			words = gen.Message(a, idio).Words
		case 2:
			words = append(append(gen.Message(a, nil).Words, "zzz-unseen", ""), gen.Message(b, idio).Words...)
		case 3:
			words = nil // an empty message scores the priors
		}
		got, want := nb.Scores(words), ref.scores(words)
		for d := range want {
			if math.Float64bits(got[d]) != math.Float64bits(want[d]) {
				t.Fatalf("message %d %q, domain %d: dense score %v, per-domain-map score %v", i, words, d, got[d], want[d])
			}
		}
		fresh := NewSticky(nb, 0)
		fresh.ImportBelief(sticky.ExportBelief())
		if g, w := sticky.Select(words), fresh.Select(words); g != w {
			t.Fatalf("message %d: a Sticky reusing its buffers selects %d, a fresh one %d", i, g, w)
		}
		for d, w := range fresh.ExportBelief() {
			if g := sticky.belief[d]; math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("message %d: belief[%d] is %v with reused buffers, %v fresh", i, d, g, w)
			}
		}
	}
}
