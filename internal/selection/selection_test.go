package selection

import (
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

func TestStaticSelector(t *testing.T) {
	s := &Static{DomainIndex: 3}
	if s.Select([]string{"anything"}) != 3 {
		t.Fatal("static selection wrong")
	}
	s.Feedback(1) // must not panic
	s.Reset()
	if s.Name() != "static" {
		t.Fatal("name wrong")
	}
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

func TestStickyResetClearsContext(t *testing.T) {
	_, nb := fixtures(t)
	s := NewSticky(nb, 0.9)
	s.Select([]string{"the", "server", "kernel"})
	s.Reset()
	if s.belief != nil {
		t.Fatal("Reset did not clear belief state")
	}
}

func TestQLearnImprovesOverRandom(t *testing.T) {
	corp, nb := fixtures(t)
	ql := NewQLearn(nb, len(corp.Domains), mat.NewRNG(3))
	acc := accuracy(corp, func() Selector { return ql }, 19, 2000)
	// Q-learning with a good NB context feature should comfortably beat
	// chance (1/8) and approach NB alone.
	if acc < 0.5 {
		t.Fatalf("Q-learning accuracy = %v, want >= 0.5", acc)
	}
}

func TestQLearnFeedbackWithoutSelect(t *testing.T) {
	corp, nb := fixtures(t)
	ql := NewQLearn(nb, len(corp.Domains), mat.NewRNG(4))
	ql.Feedback(1) // no pending selection: must be a no-op
	ql.Reset()
}

func TestUCBImprovesOverRandom(t *testing.T) {
	corp, nb := fixtures(t)
	u := NewUCB(nb, len(corp.Domains))
	acc := accuracy(corp, func() Selector { return u }, 23, 2000)
	if acc < 0.5 {
		t.Fatalf("UCB accuracy = %v, want >= 0.5", acc)
	}
}

func TestUCBExploresAllArmsInContext(t *testing.T) {
	corp, nb := fixtures(t)
	u := NewUCB(nb, len(corp.Domains))
	// Same context repeatedly: the first len(domains) picks must try every
	// arm once (infinite UCB for untried arms).
	words := []string{"the", "server", "kernel", "bug"}
	seen := make(map[int]bool)
	for i := 0; i < len(corp.Domains); i++ {
		a := u.Select(words)
		if seen[a] {
			t.Fatalf("UCB repeated arm %d before trying all", a)
		}
		seen[a] = true
		u.Feedback(0.5)
	}
}

func TestSelectorsDeterministic(t *testing.T) {
	corp, nb := fixtures(t)
	a := NewQLearn(nb, len(corp.Domains), mat.NewRNG(7))
	b := NewQLearn(nb, len(corp.Domains), mat.NewRNG(7))
	accA := accuracy(corp, func() Selector { return a }, 29, 500)
	accB := accuracy(corp, func() Selector { return b }, 29, 500)
	if accA != accB {
		t.Fatalf("same-seed Q-learning differs: %v vs %v", accA, accB)
	}
}

func TestNamesDistinct(t *testing.T) {
	corp, nb := fixtures(t)
	sels := []Selector{
		&Static{}, nb, NewSticky(nb, 0),
		NewQLearn(nb, len(corp.Domains), mat.NewRNG(1)),
		NewUCB(nb, len(corp.Domains)),
	}
	seen := map[string]bool{}
	for _, s := range sels {
		if seen[s.Name()] {
			t.Fatalf("duplicate selector name %q", s.Name())
		}
		seen[s.Name()] = true
	}
}
