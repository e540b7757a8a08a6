package experiments

import (
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/mat"
	"repro/internal/selection"
	"repro/internal/trace"
)

var (
	selOnce sync.Once
	selCorp *corpus.Corpus
	selNB   *selection.NaiveBayes
)

func selFixtures(t *testing.T) (*corpus.Corpus, *selection.NaiveBayes) {
	t.Helper()
	selOnce.Do(func() {
		selCorp = corpus.Build()
		selNB = selection.TrainNaiveBayes(selCorp, 120, 5)
	})
	return selCorp, selNB
}

// selAccuracy runs a selector family over a workload and returns the
// fraction of correct domain selections, feeding back a simple oracle
// reward (1 correct, 0 wrong) to learning selectors. Context is tracked
// per user.
func selAccuracy(corp *corpus.Corpus, factory func() selection.Selector, seed uint64, n int) float64 {
	w := trace.Generate(corp, trace.Config{Users: 4, Messages: n, Seed: seed})
	per := map[string]selection.Selector{}
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
}

func TestQLearnImprovesOverRandom(t *testing.T) {
	corp, nb := selFixtures(t)
	ql := NewQLearn(nb, len(corp.Domains), mat.NewRNG(3))
	acc := selAccuracy(corp, func() selection.Selector { return ql }, 19, 2000)
	// Q-learning with a good NB context feature should comfortably beat
	// chance (1/8) and approach NB alone.
	if acc < 0.5 {
		t.Fatalf("Q-learning accuracy = %v, want >= 0.5", acc)
	}
}

func TestQLearnFeedbackWithoutSelect(t *testing.T) {
	corp, nb := selFixtures(t)
	ql := NewQLearn(nb, len(corp.Domains), mat.NewRNG(4))
	ql.Feedback(1) // no pending selection: must be a no-op
}

func TestUCBImprovesOverRandom(t *testing.T) {
	corp, nb := selFixtures(t)
	u := NewUCB(nb, len(corp.Domains))
	acc := selAccuracy(corp, func() selection.Selector { return u }, 23, 2000)
	if acc < 0.5 {
		t.Fatalf("UCB accuracy = %v, want >= 0.5", acc)
	}
}

func TestUCBExploresAllArmsInContext(t *testing.T) {
	corp, nb := selFixtures(t)
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
	corp, nb := selFixtures(t)
	a := NewQLearn(nb, len(corp.Domains), mat.NewRNG(7))
	b := NewQLearn(nb, len(corp.Domains), mat.NewRNG(7))
	accA := selAccuracy(corp, func() selection.Selector { return a }, 29, 500)
	accB := selAccuracy(corp, func() selection.Selector { return b }, 29, 500)
	if accA != accB {
		t.Fatalf("same-seed Q-learning differs: %v vs %v", accA, accB)
	}
}

// TestSelectorLearnsFromMismatchReward: a Q-learning System, fed only the
// sender's decoder-copy mismatch as reward, learns to select far above
// chance.
func TestSelectorLearnsFromMismatchReward(t *testing.T) {
	s, _ := scoreTestSystem(t, "qlearn")
	messages := 800
	if testing.Short() {
		messages = 400 // enough reward rounds for the late-accuracy bound
	}
	w := trace.Generate(s.Corpus, trace.Config{Users: 1, Messages: messages, Seed: 29})
	results, err := RunTrace(s, nil, w)
	if err != nil {
		t.Fatal(err)
	}
	// After enough reward-driven updates the policy must operate far
	// above chance (1/8) in the second half of the stream.
	half := len(results) / 2
	lastOK := 0
	for _, r := range results[half:] {
		if r.CorrectSelection {
			lastOK++
		}
	}
	lateAcc := float64(lastOK) / float64(half)
	if lateAcc < 0.5 {
		t.Fatalf("late selection accuracy = %v, want >= 0.5 (chance is 0.125)", lateAcc)
	}
}

// TestLookupsRefuseUnknownNames: the selector and policy names the
// experiments accept resolve, and anything else is refused with an error.
func TestLookupsRefuseUnknownNames(t *testing.T) {
	for _, name := range []string{"oracle", "static", "naivebayes", "sticky", "qlearn", "ucb"} {
		sel, oracle, err := selectorByName(name)
		if err != nil || sel == nil || (oracle != nil) != (name == "oracle") {
			t.Fatalf("selectorByName(%q) = %v, %v, %v", name, sel != nil, oracle, err)
		}
	}
	if _, _, err := selectorByName("telepathy"); err == nil {
		t.Fatal("unknown selector accepted")
	}
	for _, name := range []string{"lru", "fifo", "lfu", "gdsf"} {
		newPolicy, err := policyByName(name)
		if err != nil {
			t.Fatalf("policyByName(%q): %v", name, err)
		}
		if p, ok := NewPolicy(name); !ok || p == nil || newPolicy() == nil {
			t.Fatalf("NewPolicy(%q) = %v, %v", name, p, ok)
		}
	}
	for _, name := range []string{"belady", "clock"} { // clock: a policy the cache once had
		if _, err := policyByName(name); err == nil {
			t.Fatalf("unknown policy %q accepted", name)
		}
		if _, ok := NewPolicy(name); ok {
			t.Fatalf("NewPolicy accepted unknown name %q", name)
		}
	}
}

// TestRunnersRefuseUnknownNamesFirst: E2, E5 and E11 return the lookup's
// error before they touch the environment, so a nil Env never builds a
// System or a cache.
func TestRunnersRefuseUnknownNamesFirst(t *testing.T) {
	if _, err := RunE2(nil, E2Options{Policies: []string{"lru", "belady"}}); err == nil {
		t.Fatal("RunE2 accepted an unknown policy")
	}
	if _, err := RunE5(nil, E5Options{Selectors: []string{"sticky", "telepathy"}}); err == nil {
		t.Fatal("RunE5 accepted an unknown selector")
	}
	if _, err := RunE11(nil, E11Options{Policies: []string{"gdsf", "belady"}}); err == nil {
		t.Fatal("RunE11 accepted an unknown policy")
	}
}
