package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/selection"
)

// selectorByName resolves a Figure D row to the constructor
// core.Config.Selector takes. Under "oracle" every user shares one *Static,
// returned too for RunTrace to steer (nil under any other name); "static"
// stays on domain 0, and "qlearn" / "ucb" are Figure D's negative result.
func selectorByName(name string) (core.SelectorFunc, *Static, error) {
	switch name {
	case "oracle":
		oracle := &Static{}
		return oracle.shared, oracle, nil
	case "static":
		return func(*selection.NaiveBayes, int, *mat.RNG) selection.Selector { return &Static{} }, nil, nil
	case "naivebayes":
		return core.SelectorNaiveBayes, nil, nil
	case "sticky":
		return core.SelectorSticky, nil, nil
	case "qlearn":
		return func(nb *selection.NaiveBayes, domains int, rng *mat.RNG) selection.Selector {
			return NewQLearn(nb, domains, rng.Split())
		}, nil, nil
	case "ucb":
		return func(nb *selection.NaiveBayes, n int, _ *mat.RNG) selection.Selector { return NewUCB(nb, n) }, nil, nil
	}
	return nil, nil, fmt.Errorf("experiments: unknown selector %q", name)
}

// Static always selects a fixed domain — the no-selection baseline.
type Static struct {
	// DomainIndex is the fixed choice.
	DomainIndex int
}

var _ selection.Selector = (*Static)(nil)

// Select implements selection.Selector.
func (s *Static) Select([]string) int { return s.DomainIndex }

// Feedback implements selection.Selector.
func (s *Static) Feedback(float64) {}

// shared is a core.SelectorFunc handing every user s itself, so only a
// serial driver may steer it.
func (s *Static) shared(*selection.NaiveBayes, int, *mat.RNG) selection.Selector { return s }

// QLearn is the reinforcement-learning selector from §III-A implemented as
// contextual Q-learning: the state is (previous selection, naive-Bayes
// guess) and the action is the domain to use. The reward is the downstream
// semantic fidelity computed via the decoder copy, so no labels are needed.
type QLearn struct {
	// NB supplies the context feature (its per-message guess).
	NB *selection.NaiveBayes
	// Epsilon is the exploration rate.
	Epsilon float64
	// Alpha is the learning rate.
	Alpha float64
	// Rng drives exploration.
	Rng *mat.RNG

	n          int
	q          [][]float64 // q[state][action]
	prev       int
	lastState  int
	lastAction int
	pending    bool
}

var _ selection.Selector = (*QLearn)(nil)

// NewQLearn builds a Q-learning selector over n domains.
func NewQLearn(nb *selection.NaiveBayes, n int, rng *mat.RNG) *QLearn {
	states := (n + 1) * n // prev in {-1..n-1} encoded as {0..n}, nbGuess in {0..n-1}
	q := make([][]float64, states)
	for i := range q {
		q[i] = make([]float64, n)
		// Mildly optimistic initialization: high enough to try untested
		// actions eventually, low enough that a good observed reward
		// (~0.9 for a correct selection) dominates quickly.
		for j := range q[i] {
			q[i][j] = 0.6
		}
	}
	return &QLearn{NB: nb, Epsilon: 0.08, Alpha: 0.3, Rng: rng, n: n, q: q, prev: -1}
}

// state encodes (prev, nbGuess) into a table index.
func (ql *QLearn) state(nbGuess int) int {
	return (ql.prev+1)*ql.n + nbGuess
}

// Select implements selection.Selector.
func (ql *QLearn) Select(words []string) int {
	nbGuess := ql.NB.Select(words)
	s := ql.state(nbGuess)
	var a int
	if ql.Rng.Float64() < ql.Epsilon {
		a = ql.Rng.Intn(ql.n)
	} else {
		a = mat.Argmax(ql.q[s])
	}
	ql.lastState, ql.lastAction, ql.pending = s, a, true
	ql.prev = a
	return a
}

// Feedback implements selection.Selector.
func (ql *QLearn) Feedback(reward float64) {
	if !ql.pending {
		return
	}
	q := ql.q[ql.lastState]
	q[ql.lastAction] += ql.Alpha * (reward - q[ql.lastAction])
	ql.pending = false
}

// UCB is an upper-confidence-bound bandit conditioned on the naive-Bayes
// guess: for each context it balances exploiting the best-known domain
// against exploring under-tried ones.
type UCB struct {
	// NB supplies the context feature.
	NB *selection.NaiveBayes
	// C is the exploration coefficient; 0 selects a sensible default.
	C float64

	n          int
	counts     [][]float64
	sums       [][]float64
	total      []float64
	lastCtx    int
	lastAction int
	pending    bool
}

var _ selection.Selector = (*UCB)(nil)

// NewUCB builds a UCB selector over n domains.
func NewUCB(nb *selection.NaiveBayes, n int) *UCB {
	counts := make([][]float64, n)
	sums := make([][]float64, n)
	for i := range counts {
		counts[i] = make([]float64, n)
		sums[i] = make([]float64, n)
	}
	return &UCB{NB: nb, C: 1.2, n: n, counts: counts, sums: sums, total: make([]float64, n)}
}

// Select implements selection.Selector.
func (u *UCB) Select(words []string) int {
	ctx := u.NB.Select(words)
	best, bestScore := 0, math.Inf(-1)
	for a := 0; a < u.n; a++ {
		var score float64
		if u.counts[ctx][a] == 0 {
			score = math.Inf(1)
		} else {
			mean := u.sums[ctx][a] / u.counts[ctx][a]
			score = mean + u.C*math.Sqrt(math.Log(u.total[ctx]+1)/u.counts[ctx][a])
		}
		if score > bestScore {
			best, bestScore = a, score
		}
	}
	u.lastCtx, u.lastAction, u.pending = ctx, best, true
	return best
}

// Feedback implements selection.Selector.
func (u *UCB) Feedback(reward float64) {
	if !u.pending {
		return
	}
	u.counts[u.lastCtx][u.lastAction]++
	u.sums[u.lastCtx][u.lastAction] += reward
	u.total[u.lastCtx]++
	u.pending = false
}
