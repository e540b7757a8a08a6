// Package selection implements the model-selection policies from the
// paper's research direction §III-A: picking which domain-specialized
// general model should encode a message.
//
// Policies span the spectrum the paper sketches: a static default, a
// traditional per-message classifier (naive Bayes over message words), a
// context-aware classifier that exploits topic persistence, and
// reinforcement-learning selectors (ε-greedy Q-learning and UCB) that learn
// from the downstream semantic-mismatch reward rather than labels.
package selection

import (
	"math"

	"repro/internal/corpus"
	"repro/internal/mat"
)

// Selector chooses a domain model for each message and learns from
// feedback. Implementations are not safe for concurrent use.
type Selector interface {
	// Name identifies the selector in experiment output.
	Name() string
	// Select returns the domain index chosen for the message words.
	Select(words []string) int
	// Feedback reports the reward observed after using the selection
	// (1 - semantic mismatch, measured via the sender's decoder copy).
	// Selectors without a learning component ignore it.
	Feedback(reward float64)
	// Reset clears per-stream context (topic memory, bandit state is
	// kept; only conversation context resets).
	Reset()
}

// Static always selects a fixed domain — the no-selection baseline.
type Static struct {
	// DomainIndex is the fixed choice.
	DomainIndex int
}

var _ Selector = (*Static)(nil)

// Name implements Selector.
func (s *Static) Name() string { return "static" }

// Select implements Selector.
func (s *Static) Select([]string) int { return s.DomainIndex }

// Feedback implements Selector.
func (s *Static) Feedback(float64) {}

// Reset implements Selector.
func (s *Static) Reset() {}

// NaiveBayes is the traditional per-message classification network stand-in
// from §III-A: multinomial naive Bayes over message words with Laplace
// smoothing. It has no context memory.
type NaiveBayes struct {
	domains []string
	// Everything below is fixed after training. rows maps each word of the
	// training vocabulary to its row of logLik, a words x domains matrix
	// (row-major) of smoothed log-likelihoods: one string lookup scores a
	// word under every domain.
	logPrior []float64
	rows     map[string]int
	logLik   []float64
	// logUnseen[d] is the smoothed likelihood of a word domain d never
	// produced: the row of a word outside the vocabulary, and the entry a
	// word another domain produced holds for d.
	logUnseen []float64
}

var _ Selector = (*NaiveBayes)(nil)

// TrainNaiveBayes fits the classifier on generated domain traffic:
// sentences per domain drawn without idiolect.
func TrainNaiveBayes(corp *corpus.Corpus, sentencesPerDomain int, seed uint64) *NaiveBayes {
	rng := mat.NewRNG(seed)
	gen := corpus.NewGenerator(corp, rng)
	n := len(corp.Domains)
	nb := &NaiveBayes{
		domains:   corp.Names(),
		logPrior:  make([]float64, n),
		rows:      make(map[string]int, 1024),
		logUnseen: make([]float64, n),
	}
	var counts []int // words x domains, like logLik
	totals := make([]int, n)
	for di := range corp.Domains {
		for _, m := range gen.Batch(di, sentencesPerDomain, nil) {
			for _, w := range m.Words {
				r, ok := nb.rows[w]
				if !ok {
					r = len(nb.rows)
					nb.rows[w] = r
					counts = append(counts, make([]int, n)...)
				}
				counts[r*n+di]++
				totals[di]++
			}
		}
	}
	v := float64(len(nb.rows))
	uniformPrior := math.Log(1 / float64(n))
	nb.logLik = make([]float64, len(counts))
	for di := range corp.Domains {
		nb.logPrior[di] = uniformPrior
		denom := float64(totals[di]) + v
		// A zero count yields exactly logUnseen: the same expression.
		for i := di; i < len(counts); i += n {
			nb.logLik[i] = math.Log((float64(counts[i]) + 1) / denom)
		}
		nb.logUnseen[di] = math.Log(1 / denom)
	}
	return nb
}

// Name implements Selector.
func (nb *NaiveBayes) Name() string { return "naivebayes" }

// Scores returns the per-domain log-posterior scores for words.
func (nb *NaiveBayes) Scores(words []string) []float64 {
	scores := make([]float64, len(nb.domains))
	nb.scoresInto(scores, words)
	return scores
}

// scoresInto is Scores into dst (length len(domains)). Each word adds its
// row, in message order: per domain the additions a loop over that
// domain's likelihoods alone would make, in the same order.
func (nb *NaiveBayes) scoresInto(dst []float64, words []string) {
	n := copy(dst, nb.logPrior)
	for _, w := range words {
		row := nb.logUnseen
		if r, ok := nb.rows[w]; ok {
			row = nb.logLik[r*n : (r+1)*n]
		}
		for d, ll := range row {
			dst[d] += ll
		}
	}
}

// Select implements Selector.
func (nb *NaiveBayes) Select(words []string) int {
	return mat.Argmax(nb.Scores(words))
}

// Feedback implements Selector.
func (nb *NaiveBayes) Feedback(float64) {}

// Reset implements Selector.
func (nb *NaiveBayes) Reset() {}

// Sticky is the context-aware selector of §III-A implemented as an HMM
// forward filter: it maintains a belief over domains, propagates it through
// a sticky transition prior (topics arrive in runs), and renormalizes with
// the naive-Bayes likelihood of each message. Unlike a fixed score bonus,
// the filter cannot lock into a wrong domain — strong contrary evidence
// always overrides the prior.
type Sticky struct {
	// NB provides the per-message likelihood.
	NB *NaiveBayes
	// StayProb is the transition self-probability; 0 selects a sensible
	// default matching typical topic-run lengths.
	StayProb float64

	belief []float64 // posterior over domains; nil until first message
	// tmp holds Select's three per-message vectors (prior, scores, log
	// posterior): a Sticky serves one stream, so they are reused.
	tmp []float64
}

var _ Selector = (*Sticky)(nil)

// NewSticky wraps nb with a sticky-transition HMM filter. stayProb <= 0
// selects the default 0.9.
func NewSticky(nb *NaiveBayes, stayProb float64) *Sticky {
	if stayProb <= 0 || stayProb >= 1 {
		stayProb = 0.9
	}
	return &Sticky{NB: nb, StayProb: stayProb}
}

// Name implements Selector.
func (s *Sticky) Name() string { return "sticky" }

// Select implements Selector.
func (s *Sticky) Select(words []string) int {
	n := len(s.NB.domains)
	if s.belief == nil {
		s.belief = make([]float64, n)
		for i := range s.belief {
			s.belief[i] = 1 / float64(n)
		}
	}
	// Transition: belief' = T * belief with sticky diagonal.
	switchP := (1 - s.StayProb) / float64(n-1)
	if s.tmp == nil {
		s.tmp = make([]float64, 3*n)
	}
	prior, scores, logPost := s.tmp[:n], s.tmp[n:2*n], s.tmp[2*n:]
	var total float64
	for d := range prior {
		p := 0.0
		for d2, b := range s.belief {
			if d2 == d {
				p += s.StayProb * b
			} else {
				p += switchP * b
			}
		}
		prior[d] = p
		total += p
	}
	// Observation: multiply by likelihood in log space, then normalize.
	s.NB.scoresInto(scores, words)
	for d := range logPost {
		logPost[d] = math.Log(prior[d]/total) + scores[d]
	}
	mat.Softmax(s.belief, logPost)
	return mat.Argmax(s.belief)
}

// Feedback implements Selector.
func (s *Sticky) Feedback(float64) {}

// Reset implements Selector.
func (s *Sticky) Reset() { s.belief = nil }

// BeliefCarrier is implemented by selectors whose per-stream context is a
// portable posterior over domains, so a user handover can move the
// selection state to the new serving node and the stream continues
// bit-identically.
type BeliefCarrier interface {
	// ExportBelief returns a copy of the posterior, nil before the first
	// message.
	ExportBelief() []float64
	// ImportBelief replaces the posterior with a copy of b; nil resets.
	ImportBelief(b []float64)
}

var _ BeliefCarrier = (*Sticky)(nil)

// ExportBelief implements BeliefCarrier.
func (s *Sticky) ExportBelief() []float64 {
	if s.belief == nil {
		return nil
	}
	out := make([]float64, len(s.belief))
	copy(out, s.belief)
	return out
}

// ImportBelief implements BeliefCarrier.
func (s *Sticky) ImportBelief(b []float64) {
	if b == nil {
		s.belief = nil
		return
	}
	s.belief = make([]float64, len(b))
	copy(s.belief, b)
}

// QLearn is the reinforcement-learning selector from §III-A implemented as
// contextual Q-learning: the state is (previous selection, naive-Bayes
// guess) and the action is the domain to use. The reward is the downstream
// semantic fidelity computed via the decoder copy, so no labels are needed.
type QLearn struct {
	// NB supplies the context feature (its per-message guess).
	NB *NaiveBayes
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

var _ Selector = (*QLearn)(nil)

// NewQLearn builds a Q-learning selector over n domains.
func NewQLearn(nb *NaiveBayes, n int, rng *mat.RNG) *QLearn {
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

// Name implements Selector.
func (ql *QLearn) Name() string { return "qlearn" }

// state encodes (prev, nbGuess) into a table index.
func (ql *QLearn) state(nbGuess int) int {
	return (ql.prev+1)*ql.n + nbGuess
}

// Select implements Selector.
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

// Feedback implements Selector.
func (ql *QLearn) Feedback(reward float64) {
	if !ql.pending {
		return
	}
	q := ql.q[ql.lastState]
	q[ql.lastAction] += ql.Alpha * (reward - q[ql.lastAction])
	ql.pending = false
}

// Reset implements Selector.
func (ql *QLearn) Reset() {
	ql.prev = -1
	ql.pending = false
}

// UCB is an upper-confidence-bound bandit conditioned on the naive-Bayes
// guess: for each context it balances exploiting the best-known domain
// against exploring under-tried ones.
type UCB struct {
	// NB supplies the context feature.
	NB *NaiveBayes
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

var _ Selector = (*UCB)(nil)

// NewUCB builds a UCB selector over n domains.
func NewUCB(nb *NaiveBayes, n int) *UCB {
	counts := make([][]float64, n)
	sums := make([][]float64, n)
	for i := range counts {
		counts[i] = make([]float64, n)
		sums[i] = make([]float64, n)
	}
	return &UCB{NB: nb, C: 1.2, n: n, counts: counts, sums: sums, total: make([]float64, n)}
}

// Name implements Selector.
func (u *UCB) Name() string { return "ucb" }

// Select implements Selector.
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

// Feedback implements Selector.
func (u *UCB) Feedback(reward float64) {
	if !u.pending {
		return
	}
	u.counts[u.lastCtx][u.lastAction]++
	u.sums[u.lastCtx][u.lastAction] += reward
	u.total[u.lastCtx]++
	u.pending = false
}

// Reset implements Selector.
func (u *UCB) Reset() { u.pending = false }
