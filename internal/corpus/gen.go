package corpus

import (
	"strings"

	"repro/internal/mat"
)

// Message is one generated utterance: the unit transmitted through the
// semantic communication system.
type Message struct {
	// DomainIndex and DomainName identify the true domain of the message
	// (ground truth for model selection).
	DomainIndex int
	DomainName  string
	// Words are the transmitted surface forms.
	Words []string
	// ConceptIDs are the domain-local concept indices — the meaning the
	// receiver must restore. len(ConceptIDs) == len(Words).
	ConceptIDs []int
}

// Text renders the message as a space-joined sentence.
func (m Message) Text() string { return strings.Join(m.Words, " ") }

// Idiolect models one user's personal language: a preference for specific
// rare synonyms on a subset of concepts. General models, trained on
// canonical-heavy traffic, handle these poorly — the motivation for the
// paper's user-specific individual models.
type Idiolect struct {
	// prefs maps concept key to the preferred surface index (>= 1, i.e. a
	// tail synonym).
	prefs map[string]int
}

// adherence is the probability a user uses the preferred synonym when
// expressing a preferred concept.
const adherence float64 = 0.9

// polyProb is the probability a concept carrying a curated polysemous
// surface (e.g. "bus") is expressed with that surface. Polysemes are
// everyday words, so this is much higher than Generator.TailProb.
const polyProb float64 = 0.40

// NewIdiolect samples an idiolect. strength in [0,1] is the fraction of
// multi-surface content concepts (per domain) for which the user prefers a
// rare synonym.
func NewIdiolect(c *Corpus, rng *mat.RNG, strength float64) *Idiolect {
	id := &Idiolect{prefs: make(map[string]int, 64)}
	for _, d := range c.Domains {
		for _, ci := range d.ContentConcepts() {
			con := &d.Concepts[ci]
			if len(con.Surfaces) < 2 {
				continue
			}
			if rng.Float64() < strength {
				// Prefer one of the tail synonyms uniformly.
				id.prefs[con.Key] = 1 + rng.Intn(len(con.Surfaces)-1)
			}
		}
	}
	return id
}

// PreferredSurface returns the preferred surface index for a concept key
// and whether a preference exists.
func (id *Idiolect) PreferredSurface(key string) (int, bool) {
	if id == nil {
		return 0, false
	}
	i, ok := id.prefs[key]
	return i, ok
}

// NumPrefs returns the number of concepts with a personal preference.
func (id *Idiolect) NumPrefs() int {
	if id == nil {
		return 0
	}
	return len(id.prefs)
}

// Generator samples messages from the corpus. It is deterministic given its
// RNG and safe to reuse across domains; it is not safe for concurrent use.
type Generator struct {
	// FuncProb is the probability a token position holds a function word.
	FuncProb float64
	// TailProb is the probability a content concept is expressed with a
	// rare synonym instead of its canonical surface (absent idiolect
	// preference).
	TailProb float64
	// Balanced, when true, samples content concepts uniformly instead of
	// by Zipf popularity. Pretraining corpora are balanced (knowledge
	// bases are built from broad domain corpora); live traffic is not.
	Balanced bool
	// MinLen and MaxLen bound the sentence length in tokens.
	MinLen, MaxLen int

	corpus *Corpus
	rng    *mat.RNG
	// contentZipf samples a rank; rankMaps permute rank -> concept so each
	// domain has its own popularity ordering.
	contentZipf []*mat.Zipf
	rankMaps    [][]int
	funcZipf    *mat.Zipf
}

// NewGenerator builds a generator over c driven by rng.
func NewGenerator(c *Corpus, rng *mat.RNG) *Generator {
	g := &Generator{
		FuncProb:    0.35,
		TailProb:    0.04,
		MinLen:      5,
		MaxLen:      12,
		corpus:      c,
		rng:         rng,
		contentZipf: make([]*mat.Zipf, len(c.Domains)),
		rankMaps:    make([][]int, len(c.Domains)),
	}
	g.funcZipf = mat.NewZipf(rng.Split(), len(functionWords), 1.1)
	for i, d := range c.Domains {
		content := d.ContentConcepts()
		g.contentZipf[i] = mat.NewZipf(rng.Split(), len(content), 0.9)
		// Deterministic per-domain permutation so popularity orderings
		// differ across domains.
		perm := mat.NewRNG(uint64(7919 * (i + 1))).Perm(len(content))
		rm := make([]int, len(content))
		for rank, p := range perm {
			rm[rank] = content[p]
		}
		g.rankMaps[i] = rm
	}
	return g
}

// Message samples one message from the domain at index di. idio may be nil
// for a generic speaker.
func (g *Generator) Message(di int, idio *Idiolect) Message {
	d := g.corpus.Domains[di]
	n := g.MinLen
	if g.MaxLen > g.MinLen {
		n += g.rng.Intn(g.MaxLen - g.MinLen + 1)
	}
	msg := Message{
		DomainIndex: di,
		DomainName:  d.Name,
		Words:       make([]string, 0, n),
		ConceptIDs:  make([]int, 0, n),
	}
	for t := 0; t < n; t++ {
		var ci int
		switch {
		case g.rng.Float64() < g.FuncProb:
			if g.Balanced {
				ci = g.rng.Intn(len(functionWords))
			} else {
				ci = g.funcZipf.Sample() // function concepts lead the concept list
			}
		case g.Balanced:
			rm := g.rankMaps[di]
			ci = rm[g.rng.Intn(len(rm))]
		default:
			ci = g.rankMaps[di][g.contentZipf[di].Sample()]
		}
		con := &d.Concepts[ci]
		surface := con.Canonical()
		if !con.Function && len(con.Surfaces) > 1 {
			switch pref, ok := idio.PreferredSurface(con.Key); {
			case ok && g.rng.Float64() < adherence:
				surface = con.Surfaces[pref]
			case con.PolyIdx > 0 && g.rng.Float64() < polyProb:
				surface = con.Surfaces[con.PolyIdx]
			case g.rng.Float64() < g.TailProb:
				surface = con.Surfaces[1+g.rng.Intn(len(con.Surfaces)-1)]
			}
		}
		msg.Words = append(msg.Words, surface)
		msg.ConceptIDs = append(msg.ConceptIDs, ci)
	}
	return msg
}

// Batch samples n messages from domain di.
func (g *Generator) Batch(di, n int, idio *Idiolect) []Message {
	out := make([]Message, n)
	for i := range out {
		out[i] = g.Message(di, idio)
	}
	return out
}
