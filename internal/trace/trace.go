// Package trace generates reproducible communication workloads: users with
// personal idiolects emitting messages whose topics arrive in sticky runs
// with Zipf-distributed domain popularity. Every experiment consumes its
// traffic from here so workload assumptions live in one place.
package trace

import (
	"fmt"

	"repro/internal/corpus"
	"repro/internal/mat"
)

// Request is one message emission by a user.
type Request struct {
	// Seq is the global request index, starting at 0.
	Seq int
	// User is the sending user's name.
	User string
	// Cell is the radio cell the user sends from, or -1 when the user has
	// never moved (they stay in their router-assigned home cell).
	Cell int
	// Msg is the generated message with ground-truth domain and concepts.
	Msg corpus.Message
}

// Move is one mobility event: User attaches to Cell before the request at
// Seq is served. A mesh maps cells onto members and executes a handover
// for each Move that changes the serving node.
type Move struct {
	Seq  int
	User string
	Cell int
}

// Config parameterizes workload generation. Zero fields select defaults.
type Config struct {
	// Users is the number of distinct users (default 8).
	Users int
	// Messages is the total number of requests (default 1000).
	Messages int
	// MeanRunLength is the expected number of consecutive same-domain
	// messages per user (geometric runs, default 12).
	MeanRunLength float64
	// IdiolectStrength is the per-user idiolect strength in [0,1]
	// (default 0: generic speakers).
	IdiolectStrength float64
	// MinLen and MaxLen override message length bounds when > 0. Short
	// messages are ambiguous: domain-selection experiments use them to
	// create regimes where per-message classification fails and context
	// helps.
	MinLen, MaxLen int
	// FuncProb overrides the function-word probability when > 0. Higher
	// values dilute domain evidence per message.
	FuncProb float64
	// Cells is the number of radio cells users roam across. Mobility
	// events are generated only when Cells > 1 and MobilityRate > 0.
	Cells int
	// MobilityRate is the per-request probability that the emitting user
	// has moved to a new uniformly-drawn cell since their last message.
	MobilityRate float64
	// Seed drives all randomness (default 1).
	Seed uint64
}

// withDefaults returns cfg with zero fields replaced.
func (cfg Config) withDefaults() Config {
	if cfg.Users == 0 {
		cfg.Users = 8
	}
	if cfg.Messages == 0 {
		cfg.Messages = 1000
	}
	if cfg.MeanRunLength == 0 {
		cfg.MeanRunLength = 12
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return cfg
}

// Workload is a generated request stream.
type Workload struct {
	// Requests in emission order.
	Requests []Request
	// Moves holds the mobility events in Seq order (empty without
	// mobility). A Move at Seq s applies before Requests[s] is served.
	Moves []Move
	// Users lists user names in creation order.
	Users []string
	// Idiolects maps user name to idiolect (nil entries mean generic
	// speakers).
	Idiolects map[string]*corpus.Idiolect
}

// Generate builds a workload over corp under cfg. It is deterministic
// given cfg.Seed.
func Generate(corp *corpus.Corpus, cfg Config) *Workload {
	cfg = cfg.withDefaults()
	rng := mat.NewRNG(cfg.Seed)
	gen := corpus.NewGenerator(corp, rng.Split())
	if cfg.MinLen > 0 {
		gen.MinLen = cfg.MinLen
	}
	if cfg.MaxLen >= gen.MinLen && cfg.MaxLen > 0 {
		gen.MaxLen = cfg.MaxLen
	} else if cfg.MinLen > gen.MaxLen {
		gen.MaxLen = cfg.MinLen
	}
	if cfg.FuncProb > 0 {
		gen.FuncProb = cfg.FuncProb
	}
	const domainZipfS float64 = 1 // the Zipf exponent of domain popularity
	domainZipf := mat.NewZipf(rng.Split(), len(corp.Domains), domainZipfS)
	idioRNG := rng.Split()
	// Mobility draws come from an independently seeded stream (a Split
	// would advance the root RNG), so enabling mobility never perturbs
	// the message/domain streams and mobility-free workloads stay
	// bit-identical to earlier versions.
	mobility := cfg.Cells > 1 && cfg.MobilityRate > 0
	mobRNG := mat.NewRNG(cfg.Seed ^ 0x6ce115)

	w := &Workload{
		Requests:  make([]Request, 0, cfg.Messages),
		Users:     make([]string, 0, cfg.Users),
		Idiolects: make(map[string]*corpus.Idiolect, cfg.Users),
	}
	// Per-user topic and cell state (-1: never moved, home cell).
	current := make([]int, cfg.Users)
	cells := make([]int, cfg.Users)
	for u := 0; u < cfg.Users; u++ {
		name := fmt.Sprintf("u%02d", u+1)
		w.Users = append(w.Users, name)
		if cfg.IdiolectStrength > 0 {
			w.Idiolects[name] = corpus.NewIdiolect(corp, idioRNG.Split(), cfg.IdiolectStrength)
		} else {
			w.Idiolects[name] = nil
		}
		current[u] = domainZipf.Sample()
		cells[u] = -1
	}
	switchProb := 1 / cfg.MeanRunLength
	for i := 0; i < cfg.Messages; i++ {
		u := rng.Intn(cfg.Users)
		if rng.Float64() < switchProb {
			current[u] = domainZipf.Sample()
		}
		name := w.Users[u]
		if mobility && mobRNG.Float64() < cfg.MobilityRate {
			cells[u] = mobRNG.Intn(cfg.Cells)
			w.Moves = append(w.Moves, Move{Seq: i, User: name, Cell: cells[u]})
		}
		msg := gen.Message(current[u], w.Idiolects[name])
		w.Requests = append(w.Requests, Request{Seq: i, User: name, Cell: cells[u], Msg: msg})
	}
	return w
}
