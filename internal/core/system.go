// Package core wires every substrate into the paper's complete semantic
// edge computing and caching system (Fig. 1):
//
//  1. the sender edge selects a domain-specialized model for each message
//     (§III-A), caching general encoders AND decoders locally (§II-C);
//  2. per-user individual models are cloned from the general models and
//     cached separately (§II-B);
//  3. semantic features cross the physical channel to the receiver edge,
//     which restores the message with its decoder (§I);
//  4. the sender computes semantic mismatch locally via its decoder copy
//     and buffers transactions (§II-C);
//  5. full buffers trigger individual-model fine-tuning, and the decoder
//     update is shipped to the receiver edge, federated-learning style
//     (§II-D).
//
// A System is deterministic given its Config.Seed and is safe for
// concurrent use: requests from different users proceed in parallel,
// while requests from the same user are serialized in arrival order (a
// user's selector context, transaction buffer and individual models form
// one causal stream). On an otherwise idle system a user observes the
// exact result sequence the fully serialized system would produce; under
// concurrent traffic per-user state still evolves identically.
//
// Channel noise is drawn per message from a seed derived from (system
// seed, user, message sequence), so a user's noise depends neither on the
// interleaving of other users' traffic nor on which mesh member serves
// them: a user handed from one member's System to another's continues the
// same stream bit-for-bit. The seed is all a crossing needs, so every
// transmission crosses the physical layer in parallel through one
// immutable channel.SeededLink, with no lock and no pool.
package core

import (
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/channel"
	"repro/internal/cluster"
	"repro/internal/corpus"
	"repro/internal/edge"
	"repro/internal/fl"
	"repro/internal/kb"
	"repro/internal/mat"
	"repro/internal/metrics"
	"repro/internal/selection"
	"repro/internal/semantic"
)

// SelectorFunc builds one user's model selector when the system first
// sees the user: nb is the system's shared naive-Bayes classifier, domains
// the number of corpus domains, and rng the system's selector generator,
// which a constructor that draws should Split rather than share.
type SelectorFunc func(nb *selection.NaiveBayes, domains int, rng *mat.RNG) selection.Selector

// SelectorNaiveBayes shares the system's naive-Bayes classifier among all
// users: per-message classification, no context (the default).
func SelectorNaiveBayes(nb *selection.NaiveBayes, _ int, _ *mat.RNG) selection.Selector { return nb }

// SelectorSticky gives each user a sticky-transition filter over the
// naive-Bayes likelihood: selection that follows the topic of a stream.
func SelectorSticky(nb *selection.NaiveBayes, _ int, _ *mat.RNG) selection.Selector {
	return selection.NewSticky(nb, 0)
}

// servedSelectors names the selection policies a daemon serves.
var servedSelectors = map[string]SelectorFunc{"naivebayes": SelectorNaiveBayes, "sticky": SelectorSticky}

// The air interface between the two edges is fixed: channel symbols leave
// at symbolRateHz, and a message pays edgeLatency of propagation on top of
// its air time. So is the §II-D update: updateEpochs fine-tuning passes,
// the decoder shipped lossless.
const (
	symbolRateHz = 1e6
	edgeLatency  = 10 * time.Millisecond
	updateEpochs = 3
)

// Config parameterizes a System. Zero fields select documented defaults.
type Config struct {
	// Codec sets codec hyper-parameters for all general models.
	Codec semantic.Config

	// Deprecated: no effect. Every System derives its channel noise per
	// (user, message sequence); the field remains only for callers that
	// still assign it.
	PerUserNoise bool

	// SenderName overrides the sender edge server's name (default
	// "edge-sender"). A mesh member names its sender after its ring slot,
	// "node-i", so stats and errors say which member spoke.
	SenderName string

	// SenderFetcher overrides the sender edge's model-miss resolver (nil
	// selects the standard origin fetcher). A mesh member injects its
	// cooperative over-the-wire fetcher here.
	SenderFetcher edge.Fetcher

	// SenderCacheBytes / ReceiverCacheBytes size the edge model caches;
	// 0 sizes each cache to hold every general model plus eight
	// individual models.
	SenderCacheBytes   int64
	ReceiverCacheBytes int64
	// Policy builds each edge cache's eviction policy, one call per edge
	// (nil selects cache.NewLRU, the policy a daemon serves).
	Policy func() cache.Policy
	// PinGeneral pins general models in the edge caches once fetched.
	PinGeneral bool

	// SNRdB is the signal-to-noise ratio of the AWGN channel between the
	// edges (default 12), crossed by channel.DefaultFeatureLink's seeded
	// form, channel.SeededLink.
	SNRdB float64

	// Selector builds each user's model selector (nil: SelectorNaiveBayes).
	Selector SelectorFunc

	// BufferThreshold triggers individual-model updates (default 32).
	// math.MaxInt means no update ever fires inside TransmitText; callers
	// then invoke ProcessUpdate explicitly.
	BufferThreshold int

	// Seed drives every random component (default 1).
	Seed uint64

	// Pretrained supplies ready general codecs (one per corpus domain, in
	// domain order), skipping pretraining. The experiment harness uses it
	// to share one training run across many system instances. Codecs are
	// cloned per system so instances stay independent.
	Pretrained []*semantic.Codec
}

// withDefaults returns cfg with zero fields replaced.
func (cfg Config) withDefaults() Config {
	if cfg.Policy == nil {
		cfg.Policy = func() cache.Policy { return cache.NewLRU() }
	}
	if cfg.SNRdB == 0 {
		cfg.SNRdB = 12
	}
	if cfg.Selector == nil {
		cfg.Selector = SelectorNaiveBayes
	}
	if cfg.BufferThreshold == 0 {
		cfg.BufferThreshold = 32
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.SenderName == "" {
		cfg.SenderName = "edge-sender"
	}
	return cfg
}

// System is a running semantic communication deployment: one sender edge
// and one receiver edge. A multi-node deployment is a mesh of Systems
// (internal/mesh), one per member.
type System struct {
	cfg Config

	Corpus   *corpus.Corpus
	Cloud    *kb.Registry
	Sender   *edge.Server
	Receiver *edge.Server
	Generals []*semantic.Codec

	nb *selection.NaiveBayes
	// selRNG is the generator every Config.Selector call receives.
	selRNG *mat.RNG

	// users holds one record per user: the member's only user map, so
	// also the set a drain hands off. usersMu guards the map only; each
	// userState carries its own mutex so independent users transmit in
	// parallel while one user's requests stay serialized.
	usersMu sync.RWMutex
	users   map[string]*userState

	// link is the physical channel between the edges. It holds no state a
	// crossing changes: each message's noise comes from its own seed.
	link channel.SeededLink

	// Aggregate counters (atomic: updated from concurrent transmits).
	syncBytes      atomic.Int64
	syncCount      atomic.Int64
	updateFailures atomic.Int64
	// updateTime is the wall time of every completed ProcessUpdate, in
	// milliseconds: the §II-D stall a full buffer adds to its request.
	updateTime *metrics.Histogram
}

// userState is one user's record of mutable system state. Its mutex spans
// the whole transmit so the selector context, buffer arithmetic and
// individual-model updates of one user form a serial stream.
type userState struct {
	mu sync.Mutex
	// dead marks a record DropUserAfterHandover removed from the map: a
	// caller that was waiting on mu looks the user up again (lockUser).
	dead bool
	sel  selection.Selector
	// noiseSeq counts the user's messages for the noise-seed derivation.
	// It migrates with the user on a mesh handover so the noise stream
	// continues bit-identically on the new serving node.
	noiseSeq uint64
	// userHash is the user's stable hash, the (user) part of every noise
	// seed: taken once here instead of per message.
	userHash uint64
}

// userState returns the state shard for user, creating it on first use.
// Selector construction happens under the map write lock: constructors may
// split the shared selector RNG, which must not race.
func (s *System) userState(user string) *userState {
	s.usersMu.RLock()
	st := s.users[user]
	s.usersMu.RUnlock()
	if st != nil {
		return st
	}
	s.usersMu.Lock()
	defer s.usersMu.Unlock()
	if st = s.users[user]; st == nil {
		st = &userState{userHash: cluster.Hash64(user), sel: s.cfg.Selector(s.nb, len(s.Corpus.Domains), s.selRNG)}
		s.users[user] = st
	}
	return st
}

// lockUser returns user's live record with its mutex held, creating the
// record on first use. A record retired while the caller waited for its
// lock is passed over for the user's current one, so nothing ever changes
// a record the map no longer reaches.
func (s *System) lockUser(user string) *userState {
	for {
		st := s.userState(user)
		st.mu.Lock()
		if !st.dead {
			return st
		}
		st.mu.Unlock()
	}
}

// Users returns, sorted, every user this system holds a record for: the
// users it served or imported and has not handed off since.
func (s *System) Users() []string {
	s.usersMu.RLock()
	defer s.usersMu.RUnlock()
	return slices.Sorted(maps.Keys(s.users))
}

// UserCount returns len(Users()) without copying or sorting the names.
func (s *System) UserCount() int {
	s.usersMu.RLock()
	defer s.usersMu.RUnlock()
	return len(s.users)
}

// SelectorNames returns the sorted names of the selection policies a
// daemon serves — the one list edged's -selector flag and validation read.
// The other rows of Figure D (oracle, static, Q-learning, UCB) are the
// experiments' own constructors (internal/experiments).
func SelectorNames() []string { return slices.Sorted(maps.Keys(servedSelectors)) }

// SelectorByName returns the served selection policy called name, false
// for any name SelectorNames does not list.
func SelectorByName(name string) (SelectorFunc, bool) {
	sel, ok := servedSelectors[name]
	return sel, ok
}

// NewSystem pretrains the general models, registers them in the cloud,
// boots both edge servers and the selection policy, and returns the ready
// system.
func NewSystem(cfg Config) (*System, error) {
	cfg = cfg.withDefaults()
	corp := corpus.Build()
	var generals []*semantic.Codec
	if len(cfg.Pretrained) == len(corp.Domains) {
		generals = make([]*semantic.Codec, len(cfg.Pretrained))
		for i, c := range cfg.Pretrained {
			generals[i] = c.Clone()
		}
	} else {
		codecCfg := cfg.Codec
		if codecCfg.Seed == 0 {
			codecCfg.Seed = cfg.Seed
		}
		generals = semantic.PretrainAll(corp, codecCfg)
	}

	cloud := kb.NewRegistry()
	var generalBytes int64
	for i, d := range corp.Domains {
		m := &kb.Model{Key: kb.GeneralKey(d.Name, kb.RoleCodec), Version: 1, Codec: generals[i]}
		cloud.Put(m)
		generalBytes += m.SizeBytes()
	}
	perModel := generalBytes / int64(len(corp.Domains))
	defaultCache := generalBytes + 8*perModel
	if cfg.SenderCacheBytes == 0 {
		cfg.SenderCacheBytes = defaultCache
	}
	if cfg.ReceiverCacheBytes == 0 {
		cfg.ReceiverCacheBytes = defaultCache
	}

	mkEdge := func(name string, capacity int64, fetcher edge.Fetcher) (*edge.Server, error) {
		// Each edge owns its policy's state.
		return edge.New(edge.Config{
			Name:            name,
			CacheCapacity:   capacity,
			Policy:          cfg.Policy(),
			PinGeneral:      cfg.PinGeneral,
			BufferThreshold: cfg.BufferThreshold,
			Fetcher:         fetcher,
		}, cloud)
	}
	sender, err := mkEdge(cfg.SenderName, cfg.SenderCacheBytes, cfg.SenderFetcher)
	if err != nil {
		return nil, err
	}
	receiver, err := mkEdge("edge-receiver", cfg.ReceiverCacheBytes, nil)
	if err != nil {
		return nil, err
	}

	rng := mat.NewRNG(cfg.Seed ^ 0x5eed)
	// Nothing draws from this split; taking it keeps the selector RNG's
	// split sequence, and so the pinned q-learning row of Figure D.
	rng.Split()

	s := &System{
		cfg:        cfg,
		Corpus:     corp,
		Cloud:      cloud,
		Sender:     sender,
		Receiver:   receiver,
		Generals:   generals,
		link:       channel.NewSeededLink(cfg.SNRdB),
		users:      make(map[string]*userState, 16),
		updateTime: metrics.NewLatencyHistogram(),
		// The shared classifier draws from its own seed, not from rng.
		nb:     selection.TrainNaiveBayes(corp, 150, cfg.Seed^0xbead),
		selRNG: rng,
	}
	// Probe once, as the selector family did before per-user sharding:
	// constructors that split the RNG per instance keep the same split
	// sequence, so per-user selector streams stay bit-identical to the
	// recorded goldens.
	cfg.Selector(s.nb, len(corp.Domains), rng)
	return s, nil
}

// Result reports one end-to-end semantic transmission. It holds what the
// edges know; scoring against a ground truth is the reproduction's
// (internal/experiments).
type Result struct {
	// SelectedDomain is the model-selection outcome.
	SelectedDomain int
	// RestoredWords is the receiver's restored message: the canonical
	// surface of each concept the receiver decoded, in the selected
	// domain.
	RestoredWords []string
	// Mismatch is the sender-side decoder-copy estimate.
	Mismatch float64
	// PayloadBytes is the semantic payload size on the air.
	PayloadBytes int
	// Symbols is the channel symbol count.
	Symbols int
	// Latency is the end-to-end message latency (fetch + compute + air
	// time + propagation).
	Latency time.Duration
	// EncCacheHit / DecCacheHit report model-cache hits on each edge.
	EncCacheHit bool
	DecCacheHit bool
	// UsedIndividual reports whether the sender used a user-specific
	// model.
	UsedIndividual bool
	// UpdateFired reports that this transmission triggered an
	// individual-model update; UpdateBytes is its wire cost.
	UpdateFired bool
	UpdateBytes int
	// UpdateErr is the failure of the update process this transmission
	// triggered, nil otherwise. The message itself was still delivered.
	UpdateErr error
}

// mix64 is the SplitMix64 finalizer: a cheap, high-avalanche mixer for
// combining seed material.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// noiseSeed derives the channel-noise seed for one message from the
// system seed, the user's stable hash and the user's message sequence
// number. The derivation depends on nothing else — not the serving node,
// not the arrival interleaving — which is the whole point: any deployment
// shape serving the same (user, seq) message draws the same noise.
func noiseSeed(systemSeed, userHash, seq uint64) uint64 {
	return mix64(mix64(systemSeed^0x6e6f697365) ^ userHash ^ (seq * 0x9e3779b97f4a7c15))
}

// nextNoiseSeed advances the user's message sequence and returns the
// derived seed for this message. Caller must hold st.mu.
func (s *System) nextNoiseSeed(st *userState) uint64 {
	seq := st.noiseSeq
	st.noiseSeq++
	return noiseSeed(s.cfg.Seed, st.userHash, seq)
}

// TransmitText runs one message through the full pipeline: the daemon's
// entry point, and the reproduction's, which scores the result against the
// ground truth its traces carry. Transmissions for different users run
// concurrently; same-user calls serialize. All codec-path temporaries
// (feature matrices, received features, concept buffers) come from one
// pooled scratch arena, so the steady-state codec path allocates nothing.
func (s *System) TransmitText(user string, words []string) (*Result, error) {
	st := s.lockUser(user)
	defer st.mu.Unlock()
	// Everything the arena hands out is consumed before it is pooled again.
	sc := mat.GetScratch()
	defer mat.PutScratch(sc)

	// Step 1: model selection on the sender edge.
	selected := st.sel.Select(words)
	domain := s.Corpus.Domains[selected].Name
	sender := s.Sender

	// Step 2: sender-side semantic encoding (a gather from the model's
	// sender table).
	enc, err := sender.Encode(sc, domain, user, words)
	if err != nil {
		return nil, err
	}

	// Step 3: physical channel, on noise seeded from (user, seq) alone, so
	// the draw is independent of arrival interleaving, serving process
	// and every other in-flight transmission.
	rx := sc.Mat(enc.Features.Rows, enc.Model.Codec.FeatureDim())
	stats := s.link.Send(s.nextNoiseSeed(st), rx.Data, enc.Features.Data)
	airTime := time.Duration(float64(stats.Symbols) / symbolRateHz * float64(time.Second))
	airTime += edgeLatency

	// Step 4: receiver-side semantic decoding (batched GEMMs).
	dec, err := s.Receiver.Decode(sc, domain, user, rx)
	if err != nil {
		return nil, err
	}

	// Step 5: sender-side mismatch via decoder copy, buffered. The encode
	// result rides along so the already-resolved surface IDs are reused
	// when the decoder copy is the same model instance.
	tx, ready, err := sender.RecordTransaction(sc, domain, user, words, &enc)
	if err != nil {
		return nil, err
	}
	st.sel.Feedback(1 - tx.Mismatch())

	res := &Result{
		SelectedDomain: selected,
		RestoredWords:  dec.Words,
		Mismatch:       tx.Mismatch(),
		PayloadBytes:   stats.PayloadBytes(),
		Symbols:        stats.Symbols,
		Latency:        enc.FetchLatency + enc.ComputeLatency + airTime + dec.FetchLatency + dec.ComputeLatency,
		EncCacheHit:    enc.CacheHit,
		DecCacheHit:    dec.CacheHit,
		UsedIndividual: enc.Individual,
	}

	// Step 6: update process when the buffer is full. A failed update does
	// not fail the transmit — the message was already delivered — but it is
	// counted and reported on the result.
	if ready {
		bytes, err := s.ProcessUpdate(domain, user)
		if err != nil {
			s.updateFailures.Add(1)
			res.UpdateErr = err
		} else {
			res.UpdateFired = true
			res.UpdateBytes = bytes
		}
	}
	return res, nil
}

// ProcessUpdate runs the update process for (domain, user) on the sender
// edge and ships the decoder update across the edge link, returning the
// payload size.
func (s *System) ProcessUpdate(domain, user string) (int, error) {
	start := time.Now()
	upd, err := s.Sender.RunUpdate(domain, user, fl.UpdateConfig{
		Epochs: updateEpochs,
		Seed:   s.cfg.Seed ^ 0xfade,
	})
	if err != nil {
		return 0, err
	}
	if err := s.Receiver.ApplyRemoteUpdate(upd); err != nil {
		return 0, err
	}
	s.syncBytes.Add(int64(upd.PayloadBytes))
	s.syncCount.Add(1)
	s.updateTime.Observe(float64(time.Since(start)) / float64(time.Millisecond))
	return upd.PayloadBytes, nil
}

// SyncBytes returns the cumulative decoder-update traffic.
func (s *System) SyncBytes() int64 { return s.syncBytes.Load() }

// SyncCount returns the number of decoder updates shipped.
func (s *System) SyncCount() int { return int(s.syncCount.Load()) }

// UpdateFailures returns the number of update processes triggered by a
// transmit that failed.
func (s *System) UpdateFailures() int64 { return s.updateFailures.Load() }

// DecodeMemoStats returns the decode-memo counters of the system's two
// edge servers, summed.
func (s *System) DecodeMemoStats() semantic.MemoStats {
	st := s.Sender.DecodeMemoStats()
	st.Add(s.Receiver.DecodeMemoStats())
	return st
}

// UpdateTime returns the histogram of completed update processes' wall
// time in milliseconds.
func (s *System) UpdateTime() *metrics.Histogram { return s.updateTime }
