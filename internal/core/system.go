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
	"errors"
	"fmt"
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
	"repro/internal/netsim"
	"repro/internal/selection"
	"repro/internal/semantic"
	"repro/internal/trace"
)

// Selector policy names accepted by Config.Selector.
const (
	SelectorOracle     = "oracle"
	SelectorStatic     = "static"
	SelectorNaiveBayes = "naivebayes"
	SelectorSticky     = "sticky"
	SelectorQLearn     = "qlearn"
	SelectorUCB        = "ucb"
)

// The air interface between the two edges is fixed: channel symbols leave
// at symbolRateHz, and a message pays edgeLatency of propagation on top of
// its air time. So is the §II-D update: updateEpochs fine-tuning passes,
// the decoder delta shipped lossless.
const (
	symbolRateHz = 1e6
	edgeLatency  = 10 * time.Millisecond
	updateEpochs = 3
)

// cloudLink is the edge-to-cloud link every origin model fetch is charged.
var cloudLink = netsim.Link{Latency: 40 * time.Millisecond, BandwidthBps: 200e6}

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
	// Policy names the cache eviction policy ("lru", "fifo", "lfu",
	// "gdsf"; default "lru").
	Policy string
	// PinGeneral pins general models in the edge caches once fetched.
	PinGeneral bool

	// SNRdB is the signal-to-noise ratio of the AWGN channel between the
	// edges (default 12), crossed by channel.DefaultFeatureLink's seeded
	// form, channel.SeededLink.
	SNRdB float64

	// Selector names the model-selection policy (default "naivebayes").
	Selector string

	// BufferThreshold triggers individual-model updates (default 32).
	BufferThreshold int
	// DisableAutoUpdate turns off automatic update processing inside
	// Transmit; callers then invoke ProcessUpdate explicitly.
	DisableAutoUpdate bool

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
	if cfg.Policy == "" {
		cfg.Policy = "lru"
	}
	if cfg.SNRdB == 0 {
		cfg.SNRdB = 12
	}
	if cfg.Selector == "" {
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

	nb         *selection.NaiveBayes
	selFactory func() selection.Selector
	oracle     bool

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
	sel  selection.Selector // nil under the oracle policy
	// noiseSeq counts the user's messages for the noise-seed derivation.
	// It migrates with the user on a mesh handover so the noise stream
	// continues bit-identically on the new serving node.
	noiseSeq uint64
	// userHash is the user's stable hash, the (user) part of every noise
	// seed: taken once here instead of per message.
	userHash uint64
}

// userState returns the state shard for user, creating it on first use.
// Selector construction happens under the map write lock: factories may
// split a shared RNG, which must not race.
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
		st = &userState{userHash: cluster.Hash64(user)}
		if !s.oracle {
			st.sel = s.selFactory()
		}
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

// selectorFactories maps each non-oracle selector name to a builder of
// per-user selector constructors. Together with the SelectorOracle special
// case it is every policy NewSystem accepts (validSelector, initSelectors);
// SelectorNames is the subset a daemon may serve.
var selectorFactories = map[string]func(s *System, rng *mat.RNG) func() selection.Selector{
	SelectorStatic: func(s *System, _ *mat.RNG) func() selection.Selector {
		return func() selection.Selector { return &selection.Static{} }
	},
	SelectorNaiveBayes: func(s *System, _ *mat.RNG) func() selection.Selector {
		return func() selection.Selector { return s.nb }
	},
	SelectorSticky: func(s *System, _ *mat.RNG) func() selection.Selector {
		return func() selection.Selector { return selection.NewSticky(s.nb, 0) }
	},
	SelectorQLearn: func(s *System, rng *mat.RNG) func() selection.Selector {
		return func() selection.Selector {
			return selection.NewQLearn(s.nb, len(s.Corpus.Domains), rng.Split())
		}
	},
	SelectorUCB: func(s *System, _ *mat.RNG) func() selection.Selector {
		return func() selection.Selector { return selection.NewUCB(s.nb, len(s.Corpus.Domains)) }
	},
}

// SelectorNames returns the sorted names of the selection policies a
// daemon can serve — the one list edged's -selector flag and validation
// read. The rest exist for the experiments only: SelectorOracle needs the
// ground-truth label only a trace carries, SelectorStatic encodes every
// message with domain 0's model (E5's Figure D row), and SelectorQLearn /
// SelectorUCB are Figure D's
// negative result (0.602 / 0.343 selection accuracy against sticky's
// 0.978).
func SelectorNames() []string { return []string{SelectorNaiveBayes, SelectorSticky} }

// validSelector reports whether name is a known selection policy.
func validSelector(name string) bool {
	if name == SelectorOracle {
		return true
	}
	_, ok := selectorFactories[name]
	return ok
}

// NewSystem pretrains the general models, registers them in the cloud,
// boots both edge servers and the selection policy, and returns the ready
// system. Every name-keyed configuration choice is validated before the
// expensive pretraining so misconfiguration fails fast.
func NewSystem(cfg Config) (*System, error) {
	cfg = cfg.withDefaults()
	if _, ok := cache.NewPolicy(cfg.Policy); !ok {
		return nil, fmt.Errorf("core: unknown cache policy %q", cfg.Policy)
	}
	if !validSelector(cfg.Selector) {
		return nil, fmt.Errorf("core: unknown selector %q", cfg.Selector)
	}
	corp := corpus.Build()
	var generals []*semantic.Codec
	if len(cfg.Pretrained) == len(corp.Domains) {
		// Clones are independent deep copies of read-only sources, so they
		// shard across the mat worker pool.
		generals = make([]*semantic.Codec, len(cfg.Pretrained))
		mat.ParallelFor(len(cfg.Pretrained), 1, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				generals[i] = cfg.Pretrained[i].Clone()
			}
		})
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
		// The name was validated above; each edge owns its policy's state.
		policy, _ := cache.NewPolicy(cfg.Policy)
		return edge.New(edge.Config{
			Name:            name,
			CacheCapacity:   capacity,
			Policy:          policy,
			Uplink:          cloudLink,
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
	}
	if err := s.initSelectors(rng); err != nil {
		return nil, err
	}
	return s, nil
}

// initSelectors trains the shared classifier and builds the per-user
// selector family.
func (s *System) initSelectors(rng *mat.RNG) error {
	cfg := s.cfg
	if cfg.Selector == SelectorOracle {
		s.oracle = true
		return nil
	}
	build, ok := selectorFactories[cfg.Selector]
	if !ok {
		return fmt.Errorf("core: unknown selector %q", cfg.Selector)
	}
	s.nb = selection.TrainNaiveBayes(s.Corpus, 150, cfg.Seed^0xbead)
	s.selFactory = build(s, rng)
	// Probe once, as the selector family did before per-user sharding:
	// factories that split an RNG per instance keep the same split
	// sequence, so per-user selector streams stay bit-identical to the
	// recorded goldens.
	s.selFactory()
	return nil
}

// Result reports one end-to-end semantic transmission.
type Result struct {
	// Req is the originating request.
	Req trace.Request
	// SelectedDomain is the model-selection outcome.
	SelectedDomain int
	// CorrectSelection reports SelectedDomain == true domain.
	CorrectSelection bool
	// RestoredWords is the receiver's restored message.
	RestoredWords []string
	// CanonicalWords renders the ground-truth meaning.
	CanonicalWords []string
	// WordAccuracy compares restored to canonical words.
	WordAccuracy float64
	// Similarity is the graded semantic fidelity in [0,1].
	Similarity float64
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

// Transmit runs one message through the full pipeline. Transmissions for
// different users run concurrently; same-user calls serialize.
func (s *System) Transmit(req trace.Request) (*Result, error) {
	msg := req.Msg
	st := s.lockUser(req.User)
	defer st.mu.Unlock()
	// One pooled scratch arena backs the whole codec path of this request;
	// everything it hands out is consumed before the arena is pooled again.
	sc := mat.GetScratch()
	defer mat.PutScratch(sc)
	// Step 1: model selection on the sender edge.
	var selected int
	if s.oracle {
		selected = msg.DomainIndex
	} else {
		selected = st.sel.Select(msg.Words)
	}
	res, decoded, err := s.transmitSelected(sc, st, req.User, msg.Words, selected, st.sel)
	if err != nil {
		return nil, err
	}
	res.Req = req
	res.CorrectSelection = selected == msg.DomainIndex
	s.scoreResult(res, decoded)
	return res, nil
}

// TransmitText runs live text (no ground truth) through the pipeline: the
// daemon's entry point. Fidelity fields that require ground truth stay
// zero; the sender-side Mismatch estimate is still populated. The oracle
// selector cannot serve live text.
func (s *System) TransmitText(user string, words []string) (*Result, error) {
	if s.oracle {
		return nil, errors.New("core: oracle selector requires ground-truth requests")
	}
	st := s.lockUser(user)
	defer st.mu.Unlock()
	sc := mat.GetScratch()
	defer mat.PutScratch(sc)
	selected := st.sel.Select(words)
	res, _, err := s.transmitSelected(sc, st, user, words, selected, st.sel)
	if err != nil {
		return nil, err
	}
	res.Req = trace.Request{User: user, Msg: corpus.Message{
		DomainIndex: selected,
		DomainName:  s.Corpus.Domains[selected].Name,
		Words:       words,
	}}
	return res, nil
}

// transmitSelected runs pipeline steps 2-6 for an already-selected domain.
// It returns the partially scored result and the decoded concepts. All
// codec-path temporaries (feature matrices, received features, concept
// buffers) come from sc, so the steady-state codec path allocates nothing;
// the returned concepts are backed by sc and must be consumed before the
// scratch is released.
func (s *System) transmitSelected(sc *mat.Scratch, st *userState, user string, words []string, selected int, sel selection.Selector) (*Result, []int, error) {
	domain := s.Corpus.Domains[selected].Name
	sender := s.Sender

	// Step 2: sender-side semantic encoding (a gather from the model's
	// sender table).
	enc, err := sender.Encode(sc, domain, user, words)
	if err != nil {
		return nil, nil, err
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
		return nil, nil, err
	}

	// Step 5: sender-side mismatch via decoder copy, buffered. The encode
	// result rides along so the already-resolved surface IDs are reused
	// when the decoder copy is the same model instance.
	tx, ready, err := sender.RecordTransaction(sc, domain, user, words, &enc)
	if err != nil {
		return nil, nil, err
	}
	if sel != nil {
		sel.Feedback(1 - tx.Mismatch())
	}

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
	if ready && !s.cfg.DisableAutoUpdate {
		bytes, err := s.ProcessUpdate(domain, user)
		if err != nil {
			s.updateFailures.Add(1)
			res.UpdateErr = err
		} else {
			res.UpdateFired = true
			res.UpdateBytes = bytes
		}
	}
	return res, dec.Concepts, nil
}

// scoreResult fills the fidelity metrics against ground truth.
func (s *System) scoreResult(res *Result, decoded []int) {
	msg := res.Req.Msg
	trueDomain := s.Corpus.Domains[msg.DomainIndex]
	canonical := make([]string, len(msg.ConceptIDs))
	for i, ci := range msg.ConceptIDs {
		canonical[i] = trueDomain.Canonical(ci)
	}
	res.CanonicalWords = canonical
	res.WordAccuracy = semantic.WordAccuracy(res.RestoredWords, canonical)
	if res.CorrectSelection {
		res.Similarity = semantic.Similarity(s.Generals[msg.DomainIndex], decoded, msg.ConceptIDs)
	} else {
		// Cross-domain decoding has no shared concept space; fall back to
		// surface-level fidelity.
		res.Similarity = res.WordAccuracy
	}
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
	s.syncBytes.Add(int64(upd.Stats.PayloadBytes))
	s.syncCount.Add(1)
	s.updateTime.Observe(float64(time.Since(start)) / float64(time.Millisecond))
	return upd.Stats.PayloadBytes, nil
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

// CloudLink returns the edge-to-cloud link the system charges for origin
// model fetches — what an external fetcher (the mesh's origin fallback)
// must charge to account like the built-in one.
func (s *System) CloudLink() netsim.Link { return cloudLink }

// RunWorkload transmits every request in w, returning per-message
// results. A single System has nowhere to move a user to, so the
// workload's mobility events are not applied; drivers of a mesh apply
// them through mesh.Node.MoveUser.
func (s *System) RunWorkload(w *trace.Workload) ([]Result, error) {
	out := make([]Result, 0, len(w.Requests))
	for _, req := range w.Requests {
		res, err := s.Transmit(req)
		if err != nil {
			return out, fmt.Errorf("core: request %d: %w", req.Seq, err)
		}
		out = append(out, *res)
	}
	return out, nil
}

// errNoResults reports summarizing an empty result set.
var errNoResults = errors.New("core: no results to summarize")

// Summary aggregates a result set.
type Summary struct {
	Messages          int
	MeanWordAccuracy  float64
	MeanSimilarity    float64
	MeanMismatch      float64
	SelectionAccuracy float64
	MeanPayloadBytes  float64
	MeanLatency       time.Duration
	P95Latency        time.Duration
	IndividualShare   float64
	Updates           int
	UpdateBytes       int64
}

// Summarize reduces results to aggregate metrics.
func Summarize(results []Result) (Summary, error) {
	if len(results) == 0 {
		return Summary{}, errNoResults
	}
	var sum Summary
	latencies := make([]float64, 0, len(results))
	for i := range results {
		r := &results[i]
		sum.MeanWordAccuracy += r.WordAccuracy
		sum.MeanSimilarity += r.Similarity
		sum.MeanMismatch += r.Mismatch
		if r.CorrectSelection {
			sum.SelectionAccuracy++
		}
		sum.MeanPayloadBytes += float64(r.PayloadBytes)
		sum.MeanLatency += r.Latency
		latencies = append(latencies, float64(r.Latency))
		if r.UsedIndividual {
			sum.IndividualShare++
		}
		if r.UpdateFired {
			sum.Updates++
			sum.UpdateBytes += int64(r.UpdateBytes)
		}
	}
	n := float64(len(results))
	sum.Messages = len(results)
	sum.MeanWordAccuracy /= n
	sum.MeanSimilarity /= n
	sum.MeanMismatch /= n
	sum.SelectionAccuracy /= n
	sum.MeanPayloadBytes /= n
	sum.MeanLatency /= time.Duration(len(results))
	sum.IndividualShare /= n
	sum.P95Latency = time.Duration(metrics.Percentile(latencies, 95))
	return sum, nil
}
