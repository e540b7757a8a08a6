// Package edge implements the semantic edge server of Fig. 1: it caches
// domain-specialized general models and user-specific individual models,
// fetches from the cloud origin on miss (paying transfer latency), runs
// semantic encoding/decoding with simulated compute cost, records
// transactions in per-user domain buffers via its decoder copy, and
// triggers the individual-model update process.
//
// The sender side reads a codec's sender table (each surface computed once
// per model state: Encode is a row gather, the §II-C decoder copy an array
// read); the receiver's decode, whose rows crossed the channel, goes through
// the server's semantic.DecodeMemo, which computes each distinct feature row
// once per model state. Both are exact only because the codec is
// context-free per token (a concept depends on one feature row and the
// weights, nothing else); a contextual codec would have to drop them.
package edge

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/fl"
	"repro/internal/kb"
	"repro/internal/mat"
	"repro/internal/netsim"
	"repro/internal/nn"
	"repro/internal/semantic"
)

// computePerToken is the simulated semantic encode/decode cost per token.
const computePerToken = 200 * time.Microsecond

// Config parameterizes an edge server.
type Config struct {
	// Name identifies the server (e.g. "edge-a").
	Name string
	// CacheCapacity is the model cache size in bytes.
	CacheCapacity int64
	// Policy is the cache eviction policy; nil selects LRU.
	Policy cache.Policy
	// Uplink is the link to the cloud origin used for model fetches.
	Uplink netsim.Link
	// PinGeneral pins domain-general models in the cache once fetched.
	PinGeneral bool
	// BufferThreshold is the per-user domain-buffer size that triggers an
	// individual-model update; 0 selects 32.
	BufferThreshold int
	// Fetcher resolves local cache misses; nil selects the origin fetcher
	// (cloud registry over Uplink). A mesh member installs its cooperative
	// fetcher here, which probes neighbor caches before paying the origin.
	Fetcher Fetcher
}

// Fetch is the outcome of resolving a model that missed the local cache.
type Fetch struct {
	// Model is the fetched model.
	Model *kb.Model
	// Latency is the simulated transfer time paid for the fetch.
	Latency time.Duration
	// Remote reports the model came from a peer edge cache rather than
	// the cloud origin (cooperative caching).
	Remote bool
}

// Fetcher resolves cache misses for general models.
type Fetcher interface {
	FetchModel(k kb.Key) (Fetch, error)
}

// originFetcher is the default Fetcher: straight to the cloud origin over
// the uplink.
type originFetcher struct {
	origin *kb.Registry
	uplink netsim.Link
}

// NewOriginFetcher returns the default miss resolver — straight to the
// cloud origin over uplink. Composite fetchers (the mesh's cooperative
// fetcher) delegate to it as their fallback so origin-fetch
// semantics live in one place.
func NewOriginFetcher(origin *kb.Registry, uplink netsim.Link) Fetcher {
	return originFetcher{origin: origin, uplink: uplink}
}

// FetchModel implements Fetcher.
func (f originFetcher) FetchModel(k kb.Key) (Fetch, error) {
	m, ok := f.origin.Get(k)
	if !ok {
		return Fetch{}, fmt.Errorf("origin has no model %s", k)
	}
	return Fetch{Model: m, Latency: f.uplink.TransferTime(m.SizeBytes())}, nil
}

// Server is one semantic edge server. It is safe for concurrent use.
type Server struct {
	name            string
	cache           *cache.Cache
	fetcher         Fetcher
	pinGeneral      bool
	bufferThreshold int
	memo            *semantic.DecodeMemo

	// buffers holds the transaction buffers by user, then domain: a
	// hand-off reads or drops one user's entry without visiting anyone
	// else's.
	mu      sync.Mutex
	buffers map[string]map[string]*fl.Buffer
}

// New builds an edge server backed by the given cloud origin registry.
func New(cfg Config, origin *kb.Registry) (*Server, error) {
	if origin == nil {
		return nil, errors.New("edge: nil origin registry")
	}
	if cfg.Policy == nil {
		cfg.Policy = cache.NewLRU()
	}
	if cfg.BufferThreshold == 0 {
		cfg.BufferThreshold = 32
	}
	if cfg.Fetcher == nil {
		cfg.Fetcher = originFetcher{origin: origin, uplink: cfg.Uplink}
	}
	c, err := cache.New(cfg.CacheCapacity, cfg.Policy)
	if err != nil {
		return nil, fmt.Errorf("edge %s: %w", cfg.Name, err)
	}
	return &Server{
		name:            cfg.Name,
		cache:           c,
		fetcher:         cfg.Fetcher,
		pinGeneral:      cfg.PinGeneral,
		bufferThreshold: cfg.BufferThreshold,
		memo:            semantic.NewDecodeMemo(),
		buffers:         make(map[string]map[string]*fl.Buffer, 16),
	}, nil
}

// Name returns the server name.
func (s *Server) Name() string { return s.name }

// CacheStats returns a snapshot of the model-cache counters.
func (s *Server) CacheStats() cache.Stats { return s.cache.Stats() }

// Cache exposes the underlying model cache for inspection.
func (s *Server) Cache() *cache.Cache { return s.cache }

// DecodeMemoStats returns the counters of the server's decode memo: how
// many received feature rows it looked up and how many skipped the MLP.
func (s *Server) DecodeMemoStats() semantic.MemoStats { return s.memo.Stats() }

// PinsGeneral reports whether this server pins general models in its
// cache once fetched, so a peer pushing a general model (mesh drain) can
// install it exactly as a local fetch would have.
func (s *Server) PinsGeneral() bool { return s.pinGeneral }

// AcquireResult reports how a codec was obtained.
type AcquireResult struct {
	// Model is the codec to use (individual if present, else general).
	Model *kb.Model
	// FetchLatency is the origin transfer time paid (0 on cache hit).
	FetchLatency time.Duration
	// CacheHit reports whether the model came from the local cache.
	CacheHit bool
	// Remote reports a miss served from a peer edge cache (cooperative
	// caching) rather than the cloud origin.
	Remote bool
	// Individual reports whether a user-specific model was used.
	Individual bool
}

// AcquireCodec returns the codec for (domain, user): the user's individual
// model when cached, otherwise the domain-general model, fetching it from
// the cloud origin on miss and paying uplink transfer latency.
func (s *Server) AcquireCodec(domain, user string) (AcquireResult, error) {
	userKey := kb.UserKey(domain, user, kb.RoleCodec)
	if user != "" && s.cache.Contains(userKey) {
		if m, ok := s.cache.Get(userKey); ok {
			return AcquireResult{Model: m, CacheHit: true, Individual: true}, nil
		}
	}
	genKey := kb.GeneralKey(domain, kb.RoleCodec)
	if m, ok := s.cache.Get(genKey); ok {
		return AcquireResult{Model: m, CacheHit: true}, nil
	}
	f, err := s.fetcher.FetchModel(genKey)
	if err != nil {
		return AcquireResult{}, fmt.Errorf("edge %s: %w", s.name, err)
	}
	if err := s.cache.Put(f.Model, s.pinGeneral); err != nil {
		return AcquireResult{}, fmt.Errorf("edge %s: cache %s: %w", s.name, genKey, err)
	}
	return AcquireResult{Model: f.Model, FetchLatency: f.Latency, Remote: f.Remote}, nil
}

// Personalize creates the user's individual codec as a clone of the
// domain-general model (Fig. 1 step 2) and caches it. If an individual
// model already exists it is returned unchanged.
func (s *Server) Personalize(domain, user string) (*kb.Model, time.Duration, error) {
	m, _, lat, err := s.personalize(domain, user, nil, 0)
	return m, lat, err
}

// personalize returns user's cached individual model for domain, or
// creates and caches one, reporting created: at version, built on params'
// tensors (adopted) when params is non-nil, else a clone of the general
// model. Either way the general model is acquired first, so the cache
// sees the same lookups whatever the individual starts from.
func (s *Server) personalize(domain, user string, params *nn.ParamSet, version int) (*kb.Model, bool, time.Duration, error) {
	if user == "" {
		return nil, false, 0, errors.New("edge: Personalize requires a user")
	}
	userKey := kb.UserKey(domain, user, kb.RoleCodec)
	if s.cache.Contains(userKey) {
		if m, ok := s.cache.Get(userKey); ok {
			return m, false, 0, nil
		}
	}
	acq, err := s.AcquireCodec(domain, "")
	if err != nil {
		return nil, false, 0, err
	}
	var codec *semantic.Codec
	if params == nil {
		codec = acq.Model.Codec.Clone()
	} else if codec, err = acq.Model.Codec.WithParams(params); err != nil {
		return nil, false, 0, err
	}
	m := &kb.Model{Key: userKey, Version: version, Codec: codec}
	if err := s.cache.Put(m, false); err != nil {
		return nil, false, 0, fmt.Errorf("edge %s: cache individual model: %w", s.name, err)
	}
	return m, true, acq.FetchLatency, nil
}

// EncodeResult is the outcome of sender-side semantic encoding.
type EncodeResult struct {
	AcquireResult
	// SurfaceIDs are the words resolved in the model's domain lexicon, one
	// per token: RecordTransaction reuses them instead of looking every
	// word up again. Backed by the scratch arena, like Features.
	SurfaceIDs []int
	// Features is the len(words) x FeatureDim matrix of per-token semantic
	// feature vectors. It is backed by the scratch arena passed to Encode
	// and must be consumed before that scratch is reset or pooled.
	Features *mat.Dense
	// ComputeLatency is the simulated encoding cost.
	ComputeLatency time.Duration
}

// Encode runs semantic feature extraction for (domain, user) over words:
// one lexicon lookup per word, then a gather from the codec's sender table.
// sc must be non-nil: the IDs and the feature matrix are allocated from it,
// so a warm steady-state call performs no heap allocation.
func (s *Server) Encode(sc *mat.Scratch, domain, user string, words []string) (EncodeResult, error) {
	acq, err := s.AcquireCodec(domain, user)
	if err != nil {
		return EncodeResult{}, err
	}
	codec := acq.Model.Codec
	ids := sc.Ints(len(words))
	codec.Domain().SurfaceIDsInto(ids, words)
	return EncodeResult{
		AcquireResult:  acq,
		SurfaceIDs:     ids,
		Features:       codec.EncodeSurfaceIDsInto(sc, ids),
		ComputeLatency: time.Duration(len(words)) * computePerToken,
	}, nil
}

// DecodeResult is the outcome of receiver-side semantic decoding.
type DecodeResult struct {
	AcquireResult
	// Concepts are the decoded domain concepts, backed by the scratch
	// arena passed to Decode.
	Concepts []int
	// Words are the restored canonical surface forms. DecodeConcepts
	// leaves them nil; Decode fills them.
	Words []string
	// ComputeLatency is the simulated decoding cost.
	ComputeLatency time.Duration
}

// DecodeConcepts restores the concept sequence from received features for
// (domain, user) without rendering surface words: rows the server's decode
// memo holds for the model's current weights are read back, the rest run
// through the batched GEMMs — bit-identical to decoding every row. sc must
// be non-nil: concepts and all temporaries are allocated from it, so a warm
// steady-state call performs no heap allocation.
func (s *Server) DecodeConcepts(sc *mat.Scratch, domain, user string, feats *mat.Dense) (DecodeResult, error) {
	acq, err := s.AcquireCodec(domain, user)
	if err != nil {
		return DecodeResult{}, err
	}
	concepts := sc.Ints(feats.Rows)
	s.memo.DecodeFeaturesInto(sc, acq.Model.Codec, feats, concepts)
	return DecodeResult{
		AcquireResult:  acq,
		Concepts:       concepts,
		ComputeLatency: time.Duration(feats.Rows) * computePerToken,
	}, nil
}

// Decode restores a message from received features for (domain, user):
// DecodeConcepts plus the canonical surface rendering the daemon returns to
// clients.
func (s *Server) Decode(sc *mat.Scratch, domain, user string, feats *mat.Dense) (DecodeResult, error) {
	res, err := s.DecodeConcepts(sc, domain, user, feats)
	if err != nil {
		return DecodeResult{}, err
	}
	res.Words = res.Model.Codec.RestoreWords(res.Concepts)
	return res, nil
}

// RecordTransaction performs the §II-C decoder-copy mismatch calculation on
// the sender edge: it reads what the local codec's own decoder restores
// from the message's clean features (the codec's sender table — no decode
// runs and the decode memo is not touched), derives ground-truth concepts
// from the domain KB, and stores the transaction in the (user, domain)
// buffer. It returns the transaction and whether the buffer has reached its
// update threshold.
//
// enc, when non-nil, is the EncodeResult of the same words on this server:
// if the acquired codec is the same model instance its surface IDs are
// reused, otherwise the words are resolved again. The recorded transaction
// is bit-identical either way. The scratch parameter is unused (nothing
// here needs temporaries any more); callers pass the one they hold.
func (s *Server) RecordTransaction(_ *mat.Scratch, domain, user string, words []string, enc *EncodeResult) (fl.Transaction, bool, error) {
	acq, err := s.AcquireCodec(domain, user)
	if err != nil {
		return fl.Transaction{}, false, err
	}
	codec, n := acq.Model.Codec, len(words)
	// The transaction is retained by the buffer until the next update
	// fires, so it lives on the heap: one backing array, three capped views.
	ints := make([]int, 3*n)
	tx := fl.Transaction{SurfaceIDs: ints[:n:n], ConceptIDs: ints[n : 2*n : 2*n], Decoded: ints[2*n:]}
	if enc != nil && enc.Model == acq.Model {
		copy(tx.SurfaceIDs, enc.SurfaceIDs)
	} else {
		codec.Domain().SurfaceIDsInto(tx.SurfaceIDs, words)
	}
	for i, id := range tx.SurfaceIDs {
		tx.ConceptIDs[i] = codec.Domain().SurfaceConcept(id) // -1 out of domain: always a mismatch
	}
	codec.DecoderCopyInto(tx.SurfaceIDs, tx.Decoded)
	return tx, s.addTransaction(domain, user, tx), nil
}

// addTransaction appends tx to the (user, domain) buffer, creating it on
// first use, and reports whether the buffer reached its update threshold.
func (s *Server) addTransaction(domain, user string, tx fl.Transaction) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	byDomain := s.buffers[user]
	if byDomain == nil {
		byDomain = make(map[string]*fl.Buffer, 2)
		s.buffers[user] = byDomain
	}
	buf := byDomain[domain]
	if buf == nil {
		buf = fl.NewBuffer(domain, user, s.bufferThreshold)
		byDomain[domain] = buf
	}
	buf.Add(tx)
	return buf.Ready()
}

// Buffer returns the (user, domain) buffer, or nil if none exists yet.
func (s *Server) Buffer(domain, user string) *fl.Buffer {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buffers[user][domain]
}

// BufferState is one user domain-buffer snapshot, portable across edge
// servers so a handover carries the pending federated-update transactions
// and the update fires at the same threshold crossing on the new owner.
type BufferState struct {
	Domain string
	Txs    []fl.Transaction
}

// ExportUserBuffers snapshots every non-empty transaction buffer the
// server holds for user, sorted by domain for deterministic wire shape.
func (s *Server) ExportUserBuffers(user string) []BufferState {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []BufferState
	for _, buf := range s.buffers[user] {
		if buf.Len() == 0 {
			continue
		}
		out = append(out, BufferState{Domain: buf.Domain, Txs: buf.Transactions()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Domain < out[j].Domain })
	return out
}

// ImportUserBuffers replaces the user's buffers with the given snapshots
// (the exporter owned the user, so its view is authoritative).
func (s *Server) ImportUserBuffers(user string, states []BufferState) {
	byDomain := make(map[string]*fl.Buffer, len(states))
	for _, st := range states {
		buf := fl.NewBuffer(st.Domain, user, s.bufferThreshold)
		for _, tx := range st.Txs {
			buf.Add(tx)
		}
		byDomain[st.Domain] = buf
	}
	s.mu.Lock()
	s.buffers[user] = byDomain
	s.mu.Unlock()
}

// RunUpdate executes the §II-D update process for (domain, user): it
// ensures the individual model exists, fine-tunes it on the buffered
// transactions, resets the buffer, and returns the decoder update to ship
// to the receiver edge. The buffer is reset when the attempt fails too: a
// buffer left full would stay Ready, so every later message of the pair
// would re-run the failing update (a model clone and a refused cache Put
// each) while the buffer grew without bound. A failure costs one attempt
// per threshold; the pair retries on the next BufferThreshold messages.
func (s *Server) RunUpdate(domain, user string, cfg fl.UpdateConfig) (*fl.Update, error) {
	s.mu.Lock()
	buf := s.buffers[user][domain]
	s.mu.Unlock()
	if buf == nil || buf.Len() == 0 {
		return nil, fmt.Errorf("edge %s: no buffered data for %s/%s", s.name, user, domain)
	}
	defer buf.Reset()
	model, _, err := s.Personalize(domain, user)
	if err != nil {
		return nil, err
	}
	upd, err := fl.RunUpdate(model.Codec, buf, model.Version, cfg)
	if err != nil {
		return nil, err
	}
	model.Version = upd.Version
	return upd, nil
}

// ApplyRemoteUpdate applies a decoder update received from a peer edge to
// the local copy of the user's individual model, creating it from the
// general model if needed.
func (s *Server) ApplyRemoteUpdate(upd *fl.Update) error {
	model, _, err := s.Personalize(upd.Domain, upd.User)
	if err != nil {
		return err
	}
	if err := fl.ApplyUpdate(model.Codec, upd); err != nil {
		return err
	}
	model.Version = upd.Version
	return nil
}

// Prefetch pulls the general models for the given domains into the cache,
// returning the total transfer latency. Experiments use it for warm-start
// conditions.
func (s *Server) Prefetch(domains []string) (time.Duration, error) {
	var total time.Duration
	for _, d := range domains {
		acq, err := s.AcquireCodec(d, "")
		if err != nil {
			return total, err
		}
		total += acq.FetchLatency
	}
	return total, nil
}
