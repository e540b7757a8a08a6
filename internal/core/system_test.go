package core

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/corpus"
	"repro/internal/mat"
	"repro/internal/selection"
	"repro/internal/semantic"
	"repro/internal/trace"
)

// testConfig keeps system tests fast while remaining accurate enough for
// the behavioral assertions.
func testConfig() Config {
	return Config{
		Codec: semantic.Config{
			EmbedDim:   12,
			FeatureDim: 6,
			HiddenDim:  16,
			Epochs:     3,
			Sentences:  400,
		},
		Seed: 7,
	}
}

var (
	sysOnce sync.Once
	sysInst *System
	sysErr  error
)

// sharedSystem builds one fixed-domain-selector system reused by read-mostly
// tests. Tests that mutate state (updates, cache churn) build their own.
func sharedSystem(t *testing.T) *System {
	t.Helper()
	sysOnce.Do(func() {
		cfg := testConfig()
		cfg.Selector = selectFixed
		cfg.PinGeneral = true
		sysInst, sysErr = NewSystem(cfg)
	})
	if sysErr != nil {
		t.Fatal(sysErr)
	}
	return sysInst
}

// fixedDomain is the tests' oracle selector: it selects the domain a test
// last steered it to, whatever the words say.
type fixedDomain struct{ domain int }

func (f *fixedDomain) Select([]string) int { return f.domain }
func (f *fixedDomain) Feedback(float64)    {}

// selectFixed gives each user a fixedDomain of their own, at domain 0
// until steer moves it.
func selectFixed(*selection.NaiveBayes, int, *mat.RNG) selection.Selector { return &fixedDomain{} }

// steer points user's fixedDomain at domain, creating the user's record
// first if needed. Under any other selector it does nothing.
func steer(s *System, user string, domain int) {
	if f, ok := s.userState(user).sel.(*fixedDomain); ok {
		f.domain = domain
	}
}

// transmitReq sends a trace request through TransmitText, steering the
// user's fixedDomain to its true domain first when s runs selectFixed.
func transmitReq(s *System, req trace.Request) (*Result, error) {
	steer(s, req.User, req.Msg.DomainIndex)
	return s.TransmitText(req.User, req.Msg.Words)
}

// runWorkload sends every request of w through transmitReq in order.
func runWorkload(t testing.TB, s *System, w *trace.Workload) []*Result {
	t.Helper()
	out := make([]*Result, 0, len(w.Requests))
	for _, req := range w.Requests {
		res, err := transmitReq(s, req)
		if err != nil {
			t.Fatalf("request %d: %v", req.Seq, err)
		}
		out = append(out, res)
	}
	return out
}

func TestSemanticPayloadSmallerThanRawText(t *testing.T) {
	s := sharedSystem(t)
	w := trace.Generate(s.Corpus, trace.Config{Users: 1, Messages: 40, Seed: 13})
	results := runWorkload(t, s, w)
	var semBytes, rawBytes float64
	for i, r := range results {
		semBytes += float64(r.PayloadBytes)
		rawBytes += float64(len(w.Requests[i].Msg.Text()))
	}
	if semBytes >= rawBytes {
		t.Fatalf("semantic payload (%v) not smaller than raw text (%v)", semBytes, rawBytes)
	}
}

func TestColdCachePaysFetchLatency(t *testing.T) {
	cfg := testConfig()
	cfg.Selector = selectFixed
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := trace.Generate(s.Corpus, trace.Config{Users: 1, Messages: 10, Seed: 17})
	results := runWorkload(t, s, w)
	if results[0].EncCacheHit {
		t.Fatal("first message should miss the sender cache")
	}
	// Fetch latency dominates the cold message.
	if results[0].Latency < 40*time.Millisecond {
		t.Fatalf("cold latency = %v, below cloud link latency", results[0].Latency)
	}
	// Later same-domain messages should be far cheaper.
	last := results[len(results)-1]
	if last.Latency >= results[0].Latency {
		t.Fatalf("warm latency %v not below cold %v", last.Latency, results[0].Latency)
	}
}

func TestUpdateProcessFiresAndHelps(t *testing.T) {
	cfg := testConfig()
	cfg.Selector = selectFixed
	cfg.PinGeneral = true
	cfg.BufferThreshold = 24
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Single user with a strong idiolect in a single domain.
	w := trace.Generate(s.Corpus, trace.Config{
		Users: 1, Messages: 120, Seed: 23,
		IdiolectStrength: 0.5, MeanRunLength: 1e9, // stay in one domain
	})
	results := runWorkload(t, s, w)
	updates := 0
	for _, r := range results {
		if r.UpdateFired {
			updates++
			if r.UpdateBytes <= 0 {
				t.Fatal("update fired with zero bytes")
			}
		}
	}
	if updates == 0 {
		t.Fatal("no updates fired in 120 messages with threshold 24")
	}
	if s.SyncCount() != updates || s.SyncBytes() <= 0 {
		t.Fatalf("sync counters inconsistent: count %d vs %d", s.SyncCount(), updates)
	}
	if ut := s.UpdateTime(); ut.N() != int64(updates) || ut.P(50) <= 0 {
		t.Fatalf("update-time histogram holds %d samples (p50 %g ms) after %d updates", ut.N(), ut.P(50), updates)
	}
	// Personalization must reduce mismatch: compare first vs last quarter.
	quarter := len(results) / 4
	var early, late float64
	for i := 0; i < quarter; i++ {
		early += results[i].Mismatch
		late += results[len(results)-1-i].Mismatch
	}
	if late >= early {
		t.Fatalf("mismatch did not decrease after updates: early %v late %v", early, late)
	}
	// Individual models must be in play by the end.
	if !results[len(results)-1].UsedIndividual {
		t.Fatal("individual model not used after updates")
	}
}

// TestUpdateFailureCounted pins that a failing update process is reported,
// not swallowed: with the generals pinned in a sender cache sized to hold
// only them, no individual model can ever be admitted, so every update the
// buffer triggers fails with cache.ErrTooLarge. The transmit itself still
// succeeds; the failure is counted and carried on the result, and it costs
// one attempt per threshold: the failed attempt discards what it buffered,
// so the pair retries BufferThreshold messages later instead of on every
// message with an ever-growing buffer.
func TestUpdateFailureCounted(t *testing.T) {
	const threshold, messages = 4, 10
	cfg := batchTestConfig()
	cfg.Selector = selectFixed // domain 0 throughout
	cfg.BufferThreshold = threshold
	for _, c := range cfg.Pretrained {
		cfg.SenderCacheBytes += c.SizeBytes()
	}
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prefetchAll(t, s) // every general pinned: the sender cache is now full
	gen := corpus.NewGenerator(s.Corpus, mat.NewRNG(77))
	for i := 1; i <= messages; i++ {
		res, err := s.TransmitText("u1", gen.Message(0, nil).Words)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if res.UpdateFired {
			t.Fatalf("message %d: UpdateFired although the model cannot be cached", i)
		}
		// Every threshold-th message (4 and 8) is a crossing; none between.
		if crossing := i%threshold == 0; crossing != (res.UpdateErr != nil) {
			t.Fatalf("message %d: UpdateErr = %v, crossing = %t", i, res.UpdateErr, crossing)
		}
		if res.UpdateErr != nil && !errors.Is(res.UpdateErr, cache.ErrTooLarge) {
			t.Fatalf("message %d: UpdateErr = %v, want cache.ErrTooLarge", i, res.UpdateErr)
		}
		if n := s.Sender.Buffer(s.Corpus.Domains[res.SelectedDomain].Name, "u1").Len(); n >= threshold {
			t.Fatalf("message %d: %d transactions buffered, want fewer than the threshold %d", i, n, threshold)
		}
	}
	if got, want := s.UpdateFailures(), int64(messages/threshold); got != want {
		t.Fatalf("UpdateFailures = %d, want %d", got, want)
	}
	if s.SyncCount() != 0 || s.UpdateTime().N() != 0 {
		t.Fatalf("SyncCount = %d, %d update times after only failed updates", s.SyncCount(), s.UpdateTime().N())
	}
}

// TestSystemDeterminism runs one fixed-domain workload on two identically
// configured systems and requires the same digest over every result.
func TestSystemDeterminism(t *testing.T) {
	run := func() string {
		cfg := testConfig()
		cfg.Selector = selectFixed
		cfg.PinGeneral = true
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		w := trace.Generate(s.Corpus, trace.Config{Users: 2, Messages: 50, Seed: 41})
		h := sha256.New()
		for _, res := range runWorkload(t, s, w) {
			hashResult(h, res)
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("system not deterministic: digest %s, then %s", a, b)
	}
}
