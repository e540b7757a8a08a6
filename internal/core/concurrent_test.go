package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"hash/fnv"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/corpus"
	"repro/internal/mat"
	"repro/internal/semantic"
)

// goldenConfig is the fixed scenario for the serialized-baseline digest:
// a sticky-selector system with a small update threshold so the full
// pipeline (selection, encode, channel, decode, buffering, updates) runs.
func goldenConfig() Config {
	return Config{
		Codec: semantic.Config{
			EmbedDim:   12,
			FeatureDim: 6,
			HiddenDim:  16,
			Epochs:     3,
			Sentences:  400,
		},
		Selector:        SelectorSticky,
		PinGeneral:      true,
		BufferThreshold: 8,
		Seed:            7,
	}
}

// goldenMessages generates the fixed single-user message sequence.
func goldenMessages(corp *corpus.Corpus) [][]string {
	gen := corpus.NewGenerator(corp, mat.NewRNG(1234))
	msgs := make([][]string, 40)
	for i := range msgs {
		msgs[i] = gen.Message(i%len(corp.Domains), nil).Words
	}
	return msgs
}

// hashResult folds every Result field that the wire protocol or the
// experiment tables expose into the digest.
func hashResult(h hash.Hash, res *Result) {
	fmt.Fprintf(h, "%d|%v|%g|%d|%d|%d|%t|%t|%t|%t|%d\n",
		res.SelectedDomain, res.RestoredWords, res.Mismatch,
		res.PayloadBytes, res.Symbols, res.Latency.Nanoseconds(),
		res.EncCacheHit, res.DecCacheHit, res.UsedIndividual,
		res.UpdateFired, res.UpdateBytes)
}

// singleUserDigest runs the golden sequence for one user and digests every
// result.
func singleUserDigest(t *testing.T) string {
	t.Helper()
	s, err := NewSystem(goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, words := range goldenMessages(s.Corpus) {
		res, err := s.TransmitText("solo", words)
		if err != nil {
			t.Fatal(err)
		}
		hashResult(h, res)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// serializedBaselineDigest is the digest produced by the pre-concurrency
// global-lock serve path (recorded before the per-user sharding refactor,
// linux/amd64). A single-user request sequence must stay bit-identical to
// it: concurrency must never change what any one user observes.
const serializedBaselineDigest = "73d6fe6dc1ddebd2b26f9e21cc167e62b00cb4a81df375cc66bc7936eda5b59b"

func TestSingleUserSerialGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Go may fuse floating-point operations differently per
		// architecture, so the recorded digest is amd64-specific.
		t.Skipf("golden digest recorded on amd64, running on %s", runtime.GOARCH)
	}
	got := singleUserDigest(t)
	if got != serializedBaselineDigest {
		t.Fatalf("single-user result stream diverged from the serialized baseline:\n got %s\nwant %s",
			got, serializedBaselineDigest)
	}
}

// TestConcurrentDistinctUsers hammers one shared system from many users at
// once, with the update process live, and checks that every transmit
// succeeds and the aggregate counters add up exactly.
func TestConcurrentDistinctUsers(t *testing.T) {
	s, err := NewSystem(goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	const users, perUser = 8, 24 // threshold 8: every user fires updates
	var wg sync.WaitGroup
	var updates, individual atomic.Int64
	errCh := make(chan error, users)
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			gen := corpus.NewGenerator(s.Corpus, mat.NewRNG(uint64(100+u)))
			user := fmt.Sprintf("user%d", u)
			for i := 0; i < perUser; i++ {
				res, err := s.TransmitText(user, gen.Message(u%len(s.Corpus.Domains), nil).Words)
				if err != nil {
					errCh <- err
					return
				}
				if len(res.RestoredWords) == 0 || res.PayloadBytes <= 0 || res.Latency <= 0 {
					errCh <- fmt.Errorf("user %d message %d: implausible result %+v", u, i, res)
					return
				}
				if res.UpdateFired {
					updates.Add(1)
				}
				if res.UsedIndividual {
					individual.Add(1)
				}
			}
		}(u)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	// Each user stays in one domain and sends 24 messages with threshold
	// 8, so exactly 3 updates per user must have fired and been counted.
	wantUpdates := int64(users * perUser / 8)
	if updates.Load() != wantUpdates {
		t.Fatalf("updates fired = %d, want %d", updates.Load(), wantUpdates)
	}
	if int64(s.SyncCount()) != updates.Load() {
		t.Fatalf("SyncCount = %d, updates observed = %d", s.SyncCount(), updates.Load())
	}
	if s.SyncBytes() <= 0 {
		t.Fatalf("sync accounting empty: bytes %d", s.SyncBytes())
	}
	if individual.Load() == 0 {
		t.Fatal("no transmit used an individual model despite updates")
	}
}

// TestConcurrentSameUser checks that racing requests for one user are
// serialized, not corrupted: the user's buffer arithmetic must come out
// exact.
func TestConcurrentSameUser(t *testing.T) {
	cfg := goldenConfig()
	cfg.Selector = selectFixed // domain 0: buffer counts are exact
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 8, 8
	var wg sync.WaitGroup
	var updates atomic.Int64
	errCh := make(chan error, workers)
	gens := make([]*corpus.Generator, workers)
	for w := range gens {
		gens[w] = corpus.NewGenerator(s.Corpus, mat.NewRNG(uint64(500+w)))
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				res, err := s.TransmitText("shared", gens[w].Message(0, nil).Words)
				if err != nil {
					errCh <- err
					return
				}
				if res.UpdateFired {
					updates.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	// 64 messages through one serialized user with threshold 8: exactly 8
	// updates, regardless of interleaving.
	if updates.Load() != workers*perWorker/8 {
		t.Fatalf("updates = %d, want %d", updates.Load(), workers*perWorker/8)
	}
}

// batchTestPretrained trains the small shared codec set once per test
// binary: every system in these tests clones it instead of retraining.
var batchTestPretrained struct {
	once   sync.Once
	codecs []*semantic.Codec
}

// batchTestConfig is the fixed fast scenario the comparison tests share:
// sticky selection, pinned generals, ample cache, and a small update
// threshold so fine-tuning fires inside the run.
func batchTestConfig() Config {
	batchTestPretrained.once.Do(func() {
		batchTestPretrained.codecs = semantic.PretrainAll(corpus.Build(), semantic.Config{
			EmbedDim:   12,
			FeatureDim: 6,
			HiddenDim:  16,
			Epochs:     2,
			Sentences:  200,
			Seed:       7,
		})
	})
	return Config{
		Selector:        SelectorSticky,
		PinGeneral:      true,
		BufferThreshold: 8,
		Seed:            7,
		Pretrained:      batchTestPretrained.codecs,
	}
}

// batchUserMessages builds each user's fixed message stream: user u
// sticks to domain u mod len(domains), seeded per user.
func batchUserMessages(corp *corpus.Corpus, users, perUser int) [][][]string {
	out := make([][][]string, users)
	for u := range out {
		gen := corpus.NewGenerator(corp, mat.NewRNG(uint64(3000+u)))
		msgs := make([][]string, perUser)
		for i := range msgs {
			msgs[i] = gen.Message(u%len(corp.Domains), nil).Words
		}
		out[u] = msgs
	}
	return out
}

// prefetchAll warms both edges with every general model so no run pays an
// interleaving-dependent fetch latency.
func prefetchAll(t *testing.T, s *System) {
	t.Helper()
	domains := make([]string, len(s.Corpus.Domains))
	for i, d := range s.Corpus.Domains {
		domains[i] = d.Name
	}
	if _, err := s.Sender.Prefetch(domains); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Receiver.Prefetch(domains); err != nil {
		t.Fatal(err)
	}
}

// userDigests runs every user's stream against s — concurrently when
// parallel is set — and returns one digest per user over every field
// hashResult folds, the noise-dependent RestoredWords included.
func userDigests(t *testing.T, s *System, streams [][][]string, parallel bool) []uint64 {
	t.Helper()
	digests := make([]uint64, len(streams))
	run := func(u int) error {
		h := fnv.New64a()
		user := fmt.Sprintf("user%d", u)
		for _, words := range streams[u] {
			res, err := s.TransmitText(user, words)
			if err != nil {
				return err
			}
			hashResult(h, res)
		}
		digests[u] = h.Sum64()
		return nil
	}
	if !parallel {
		for u := range streams {
			if err := run(u); err != nil {
				t.Fatal(err)
			}
		}
		return digests
	}
	var wg sync.WaitGroup
	errCh := make(chan error, len(streams))
	for u := range streams {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			if err := run(u); err != nil {
				errCh <- err
			}
		}(u)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	return digests
}

// TestConcurrentMatchesSerialDigests pins the transparency of concurrent
// serving: with the selector, buffers and update process live, every
// user's result stream — channel noise included — is bit-identical whether
// the users run one after another or all at once.
// It runs at 3 dB, where the noise flips decisions, so a crossing that
// drew from anything but its own (user, seq) seed would show.
func TestConcurrentMatchesSerialDigests(t *testing.T) {
	const users, perUser = 6, 16
	cfg := batchTestConfig()
	cfg.SNRdB = 3
	serial, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	streams := batchUserMessages(serial.Corpus, users, perUser)
	prefetchAll(t, serial)
	want := userDigests(t, serial, streams, false)

	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prefetchAll(t, s)
	got := userDigests(t, s, streams, true)
	for u := range got {
		if got[u] != want[u] {
			t.Fatalf("user %d concurrent digest %016x != serial %016x", u, got[u], want[u])
		}
	}
}

// TestSeededCrossingRaceSoak hammers the channel crossing under load — one
// hot user shared by many goroutines (per-user serialization) and a wide
// set of distinct users, all crossing the one SeededLink at once. Its value
// is highest under -race, where it proves the crossing shares no mutable
// state between transmissions. It runs the sticky selector: the oracle's
// one shared selector must not be primed concurrently.
func TestSeededCrossingRaceSoak(t *testing.T) {
	const (
		goroutines = 8
		perG       = 10
	)
	s, err := NewSystem(batchTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	prefetchAll(t, s)
	gen := corpus.NewGenerator(s.Corpus, mat.NewRNG(808))
	msgs := make([][]string, goroutines*perG)
	for i := range msgs {
		msgs[i] = gen.Message(i%len(s.Corpus.Domains), nil).Words
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 2*goroutines)
	send := func(user string, g int) {
		defer wg.Done()
		for i := 0; i < perG; i++ {
			if _, err := s.TransmitText(user, msgs[(g*perG+i)%len(msgs)]); err != nil {
				errCh <- err
				return
			}
		}
	}
	for g := 0; g < goroutines; g++ {
		// Half the load hammers one hot user; half spreads across
		// distinct users.
		wg.Add(2)
		go send("hot-user", g)
		go send(fmt.Sprintf("cold-user%d", g), g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}
