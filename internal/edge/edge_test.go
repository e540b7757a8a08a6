package edge

import (
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/corpus"
	"repro/internal/fl"
	"repro/internal/kb"
	"repro/internal/mat"
	"repro/internal/semantic"
)

var (
	edgeOnce  sync.Once
	edgeCorp  *corpus.Corpus
	edgeCloud *kb.Registry
)

// cloudFixture pretrains two domain codecs and registers them as general
// models in a cloud registry shared across tests (read-only).
func cloudFixture(t *testing.T) (*corpus.Corpus, *kb.Registry) {
	t.Helper()
	edgeOnce.Do(func() {
		edgeCorp = corpus.Build()
		edgeCloud = kb.NewRegistry()
		cfg := semantic.Config{
			EmbedDim: 12, FeatureDim: 6, HiddenDim: 16,
			Epochs: 3, Sentences: 400, Seed: 7,
		}
		for _, name := range []string{"it", "medical"} {
			d := edgeCorp.Domain(name)
			codec := semantic.Pretrain(d, edgeCorp, cfg)
			edgeCloud.Put(&kb.Model{Key: kb.GeneralKey(name, kb.RoleCodec), Version: 1, Codec: codec})
		}
	})
	return edgeCorp, edgeCloud
}

// newServer builds a test edge with capacity for n codec models.
func newServer(t *testing.T, n int, policy cache.Policy) *Server {
	t.Helper()
	_, cloud := cloudFixture(t)
	m, _ := cloud.Get(kb.GeneralKey("it", kb.RoleCodec))
	srv, err := New(Config{
		Name:          "edge-test",
		CacheCapacity: m.SizeBytes() * int64(n),
		Policy:        policy,
	}, cloud)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{CacheCapacity: 100}, nil); err == nil {
		t.Fatal("nil origin accepted")
	}
	_, cloud := cloudFixture(t)
	if _, err := New(Config{CacheCapacity: -1}, cloud); err == nil {
		t.Fatal("bad capacity accepted")
	}
}

func TestAcquireColdThenWarm(t *testing.T) {
	srv := newServer(t, 4, nil)
	cold, err := srv.AcquireCodec("it", "")
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheHit {
		t.Fatal("first acquire should be a miss")
	}
	if cold.FetchLatency < 40*time.Millisecond {
		t.Fatalf("cold fetch latency %v below uplink latency", cold.FetchLatency)
	}
	warm, err := srv.AcquireCodec("it", "")
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit || warm.FetchLatency != 0 {
		t.Fatalf("second acquire should be a free hit: %+v", warm)
	}
	if warm.Model != cold.Model {
		t.Fatal("warm acquire returned a different model")
	}
}

func TestAcquireUnknownDomain(t *testing.T) {
	srv := newServer(t, 4, nil)
	if _, err := srv.AcquireCodec("astrology", ""); err == nil {
		t.Fatal("unknown domain accepted")
	}
}

func TestAcquirePrefersIndividualModel(t *testing.T) {
	srv := newServer(t, 4, nil)
	if _, _, err := srv.Personalize("it", "alice"); err != nil {
		t.Fatal(err)
	}
	acq, err := srv.AcquireCodec("it", "alice")
	if err != nil {
		t.Fatal(err)
	}
	if !acq.Individual {
		t.Fatal("individual model not preferred")
	}
	// Another user still gets the general model.
	acq2, err := srv.AcquireCodec("it", "bob")
	if err != nil {
		t.Fatal(err)
	}
	if acq2.Individual {
		t.Fatal("bob received alice's individual model")
	}
}

func TestPersonalizeIdempotent(t *testing.T) {
	srv := newServer(t, 4, nil)
	m1, _, err := srv.Personalize("it", "alice")
	if err != nil {
		t.Fatal(err)
	}
	m2, _, err := srv.Personalize("it", "alice")
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Fatal("Personalize replaced an existing individual model")
	}
}

func TestPersonalizeRequiresUser(t *testing.T) {
	srv := newServer(t, 4, nil)
	if _, _, err := srv.Personalize("it", ""); err == nil {
		t.Fatal("empty user accepted")
	}
}

func TestPersonalizeClonesGeneral(t *testing.T) {
	srv := newServer(t, 4, nil)
	m, _, err := srv.Personalize("it", "alice")
	if err != nil {
		t.Fatal(err)
	}
	gen, _ := srv.AcquireCodec("it", "")
	if m.Codec == gen.Model.Codec {
		t.Fatal("individual model shares codec with general model")
	}
}

func TestEncodeDecodeAcrossServers(t *testing.T) {
	corp, _ := cloudFixture(t)
	sender := newServer(t, 4, nil)
	receiver := newServer(t, 4, nil)
	gen := corpus.NewGenerator(corp, mat.NewRNG(10))
	m := gen.Message(corp.Domain("it").Index, nil)

	sc := mat.GetScratch()
	defer mat.PutScratch(sc)
	enc, err := sender.Encode(sc, "it", "u1", m.Words)
	if err != nil {
		t.Fatal(err)
	}
	if enc.Features.Rows != len(m.Words) {
		t.Fatal("feature count mismatch")
	}
	if enc.ComputeLatency != time.Duration(len(m.Words))*200*time.Microsecond {
		t.Fatalf("compute latency = %v", enc.ComputeLatency)
	}
	dec, err := receiver.Decode(sc, "it", "u1", enc.Features)
	if err != nil {
		t.Fatal(err)
	}
	// Same general models on both edges and a clean path: decoding must
	// match ground truth wherever the codec reconstructs correctly.
	acc := semantic.ConceptAccuracy(dec.Concepts, m.ConceptIDs)
	if acc < 0.8 {
		t.Fatalf("cross-server accuracy = %v", acc)
	}
	if len(dec.Words) != len(m.Words) {
		t.Fatal("restored word count mismatch")
	}
}

func TestRecordTransactionBuffersAndSignals(t *testing.T) {
	corp, _ := cloudFixture(t)
	srv := newServer(t, 4, nil)
	srv.bufferThreshold = 3
	gen := corpus.NewGenerator(corp, mat.NewRNG(11))
	var ready bool
	for i := 0; i < 3; i++ {
		m := gen.Message(corp.Domain("it").Index, nil)
		var err error
		_, ready, err = srv.RecordTransaction(nil, "it", "u1", m.Words, nil)
		if err != nil {
			t.Fatal(err)
		}
	}
	if !ready {
		t.Fatal("buffer should signal ready at threshold")
	}
	buf := srv.Buffer("it", "u1")
	if buf == nil || buf.Len() != 3 {
		t.Fatal("buffer not recorded")
	}
}

func TestRecordTransactionOutOfDomainWords(t *testing.T) {
	srv := newServer(t, 4, nil)
	tx, _, err := srv.RecordTransaction(nil, "it", "u1", []string{"doctor", "server"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tx.ConceptIDs[0] != -1 {
		t.Fatal("out-of-domain word should map to concept -1")
	}
	if tx.ConceptIDs[1] < 0 {
		t.Fatal("in-domain word should have a concept")
	}
	if tx.Mismatch() < 0.5 {
		t.Fatalf("mismatch = %v, expected >= 0.5 with one OOD word", tx.Mismatch())
	}
}

func TestUpdateRoundTripBetweenEdges(t *testing.T) {
	corp, _ := cloudFixture(t)
	sender := newServer(t, 6, nil)
	receiver := newServer(t, 6, nil)
	rng := mat.NewRNG(12)
	idio := corpus.NewIdiolect(corp, rng.Split(), 0.5)
	gen := corpus.NewGenerator(corp, rng.Split())
	sender.bufferThreshold = 24

	for i := 0; i < 24; i++ {
		m := gen.Message(corp.Domain("it").Index, idio)
		if _, _, err := sender.RecordTransaction(nil, "it", "u1", m.Words, nil); err != nil {
			t.Fatal(err)
		}
	}
	upd, err := sender.RunUpdate("it", "u1", fl.UpdateConfig{Epochs: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if upd.Version != 1 {
		t.Fatalf("version = %d", upd.Version)
	}
	if sender.Buffer("it", "u1").Len() != 0 {
		t.Fatal("buffer not reset after update")
	}
	if err := receiver.ApplyRemoteUpdate(upd); err != nil {
		t.Fatal(err)
	}
	// Receiver's individual decoder must now match the sender's exactly
	// (lossless compression in this test).
	sm, _ := sender.AcquireCodec("it", "u1")
	rm, _ := receiver.AcquireCodec("it", "u1")
	if !sm.Individual || !rm.Individual {
		t.Fatal("individual models missing after update")
	}
	msgs := gen.Batch(corp.Domain("it").Index, 20, idio)
	sc := mat.GetScratch()
	defer mat.PutScratch(sc)
	for _, m := range msgs {
		sc.Reset()
		feats := sm.Model.Codec.EncodeWordsInto(sc, m.Words)
		a, b := make([]int, feats.Rows), make([]int, feats.Rows)
		sm.Model.Codec.DecodeFeaturesInto(sc, feats, a)
		rm.Model.Codec.DecodeFeaturesInto(sc, feats, b)
		for i := range a {
			if a[i] != b[i] {
				t.Fatal("receiver decoder diverged from sender after sync")
			}
		}
	}
}

func TestRunUpdateWithoutData(t *testing.T) {
	srv := newServer(t, 4, nil)
	if _, err := srv.RunUpdate("it", "nobody", fl.UpdateConfig{}); err == nil {
		t.Fatal("update without buffered data accepted")
	}
}

func TestPrefetchWarmsCache(t *testing.T) {
	srv := newServer(t, 4, nil)
	lat, err := srv.Prefetch([]string{"it", "medical"})
	if err != nil {
		t.Fatal(err)
	}
	if lat <= 0 {
		t.Fatal("prefetch should pay fetch latency")
	}
	warm := srv.CacheStats()
	for _, d := range []string{"it", "medical"} {
		if acq, err := srv.AcquireCodec(d, ""); err != nil || !acq.CacheHit {
			t.Fatalf("prefetch did not warm %s", d)
		}
	}
	if srv.CacheStats().Misses != warm.Misses {
		t.Fatal("post-prefetch misses recorded")
	}
}

func TestCacheEvictionUnderPressure(t *testing.T) {
	// Capacity for one model only: acquiring two domains must evict.
	srv := newServer(t, 1, cache.NewLRU())
	if _, err := srv.AcquireCodec("it", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.AcquireCodec("medical", ""); err != nil {
		t.Fatal(err)
	}
	if srv.Cache().Len() != 1 {
		t.Fatalf("cache holds %d models, capacity is 1", srv.Cache().Len())
	}
	// Re-acquiring the evicted domain is a miss again.
	acq, err := srv.AcquireCodec("it", "")
	if err != nil {
		t.Fatal(err)
	}
	if acq.CacheHit {
		t.Fatal("evicted model reported as hit")
	}
}

func TestConcurrentTransactions(t *testing.T) {
	corp, _ := cloudFixture(t)
	srv := newServer(t, 6, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			gen := corpus.NewGenerator(corp, mat.NewRNG(uint64(100+g)))
			user := string(rune('a' + g))
			for i := 0; i < 30; i++ {
				m := gen.Message(corp.Domain("it").Index, nil)
				if _, _, err := srv.RecordTransaction(nil, "it", user, m.Words, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < 8; g++ {
		user := string(rune('a' + g))
		if buf := srv.Buffer("it", user); buf == nil || buf.Len() != 30 {
			t.Fatalf("user %s buffer corrupted", user)
		}
	}
}
