package cluster

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/fl"
	"repro/internal/kb"
	"repro/internal/mat"
	"repro/internal/netsim"
	"repro/internal/semantic"
)

var (
	fixOnce  sync.Once
	fixCorp  *corpus.Corpus
	fixCloud *kb.Registry
)

// cloudFixture pretrains two small domain codecs and registers them as
// general models in a cloud registry shared (read-only) across tests.
func cloudFixture(t *testing.T) (*corpus.Corpus, *kb.Registry) {
	t.Helper()
	fixOnce.Do(func() {
		fixCorp = corpus.Build()
		fixCloud = kb.NewRegistry()
		cfg := semantic.Config{
			EmbedDim: 12, FeatureDim: 6, HiddenDim: 16,
			Epochs: 3, Sentences: 400, Seed: 7,
		}
		for _, name := range []string{"it", "medical"} {
			d := fixCorp.Domain(name)
			codec := semantic.Pretrain(d, fixCorp, cfg)
			fixCloud.Put(&kb.Model{Key: kb.GeneralKey(name, kb.RoleCodec), Version: 1, Codec: codec})
		}
	})
	return fixCorp, fixCloud
}

// newCluster builds an n-node cluster whose per-node cache fits about
// eight codec models.
func newCluster(t *testing.T, n int, policy string) *Cluster {
	t.Helper()
	_, cloud := cloudFixture(t)
	m, _ := cloud.Get(kb.GeneralKey("it", kb.RoleCodec))
	c, err := New(Config{
		Nodes:      n,
		CacheBytes: m.SizeBytes() * 8,
		Policy:     policy,
		Uplink:     netsim.Link{Latency: 40 * time.Millisecond, BandwidthBps: 200e6},
		Mesh:       netsim.Link{Latency: 5 * time.Millisecond, BandwidthBps: 400e6},
		Seed:       1,
	}, cloud)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// personalize runs enough idiolect traffic through the user's serving node
// to fine-tune an individual "it" model there.
func personalize(t *testing.T, c *Cluster, user string, seed uint64) {
	t.Helper()
	corp, _ := cloudFixture(t)
	rng := mat.NewRNG(seed)
	idio := corpus.NewIdiolect(corp, rng.Split(), 0.5)
	gen := corpus.NewGenerator(corp, rng.Split())
	node := c.Route(user)
	for i := 0; i < 24; i++ {
		m := gen.Message(corp.Domain("it").Index, idio)
		if _, _, err := node.Edge().RecordTransaction(nil, "it", user, m.Words, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := node.Edge().RunUpdate("it", user, fl.UpdateConfig{Epochs: 3, Seed: 5}); err != nil {
		t.Fatal(err)
	}
}

func TestNewValidation(t *testing.T) {
	_, cloud := cloudFixture(t)
	if _, err := New(Config{CacheBytes: 1 << 20}, nil); err == nil {
		t.Fatal("nil origin accepted")
	}
	if _, err := New(Config{Nodes: -2, CacheBytes: 1 << 20}, cloud); err == nil {
		t.Fatal("negative node count accepted")
	}
	if _, err := New(Config{CacheBytes: 1 << 20, Policy: "belady"}, cloud); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestRoutingDeterministicAndBalanced(t *testing.T) {
	a := newCluster(t, 4, "lru")
	b := newCluster(t, 4, "lru")
	counts := make([]int, 4)
	for u := 0; u < 400; u++ {
		user := fmt.Sprintf("u%03d", u)
		na, nb := a.Route(user), b.Route(user)
		if na.Index() != nb.Index() {
			t.Fatalf("user %s routes to %d on one cluster, %d on its twin", user, na.Index(), nb.Index())
		}
		counts[na.Index()]++
	}
	for i, n := range counts {
		// Consistent hashing with 64 vnodes is uneven but no node should be
		// starved or own the majority of 400 users over 4 nodes.
		if n < 20 || n > 250 {
			t.Fatalf("node %d owns %d of 400 users; ring badly unbalanced: %v", i, n, counts)
		}
	}
}

func TestMoveOverridesRouting(t *testing.T) {
	c := newCluster(t, 3, "lru")
	user := "roamer"
	home := c.Route(user).Index()
	target := (home + 1) % 3
	res, err := c.Move(user, target)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Moved || res.From != home || res.To != target {
		t.Fatalf("unexpected handover result %+v", res)
	}
	if got := c.Route(user).Index(); got != target {
		t.Fatalf("after Move user routes to %d, want %d", got, target)
	}
	// Moving to the same cell is a no-op, not a handover.
	res, err = c.Move(user, target)
	if err != nil {
		t.Fatal(err)
	}
	if res.Moved {
		t.Fatalf("same-cell move reported a handover: %+v", res)
	}
	if st := c.Stats(); st.Handovers != 1 {
		t.Fatalf("handovers = %d, want 1", st.Handovers)
	}
	// Cell indices wrap modulo the cluster size.
	if _, err := c.Move(user, 3+home); err != nil {
		t.Fatal(err)
	}
	if got := c.Route(user).Index(); got != home {
		t.Fatalf("wrapped move routed to %d, want %d", got, home)
	}
}

// TestHandoverGoldenRoundTrip is the golden bit-identity check: after a
// handover, the new node's exported model bytes and its encode outputs
// must equal the pre-handover node's exactly.
func TestHandoverGoldenRoundTrip(t *testing.T) {
	corp, _ := cloudFixture(t)
	c := newCluster(t, 2, "lru")
	user := "golden"
	personalize(t, c, user, 51)
	from := c.Route(user)
	to := (from.Index() + 1) % 2

	words := corpus.NewGenerator(corp, mat.NewRNG(99)).Message(corp.Domain("it").Index, nil).Words
	preExport, err := from.Edge().ExportUserModel("it", user)
	if err != nil {
		t.Fatal(err)
	}
	sc := mat.GetScratch()
	defer mat.PutScratch(sc)
	preEnc, err := from.Edge().Encode(sc, "it", user, words)
	if err != nil {
		t.Fatal(err)
	}
	if !preEnc.Individual {
		t.Fatal("pre-handover encode did not use the individual model")
	}

	res, err := c.Move(user, to)
	if err != nil {
		t.Fatal(err)
	}
	if res.Models != 1 || res.Bytes != preExport.SizeBytes() {
		t.Fatalf("handover migrated %d models / %d bytes, want 1 / %d", res.Models, res.Bytes, preExport.SizeBytes())
	}
	if res.Latency <= 0 {
		t.Fatal("handover paid no mesh latency")
	}
	if got := from.Edge().UserDomains(user); len(got) != 0 {
		t.Fatalf("source node still holds %v after handover", got)
	}

	postExport, err := c.Node(to).Edge().ExportUserModel("it", user)
	if err != nil {
		t.Fatal(err)
	}
	if postExport.Version != preExport.Version {
		t.Fatalf("version changed across handover: %d -> %d", preExport.Version, postExport.Version)
	}
	if !bytes.Equal(postExport.Params, preExport.Params) {
		t.Fatal("exported parameter bytes differ across handover")
	}
	postEnc, err := c.Node(to).Edge().Encode(sc, "it", user, words)
	if err != nil {
		t.Fatal(err)
	}
	if !postEnc.Individual {
		t.Fatal("post-handover encode did not use the migrated individual model")
	}
	if postEnc.Features.Rows != preEnc.Features.Rows {
		t.Fatal("feature count changed across handover")
	}
	for i := range preEnc.Features.Data {
		if postEnc.Features.Data[i] != preEnc.Features.Data[i] {
			t.Fatalf("feature element %d differs across handover: %v != %v",
				i, postEnc.Features.Data[i], preEnc.Features.Data[i])
		}
	}
}

func TestCooperativeFetchPrefersNeighbor(t *testing.T) {
	c := newCluster(t, 3, "lru")
	// Warm node 0 only: every other node starts cold.
	if _, err := c.Node(0).Edge().Prefetch([]string{"it", "medical"}); err != nil {
		t.Fatal(err)
	}
	acq, err := c.Node(1).Edge().AcquireCodec("it", "")
	if err != nil {
		t.Fatal(err)
	}
	if acq.CacheHit {
		t.Fatal("cold node reported a local hit")
	}
	if !acq.Remote {
		t.Fatal("miss with a warm neighbor was not served cooperatively")
	}
	// One mesh hop (5 ms + serialization) is far below the 40 ms uplink.
	if acq.FetchLatency <= 0 || acq.FetchLatency >= 40*time.Millisecond {
		t.Fatalf("neighbor fetch latency %v not in mesh range", acq.FetchLatency)
	}
	st := c.Stats()
	if st.Nodes[1].NeighborHits != 1 || st.Nodes[1].NeighborBytes <= 0 {
		t.Fatalf("node 1 counters wrong: %+v", st.Nodes[1])
	}
	if st.Nodes[0].NeighborServed != 1 {
		t.Fatalf("node 0 served %d probes, want 1", st.Nodes[0].NeighborServed)
	}
	// Node 1's origin counter must be untouched; node 0 fetched two models.
	if st.Nodes[1].OriginFetches != 0 || st.Nodes[0].OriginFetches != 2 {
		t.Fatalf("origin fetch counters wrong: %+v", st.Nodes)
	}
	// A fully cold key still falls back to the origin.
	acq, err = c.Node(2).Edge().AcquireCodec("medical", "")
	if err != nil {
		t.Fatal(err)
	}
	if !acq.Remote {
		t.Fatal("medical is cached on node 0; expected a cooperative hit")
	}
}

func TestCooperativeFetchFallsBackToOrigin(t *testing.T) {
	c := newCluster(t, 2, "lru")
	acq, err := c.Node(1).Edge().AcquireCodec("it", "")
	if err != nil {
		t.Fatal(err)
	}
	if acq.Remote {
		t.Fatal("all-cold cluster reported a neighbor hit")
	}
	if acq.FetchLatency < 40*time.Millisecond {
		t.Fatalf("origin fetch latency %v below uplink latency", acq.FetchLatency)
	}
	st := c.Stats()
	if st.Nodes[1].OriginFetches != 1 || st.Nodes[1].OriginBytes <= 0 {
		t.Fatalf("origin counters wrong: %+v", st.Nodes[1])
	}
	if st.NeighborHits() != 0 {
		t.Fatal("phantom neighbor hit")
	}
}

func TestStatsOccupancy(t *testing.T) {
	c := newCluster(t, 2, "lru")
	for u := 0; u < 10; u++ {
		c.Route(fmt.Sprintf("u%02d", u))
	}
	c.Move("u00", 1)
	st := c.Stats()
	total := 0
	for _, n := range st.Nodes {
		total += n.Users
	}
	if total != 10 {
		t.Fatalf("occupancy sums to %d, want 10", total)
	}
}

// TestConcurrentClusterUse exercises routing, cooperative fetches and
// handovers from many goroutines; run under -race it is the cluster's
// data-race gate. Each goroutine owns one user, so the per-user
// serialization contract holds while nodes and counters are shared.
func TestConcurrentClusterUse(t *testing.T) {
	c := newCluster(t, 3, "lru")
	if _, err := c.Node(0).Edge().Prefetch([]string{"it", "medical"}); err != nil {
		t.Fatal(err)
	}
	const users = 16
	var wg sync.WaitGroup
	errCh := make(chan error, users)
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			user := fmt.Sprintf("c%02d", u)
			for i := 0; i < 30; i++ {
				node := c.Route(user)
				if _, err := node.Edge().AcquireCodec("it", user); err != nil {
					errCh <- err
					return
				}
				if _, _, err := node.Edge().Personalize("it", user); err != nil {
					errCh <- err
					return
				}
				if i%7 == u%7 {
					if _, err := c.Move(user, (node.Index()+1)%3); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(u)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Handovers == 0 {
		t.Fatal("concurrent run produced no handovers")
	}
	for _, n := range st.Nodes {
		if n.CacheUsedBytes > c.Node(0).Edge().Cache().Capacity() {
			t.Fatalf("node %s over capacity", n.Name)
		}
	}
}

func TestRingConsistency(t *testing.T) {
	// Growing the ring by one node must only reassign users, never produce
	// an out-of-range node, and must keep most users in place.
	small := NewRing(3, 64, 1)
	big := NewRing(4, 64, 1)
	moved := 0
	const users = 1000
	for u := 0; u < users; u++ {
		user := fmt.Sprintf("u%04d", u)
		s, b := small.Node(user), big.Node(user)
		if s < 0 || s >= 3 || b < 0 || b >= 4 {
			t.Fatalf("node index out of range: %d, %d", s, b)
		}
		if s != b {
			moved++
		}
	}
	// Consistent hashing moves roughly 1/4 of users when going 3 -> 4
	// nodes; a modulo hash would move about 3/4.
	if moved > users/2 {
		t.Fatalf("adding one node moved %d/%d users; not consistent", moved, users)
	}
}

// TestMoveCarriesPendingTransactions checks a handover moves the user's
// half-full update buffers along with their models: the source keeps
// nothing of the user, and the target holds the same transactions in the
// same order — also for a user who has buffered traffic but no individual
// model yet, so the loop over UserDomains never runs for them.
func TestMoveCarriesPendingTransactions(t *testing.T) {
	corp, _ := cloudFixture(t)
	for _, tc := range []struct {
		name         string
		personalized bool
	}{{"with an individual model", true}, {"before any individual model", false}} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t, 2, "lru")
			user := "pending"
			if tc.personalized {
				personalize(t, c, user, 61)
			}
			from := c.Route(user)
			to := c.Node((from.Index() + 1) % 2)
			gen := corpus.NewGenerator(corp, mat.NewRNG(77))
			for _, traffic := range []struct {
				domain string
				n      int
			}{{"it", 5}, {"medical", 3}} {
				for i := 0; i < traffic.n; i++ {
					words := gen.Message(corp.Domain(traffic.domain).Index, nil).Words
					if _, _, err := from.Edge().RecordTransaction(nil, traffic.domain, user, words, nil); err != nil {
						t.Fatal(err)
					}
				}
			}
			want := from.Edge().ExportUserBuffers(user)
			if len(want) != 2 || len(want[0].Txs) != 5 || len(want[1].Txs) != 3 {
				t.Fatalf("fixture buffered %+v, want 5 it + 3 medical transactions", want)
			}
			if _, err := c.Move(user, to.Index()); err != nil {
				t.Fatal(err)
			}
			for _, d := range corp.Domains {
				if buf := from.Edge().Buffer(d.Name, user); buf != nil {
					t.Fatalf("source still holds a %s buffer of %d transactions after the move", d.Name, buf.Len())
				}
			}
			if got := to.Edge().ExportUserBuffers(user); !reflect.DeepEqual(got, want) {
				t.Fatalf("target buffers after the move = %+v, want %+v", got, want)
			}
		})
	}
}
