package edged

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/mat"
	"repro/internal/mesh"
	"repro/internal/rpc"
)

// testCtx is a per-test context bounded by a generous deadline.
func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

var meshKB struct {
	once sync.Once
	dir  string
	err  error
}

// meshKBDir writes the shared small pretrained codecs (soakPretrained)
// to .kbm files once per test binary: every daemon in these tests boots
// through the real -kb load path with identical weights, without paying
// pretraining per daemon.
func meshKBDir(t testing.TB) string {
	t.Helper()
	meshKB.once.Do(func() {
		dir, err := os.MkdirTemp("", "edged-mesh-kb-*")
		if err != nil {
			meshKB.err = err
			return
		}
		for _, codec := range soakPretrained(t) {
			stream, err := codec.AppendTo(nil)
			if err == nil {
				err = os.WriteFile(filepath.Join(dir, codec.Domain().Name+".kbm"), stream, 0o666)
			}
			if err != nil {
				meshKB.err = fmt.Errorf("write kb: %w", err)
				return
			}
		}
		meshKB.dir = dir
	})
	if meshKB.err != nil {
		t.Fatal(meshKB.err)
	}
	return meshKB.dir
}

// meshBaseConfig is the deployment-independent part: soakConfig's
// scenario (sticky, seed 11, threshold 8) expressed through the daemon's
// own Config surface.
func meshBaseConfig(t *testing.T) Config {
	cfg := *defaultConfig(t)
	cfg.Seed = 11
	cfg.KBDir = meshKBDir(t)
	cfg.BufferThreshold = 8
	cfg.ProbeInterval = 50 * time.Millisecond
	return cfg
}

// bootMesh boots n members on loopback TCP.
func bootMesh(t *testing.T, n int) *Cluster {
	t.Helper()
	return bootMeshOn(t, n, "127.0.0.1:0", nil)
}

// bootMeshMem boots n members on the in-memory transport: the same
// daemons, frames and code paths as bootMesh, with no socket anywhere.
func bootMeshMem(t *testing.T, n int) *Cluster {
	t.Helper()
	return bootMeshOn(t, n, "mem:", nil)
}

// bootMeshOn boots what n edged processes sharing one -peers list are
// (New from the daemon's own Config, then Mesh.Start), mutate adjusting
// member i's Config. The address alone selects the transport
// (rpc.Listen). n == 1 boots what `edged -addr a` is: no -peers at all.
func bootMeshOn(t *testing.T, n int, listenAddr string, mutate func(i int, cfg *Config)) *Cluster {
	t.Helper()
	c, err := StartCluster(n, listenAddr, func(i int, members []rpc.PeerInfo) (*Daemon, error) {
		cfg := meshBaseConfig(t)
		cfg.Addr = members[i].Addr
		if n > 1 {
			var addrs []string
			for _, m := range members {
				addrs = append(addrs, m.Addr)
			}
			cfg.Peers = strings.Join(addrs, ",")
			cfg.MeshIndex = i
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		d, err := New(cfg)
		if err == nil {
			d.Mesh.Start()
		}
		return d, err
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := c.Stop(); err != nil {
			t.Error(err)
		}
	})
	return c
}

// newRouter routes requests the way cmd/semload does: the one
// client-side mesh.Router, over the deployment's member addresses and
// the ring seed meshBaseConfig boots them with.
func newRouter(t *testing.T, m *Cluster) *mesh.Router {
	t.Helper()
	r := mesh.NewRouter(m.Addrs, 11)
	t.Cleanup(r.Close)
	return r
}

// transmit sends one message through the router; rerouted requests are
// not client-visible errors, a failure after the rebalance is.
func transmit(t *testing.T, r *mesh.Router, user, text string) *rpc.Response {
	t.Helper()
	resp, err := r.Transmit(context.Background(), user, text)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// nodeStats fetches one member's mesh counters over the peer-stats op.
func nodeStats(t *testing.T, r *mesh.Router, member int) *rpc.NodeStats {
	t.Helper()
	cl, err := r.Client(member)
	if err != nil {
		t.Fatalf("member %d: %v", member, err)
	}
	ns, err := cl.PeerStats(testCtx(t))
	if err != nil {
		t.Fatalf("member %d stats: %v", member, err)
	}
	return ns
}

// fold mirrors cmd/semload's digest folding.
func fold(digest *uint64, parts ...string) {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	*digest ^= h.Sum64() + 0x9e3779b97f4a7c15 + (*digest << 6) + (*digest >> 2)
}

// foldTransmit folds one served response into a run digest.
func foldTransmit(digest *uint64, user string, resp *rpc.Response) {
	fold(digest, "transmit", user, resp.Restored, resp.SelectedDomain,
		strconv.FormatUint(math.Float64bits(resp.Mismatch), 16),
		strconv.Itoa(resp.PayloadBytes),
		strconv.FormatUint(math.Float64bits(resp.LatencyMs), 16))
}

// serialStreams seeds the serial workload every digest test drives: one
// scheduler stream for user order (and mobility), one generator stream
// per user, split in fixed order from the root seed — semload's scheme.
func serialStreams(corp *corpus.Corpus, seed uint64, users int) (*mat.RNG, []*corpus.Generator) {
	root := mat.NewRNG(seed)
	sched := root.Split()
	gens := make([]*corpus.Generator, users)
	for i := range gens {
		gens[i] = corpus.NewGenerator(corp, root.Split())
	}
	return sched, gens
}

// sumNeighbor totals the cooperative-fetch counters over a merged stats
// snapshot's nodes.
func sumNeighbor(st *rpc.Stats) (hits, served int64) {
	for _, n := range st.Nodes {
		hits += n.NeighborHits
		served += n.NeighborServed
	}
	return hits, served
}

// TestMeshShapeInvariance is the invariant every daemon serves under: a
// user's response stream is a pure function of (seed, user, seq), whatever
// the deployment's shape and whatever else is in flight. Six users send 60
// messages each at 3 dB — noisy enough that a different noise draw restores
// different words; at the 12 dB default the link is error-free and every
// scheme would give the same bytes — to a lone daemon serially, to a lone
// daemon from one goroutine and one Router per user, and to a 3-member
// mesh serially, and each user's digest over (restored, domain, mismatch,
// payload, individual, update fired) is the same in all three. Simulated
// latency and the cache-hit flag are left out: a cold mesh member pays
// fetches a warm lone daemon does not. Each user keeps to one domain, so
// the six individual models fit the cache's eight slots and the concurrent
// leg cannot differ by eviction order.
func TestMeshShapeInvariance(t *testing.T) {
	const users, perUser, seed = 6, 60, 909
	corp := corpus.Build()
	noisy := func(_ int, cfg *Config) { cfg.SNRdB = 3 }
	userName := func(u int) string { return fmt.Sprintf("u%03d", u) }
	// send drives one user's whole stream through r, in order.
	send := func(r *mesh.Router, u int, gen *corpus.Generator, n int, digest *uint64) error {
		for i := 0; i < n; i++ {
			resp, err := r.Transmit(context.Background(), userName(u), gen.Message(u%len(corp.Domains), nil).Text())
			if err != nil {
				return err
			}
			if !resp.OK {
				return fmt.Errorf("%s message %d: %s", userName(u), i, resp.Error)
			}
			fold(digest, resp.Restored, resp.SelectedDomain,
				strconv.FormatUint(math.Float64bits(resp.Mismatch), 16), strconv.Itoa(resp.PayloadBytes),
				strconv.FormatBool(resp.Individual), strconv.FormatBool(resp.UpdateFired))
		}
		return nil
	}
	// serial interleaves the users message by message over one router.
	serial := func(members int) [users]uint64 {
		router := newRouter(t, bootMeshOn(t, members, "mem:", noisy))
		_, gens := serialStreams(corp, seed, users)
		var digests [users]uint64
		for i := 0; i < perUser; i++ {
			for u := range gens {
				if err := send(router, u, gens[u], 1, &digests[u]); err != nil {
					t.Fatal(err)
				}
			}
		}
		return digests
	}
	concurrent := func() [users]uint64 {
		m := bootMeshOn(t, 1, "mem:", noisy)
		_, gens := serialStreams(corp, seed, users)
		var digests [users]uint64
		var wg sync.WaitGroup
		for u := range gens {
			router := newRouter(t, m)
			wg.Add(1)
			go func(u int) {
				defer wg.Done()
				if err := send(router, u, gens[u], perUser, &digests[u]); err != nil {
					t.Error(err)
				}
			}(u)
		}
		wg.Wait()
		return digests
	}
	lone := serial(1)
	for name, got := range map[string][users]uint64{
		"a lone daemon under concurrent traffic": concurrent(),
		"a 3-member mesh":                        serial(3),
	} {
		for u := range got {
			if got[u] != lone[u] {
				t.Errorf("%s served by %s: digest %016x, by a lone daemon serially %016x", userName(u), name, got[u], lone[u])
			}
		}
	}
}

// TestMeshOfOneDrains: a lone daemon is routed to, moved on and drained
// like any member. A Router over its one address serves transmits, a move
// is answered and moves nobody, and a SIGTERM-style Drain finds no live
// peer, hands nothing off, returns nil and lets Serve exit clean — after
// which the router has nobody left to send to.
func TestMeshOfOneDrains(t *testing.T) {
	m := bootMeshOn(t, 1, "mem:", nil)
	router := newRouter(t, m)
	gen := corpus.NewGenerator(corpus.Build(), mat.NewRNG(7))
	for i := 0; i < 3; i++ {
		if resp := transmit(t, router, "solo", gen.Message(0, nil).Text()); !resp.OK {
			t.Fatalf("transmit %d: %+v", i, resp)
		}
	}
	resp, err := router.Move("solo", 2)
	if err != nil || !resp.OK || resp.Handover == nil {
		t.Fatalf("move: %+v, %v", resp, err)
	}
	if h := resp.Handover; h.Moved || h.From != "node-0" || h.To != "node-0" {
		t.Fatalf("move on a mesh of one: %+v, want an unmoved node-0 -> node-0", h)
	}
	st, err := router.MergedStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Messages != 3 || len(st.Nodes) != 1 || st.Nodes[0].Name != "node-0" || st.Nodes[0].Users != 1 {
		t.Fatalf("stats of a mesh of one: %d messages, nodes %+v", st.Messages, st.Nodes)
	}
	if err := m.Members[0].Drain(); err != nil {
		t.Fatalf("drain with no peers: %v", err)
	}
	select {
	case <-m.exited[0]:
		if err := m.errs[0]; err != nil {
			t.Fatalf("serve after the drain: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve never returned after the drain")
	}
	// Out of members is an error, for a transmit and for a move alike.
	if _, err := router.Transmit(context.Background(), "solo", "the server is down"); err == nil {
		t.Fatal("a drained lone daemon still served a transmit")
	}
	if _, err := router.Move("solo", 1); err == nil {
		t.Fatal("a drained lone daemon still served a move")
	}
}

// TestMeshMatchesInProcessCluster pins the mesh to the deployment it
// replaced. The golden below was recorded from the reference side of this
// test at the last commit that had one — a single `edged -nodes 3`
// in-process cluster daemon serving the same mobility-free serial
// workload — and the 3-member mesh must reproduce it bit for bit, noise
// realizations and cooperative-fetch accounting included, both across
// loopback TCP and across the in-memory transport: TCP ≡ memory ≡ what
// the in-process cluster produced.
func TestMeshMatchesInProcessCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("mesh acceptance run in -short mode")
	}
	const (
		users, requests = 6, 180

		goldenDigest         = 0x072d7694e87bcb49
		goldenMessages       = 180
		goldenNeighborHits   = 3
		goldenNeighborServed = 3
		goldenCachedModels   = 17
	)
	corp := corpus.Build()
	for _, transport := range []struct {
		name string
		boot func(*testing.T, int) *Cluster
	}{{"tcp", bootMesh}, {"memory", bootMeshMem}} {
		t.Run(transport.name, func(t *testing.T) {
			router := newRouter(t, transport.boot(t, 3))
			sched, gens := serialStreams(corp, 4242, users)
			var digest uint64
			for i := 0; i < requests; i++ {
				u := sched.Intn(users)
				user := fmt.Sprintf("u%03d", u)
				resp := transmit(t, router, user, gens[u].Message(u%len(corp.Domains), nil).Text())
				if !resp.OK {
					t.Fatalf("request %d failed: %q", i, resp.Error)
				}
				foldTransmit(&digest, user, resp)
			}
			st, err := router.MergedStats()
			if err != nil {
				t.Fatal(err)
			}
			if digest != goldenDigest {
				t.Fatalf("mesh run diverged from the in-process cluster golden: %016x != %016x", digest, uint64(goldenDigest))
			}
			if st.Messages != goldenMessages {
				t.Fatalf("messages: mesh %d, golden %d", st.Messages, goldenMessages)
			}
			if hits, served := sumNeighbor(st); hits != goldenNeighborHits || served != goldenNeighborServed {
				t.Fatalf("cooperative-fetch accounting diverged: mesh %d/%d, golden %d/%d",
					hits, served, goldenNeighborHits, goldenNeighborServed)
			}
			if st.Handovers != 0 {
				t.Fatalf("mobility-free run reported %d handovers", st.Handovers)
			}
			if st.CachedModels != goldenCachedModels {
				t.Fatalf("cached models: mesh %d, golden %d", st.CachedModels, goldenCachedModels)
			}
		})
	}
}

// TestClusterMobilityDeterministicRun is the semload -mobility scenario
// against a 3-member mesh on the in-memory transport: a serial seeded
// stream of moves and transmits must produce handovers and neighbor
// cache hits, every member must report its slice of the stats, and two
// identically-seeded runs against identically-booted meshes must be
// bit-identical — to each other and to the golden recorded from the same
// scenario against the in-process cluster daemon (`edged -nodes 3`) at
// the last commit that had one: mobility, handover accounting and
// cooperative fetches included, the mesh is that deployment.
func TestClusterMobilityDeterministicRun(t *testing.T) {
	const (
		users, requests, cells = 6, 200, 3
		moveRate               = 0.15
		seed                   = 4242

		goldenDigest        = 0x7178a8fbc5187429
		goldenHandovers     = 15
		goldenMigratedBytes = 166561
		goldenNeighborHits  = 10
		goldenCachedModels  = 24
	)
	corp := corpus.Build()
	run := func() (uint64, int, *rpc.Stats) {
		router := newRouter(t, bootMeshMem(t, 3))
		sched, gens := serialStreams(corp, seed, users)
		var digest uint64
		handovers := 0
		for i := 0; i < requests; i++ {
			u := sched.Intn(users)
			user := fmt.Sprintf("u%03d", u)
			if sched.Float64() < moveRate {
				cell := sched.Intn(cells)
				resp, err := router.Move(user, cell)
				if err != nil {
					t.Fatal(err)
				}
				if !resp.OK || resp.Handover == nil {
					t.Fatalf("move failed: %+v", resp)
				}
				if resp.Handover.Moved {
					handovers++
				}
				fold(&digest, "move", user, strconv.Itoa(cell),
					resp.Handover.From, resp.Handover.To,
					strconv.FormatBool(resp.Handover.Moved),
					strconv.FormatInt(resp.Handover.MigratedBytes, 10))
			}
			// Sticky per-user domains concentrate each user's traffic so the
			// update process fires, individual models form, and handovers have
			// real payloads to migrate.
			resp := transmit(t, router, user, gens[u].Message(u%len(corp.Domains), nil).Text())
			if !resp.OK {
				t.Fatalf("transmit %d failed: %q", i, resp.Error)
			}
			foldTransmit(&digest, user, resp)
		}
		st, err := router.MergedStats()
		if err != nil {
			t.Fatal(err)
		}
		return digest, handovers, st
	}
	d1, h1, st1 := run()
	d2, h2, st2 := run()

	if d1 != goldenDigest {
		t.Fatalf("mobility run diverged from the in-process cluster golden: %016x != %016x", d1, uint64(goldenDigest))
	}
	if h1 != goldenHandovers || st1.Handovers != goldenHandovers || st1.MigratedBytes != goldenMigratedBytes {
		t.Fatalf("handover accounting: client saw %d, mesh %d handovers / %d bytes; golden %d / %d",
			h1, st1.Handovers, st1.MigratedBytes, goldenHandovers, goldenMigratedBytes)
	}
	if hits, served := sumNeighbor(st1); hits != goldenNeighborHits || served != goldenNeighborHits {
		t.Fatalf("cooperative fetches: %d hits, %d served, golden %d", hits, served, goldenNeighborHits)
	}
	if st1.CachedModels != goldenCachedModels || st1.Messages != requests {
		t.Fatalf("mesh reports %d cached models, %d messages; golden %d, %d",
			st1.CachedModels, st1.Messages, goldenCachedModels, requests)
	}
	if len(st1.Nodes) != 3 {
		t.Fatalf("stats report %d nodes, want 3", len(st1.Nodes))
	}
	occupancy := 0
	for _, n := range st1.Nodes {
		occupancy += n.Users
	}
	if occupancy != users {
		t.Fatalf("user occupancy sums to %d over the members, want %d: a handover duplicated or lost a user", occupancy, users)
	}

	if d1 != d2 {
		t.Fatalf("identically-seeded runs diverged: %016x != %016x", d1, d2)
	}
	if h1 != h2 || st1.Handovers != st2.Handovers || st1.MigratedBytes != st2.MigratedBytes {
		t.Fatalf("handover accounting diverged: run1 %d/%d/%d, run2 %d/%d/%d",
			h1, st1.Handovers, st1.MigratedBytes, h2, st2.Handovers, st2.MigratedBytes)
	}
}

// TestMeshMobilityHandover moves a personalized user between mesh
// members: the move op on the serving member must push the user's
// individual models and noise sequence to the new owner over the wire,
// and the first transmit there must already serve from the migrated
// individual model.
func TestMeshMobilityHandover(t *testing.T) {
	if testing.Short() {
		t.Skip("mesh handover run in -short mode")
	}
	m := bootMesh(t, 3)
	router := newRouter(t, m)
	corp := corpus.Build()

	user := "wanderer"
	from := router.Owner(user)
	gen := corpus.NewGenerator(corp, mat.NewRNG(99))
	// Enough single-domain traffic to fire the update (threshold 8), so
	// the handover has a real payload.
	var sawIndividual bool
	for i := 0; i < 10; i++ {
		resp := transmit(t, router, user, gen.Message(0, nil).Text())
		if !resp.OK {
			t.Fatalf("warmup %d: %+v", i, resp)
		}
		sawIndividual = sawIndividual || resp.Individual
	}
	if !sawIndividual {
		t.Fatal("update process never personalized the user; handover would be empty")
	}

	// Pick a cell that lands on a different member.
	cell := 0
	for ; cell < 3; cell++ {
		if cell%3 != from {
			break
		}
	}
	resp, err := router.Move(user, cell)
	if err != nil || !resp.OK || resp.Handover == nil {
		t.Fatalf("move failed: %+v, %v", resp, err)
	}
	h := resp.Handover
	if !h.Moved || h.From == h.To {
		t.Fatalf("move did not change the serving member: %+v", h)
	}
	if h.Models == 0 || h.MigratedBytes <= 0 || h.LatencyMs <= 0 {
		t.Fatalf("handover carried nothing: %+v", h)
	}
	to := router.Owner(user)
	if to == from {
		t.Fatalf("router still maps %s to %d", user, from)
	}

	// The new owner serves from the migrated individual model at once.
	resp2 := transmit(t, router, user, gen.Message(0, nil).Text())
	if !resp2.OK {
		t.Fatalf("post-handover transmit: %+v", resp2)
	}
	if !resp2.Individual {
		t.Fatal("post-handover transmit fell back to the general model: migration lost the individual model")
	}

	oldStats, newStats := nodeStats(t, router, from), nodeStats(t, router, to)
	if oldStats.HandoversOut != 1 || newStats.HandoversIn != 1 {
		t.Fatalf("handover counters: out %d (want 1), in %d (want 1)", oldStats.HandoversOut, newStats.HandoversIn)
	}
}

// TestMeshMemoStatsMerge: each member of a mesh reports the decode-memo
// counters of its own edge servers — on the stats op and on its NodeStats
// entry — and a client's merged snapshot is their sum, so the hit rate of
// a deployment reads off one line. The same message sent again is served
// from the memo.
func TestMeshMemoStatsMerge(t *testing.T) {
	m := bootMeshMem(t, 2)
	router := newRouter(t, m)
	gen := corpus.NewGenerator(corpus.Build(), mat.NewRNG(5))
	served := make(map[int]bool)
	for u := 0; len(served) < 2 || u < 6; u++ {
		if u == 64 {
			t.Fatal("64 users all hash to one member")
		}
		user := fmt.Sprintf("memo-%d", u)
		text := gen.Message(u%3, nil).Text()
		for rep := 0; rep < 2; rep++ {
			if resp := transmit(t, router, user, text); !resp.OK {
				t.Fatalf("%s: %+v", user, resp)
			}
		}
		served[router.Owner(user)] = true
	}
	st, err := router.MergedStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Nodes) != 2 {
		t.Fatalf("merged stats carry %d nodes, want 2", len(st.Nodes))
	}
	var sum rpc.MemoStats
	for i := range st.Nodes {
		n := st.Nodes[i]
		if n.MemoLookups == 0 || n.MemoHits == 0 || n.MemoInserts == 0 {
			t.Errorf("%s served traffic but reports memo counters %+v", n.Name, n.MemoStats)
		}
		if direct := nodeStats(t, router, i); direct.MemoStats != n.MemoStats {
			t.Errorf("%s: peer-stats op says %+v, stats op said %+v", n.Name, direct.MemoStats, n.MemoStats)
		}
		sum.MemoLookups += n.MemoLookups
		sum.MemoHits += n.MemoHits
		sum.MemoInserts += n.MemoInserts
		sum.MemoReplaced += n.MemoReplaced
	}
	if st.MemoStats != sum {
		t.Fatalf("merged memo counters %+v, members sum to %+v", st.MemoStats, sum)
	}
	// Each message went out twice: at least the whole second copy hit.
	if st.MemoHits*2 < st.MemoLookups {
		t.Fatalf("repeated messages hit %d of %d rows", st.MemoHits, st.MemoLookups)
	}
}

// TestMeshRefusesV1Frame pins the one wire layout: a frame at a retired
// version — a client op and a mesh op at version 1, a version-2 handover
// push, whose pending transactions travel as JSON arrays, and a version-3
// push from the member's real peer, a JSON document with the parameters
// and packed transactions behind it — is never served. Each fails the
// read with *rpc.VersionError; the daemon closes the connection
// unanswered, takes no user in, and serves current clients and peers on
// other connections as before.
func TestMeshRefusesV1Frame(t *testing.T) {
	if testing.Short() {
		t.Skip("mesh boot in -short mode")
	}
	m := bootMesh(t, 2)
	cl, err := rpc.Dial(m.Addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	before, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	usersBefore := m.Members[0].Sys.Users()

	v2push := `{"op":"handover-push","handoff":{"user":"stale-push","from_node":"node-1","noise_seq":17,` +
		`"buffers":[{"domain":"it","txs":[{"surfaces":[3,1],"concepts":[2,-1],"decoded":[3,1]}]}]}}`
	v3push := `{"op":"handover-push","handoff":{"user":"stale-push","from_node":"` + m.Members[1].Mesh.Self().Name +
		`","noise_seq":17,"buffers":[{"domain":"it","txs_len":36}]}}`
	v3txs := "\x02\x00\x00\x00\x02\x00\x00\x00\x02\x00\x00\x00" + // three list lengths, then the int32 ids
		"\x03\x00\x00\x00\x01\x00\x00\x00\x02\x00\x00\x00\xff\xff\xff\xff\x03\x00\x00\x00\x01\x00\x00\x00"
	for _, stale := range []struct {
		version byte
		body    []byte
	}{
		{1, []byte(`{"op":"transmit","user":"stale","text":"the server has a kernel bug"}`)},
		{1, []byte(`{"op":"join","peer":{"name":"node-1","index":1}}`)},
		{2, append(binary.LittleEndian.AppendUint32(nil, uint32(len(v2push))), v2push...)},
		{3, append(binary.LittleEndian.AppendUint32(nil, uint32(len(v3push))), v3push+v3txs...)},
	} {
		frame := append([]byte{stale.version}, binary.LittleEndian.AppendUint32(nil, uint32(len(stale.body)))...)
		frame = append(frame, stale.body...)
		var verr *rpc.VersionError
		if _, _, err := rpc.ReadRequestV(bytes.NewReader(frame)); !errors.As(err, &verr) || verr.Got != stale.version {
			t.Fatalf("v%d frame %s: read err %v, want *rpc.VersionError", stale.version, stale.body, err)
		}
		conn, err := net.Dial("tcp", m.Addrs[0])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if n, err := conn.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("v%d frame %s: read %d bytes, err %v; want io.EOF from the daemon closing the connection", stale.version, stale.body, n, err)
		}
		conn.Close()
	}
	if got := m.Members[0].Sys.Users(); !slices.Equal(got, usersBefore) {
		t.Fatalf("a refused v2 or v3 push changed the member's users: %v -> %v", usersBefore, got)
	}

	after, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if after.Messages != before.Messages {
		t.Fatalf("a v1 transmit was served: messages %d -> %d", before.Messages, after.Messages)
	}
	resp, err := cl.Transmit("current", "the server has a kernel bug")
	if err != nil || !resp.OK {
		t.Fatalf("transmit: %+v, %v", resp, err)
	}
	peers, err := cl.Join(testCtx(t), m.Members[1].Mesh.Self())
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 2 {
		t.Fatalf("join returned %d members, want 2", len(peers))
	}
}

// TestMeshChaosKill is the chaos acceptance criterion: kill one of three
// members mid-run. Requests in flight to the dead member are retried by
// the client against the recomputed ring (not client-visible errors);
// after that rebalance every request must succeed, the pre-kill mobility
// handovers must have happened, and the survivors must have resolved
// misses cooperatively.
func TestMeshChaosKill(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run in -short mode")
	}
	const (
		users, requests = 6, 240
		killAt, victim  = 120, 1
		moveRate        = 0.1
		cells           = 3
	)
	m := bootMesh(t, 3)
	router := newRouter(t, m)
	corp := corpus.Build()
	sched, gens := serialStreams(corp, 777, users)

	handovers, survivorServed := 0, 0
	for i := 0; i < requests; i++ {
		if i == killAt {
			m.Members[victim].Kill()
		}
		u := sched.Intn(users)
		user := fmt.Sprintf("u%03d", u)
		if i < killAt && sched.Float64() < moveRate {
			// Pre-kill mobility so cross-member handovers happen; the
			// serving member may be the victim later, exercising the
			// override-remap path.
			resp, err := router.Move(user, sched.Intn(cells))
			if err != nil || !resp.OK {
				t.Fatalf("move %d: %+v, %v", i, resp, err)
			}
			if resp.Handover.Moved {
				handovers++
			}
		}
		resp := transmit(t, router, user, gens[u].Message(u%len(corp.Domains), nil).Text())
		if !resp.OK {
			t.Fatalf("request %d: client-visible error after rebalance: %q", i, resp.Error)
		}
		if router.Owner(user) != victim {
			survivorServed++
		}
	}

	if handovers == 0 {
		t.Fatal("chaos run produced no handovers before the kill")
	}
	if slices.Contains(router.Live(), victim) {
		t.Fatal("client never discovered the kill — no request routed to the victim?")
	}
	if router.Retries == 0 {
		t.Fatal("no request was retried: the kill was invisible, assertion too weak")
	}

	// Survivors: cooperative fetches happened, and their probe loops have
	// demoted the victim (zero remaining live-member churn).
	var neighborHits int64
	for _, idx := range []int{0, 2} {
		neighborHits += nodeStats(t, router, idx).NeighborHits
	}
	if neighborHits == 0 {
		t.Fatal("survivors resolved no misses cooperatively")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		live := m.Members[0].Mesh.LiveMembers()
		if len(live) == 2 && live[0] == 0 && live[1] == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("survivor 0 never demoted the victim: live members %v", live)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The mesh is still fully serviceable after the rebalance: the
	// survivors' counters account for every request the client routed to
	// them (the victim's pre-kill share died with it, by design).
	st, err := router.MergedStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Messages != survivorServed {
		t.Fatalf("survivors report %d messages, client routed %d to them", st.Messages, survivorServed)
	}
	if got := requests - killAt; survivorServed < got {
		t.Fatalf("survivors served %d, want at least the %d post-kill requests", survivorServed, got)
	}
}

// TestMeshChaosDrain is the graceful-departure acceptance criterion:
// drain (SIGTERM semantics) one of three members mid-run. Unlike the
// chaos kill, a drain is lossless — every model the victim owned and
// every user's full serving state (individual models, noise sequence,
// selection belief, pending update buffers) is pushed to the new ring
// owners before the victim answers Draining, so the run digest matches
// a reference run against the same mesh with no drain at all: zero
// client-visible errors, zero divergence, zero origin re-fetches.
func TestMeshChaosDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos drain run in -short mode")
	}
	const (
		users, requests = 6, 240
		drainAt, victim = 120, 1
	)
	corp := corpus.Build()

	// Every member warms its sender cache: both runs then serve with
	// identical cache latencies, which is what makes the digests
	// comparable (the drain moves users between members, and a response
	// must not depend on which member produced it).
	warmAll := func(m *Cluster) {
		t.Helper()
		for _, d := range m.Members {
			if _, err := d.Sys.Sender.Prefetch(d.Sys.Corpus.Names()); err != nil {
				t.Fatal(err)
			}
		}
	}

	workload := func(m *Cluster, router *mesh.Router, drain bool) uint64 {
		t.Helper()
		sched, gens := serialStreams(corp, 515, users)
		drainErr := make(chan error, 1)
		var digest uint64
		for i := 0; i < requests; i++ {
			if drain && i == drainAt {
				// Asynchronous, exactly like a SIGTERM landing mid-run: the
				// serial load keeps flowing while the victim drains.
				go func() { drainErr <- m.Members[victim].Drain() }()
			}
			u := sched.Intn(users)
			user := fmt.Sprintf("u%03d", u)
			resp := transmit(t, router, user, gens[u].Message(u%len(corp.Domains), nil).Text())
			if !resp.OK {
				t.Fatalf("request %d: client-visible error during drain: %q", i, resp.Error)
			}
			foldTransmit(&digest, user, resp)
		}
		if drain {
			select {
			case err := <-drainErr:
				if err != nil {
					t.Fatalf("drain: %v", err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("drain never finished")
			}
		}
		return digest
	}

	// Reference: the identical workload against an identical mesh whose
	// membership never changes.
	ref := bootMesh(t, 3)
	warmAll(ref)
	refDigest := workload(ref, newRouter(t, ref), false)

	// Candidate: same mesh, with member 1 drained at the midpoint.
	m := bootMesh(t, 3)
	warmAll(m)
	router := newRouter(t, m)
	// Boot and warmup legitimately paid origin fetches (member 0 fills
	// the mesh's first copy from the cloud); the drain gate is that the
	// run itself adds none.
	preOrigin := make(map[int]int64)
	for _, idx := range []int{0, 2} {
		preOrigin[idx] = nodeStats(t, router, idx).OriginFetches
	}
	digest := workload(m, router, true)

	if digest != refDigest {
		t.Fatalf("drained run diverged from undrained reference: %016x != %016x", digest, refDigest)
	}
	if slices.Contains(router.Live(), victim) {
		t.Fatal("client never observed the drain — no request was ever rerouted")
	}
	var handoversIn int64
	for _, idx := range []int{0, 2} {
		ns := nodeStats(t, router, idx)
		if grew := ns.OriginFetches - preOrigin[idx]; grew != 0 {
			t.Fatalf("survivor %d paid %d origin re-fetches; a graceful drain must hand everything off", idx, grew)
		}
		handoversIn += ns.HandoversIn
	}
	if handoversIn == 0 {
		t.Fatal("no survivor received a drain handoff: the victim's users were lost, not handed over")
	}
	// The drained member's probe-announced departure pinned it down:
	// survivors agree on the two-member view.
	live := m.Members[0].Mesh.LiveMembers()
	if len(live) != 2 || live[0] != 0 || live[1] != 2 {
		t.Fatalf("survivor 0 live view after drain: %v, want [0 2]", live)
	}
}

// TestMeshLeavePinsDeparted pins the Leave-vs-probe race: an OpLeave
// observation is authoritative and a concurrent liveness-probe success
// against the still-answering member (it keeps serving RPCs while its
// drain runs) must not resurrect it. Only a fresh OpJoin revives it.
func TestMeshLeavePinsDeparted(t *testing.T) {
	if testing.Short() {
		t.Skip("mesh boot in -short mode")
	}
	m := bootMesh(t, 3)
	cl, err := rpc.Dial(m.Addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Let the membership settle first: the boot-time joins must all be
	// processed, or a late join would legitimately revive the member we
	// are about to declare departed.
	deadline := time.Now().Add(10 * time.Second)
	for stable := 0; stable < 10; {
		if len(m.Members[0].Mesh.LiveMembers()) == 3 {
			stable++
		} else {
			stable = 0
		}
		if time.Now().After(deadline) {
			t.Fatalf("mesh never settled: live view %v", m.Members[0].Mesh.LiveMembers())
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Forge member 1's departure announcement at member 0 while member 1
	// is in fact still up and answering member 0's probes.
	self1 := m.Members[1].Mesh.Self()
	if err := cl.Leave(testCtx(t), self1); err != nil {
		t.Fatal(err)
	}
	live := m.Members[0].Mesh.LiveMembers()
	if len(live) != 2 || live[0] != 0 || live[1] != 2 {
		t.Fatalf("live view after leave: %v, want [0 2]", live)
	}

	// Six probe intervals' worth of successful probes against the live
	// member must not lift the pin.
	time.Sleep(6 * 50 * time.Millisecond)
	live = m.Members[0].Mesh.LiveMembers()
	if len(live) != 2 || live[0] != 0 || live[1] != 2 {
		t.Fatalf("probe success resurrected the departed member: live view %v, want [0 2]", live)
	}

	// A fresh join is the one event that revives it.
	if _, err := cl.Join(testCtx(t), self1); err != nil {
		t.Fatal(err)
	}
	live = m.Members[0].Mesh.LiveMembers()
	if len(live) != 3 {
		t.Fatalf("join did not revive the member: live view %v, want [0 1 2]", live)
	}
}

// TestMeshReplicaPush drives enough single-domain traffic through one
// member to promote the domain past the hot threshold and asserts the
// general model lands proactively on the member's ring successor —
// without touching the user-handover counters (replication is a cache
// concern, not a mobility event).
func TestMeshReplicaPush(t *testing.T) {
	if testing.Short() {
		t.Skip("replica run in -short mode")
	}
	m := bootMeshOn(t, 3, "127.0.0.1:0", func(i int, cfg *Config) { cfg.Replicas = 1 })
	router := newRouter(t, m)
	corp := corpus.Build()

	// Pick a user owned by member 0 or 1, so the push successor is a cold
	// member (member 0 boots warm and would count as already-replicated).
	user, owner := "", -1
	for u := 0; u < 64; u++ {
		name := fmt.Sprintf("r%03d", u)
		if o := router.Owner(name); o != 2 {
			user, owner = name, o
			break
		}
	}
	if user == "" {
		t.Fatal("no user hashed to members 0/1")
	}
	succ := (owner + 1) % 3

	gen := corpus.NewGenerator(corp, mat.NewRNG(5))
	for i := 0; i < 24; i++ {
		if resp := transmit(t, router, user, gen.Message(0, nil).Text()); !resp.OK {
			t.Fatalf("transmit %d: %+v", i, resp)
		}
	}

	// The promotion threshold is 16 served transmits on one domain and
	// the push is asynchronous; poll the wire-visible counters.
	deadline := time.Now().Add(5 * time.Second)
	var os, ss *rpc.NodeStats
	for {
		os, ss = nodeStats(t, router, owner), nodeStats(t, router, succ)
		if os.ReplicasOut >= 1 && ss.ReplicasIn >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never arrived: owner %+v, successor %+v", os, ss)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if len(os.Hot) == 0 || os.Hot[0].Count < 16 {
		t.Fatalf("owner's heat snapshot missing the hot domain: %+v", os.Hot)
	}
	hot := os.Hot[0].Domain
	found := false
	for _, d := range ss.Generals {
		found = found || d == hot
	}
	if !found {
		t.Fatalf("successor does not hold the replicated general %q: %v", hot, ss.Generals)
	}
	if os.HandoversOut != 0 || ss.HandoversIn != 0 {
		t.Fatalf("replica push bumped user-handover counters: out %d, in %d", os.HandoversOut, ss.HandoversIn)
	}
}
