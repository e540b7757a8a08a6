package mesh_test

import (
	"net"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/edged"
	"repro/internal/mat"
	"repro/internal/mesh"
	"repro/internal/rpc"
	"repro/internal/semantic"
)

// This file is the in-memory mesh harness: N members inside the test
// process, each an edged daemon (edged.NewMember: a mesh.Node, its
// core.System and the request server) booted by edged.StartCluster and
// answering the others on a mem: listener. The server, the frames, the ops and every code path between
// two members are the ones two edged processes run; only the flags, the
// boot-time warm-up and the sockets are absent, which is what makes these
// tests fast enough to run un-gated, under -race, on every PR.

var testPretrained struct {
	once   sync.Once
	codecs []*semantic.Codec
}

// pretrained trains one small codec per corpus domain, once per test
// binary; every member clones from it.
func pretrained() []*semantic.Codec {
	testPretrained.once.Do(func() {
		testPretrained.codecs = semantic.PretrainAll(corpus.Build(), semantic.Config{
			EmbedDim: 12, FeatureDim: 8, HiddenDim: 16, Epochs: 3, Sentences: 500, Seed: 11,
		})
	})
	return testPretrained.codecs
}

// member is one in-process mesh member.
type member struct {
	node *mesh.Node
	sys  *core.System
}

// serve runs one message through the member the way edged's transmit op
// does, failing the test on a transmit or update error.
func (m *member) serve(t testing.TB, user string, words []string) *core.Result {
	t.Helper()
	res, err := m.sys.TransmitText(user, words)
	if err != nil {
		t.Fatalf("%s: transmit for %s: %v", m.node.Self().Name, user, err)
	}
	if res.UpdateErr != nil {
		t.Fatalf("%s: update for %s failed: %v", m.node.Self().Name, user, res.UpdateErr)
	}
	return res
}

// memMesh is a booted in-memory mesh, its member addresses and the
// client-side router over them.
type memMesh struct {
	members []*member
	addrs   []string
	router  *mesh.Router
}

// testSeed is the system and ring seed of every harness mesh.
const testSeed = 11

// newMemMesh boots n members on the in-memory transport. The defaults are
// the edged test scenario (sticky selector, threshold 8, generals pinned);
// mutate adjusts member i's configs before it is built, and member i
// accepts through wrap(i, its listener) when wrap is non-nil — where a
// test puts a faulty link. Nobody probes unless a test calls Start:
// membership is static and every member presumed alive, so runs are
// deterministic.
func newMemMesh(t testing.TB, n int, mutate func(i int, cfg *mesh.Config, sys *core.Config), wrap func(i int, ln net.Listener) net.Listener) *memMesh {
	t.Helper()
	c, err := edged.StartCluster(n, "mem:", func(i int, members []rpc.PeerInfo) (*edged.Daemon, error) {
		cfg := mesh.Config{
			Self:     members[i],
			Peers:    slices.Delete(slices.Clone(members), i, i+1),
			RingSeed: testSeed,
			Logf:     t.Logf,
		}
		sysCfg := core.Config{
			Selector:        core.SelectorSticky,
			PinGeneral:      true,
			BufferThreshold: 8,
			Seed:            testSeed,
			Pretrained:      pretrained(),
		}
		if mutate != nil {
			mutate(i, &cfg, &sysCfg)
		}
		return edged.NewMember(cfg, sysCfg)
	}, wrap)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := c.Stop(); err != nil {
			t.Error(err)
		}
	})
	mm := &memMesh{members: make([]*member, n), addrs: c.Addrs, router: mesh.NewRouter(c.Addrs, testSeed)}
	for i, d := range c.Members {
		mm.members[i] = &member{node: d.Mesh, sys: d.Sys}
	}
	return mm
}

// warm prefetches every general model into both edges of the given
// members (all of them when none is named), so no later request pays —
// or counts — a fetch.
func (mm *memMesh) warm(t testing.TB, which ...int) {
	t.Helper()
	if len(which) == 0 {
		for i := range mm.members {
			which = append(which, i)
		}
	}
	for _, i := range which {
		sys := mm.members[i].sys
		if _, err := sys.Sender.Prefetch(sys.Corpus.Names()); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Receiver.Prefetch(sys.Corpus.Names()); err != nil {
			t.Fatal(err)
		}
	}
}

// owner returns the member the router currently maps user to.
func (mm *memMesh) owner(user string) *member { return mm.members[mm.router.Owner(user)] }

// move attaches user to cell the way a client does: the move goes to the
// user's serving member, and the router mirrors the outcome.
func (mm *memMesh) move(t testing.TB, user string, cell int) *rpc.Handover {
	t.Helper()
	h, err := mm.owner(user).node.MoveUser(user, cell)
	if err != nil {
		t.Fatalf("move %s to cell %d: %v", user, cell, err)
	}
	mm.router.Moved(user, cell)
	return h
}

// messages draws n single-domain messages from a seeded generator.
func messages(domain, n int, seed uint64) [][]string {
	gen := corpus.NewGenerator(corpus.Build(), mat.NewRNG(seed))
	out := make([][]string, n)
	for i := range out {
		out[i] = gen.Message(domain, nil).Words
	}
	return out
}

// personalize streams single-domain traffic through the user's owner
// until an update fired and the user is served from an individual model.
func (mm *memMesh) personalize(t testing.TB, user string, domain int, seed uint64) {
	t.Helper()
	individual := false
	for _, words := range messages(domain, 10, seed) {
		individual = mm.owner(user).serve(t, user, words).UsedIndividual || individual
	}
	if !individual {
		t.Fatalf("%s was never served from an individual model: the fixture personalized nobody", user)
	}
}
