package mesh_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/kb"
	"repro/internal/mesh"
	"repro/internal/rpc"
	"repro/internal/semantic"
)

// cacheListing names every cached model that where selects, with its
// version, in sorted order.
func cacheListing(c *cache.Cache, where func(kb.Key) bool) string {
	keys := c.KeysWhere(where)
	lines := make([]string, len(keys))
	for i, k := range keys {
		m, _ := c.Peek(k)
		lines[i] = fmt.Sprintf("%s@%d", k, m.Version)
	}
	sort.Strings(lines)
	return fmt.Sprintln(lines)
}

// userState captures everything a handover push may change on a member:
// which individual models each edge caches and at what version, and the
// complete exportable state (model bytes, noise sequence, belief, pending
// buffers) of the named users, each as the push frame that would ship it.
func userState(t *testing.T, sys *core.System, users ...string) string {
	t.Helper()
	var b strings.Builder
	for _, c := range []*cache.Cache{sys.Sender.Cache(), sys.Receiver.Cache()} {
		b.WriteString(cacheListing(c, func(k kb.Key) bool { return k.User != "" }))
	}
	for _, u := range users {
		exp, err := sys.ExportUserForHandover(u)
		if err != nil {
			t.Fatalf("export %q: %v", u, err)
		}
		var frame bytes.Buffer
		if err := rpc.WriteV(&frame, rpc.Version, &rpc.Request{Op: rpc.OpHandoverPush, Handoff: mesh.ExportToWire(exp, "")}); err != nil {
			t.Fatal(err)
		}
		b.Write(frame.Bytes())
	}
	return b.String()
}

// tinyCodecs keeps a fuzz seed — and so every mutated input the engine
// has to parse and minimize — at a few kilobytes.
func tinyCodecs() []*semantic.Codec {
	return semantic.PretrainAll(corpus.Build(), semantic.Config{
		EmbedDim: 2, FeatureDim: 2, HiddenDim: 2, Epochs: 1, Sentences: 50, Seed: testSeed,
	})
}

// FuzzHandleHandoverPush feeds arbitrary handover payloads to a member
// that already serves a personalized user. Whatever the bytes say, the
// push must not panic, and a push that is refused must leave the member
// exactly as it was — the all-or-nothing import core.ImportUserFromHandover
// promises, seen from the wire: the pusher keeps its copy on error, so a
// half-installed payload would fork a user across two members. And a push
// is taken only from the membership: one signed by any name but the
// target's one peer is refused with *NotPeerError, whatever it carries.
func FuzzHandleHandoverPush(f *testing.F) {
	tiny := tinyCodecs()
	mm := newMemMesh(f, 2, func(_ int, _ *mesh.Config, sys *core.Config) { sys.Pretrained = tiny }, nil)
	mm.warm(f)
	const resident = "resident"
	mm.personalize(f, resident, 0, 41)
	target := mm.owner(resident)
	for _, words := range messages(1, 3, 42) { // a pending buffer in a second domain
		target.serve(f, resident, words)
	}
	exp, err := target.sys.ExportUserForHandover(resident)
	if err != nil {
		f.Fatal(err)
	}
	if len(exp.Sender) == 0 || len(exp.Receiver) == 0 || len(exp.Buffers) == 0 {
		f.Fatalf("seed export carries %d/%d models and %d buffers, want all three", len(exp.Sender), len(exp.Receiver), len(exp.Buffers))
	}
	// The seeds are handover-push frames, decoded by the frame codec as
	// a member decodes them, so model parameters arrive from the frame's
	// tail. They are signed by the target's peer, so each still reaches
	// the code it was written for; the last two are signed by nobody the
	// target knows and by the target itself.
	peer := target.node.FirstPeerName()
	real := pushFrame(f, mesh.ExportToWire(exp, peer))
	f.Logf("seed frame: %d bytes", len(real))
	f.Add(real)
	junk := []byte{0, 0, 0} // not a parameter set
	f.Add(pushFrame(f, &rpc.HandoffPayload{User: "nobody", FromNode: peer, NoiseSeq: 7}))
	f.Add(pushFrame(f, &rpc.HandoffPayload{User: resident, FromNode: peer, Models: []rpc.HandoffModel{
		{Side: "sideways", Model: rpc.ModelPayload{Domain: "it", Version: 1, Params: junk}}}}))
	f.Add(pushFrame(f, &rpc.HandoffPayload{FromNode: peer, Reason: "replica", General: []rpc.ModelPayload{
		{Domain: "it", Version: 1, Params: junk}}}))
	f.Add(pushFrame(f, &rpc.HandoffPayload{User: "nobody", FromNode: "node-x", NoiseSeq: 7}))
	f.Add(pushFrame(f, &rpc.HandoffPayload{User: "nobody", FromNode: target.node.Self().Name, NoiseSeq: 7}))

	f.Fuzz(func(t *testing.T, data []byte) {
		req, _, err := rpc.ReadRequestV(bytes.NewReader(data))
		if err != nil || req.Handoff == nil {
			return
		}
		h := req.Handoff
		before := userState(t, target.sys, resident, h.User)
		err = target.node.HandleHandoverPush(h)
		if err != nil && bytes.Equal(data, real) {
			t.Fatalf("the member refused a real export from its peer: %v", err)
		}
		var notPeer *mesh.NotPeerError
		if errors.As(err, &notPeer) != (h.FromNode != peer) {
			t.Fatalf("push signed %q at a member whose one peer is %q: %v", h.FromNode, peer, err)
		}
		if err == nil {
			return
		}
		if after := userState(t, target.sys, resident, h.User); !reflect.DeepEqual(after, before) {
			t.Fatalf("a refused push changed the member's state:\nbefore %.300q\nafter  %.300q", before, after)
		}
	})
}

// pushFrame is h as a member sends it: a handover-push frame.
func pushFrame(f *testing.F, h *rpc.HandoffPayload) []byte {
	f.Helper()
	var b bytes.Buffer
	if err := rpc.WriteV(&b, rpc.Version, &rpc.Request{Op: rpc.OpHandoverPush, Handoff: h}); err != nil {
		f.Fatal(err)
	}
	return b.Bytes()
}

// FuzzReviveModel feeds arbitrary fetch-model answers to the prober's
// side of a cooperative fetch (semantic.ParseCodec on the answer's bytes),
// seeded with what a real member serves.
// Whatever a peer sends back, reviving it must not panic; what revives is
// the general model that was asked for, and what does not leaves nothing
// behind in the sender cache the answer was meant for.
func FuzzReviveModel(f *testing.F) {
	tiny := tinyCodecs()
	mm := newMemMesh(f, 2, func(_ int, _ *mesh.Config, sys *core.Config) { sys.Pretrained = tiny }, nil)
	mm.warm(f)
	holder, prober := mm.members[0], mm.members[1]
	k := kb.GeneralKey("it", kb.RoleCodec)
	for _, domain := range []string{"it", "medical"} {
		real, err := holder.node.HandleFetch(rpc.FetchRequest{Domain: domain, Role: k.Role.String()})
		if err != nil || real == nil {
			f.Fatalf("seed fetch of %q: payload %v, err %v", domain, real, err)
		}
		f.Logf("seed payload: %d bytes", len(real.Params))
		// Labelled as asked: the honest answer, and the other domain's codec,
		// each also with a byte after its last tensor.
		f.Add(k.Domain, "", real.Version, real.Params)
		f.Add(k.Domain, "", real.Version, append(real.Params[:len(real.Params):len(real.Params)], 0))
	}
	f.Add("medical", "", 1, []byte("AAAA"))
	f.Add(k.Domain, "mallory", 1, []byte("AAAA"))

	senderCache := prober.sys.Sender.Cache()
	all := func(kb.Key) bool { return true }
	before := cacheListing(senderCache, all)
	f.Fuzz(func(t *testing.T, domain, user string, version int, params []byte) {
		m, err := prober.node.ReviveModel(k, &rpc.ModelPayload{Domain: domain, User: user, Version: version, Params: params})
		if err == nil {
			if domain != k.Domain || user != "" || m.Key != k || m.Codec.Domain().Name != k.Domain {
				t.Fatalf("a fetch of %s revived %s from an answer labelled %q/%q holding a %q codec", k, m.Key, domain, user, m.Codec.Domain().Name)
			}
			return
		}
		if m != nil {
			t.Fatalf("a refused answer still produced a model: %v", err)
		}
		if after := cacheListing(senderCache, all); after != before {
			t.Fatalf("a refused answer changed the sender cache:\nbefore %safter  %s", before, after)
		}
	})
}
