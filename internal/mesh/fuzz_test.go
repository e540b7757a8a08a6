package mesh

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/kb"
	"repro/internal/rpc"
	"repro/internal/semantic"
)

// userState captures everything a handover push may change on a member:
// which individual models each edge caches and at what version, and the
// complete exportable state (model bytes, noise sequence, belief, pending
// buffers) of the named users.
func userState(t *testing.T, sys *core.System, users ...string) string {
	t.Helper()
	var b strings.Builder
	for _, c := range []*cache.Cache{sys.Sender.Cache(), sys.Receiver.Cache()} {
		keys := c.KeysWhere(func(k kb.Key) bool { return k.User != "" })
		lines := make([]string, len(keys))
		for i, k := range keys {
			m, _ := c.Peek(k)
			lines[i] = fmt.Sprintf("%s@%d", k, m.Version)
		}
		sort.Strings(lines)
		fmt.Fprintln(&b, lines)
	}
	for _, u := range users {
		exp, err := sys.ExportUserForHandover(u)
		if err != nil {
			t.Fatalf("export %q: %v", u, err)
		}
		js, err := json.Marshal(exp)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(js)
	}
	return b.String()
}

// FuzzHandleHandoverPush feeds arbitrary handover payloads to a member
// that already serves a personalized user. Whatever the bytes say, the
// push must not panic, and a push that is refused must leave the member
// exactly as it was — the all-or-nothing import core.ImportUserFromHandover
// promises, seen from the wire: the pusher keeps its copy on error, so a
// half-installed payload would fork a user across two members.
func FuzzHandleHandoverPush(f *testing.F) {
	// Tiny codecs keep the seed payload — and so every mutated input the
	// engine has to parse and minimize — at a few kilobytes.
	tiny := semantic.PretrainAll(corpus.Build(), semantic.Config{
		EmbedDim: 2, FeatureDim: 2, HiddenDim: 2, Epochs: 1, Sentences: 50, Seed: testSeed,
	})
	mm := newMemMesh(f, 2, func(_ int, _ *Config, sys *core.Config) { sys.Pretrained = tiny })
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
	real, err := json.Marshal(exportToWire(exp, "node-x"))
	if err != nil {
		f.Fatal(err)
	}
	f.Logf("seed payload: %d bytes", len(real))
	f.Add(real)
	f.Add([]byte(`{"user":"nobody","from_node":"node-x","noise_seq":7}`))
	f.Add([]byte(`{"user":"resident","models":[{"side":"sideways","model":{"domain":"it","version":1,"params":"AAAA"}}]}`))
	f.Add([]byte(`{"user":"","reason":"replica","general":[{"domain":"it","version":1,"params":"AAAA"}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var h rpc.HandoffPayload
		if json.Unmarshal(data, &h) != nil {
			return
		}
		before := userState(t, target.sys, resident, h.User)
		if err := target.node.HandleHandoverPush(&h); err == nil {
			return
		}
		if after := userState(t, target.sys, resident, h.User); !reflect.DeepEqual(after, before) {
			t.Fatalf("a refused push changed the member's state:\nbefore %.300s\nafter  %.300s", before, after)
		}
	})
}
