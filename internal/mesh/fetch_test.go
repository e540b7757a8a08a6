package mesh

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/edge"
	"repro/internal/kb"
	"repro/internal/rpc"
	"repro/internal/semantic"
)

// TestHandleFetchServesGeneralModelsOnly checks the fetch endpoint's key
// check: a general model in the cache is served, while a fetch naming a
// user's individual model — which the update process rewrites in place
// under a lock the fetch does not take — is refused with the typed error
// even though that model is cached too.
func TestHandleFetchServesGeneralModelsOnly(t *testing.T) {
	n, err := NewNode(Config{
		Self:  rpc.PeerInfo{Name: "node-0", Index: 0, Addr: "127.0.0.1:1"},
		Peers: []rpc.PeerInfo{{Name: "node-1", Index: 1, Addr: "127.0.0.1:2"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(core.Config{
		Selector:      core.SelectorSticky,
		PinGeneral:    true,
		Seed:          3,
		SenderName:    "node-0",
		SenderFetcher: n,
		PerUserNoise:  true,
		Codec:         semantic.Config{EmbedDim: 12, FeatureDim: 8, HiddenDim: 16, Epochs: 3, Sentences: 500},
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Bind(sys, edge.NewOriginFetcher(sys.Cloud, sys.CloudLink()))
	if _, _, err := sys.Sender.Personalize("it", "alice"); err != nil {
		t.Fatal(err)
	}
	role := kb.RoleCodec.String()
	if !sys.Sender.Cache().Contains(kb.UserKey("it", "alice", kb.RoleCodec)) {
		t.Fatal("setup: alice's individual model is not cached")
	}

	payload, err := n.HandleFetch(rpc.FetchRequest{Domain: "it", Role: role})
	if err != nil || payload == nil || payload.User != "" || len(payload.Params) == 0 {
		t.Fatalf("general model fetch: payload %+v, err %v", payload, err)
	}
	if _, err := n.reviveModel(kb.GeneralKey("it", kb.RoleCodec), payload); err != nil {
		t.Fatalf("served general model does not revive: %v", err)
	}

	payload, err = n.HandleFetch(rpc.FetchRequest{Domain: "it", User: "alice", Role: role})
	var refused *IndividualFetchError
	if !errors.As(err, &refused) || payload != nil {
		t.Fatalf("individual model fetch: payload %v, err %v, want *IndividualFetchError", payload, err)
	}
	if refused.User != "alice" || refused.Domain != "it" {
		t.Fatalf("refusal names %+v", refused)
	}
	if served := n.Stats().NeighborServed; served != 1 {
		t.Fatalf("neighbor_served = %d after one served and one refused fetch, want 1", served)
	}
}
