package mesh

import (
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kb"
	"repro/internal/rpc"
)

// TestHandleFetchServesGeneralModelsOnly checks the fetch endpoint's key
// check: a general model in the cache is served, while a fetch naming a
// user's individual model — which the update process rewrites in place
// under a lock the fetch does not take — is refused with the typed error
// even though that model is cached too.
func TestHandleFetchServesGeneralModelsOnly(t *testing.T) {
	mm := newMemMesh(t, 2, nil)
	n, sys := mm.members[0].node, mm.members[0].sys
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

// unpinned lets the fetch tests start from cold caches that fill on
// demand.
func unpinned(_ int, _ *Config, sys *core.Config) { sys.PinGeneral = false }

// TestCooperativeFetchPrefersNeighbor checks the miss path's order and its
// accounting: a cold member resolves a miss from a peer's cache before the
// cloud, nearest ring successor first, paying one mesh hop; the prober
// counts a neighbor hit, the peer that answered counts a served probe,
// and nobody's origin counter moves.
func TestCooperativeFetchPrefersNeighbor(t *testing.T) {
	mm := newMemMesh(t, 3, unpinned)
	// Warm member 0 only: every other member starts cold.
	if _, err := mm.members[0].sys.Sender.Prefetch([]string{"it", "medical"}); err != nil {
		t.Fatal(err)
	}
	stats := func(i int) rpc.NodeStats { return mm.members[i].node.Stats() }

	acq, err := mm.members[2].sys.Sender.AcquireCodec("it", "")
	if err != nil {
		t.Fatal(err)
	}
	if acq.CacheHit {
		t.Fatal("cold member reported a local hit")
	}
	if !acq.Remote {
		t.Fatal("miss with a warm neighbor was not served cooperatively")
	}
	// One mesh hop (10 ms + serialization) is far below the 40 ms uplink.
	if acq.FetchLatency <= 0 || acq.FetchLatency >= 40*time.Millisecond {
		t.Fatalf("neighbor fetch latency %v not in mesh range", acq.FetchLatency)
	}
	if st := stats(2); st.NeighborHits != 1 || st.NeighborBytes <= 0 || st.OriginFetches != 0 {
		t.Fatalf("member 2 counters wrong: %+v", st)
	}
	if st := stats(0); st.NeighborServed != 1 || st.OriginFetches != 2 {
		t.Fatalf("member 0 served %d probes and paid %d origin fetches, want 1 and 2", st.NeighborServed, st.OriginFetches)
	}

	// Probe order: member 1's successors are 2, then 0. Both hold "it"
	// now; the nearer one must answer and the farther never be asked.
	if acq, err = mm.members[1].sys.Sender.AcquireCodec("it", ""); err != nil || !acq.Remote {
		t.Fatalf("member 1 fetch: %+v, %v", acq, err)
	}
	if got := stats(2).NeighborServed; got != 1 {
		t.Fatalf("member 2 (nearest successor) served %d probes, want 1", got)
	}
	if got := stats(0).NeighborServed; got != 1 {
		t.Fatalf("member 0 served %d probes, want still 1: the probe skipped the nearer holder", got)
	}
	// "medical" lives on member 0 only: member 1 walks past 2's miss.
	if acq, err = mm.members[1].sys.Sender.AcquireCodec("medical", ""); err != nil || !acq.Remote {
		t.Fatalf("member 1 medical fetch: %+v, %v", acq, err)
	}
	if got := stats(0).NeighborServed; got != 2 {
		t.Fatalf("member 0 served %d probes, want 2", got)
	}
	if st := stats(1); st.NeighborHits != 2 || st.OriginFetches != 0 {
		t.Fatalf("member 1 counters wrong: %+v", st)
	}
}

// TestCooperativeFetchFallsBackToOrigin checks a key no member holds is
// paid for at the cloud origin, over the uplink, and counted as such.
func TestCooperativeFetchFallsBackToOrigin(t *testing.T) {
	mm := newMemMesh(t, 2, unpinned)
	acq, err := mm.members[1].sys.Sender.AcquireCodec("it", "")
	if err != nil {
		t.Fatal(err)
	}
	if acq.Remote {
		t.Fatal("all-cold mesh reported a neighbor hit")
	}
	if acq.FetchLatency < 40*time.Millisecond {
		t.Fatalf("origin fetch latency %v below uplink latency", acq.FetchLatency)
	}
	st := mm.members[1].node.Stats()
	if st.OriginFetches != 1 || st.OriginBytes <= 0 {
		t.Fatalf("origin counters wrong: %+v", st)
	}
	if st.NeighborHits != 0 || mm.members[0].node.Stats().NeighborServed != 0 {
		t.Fatal("phantom neighbor hit")
	}
}
