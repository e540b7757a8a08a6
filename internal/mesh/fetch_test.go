package mesh_test

import (
	"encoding/binary"
	"errors"
	"math"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/kb"
	"repro/internal/mesh"
	"repro/internal/rpc"
)

// TestHandleFetchServesGeneralModelsOnly checks the fetch endpoint's key
// check: a general model in the cache is served, while a fetch naming a
// user's individual model — which the update process rewrites in place
// under a lock the fetch does not take — is refused with the typed error
// even though that model is cached too.
func TestHandleFetchServesGeneralModelsOnly(t *testing.T) {
	mm := newMemMesh(t, 2, nil, nil)
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
	if _, err := n.ReviveModel(kb.GeneralKey("it", kb.RoleCodec), payload); err != nil {
		t.Fatalf("served general model does not revive: %v", err)
	}

	payload, err = n.HandleFetch(rpc.FetchRequest{Domain: "it", User: "alice", Role: role})
	var refused *mesh.IndividualFetchError
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
func unpinned(_ int, _ *mesh.Config, sys *core.Config) { sys.PinGeneral = false }

// TestCooperativeFetchPrefersNeighbor checks the miss path's order and its
// accounting: a cold member resolves a miss from a peer's cache before the
// cloud, nearest ring successor first, paying one mesh hop; the prober
// counts a neighbor hit, the peer that answered counts a served probe,
// and nobody's origin counter moves.
func TestCooperativeFetchPrefersNeighbor(t *testing.T) {
	mm := newMemMesh(t, 3, unpinned, nil)
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
	mm := newMemMesh(t, 2, unpinned, nil)
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

// lyingPeer stands in for a mesh member on ln: it acknowledges every op
// and answers each fetch-model with whatever answer makes of the request.
func lyingPeer(ln net.Listener, answer func(rpc.FetchRequest) *rpc.ModelPayload) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go func() {
			defer conn.Close()
			framed := rpc.NewConn(conn)
			for {
				req, err := framed.ReadRequest()
				if err != nil {
					return
				}
				resp := &rpc.Response{OK: true}
				if req.Op == rpc.OpFetchModel && req.Fetch != nil {
					resp.Model = answer(*req.Fetch)
				}
				if framed.Write(resp) != nil {
					return
				}
			}
		}()
	}
}

// TestCooperativeFetchRefusesWrongModel puts a peer that answers every
// fetch with something other than what was asked first in the probe
// order. Whatever the lie — another domain's codec under the right
// label, the wrong label on the right codec, a user's name on a general
// fetch, a non-finite weight in the right codec — the answer must not be cached under the key that was asked
// for: the prober drops the peer's connection, asks the next member, and
// pays the origin when nobody else has the model.
func TestCooperativeFetchRefusesWrongModel(t *testing.T) {
	// The two domains' real codec streams; every lie swaps one for the other.
	corp := corpus.Build()
	stream := make(map[string][]byte)
	other := map[string]string{"it": "medical", "medical": "it"}
	for domain := range other {
		b, err := pretrained()[corp.Domain(domain).Index].AppendTo(nil)
		if err != nil {
			t.Fatal(err)
		}
		stream[domain] = b
	}
	lies := map[string]func(rpc.FetchRequest) *rpc.ModelPayload{
		"another domain's codec": func(f rpc.FetchRequest) *rpc.ModelPayload {
			return &rpc.ModelPayload{Domain: f.Domain, Version: 1, Params: stream[other[f.Domain]]}
		},
		"another domain's label": func(f rpc.FetchRequest) *rpc.ModelPayload {
			return &rpc.ModelPayload{Domain: other[f.Domain], Version: 1, Params: stream[f.Domain]}
		},
		"a user's name": func(f rpc.FetchRequest) *rpc.ModelPayload {
			return &rpc.ModelPayload{Domain: f.Domain, User: "mallory", Version: 1, Params: stream[f.Domain]}
		},
		// The right codec under the right label, one weight (the stream's
		// last value) infinite: installed, it would decode every token of
		// the domain to concept 0 from then on.
		"an infinite weight": func(f rpc.FetchRequest) *rpc.ModelPayload {
			poisoned := append([]byte(nil), stream[f.Domain]...)
			binary.LittleEndian.PutUint64(poisoned[len(poisoned)-8:], math.Float64bits(math.Inf(1)))
			return &rpc.ModelPayload{Domain: f.Domain, Version: 1, Params: poisoned}
		},
	}
	for name, lie := range lies {
		t.Run(name, func(t *testing.T) {
			// Member 1 — member 0's nearest successor — is the liar: its
			// listener goes to lyingPeer and its real node serves nothing.
			mm := newMemMesh(t, 3, unpinned, func(i int, ln net.Listener) net.Listener {
				if i != 1 {
					return ln
				}
				go lyingPeer(ln, lie)
				unserved, err := rpc.Listen("mem:")
				if err != nil {
					t.Fatal(err)
				}
				unserved.Close()
				return unserved
			})
			if _, err := mm.members[2].sys.Sender.Prefetch([]string{"it"}); err != nil {
				t.Fatal(err)
			}
			prober := mm.members[0]

			// "it": the liar is refused, member 2 answers.
			acq, err := prober.sys.Sender.AcquireCodec("it", "")
			if err != nil {
				t.Fatal(err)
			}
			if got := acq.Model.Codec.Domain().Name; got != "it" {
				t.Fatalf("the %q key now serves a %q codec", "it", got)
			}
			if st := prober.node.Stats(); !acq.Remote || st.NeighborHits != 1 || st.OriginFetches != 0 {
				t.Fatalf("after the refusal the next member was not asked: remote %t, %+v", acq.Remote, st)
			}
			if served := mm.members[2].node.Stats().NeighborServed; served != 1 {
				t.Fatalf("member 2 served %d probes, want 1", served)
			}

			// "medical": nobody honest holds it, so the origin is paid.
			acq, err = prober.sys.Sender.AcquireCodec("medical", "")
			if err != nil {
				t.Fatal(err)
			}
			if got := acq.Model.Codec.Domain().Name; got != "medical" {
				t.Fatalf("the %q key now serves a %q codec", "medical", got)
			}
			if st := prober.node.Stats(); acq.Remote || st.NeighborHits != 1 || st.OriginFetches != 1 {
				t.Fatalf("a refused answer with no other holder did not fall back to the origin: remote %t, %+v", acq.Remote, st)
			}
		})
	}
}
