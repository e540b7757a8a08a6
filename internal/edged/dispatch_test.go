package edged

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/rpc"
	"repro/internal/semantic"
)

var (
	srvOnce sync.Once
	srvInst *server
	srvErr  error
)

// lone is the membership of a daemon without -peers: node-0 of a mesh
// of one.
var lone = []rpc.PeerInfo{{Name: "node-0", Addr: "mem:lone"}}

// testServer boots one daemon-side server with small codecs.
func testServer(t *testing.T) *server {
	t.Helper()
	srvOnce.Do(func() {
		d, err := NewMember(mesh.Config{Self: lone[0], RingSeed: 3}, core.Config{
			Selector:   core.SelectorSticky,
			PinGeneral: true,
			Seed:       3,
			Codec: semantic.Config{
				EmbedDim: 12, FeatureDim: 8, HiddenDim: 16,
				Epochs: 3, Sentences: 500,
			},
		})
		if err != nil {
			srvErr = err
			return
		}
		sys := d.Sys
		if _, err := sys.Sender.Prefetch(sys.Corpus.Names()); err != nil {
			srvErr = err
			return
		}
		if _, err := sys.Receiver.Prefetch(sys.Corpus.Names()); err != nil {
			srvErr = err
			return
		}
		srvInst = d.srv
	})
	if srvErr != nil {
		t.Fatal(srvErr)
	}
	return srvInst
}

func TestDispatchPing(t *testing.T) {
	s := testServer(t)
	resp := s.dispatch(&rpc.Request{Op: rpc.OpPing})
	if !resp.OK {
		t.Fatalf("ping failed: %+v", resp)
	}
}

func TestDispatchTransmit(t *testing.T) {
	s := testServer(t)
	resp := s.dispatch(&rpc.Request{
		Op:   rpc.OpTransmit,
		User: "alice",
		Text: "the server has a kernel bug",
	})
	if !resp.OK {
		t.Fatalf("transmit failed: %+v", resp)
	}
	if resp.SelectedDomain != "it" {
		t.Fatalf("selected domain = %q, want it", resp.SelectedDomain)
	}
	if resp.Restored == "" || resp.PayloadBytes <= 0 || resp.LatencyMs <= 0 {
		t.Fatalf("implausible response: %+v", resp)
	}
	if !strings.Contains(resp.Restored, "server") {
		t.Fatalf("restored %q lost the message", resp.Restored)
	}
}

func TestDispatchTransmitEmpty(t *testing.T) {
	s := testServer(t)
	resp := s.dispatch(&rpc.Request{Op: rpc.OpTransmit, Text: "  !!  "})
	if resp.OK || resp.Error == "" {
		t.Fatal("empty message accepted")
	}
}

func TestDispatchStats(t *testing.T) {
	s := testServer(t)
	// One transmit so counters are non-trivial.
	s.dispatch(&rpc.Request{Op: rpc.OpTransmit, User: "bob", Text: "the doctor will scan the patient"})
	resp := s.dispatch(&rpc.Request{Op: rpc.OpStats})
	if !resp.OK || resp.Stats == nil {
		t.Fatalf("stats failed: %+v", resp)
	}
	if resp.Stats.Messages < 1 || resp.Stats.CachedModels < 8 {
		t.Fatalf("stats implausible: %+v", resp.Stats)
	}
	// No update has run yet: the update percentiles read zero.
	if sv := resp.Stats.Serve; sv == nil || sv.UpdateP50Ms != 0 || sv.UpdateP99Ms != 0 {
		t.Fatalf("update percentiles before any update: %+v", sv)
	}
	// Every token of the transmit was decoded twice — receiver and decoder
	// copy — through the edge servers' decode memos, and the stats say so.
	if st := resp.Stats; st.MemoLookups == 0 || st.MemoInserts == 0 || st.MemoHits > st.MemoLookups {
		t.Fatalf("decode-memo counters after a transmit: %+v", st.MemoStats)
	}
	// And so does the stats response's wire form.
	var wire bytes.Buffer
	if err := rpc.WriteV(&wire, rpc.Version, resp); err != nil {
		t.Fatal(err)
	}
	if back, _, err := rpc.ReadResponseV(&wire); err != nil || back.Stats == nil || back.Stats.MemoStats != resp.Stats.MemoStats {
		t.Fatalf("memo counters did not survive the stats wire form: %+v (%v)", back, err)
	}
}

func TestDispatchUnknownOp(t *testing.T) {
	s := testServer(t)
	resp := s.dispatch(&rpc.Request{Op: "teleport"})
	if resp.OK || resp.Error == "" {
		t.Fatal("unknown op accepted")
	}
}

// TestMeshOfOneServesEveryOp: a lone daemon is node-0 of a mesh of one,
// so it answers the ops a member answers instead of refusing them
// wholesale. A move lands on the only member and moves nothing, stats
// carry the member's own node entry, and the one thing it still refuses
// is a handover push — it has no peer a push could come from.
func TestMeshOfOneServesEveryOp(t *testing.T) {
	s := testServer(t)
	resp := s.dispatch(&rpc.Request{Op: rpc.OpMove, User: "u1", Cell: 1})
	if h := resp.Handover; !resp.OK || h == nil || h.Moved || h.From != "node-0" || h.To != "node-0" {
		t.Fatalf("move on a lone daemon: %+v (handover %+v), want an unmoved node-0 -> node-0", resp, h)
	}
	if resp = s.dispatch(&rpc.Request{Op: rpc.OpPeerStats}); !resp.OK || resp.Node == nil || resp.Node.Name != "node-0" {
		t.Fatalf("peer-stats on a lone daemon: %+v", resp)
	}
	st := s.dispatch(&rpc.Request{Op: rpc.OpStats}).Stats
	if len(st.Nodes) != 1 || st.Nodes[0].Name != "node-0" || st.Handovers != 0 {
		t.Fatalf("lone daemon's stats: nodes %+v, %d handovers; want itself and none", st.Nodes, st.Handovers)
	}
	for _, from := range []string{"node-0", "node-1", ""} {
		resp = s.dispatch(&rpc.Request{Op: rpc.OpHandoverPush, Handoff: &rpc.HandoffPayload{User: "u1", FromNode: from}})
		if resp.OK || !strings.Contains(resp.Error, "not a peer") {
			t.Fatalf("push signed %q on a lone daemon: %+v, want the not-a-peer refusal", from, resp)
		}
	}
}
