package core

import (
	"testing"

	"repro/internal/trace"
)

// clusterTestConfig is the package test config in cluster mode.
func clusterTestConfig(nodes int) Config {
	cfg := testConfig()
	cfg.Nodes = nodes
	cfg.Selector = SelectorOracle
	return cfg
}

// TestClusterWorkloadWithMobility runs a mobile workload end to end
// through a 3-node cluster system: mobility events must produce
// handovers, cooperative fetches must happen (only node 0 is warmed),
// and two identically-seeded systems must agree result for result.
func TestClusterWorkloadWithMobility(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster workload is slow; run without -short")
	}
	mkSys := func() *System {
		sys, err := NewSystem(clusterTestConfig(3))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Sender.Prefetch(sys.Corpus.Names()); err != nil {
			t.Fatal(err)
		}
		return sys
	}
	sys := mkSys()
	w := trace.Generate(sys.Corpus, trace.Config{
		Users: 6, Messages: 300, Cells: 3, MobilityRate: 0.08, Seed: 21,
	})
	if len(w.Moves) == 0 {
		t.Fatal("workload has no mobility events")
	}
	results, err := sys.RunWorkload(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(w.Requests) {
		t.Fatalf("results = %d, want %d", len(results), len(w.Requests))
	}
	st := sys.Cluster.Stats()
	if st.Handovers == 0 {
		t.Fatal("mobile workload triggered no handovers")
	}
	if st.NeighborHits() == 0 {
		t.Fatal("cold nodes never fetched cooperatively")
	}
	sum, err := Summarize(results)
	if err != nil {
		t.Fatal(err)
	}
	if sum.MeanWordAccuracy < 0.5 {
		t.Fatalf("cluster-mode accuracy collapsed: %+v", sum)
	}

	// Replay on an identical twin: serial cluster-mode runs must be
	// bit-identical, handovers included.
	twin := mkSys()
	results2, err := twin.RunWorkload(w)
	if err != nil {
		t.Fatal(err)
	}
	for i := range results {
		a, b := results[i], results2[i]
		if a.Mismatch != b.Mismatch || a.PayloadBytes != b.PayloadBytes ||
			a.Latency != b.Latency || a.SelectedDomain != b.SelectedDomain {
			t.Fatalf("result %d diverged across identical cluster systems", i)
		}
	}
	st2 := twin.Cluster.Stats()
	if st.Handovers != st2.Handovers || st.MigratedBytes != st2.MigratedBytes {
		t.Fatalf("handover accounting diverged: %d/%d vs %d/%d",
			st.Handovers, st.MigratedBytes, st2.Handovers, st2.MigratedBytes)
	}
}

// TestClusterMoveKeepsUpdateThreshold checks a handover carries the user's
// half-full update buffer: a user moved mid-stream fires their
// individual-model update at the same message index as a twin who never
// moved. With the buffer stranded on the old node the new node counted from
// zero and the update fired late.
func TestClusterMoveKeepsUpdateThreshold(t *testing.T) {
	cfg := clusterTestConfig(2)
	cfg.BufferThreshold = 8
	const user = "roamer"
	// firedAt streams one domain's messages and returns the index of the
	// first that fired an update, moving the user before message moveAt.
	firedAt := func(moveAt int) int {
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fired := -1
		for i, req := range oracleRequests(sys.Corpus, user, 0, 2*cfg.BufferThreshold, 91) {
			if i == moveAt {
				res, err := sys.MoveUser(user, sys.Cluster.Route(user).Index()+1)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Moved {
					t.Fatal("fixture move did not change the serving node")
				}
			}
			res, err := sys.Transmit(req)
			if err != nil {
				t.Fatal(err)
			}
			if res.UpdateErr != nil {
				t.Fatalf("update failed: %v", res.UpdateErr)
			}
			if res.UpdateFired && fired < 0 {
				fired = i
			}
		}
		return fired
	}
	stayed, moved := firedAt(-1), firedAt(cfg.BufferThreshold/2)
	if stayed != cfg.BufferThreshold-1 {
		t.Fatalf("unmoved user's update fired at message %d, want %d", stayed, cfg.BufferThreshold-1)
	}
	if moved != stayed {
		t.Fatalf("moved user's update fired at message %d, the unmoved twin's at %d", moved, stayed)
	}
}

// TestMoveUserRequiresCluster checks that mobility is rejected in the
// classic single-sender configuration.
func TestMoveUserRequiresCluster(t *testing.T) {
	cfg := testConfig()
	cfg.Selector = SelectorOracle
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.MoveUser("u1", 1); err == nil {
		t.Fatal("single-sender system accepted MoveUser")
	}
}
