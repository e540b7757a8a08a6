package cluster

import (
	"fmt"
	"testing"
)

func TestRoutingDeterministicAndBalanced(t *testing.T) {
	a := NewRingFor([]int{0, 1, 2, 3}, 64, 1)
	b := NewRingFor([]int{0, 1, 2, 3}, 64, 1)
	counts := make([]int, 4)
	for u := 0; u < 400; u++ {
		user := fmt.Sprintf("u%03d", u)
		na, nb := a.Node(user), b.Node(user)
		if na != nb {
			t.Fatalf("user %s routes to %d on one ring, %d on its twin", user, na, nb)
		}
		counts[na]++
	}
	for i, n := range counts {
		// Consistent hashing with 64 vnodes is uneven but no node should be
		// starved or own the majority of 400 users over 4 nodes.
		if n < 20 || n > 250 {
			t.Fatalf("node %d owns %d of 400 users; ring badly unbalanced: %v", i, n, counts)
		}
	}
}

func TestRingConsistency(t *testing.T) {
	// Growing the ring by one node must only reassign users, never produce
	// an out-of-range node, and must keep most users in place.
	small := NewRingFor([]int{0, 1, 2}, 64, 1)
	big := NewRingFor([]int{0, 1, 2, 3}, 64, 1)
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

// TestRingForLosesOnlyTheDeadNodesArcs is the rebalance a mesh performs
// when a member dies: the ring over the survivors is the full ring with
// the dead node's points removed, so only its users move.
func TestRingForLosesOnlyTheDeadNodesArcs(t *testing.T) {
	full := NewRingFor([]int{0, 1, 2}, 64, 7)
	survivors := NewRingFor([]int{0, 2}, 64, 7)
	rehomed := 0
	for u := 0; u < 1000; u++ {
		user := fmt.Sprintf("u%04d", u)
		was, is := full.Node(user), survivors.Node(user)
		if is == 1 {
			t.Fatalf("user %s routed to the dead node", user)
		}
		if was != 1 && is != was {
			t.Fatalf("user %s moved %d -> %d though their node survived", user, was, is)
		}
		if was == 1 {
			rehomed++
		}
	}
	if rehomed == 0 {
		t.Fatal("the dead node owned no user; the test exercises nothing")
	}
}
