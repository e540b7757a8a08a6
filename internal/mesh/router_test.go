package mesh_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/mesh"
	"repro/internal/rpc"
)

// TestParseMembers is the one member-list parser's table: what edged
// -peers and semload -mesh both accept, and what both refuse. A list
// either side read differently would shift every ring index after the
// disagreement.
func TestParseMembers(t *testing.T) {
	for _, tc := range []struct {
		name, list string
		want       []string // member addresses; nil = rejected
		reason     string   // substring of the rejection
	}{
		{"two members", "a:1,b:2", []string{"a:1", "b:2"}, ""},
		{"whitespace trimmed", "h0:1, h1:2 ,h2:3", []string{"h0:1", "h1:2", "h2:3"}, ""},
		{"in-memory members", "mem:a,mem:b", []string{"mem:a", "mem:b"}, ""},
		{"empty list", "", nil, "member 0"},
		{"one member", "h:1", []string{"h:1"}, ""},
		{"empty member", "a:1,,b:2", nil, "member 1"},
		{"trailing comma", "a:1,b:2,", nil, "member 2"},
		{"blank member", "a:1, ,b:2", nil, "member 1"},
		{"not host:port", "a:1,nonsense", nil, "member 1"},
		{"duplicate", "a:1,a:1", nil, "members 0 and 1"},
		{"duplicate after trim", "a:1,b:2, a:1", nil, "members 0 and 2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			members, err := mesh.ParseMembers(tc.list)
			if tc.want == nil {
				if err == nil || !strings.Contains(err.Error(), tc.reason) {
					t.Fatalf("ParseMembers(%q) = %v, %v; want an error naming %q", tc.list, members, err, tc.reason)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(members) != len(tc.want) {
				t.Fatalf("got %d members, want %d", len(members), len(tc.want))
			}
			for i, m := range members {
				if want := (rpc.PeerInfo{Name: fmt.Sprintf("node-%d", i), Index: i, Addr: tc.want[i]}); m != want {
					t.Fatalf("member %d = %+v, want %+v", i, m, want)
				}
			}
		})
	}
}

// TestNewNodeValidation checks a membership that cannot form a ring is
// refused at construction.
func TestNewNodeValidation(t *testing.T) {
	peer := func(i int, addr string) rpc.PeerInfo {
		return rpc.PeerInfo{Name: fmt.Sprintf("node-%d", i), Index: i, Addr: addr}
	}
	for name, cfg := range map[string]mesh.Config{
		"self out of range": {Self: peer(2, "a:1"), Peers: []rpc.PeerInfo{peer(0, "b:2")}},
		"peer out of range": {Self: peer(0, "a:1"), Peers: []rpc.PeerInfo{peer(5, "b:2")}},
		"duplicate index":   {Self: peer(0, "a:1"), Peers: []rpc.PeerInfo{peer(0, "b:2")}},
		"peer without addr": {Self: peer(0, "a:1"), Peers: []rpc.PeerInfo{peer(1, "")}},
	} {
		if _, err := mesh.NewNode(cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestRouterAndNodeAgreeAtSeedZero pins the one reading of a zero ring
// seed: `semload -mesh … -seed 0` hands the same 0 to its Router and, as
// -seed, to every edged it spawns, so both sides must place every user on
// the same member — the default seed's ring, not one side's seed-0 ring.
func TestRouterAndNodeAgreeAtSeedZero(t *testing.T) {
	members, err := mesh.ParseMembers("mem:z0,mem:z1,mem:z2")
	if err != nil {
		t.Fatal(err)
	}
	node, err := mesh.NewNode(mesh.Config{Self: members[0], Peers: members[1:]}) // RingSeed 0
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{"mem:z0", "mem:z1", "mem:z2"}
	zero, one := mesh.NewRouter(addrs, 0), mesh.NewRouter(addrs, 1)
	disagree, notDefault := 0, 0
	for i := 0; i < 200; i++ {
		user := fmt.Sprintf("u%03d", i)
		if zero.Owner(user) != node.Owner(user) {
			disagree++
		}
		if zero.Owner(user) != one.Owner(user) {
			notDefault++
		}
	}
	if disagree > 0 || notDefault > 0 {
		t.Fatalf("at seed 0 the router disagrees with the member on %d of 200 owners, and with a seed-1 router on %d", disagree, notDefault)
	}
}

// TestRouterMatchesNodeAndReroutes checks the client-side view against a
// member's: same ring, same cell rule; a dead member's users — ring-owned
// or moved there — fall to the ring over the survivors, and nobody else
// moves.
func TestRouterMatchesNodeAndReroutes(t *testing.T) {
	members, err := mesh.ParseMembers("mem:r0,mem:r1,mem:r2")
	if err != nil {
		t.Fatal(err)
	}
	node, err := mesh.NewNode(mesh.Config{Self: members[0], Peers: members[1:], RingSeed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	r := mesh.NewRouter([]string{"mem:r0", "mem:r1", "mem:r2"}, testSeed)
	users := make([]string, 300)
	seen := map[int]int{}
	for i := range users {
		users[i] = fmt.Sprintf("u%03d", i)
		if got, want := r.Owner(users[i]), node.Owner(users[i]); got != want {
			t.Fatalf("%s: router owner %d, member's owner %d", users[i], got, want)
		}
		seen[r.Owner(users[i])]++
	}
	if len(seen) != 3 {
		t.Fatalf("ring left a member without users: %v", seen)
	}
	live := node.LiveMembers()
	for cell := -4; cell < 7; cell++ {
		r.Moved("probe", cell)
		if got, want := r.Owner("probe"), mesh.CellMember(live, cell); got != want {
			t.Fatalf("cell %d: router target %d, member target %d", cell, got, want)
		}
	}

	before := make(map[string]int, len(users))
	for _, u := range users {
		before[u] = r.Owner(u)
	}
	r.Moved("visitor", 1) // parked on the member about to die
	r.MarkDead(1)
	if live := r.Live(); len(live) != 2 || live[0] != 0 || live[1] != 2 {
		t.Fatalf("live view after MarkDead(1): %v", r.Live())
	}
	for _, u := range append(users, "visitor") {
		now := r.Owner(u)
		if now == 1 {
			t.Fatalf("%s still routes to the dead member", u)
		}
		if was, ok := before[u]; ok && was != 1 && now != was {
			t.Fatalf("%s moved %d -> %d though their member survived", u, was, now)
		}
	}
	// The cell rule now ranges over the survivors, as theirs does.
	r.Moved("probe", 1)
	if got := r.Owner("probe"); got != 2 {
		t.Fatalf("cell 1 over live members [0 2] resolved to %d, want 2", got)
	}
}

// TestMemberServesMeshAndClientOps pins the wire surface of an
// in-process member: the same listener answers a peer's join with the
// whole membership and then serves a client's transmit.
func TestMemberServesMeshAndClientOps(t *testing.T) {
	mm := newMemMesh(t, 2, nil, nil)
	mm.warm(t)
	cl, err := rpc.Dial(mm.addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	peers, err := cl.Join(context.Background(), mm.members[1].node.Self())
	if err != nil || len(peers) != 2 {
		t.Fatalf("join: %v, %v", peers, err)
	}
	const msg = "the server has a kernel bug"
	resp, err := cl.Transmit("u1", msg)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || resp.Restored != msg {
		t.Fatalf("transmit on a member's listener: %+v, want OK with %q restored", resp, msg)
	}
}

// TestRouterTransmitCancelledKeepsMembers checks that a transmit failing
// on the caller's own context marks no member dead: the error is the
// context's, every member stays live, and the next call is served.
func TestRouterTransmitCancelledKeepsMembers(t *testing.T) {
	r := newMemMesh(t, 3, nil, nil).router
	defer r.Close()
	const msg = "the server has a kernel bug"
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.Transmit(ctx, "u1", msg); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled transmit: err = %v, want context.Canceled", err)
	}
	if live := r.Live(); len(live) != 3 || r.Retries != 0 {
		t.Fatalf("after a cancelled transmit: live %v, %d retries; want all 3 members, 0 retries", live, r.Retries)
	}
	resp, err := r.Transmit(context.Background(), "u1", msg)
	if err != nil || !resp.OK || resp.Restored != msg {
		t.Fatalf("transmit after the cancelled one: %+v, %v", resp, err)
	}
}
