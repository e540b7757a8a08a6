package mesh

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/cluster"
	"repro/internal/rpc"
)

// ringReplicas is the number of virtual ring points per member, the same
// for every Node and Router so that all of them build one ring.
const ringReplicas = 64

// newRing builds the user ring over the live members. Every ring of a mesh
// — each member's, each Router's, a draining member's view of its
// survivors — is built here, so the one reading of the seed (0 means 1, as
// for every other seed in the system) cannot differ between them.
func newRing(live []int, seed uint64) *cluster.Ring {
	if seed == 0 {
		seed = 1
	}
	return cluster.NewRingFor(live, ringReplicas, seed)
}

// ParseMembers splits a comma-separated member list — edged's -peers,
// semload's -mesh — into the static membership in ring-index order:
// member i is named "node-i". Every member must be a non-empty, distinct
// host:port address, so the daemons of one mesh and the clients routing to
// it always agree on who owns which index. One address is a mesh of one.
func ParseMembers(list string) ([]rpc.PeerInfo, error) {
	addrs := strings.Split(list, ",")
	seen := make(map[string]int, len(addrs))
	out := make([]rpc.PeerInfo, len(addrs))
	for i, a := range addrs {
		a = strings.TrimSpace(a)
		if a == "" || !strings.Contains(a, ":") {
			return nil, fmt.Errorf("member %d is not a host:port address", i)
		}
		if first, dup := seen[a]; dup {
			return nil, fmt.Errorf("members %d and %d are both %s", first, i, a)
		}
		seen[a] = i
		out[i] = rpc.PeerInfo{Name: fmt.Sprintf("node-%d", i), Index: i, Addr: a}
	}
	return out, nil
}

// cellMember maps a radio cell onto the sorted live member indices: cell
// modulo their count, negative cells wrapping. It is the one target rule
// of a move, applied by the serving member (Node.MoveUser) and mirrored
// by the client (Router.Moved).
func cellMember(live []int, cell int) int {
	return live[((cell%len(live))+len(live))%len(live)]
}

// Router is the client side of a mesh: routing authority lives in the
// client, which hashes each user onto the ring of the members it believes
// alive, remembers where a move put a user, and reroutes around a member
// it finds dead. It keeps one lazily dialed connection per member. A
// Router serves one serial driver; Owner alone may be called concurrently
// while nothing else mutates the view.
type Router struct {
	addrs    []string
	seed     uint64
	dead     []bool
	ring     *cluster.Ring
	override map[string]int
	clients  []*rpc.Client
	// Retries counts transmits that had to be rerouted after their member
	// died or answered Draining.
	Retries int
}

// NewRouter routes over the members at addrs (index i is ring slot i).
// ringSeed must equal the members' mesh.Config.RingSeed.
func NewRouter(addrs []string, ringSeed uint64) *Router {
	r := &Router{
		addrs:    addrs,
		seed:     ringSeed,
		dead:     make([]bool, len(addrs)),
		override: make(map[string]int),
		clients:  make([]*rpc.Client, len(addrs)),
	}
	r.rebuild()
	return r
}

// Close drops every member connection; the next call redials.
func (r *Router) Close() {
	for i := range r.clients {
		r.closeClient(i)
	}
}

// Live returns the sorted indices of the members believed alive — the
// list a member's own LiveMembers ranges over, so move targets agree.
func (r *Router) Live() []int {
	live := make([]int, 0, len(r.dead))
	for i, dead := range r.dead {
		if !dead {
			live = append(live, i)
		}
	}
	return live
}

// anyLive reports whether some member is not marked dead. With none the
// ring is empty and Owner has nobody to name.
func (r *Router) anyLive() bool { return slices.Contains(r.dead, false) }

// rebuild recomputes the ring over the live members and forgets the
// overrides that pointed at dead ones: those users fall back to the ring,
// which is where a draining member hands them and where a killed member's
// users re-personalize.
func (r *Router) rebuild() {
	r.ring = newRing(r.Live(), r.seed)
	for u, m := range r.override {
		if r.dead[m] {
			delete(r.override, u)
		}
	}
}

// Owner returns the member serving user: where their last move put them,
// else their ring slot.
func (r *Router) Owner(user string) int {
	if m, ok := r.override[user]; ok {
		return m
	}
	return r.ring.Node(user)
}

// Moved records that user was attached to cell, which the serving member
// resolved with the same rule over the same live set.
func (r *Router) Moved(user string, cell int) {
	r.override[user] = cellMember(r.Live(), cell)
}

// closeClient drops the connection to member; the next call redials.
func (r *Router) closeClient(member int) {
	if c := r.clients[member]; c != nil {
		c.Close()
		r.clients[member] = nil
	}
}

// MarkDead records a discovered death and reroutes every affected user.
func (r *Router) MarkDead(member int) {
	r.closeClient(member)
	if !r.dead[member] {
		r.dead[member] = true
		r.rebuild()
	}
}

// Client returns the connection to member, dialing it on first use.
func (r *Router) Client(member int) (*rpc.Client, error) {
	if r.clients[member] == nil {
		c, err := rpc.Dial(r.addrs[member])
		if err != nil {
			return nil, err
		}
		r.clients[member] = c
	}
	return r.clients[member], nil
}

// Transmit sends to the user's owner. A member that cannot be reached,
// fails mid-call or answers Draining is marked dead and the request is
// retried at the recomputed owner — a rebalance, not an error: a draining
// member answers only after handing its state off, so the retry finds the
// user already there. Only running out of members loses the request. A
// call that fails because ctx ended says nothing about the member: it
// returns ctx's error and marks nobody dead.
func (r *Router) Transmit(ctx context.Context, user, text string) (*rpc.Response, error) {
	for r.anyLive() {
		member := r.Owner(user)
		cl, err := r.Client(member)
		if err == nil {
			var resp *rpc.Response
			resp, err = cl.TransmitContext(ctx, user, text)
			if err == nil && !resp.Draining {
				return resp, nil
			}
		}
		if ctx.Err() != nil {
			r.closeClient(member) // a call cut short leaves the framing undefined
			return nil, ctx.Err()
		}
		r.MarkDead(member)
		r.Retries++
	}
	return nil, fmt.Errorf("transmit %s: no live mesh member", user)
}

// Move sends the move to the user's serving member and mirrors the
// resulting ownership locally.
func (r *Router) Move(user string, cell int) (*rpc.Response, error) {
	if !r.anyLive() {
		return nil, fmt.Errorf("move %s: no live mesh member", user)
	}
	cl, err := r.Client(r.Owner(user))
	if err != nil {
		return nil, err
	}
	resp, err := cl.Move(user, cell)
	if err != nil {
		return nil, err
	}
	if resp.OK && resp.Handover != nil {
		r.Moved(user, cell)
	}
	return resp, nil
}

// MergedStats merges every live member's counters with rpc.Stats.Merge.
func (r *Router) MergedStats() (*rpc.Stats, error) {
	var merged *rpc.Stats
	for _, m := range r.Live() {
		cl, err := r.Client(m)
		if err != nil {
			return nil, err
		}
		st, err := cl.Stats()
		if err != nil {
			return nil, err
		}
		if merged == nil {
			merged = st
		} else {
			merged.Merge(st)
		}
	}
	if merged == nil {
		return nil, errors.New("no live mesh member")
	}
	return merged, nil
}
