package mesh

import (
	"context"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/rpc"
)

// Drain gracefully removes this member from the mesh: it stops the probe
// loop, pushes every general model it owns and hands every user record off
// to the consistent-hash owners under the surviving membership, announces
// OpLeave to every live peer (in parallel), and closes the peer
// connections. Every peer RPC is bounded
// by ctx as well as callTimeout, so a dead peer cannot stall the drain
// past its budget; on ctx expiry the remaining pushes fail fast and the
// caller falls back to crash-stop semantics for whatever state is left.
// Drain, Stop and Abort are mutually idempotent — whichever runs first
// wins.
func (n *Node) Drain(ctx context.Context) error {
	if !n.beginStop() {
		return nil
	}
	n.wg.Wait() // probe loop, joins and in-flight replica pushes are done
	defer func() {
		for _, p := range n.peersByIndex() {
			p.close()
		}
	}()

	sys := n.system()

	// The handoff ring is built over the surviving membership — the same
	// membership (and ring seed) a client recomputes after marking this
	// member dead, so every pushed user lands exactly where retried
	// requests will be routed.
	var survivors []int
	for _, p := range n.peersByIndex() {
		if p.usable() {
			survivors = append(survivors, p.info.Index)
		}
	}
	if len(survivors) == 0 {
		n.cfg.Logf("mesh: drain: no live peers, nothing to hand off")
		return nil
	}
	ring := newRing(survivors, n.cfg.RingSeed)

	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	if sys != nil {
		n.drainGenerals(ctx, sys, ring, fail)
		n.drainUsers(ctx, sys, ring, fail)
	}
	n.announceLeave(ctx)
	if err := ctx.Err(); err != nil {
		fail(err)
	}
	return firstErr
}

// drainGenerals pushes every general model in the local sender cache to
// its new ring owner, skipping owners whose latest stats snapshot shows
// they already hold a copy.
func (n *Node) drainGenerals(ctx context.Context, sys *core.System, ring *cluster.Ring, fail func(error)) {
	for _, domain := range n.generalDomains(sys) {
		target := ring.Node(domain)
		p, ok := n.peers[target]
		if !ok || !p.usable() {
			fail(fmt.Errorf("mesh: drain: no live owner for general %s (target %d)", domain, target))
			continue
		}
		sent, err := n.pushGeneral(ctx, sys, p, domain, rpc.HandoffDrain)
		if err != nil {
			fail(fmt.Errorf("mesh: drain push general %s to %s: %w", domain, p.info.Name, err))
			continue
		}
		if sent {
			n.cfg.Logf("mesh: drained general %s to %s", domain, p.info.Name)
		}
	}
}

// drainUsers hands every user record off to its new ring owner.
func (n *Node) drainUsers(ctx context.Context, sys *core.System, ring *cluster.Ring, fail func(error)) {
	users := sys.Users()
	handed := 0
	for _, user := range users {
		target := ring.Node(user)
		p, ok := n.peers[target]
		if !ok || !p.usable() {
			fail(fmt.Errorf("mesh: drain: no live owner for user %s (target %d)", user, target))
			continue
		}
		if _, _, err := n.handOff(ctx, sys, user, p, rpc.HandoffDrain); err != nil {
			fail(fmt.Errorf("mesh: drain: %w", err))
			continue
		}
		handed++
	}
	n.cfg.Logf("mesh: drained %d/%d users", handed, len(users))
}
