package mesh

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/kb"
	"repro/internal/rpc"
)

// Drain gracefully removes this member from the mesh: it stops the probe
// loop, pushes every general model it owns and every tracked user's
// complete serving state to the consistent-hash owners under the
// surviving membership, announces OpLeave to every live peer (in
// parallel), and closes the peer connections. Every peer RPC is bounded
// by ctx as well as CallTimeout, so a dead peer cannot stall the drain
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

	n.mu.RLock()
	sys := n.sys
	n.mu.RUnlock()

	// The handoff ring is built over the surviving membership — the same
	// membership (and ring seed) a client recomputes after marking this
	// member dead, so every pushed user lands exactly where retried
	// requests will be routed.
	var survivors []int
	for idx, p := range n.peers {
		if p.usable() {
			survivors = append(survivors, idx)
		}
	}
	sort.Ints(survivors)
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
	keys := sys.Sender.Cache().KeysWhere(func(k kb.Key) bool {
		return k.User == "" && k.Role == kb.RoleCodec
	})
	sort.Slice(keys, func(i, j int) bool { return keys[i].Domain < keys[j].Domain })
	for _, k := range keys {
		target := ring.Node(k.Domain)
		p, ok := n.peers[target]
		if !ok || !p.usable() {
			fail(fmt.Errorf("mesh: drain: no live owner for general %s (target %d)", k.Domain, target))
			continue
		}
		if st := p.lastStats.Load(); st != nil && containsString(st.Generals, k.Domain) {
			continue // the new owner already holds a copy: nothing lost
		}
		payload, ok := n.generalPayload(sys, k.Domain)
		if !ok {
			continue
		}
		push := &rpc.HandoffPayload{
			FromNode: n.self.Name,
			Reason:   rpc.HandoffDrain,
			General:  []rpc.ModelPayload{*payload},
		}
		err := p.call(ctx, n.cfg.CallTimeout, func(ctx context.Context, c *rpc.Client) error {
			return c.HandoverPush(ctx, push)
		})
		if err != nil {
			n.setAlive(p, false)
			fail(fmt.Errorf("mesh: drain push general %s to %s: %w", k.Domain, p.info.Name, err))
			continue
		}
		n.cfg.Logf("mesh: drained general %s to %s", k.Domain, p.info.Name)
	}
}

// drainUsers exports and pushes every tracked user's serving state to
// its new ring owner, dropping the local copy after each successful
// push.
func (n *Node) drainUsers(ctx context.Context, sys *core.System, ring *cluster.Ring, fail func(error)) {
	n.mu.RLock()
	users := make([]string, 0, len(n.users))
	for u := range n.users {
		users = append(users, u)
	}
	n.mu.RUnlock()
	sort.Strings(users)
	handed := 0
	for _, user := range users {
		target := ring.Node(user)
		p, ok := n.peers[target]
		if !ok || !p.usable() {
			fail(fmt.Errorf("mesh: drain: no live owner for user %s (target %d)", user, target))
			continue
		}
		exp, err := sys.ExportUserForHandover(user)
		if err != nil {
			fail(fmt.Errorf("mesh: drain export %s: %w", user, err))
			continue
		}
		h := exportToWire(exp, n.self.Name)
		h.Reason = rpc.HandoffDrain
		err = p.call(ctx, n.cfg.CallTimeout, func(ctx context.Context, c *rpc.Client) error {
			return c.HandoverPush(ctx, h)
		})
		if err != nil {
			n.setAlive(p, false)
			fail(fmt.Errorf("mesh: drain push %s to %s: %w", user, p.info.Name, err))
			continue
		}
		sys.DropUserAfterHandover(exp)
		n.dropUser(user)
		n.handoversOut.Add(1)
		n.migratedBytes.Add(exp.SenderBytes())
		handed++
	}
	n.cfg.Logf("mesh: drained %d/%d users", handed, len(users))
}
