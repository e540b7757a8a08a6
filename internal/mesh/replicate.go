package mesh

import (
	"context"
	"slices"

	"repro/internal/core"
	"repro/internal/kb"
	"repro/internal/rpc"
)

// replicaHotCount is the per-domain transmit count that promotes a
// general model to "hot": crossing it triggers the one-time proactive
// replica push to the node's ring-successors.
const replicaHotCount = 16

// NoteDomain records one served transmit for domain — the popularity
// signal hot-model replication promotes on. When the domain crosses the
// promotion threshold for the first time, its general model is pushed
// asynchronously to the next Replicas live successors so losing this
// member costs zero origin re-fetches for the hot model.
func (n *Node) NoteDomain(domain string) {
	if n.cfg.Replicas <= 0 {
		return
	}
	n.heatMu.Lock()
	n.heat[domain]++
	promote := n.heat[domain] >= replicaHotCount && !n.replicated[domain]
	if promote {
		n.replicated[domain] = true
	}
	n.heatMu.Unlock()
	if !promote {
		return
	}
	n.goAsync(func() { n.pushReplicas(domain) })
}

// pushReplicas pushes domain's general model to the next Replicas usable
// successors in index order — the same order the cooperative fetcher
// probes on a miss, so replicas sit where a survivor looks first. A
// successor whose latest stats snapshot already lists the domain counts
// as warm without a wire transfer.
func (n *Node) pushReplicas(domain string) {
	sys := n.system()
	if sys == nil {
		return
	}
	pushed := 0
	for off := 1; off < n.total && pushed < n.cfg.Replicas; off++ {
		p, ok := n.peers[(n.self.Index+off)%n.total]
		if !ok || !p.usable() {
			continue
		}
		sent, err := n.pushGeneral(context.Background(), sys, p, domain, rpc.HandoffReplica)
		if err != nil {
			n.cfg.Logf("mesh: replica push %s to %s: %v", domain, p.info.Name, err)
			continue
		}
		pushed++
		if sent {
			n.replicasOut.Add(1)
			n.cfg.Logf("mesh: replicated hot model %s to %s", domain, p.info.Name)
		}
	}
}

// pushGeneral hands domain's general model to p in a one-model push tagged
// reason. It sends nothing, and reports false, when p's latest stats
// snapshot already lists the domain (p holds a copy), when the model is
// no longer in the local sender cache, or when it fails to serialize
// (logged).
func (n *Node) pushGeneral(ctx context.Context, sys *core.System, p *peer, domain, reason string) (bool, error) {
	if st := p.lastStats.Load(); st != nil && slices.Contains(st.Generals, domain) {
		return false, nil
	}
	payload, err := generalPayload(sys, kb.GeneralKey(domain, kb.RoleCodec))
	if err != nil {
		n.cfg.Logf("mesh: serialize general %s: %v", domain, err)
	}
	if payload == nil {
		return false, nil
	}
	push := &rpc.HandoffPayload{
		FromNode: n.self.Name,
		Reason:   reason,
		General:  []rpc.ModelPayload{*payload},
	}
	return true, n.push(ctx, p, push)
}

// generalPayload serializes the general model k from the local sender
// cache with Peek semantics (remote demand and pushes must not distort
// local hit stats or recency). A miss returns nil and no error.
func generalPayload(sys *core.System, k kb.Key) (*rpc.ModelPayload, error) {
	m, ok := sys.Sender.Cache().Peek(k)
	if !ok {
		return nil, nil
	}
	stream, err := m.Codec.AppendTo(nil)
	if err != nil {
		return nil, err
	}
	return &rpc.ModelPayload{Domain: k.Domain, Version: m.Version, Params: stream}, nil
}
