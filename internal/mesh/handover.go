package mesh

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/edge"
	"repro/internal/fl"
	"repro/internal/kb"
	"repro/internal/rpc"
)

// Handoff side labels on the wire.
const (
	sideSender   = "sender"
	sideReceiver = "receiver"
)

// exportToWire flattens a user's exported serving state into the
// handover payload: both sides' individual models, the selection belief
// and the pending federated-update buffers.
func exportToWire(exp *core.UserExport, from string) *rpc.HandoffPayload {
	h := &rpc.HandoffPayload{User: exp.User, FromNode: from, NoiseSeq: exp.NoiseSeq,
		Models: make([]rpc.HandoffModel, 0, len(exp.Sender)+len(exp.Receiver))}
	add := func(side string, models []*edge.ExportedModel) {
		for _, m := range models {
			h.Models = append(h.Models, rpc.HandoffModel{Side: side, Model: rpc.ModelPayload{
				Domain:  m.Domain,
				User:    m.User,
				Version: m.Version,
				Params:  m.Params,
			}})
		}
	}
	add(sideSender, exp.Sender)
	add(sideReceiver, exp.Receiver)
	h.Belief = exp.Belief
	for _, b := range exp.Buffers {
		wb := rpc.BufferState{Domain: b.Domain, Txs: make([]rpc.TxState, len(b.Txs))}
		for i, tx := range b.Txs {
			wb.Txs[i] = rpc.TxState{Surfaces: tx.SurfaceIDs, Concepts: tx.ConceptIDs, Decoded: tx.Decoded}
		}
		h.Buffers = append(h.Buffers, wb)
	}
	return h
}

// exportFromWire is the inverse of exportToWire.
func exportFromWire(h *rpc.HandoffPayload) (*core.UserExport, error) {
	exp := &core.UserExport{User: h.User, NoiseSeq: h.NoiseSeq, Belief: h.Belief}
	for _, hm := range h.Models {
		m := &edge.ExportedModel{
			Domain:  hm.Model.Domain,
			User:    hm.Model.User,
			Version: hm.Model.Version,
			Params:  hm.Model.Params,
		}
		switch hm.Side {
		case sideSender:
			exp.Sender = append(exp.Sender, m)
		case sideReceiver:
			exp.Receiver = append(exp.Receiver, m)
		default:
			return nil, fmt.Errorf("mesh: unknown handoff side %q", hm.Side)
		}
	}
	for _, wb := range h.Buffers {
		b := edge.BufferState{Domain: wb.Domain, Txs: make([]fl.Transaction, len(wb.Txs))}
		for i, tx := range wb.Txs {
			b.Txs[i] = fl.Transaction{SurfaceIDs: tx.Surfaces, ConceptIDs: tx.Concepts, Decoded: tx.Decoded}
		}
		exp.Buffers = append(exp.Buffers, b)
	}
	return exp, nil
}

// handOff is the one way a user leaves this member, for a move and a drain
// alike: export the user's record, push it to p, and once p took it drop
// everything this member holds for the user. A failed push leaves the
// record here, still serving. The models' parameters are exported into a
// pooled buffer, which goes back once the push has framed them. handOff
// reports the sender-side models it shipped and their bytes.
func (n *Node) handOff(ctx context.Context, sys *core.System, user string, p *peer, reason string) (int, int64, error) {
	exp, buf, err := sys.ExportUserForHandoverTo(user, rpc.GetBuffer)
	defer rpc.PutBuffer(buf)
	if err != nil {
		return 0, 0, fmt.Errorf("mesh: export %s: %w", user, err)
	}
	h := exportToWire(exp, n.self.Name)
	h.Reason = reason
	if err := n.push(ctx, p, h); err != nil {
		return 0, 0, fmt.Errorf("mesh: handover %s to %s: %w", user, p.info.Name, err)
	}
	sys.DropUserAfterHandover(exp)
	bytes := exp.SenderBytes()
	n.handoversOut.Add(1)
	n.migratedBytes.Add(bytes)
	return len(exp.Sender), bytes, nil
}

// MoveUser serves a client's "move" op on a mesh member: attach the user to a
// radio cell and, when the cell maps to a different live member, hand the
// user off there. A move to this member's own cell changes nothing. The
// reported latency is the simulated mesh-link transfer of the sender-side
// payload.
func (n *Node) MoveUser(user string, cell int) (*rpc.Handover, error) {
	sys := n.system()
	if sys == nil {
		return nil, fmt.Errorf("mesh: node not bound to a system")
	}
	target := cellMember(n.LiveMembers(), cell)
	if target == n.self.Index {
		return &rpc.Handover{From: n.self.Name, To: n.self.Name}, nil
	}
	p, ok := n.peers[target]
	if !ok {
		return nil, fmt.Errorf("mesh: no peer at index %d", target)
	}
	models, bytes, err := n.handOff(context.Background(), sys, user, p, "")
	if err != nil {
		return nil, err
	}
	return &rpc.Handover{
		From:          n.self.Name,
		To:            p.info.Name,
		Moved:         true,
		Models:        models,
		MigratedBytes: bytes,
		LatencyMs:     float64(n.cfg.MeshLink.TransferTime(bytes)) / float64(time.Millisecond),
	}, nil
}

// NotPeerError refuses a handover push signed by a name that is not one
// of the member's static peers.
type NotPeerError struct {
	Member string // the refusing member
	From   string // the push's FromNode
}

func (e *NotPeerError) Error() string {
	return fmt.Sprintf("mesh: %s takes no push from %q: not a peer of this mesh", e.Member, e.From)
}

// isPeer reports whether name is one of the static peers (never self).
func (n *Node) isPeer(name string) bool {
	for _, p := range n.peers {
		if p.info.Name == name {
			return true
		}
	}
	return false
}

// HandleHandoverPush serves a peer's OpHandoverPush: install any pushed
// general models (drain rebalancing or a hot-model replica), then the
// user's record, so the first local transmit continues the user's stream
// exactly where the old owner stopped. A replica of a general the sender
// cache already holds changes nothing: the cached copy keeps its object
// and its pin, and the push is not counted. Only the membership pushes:
// anything signed by another name is refused before a byte of it is
// revived or imported, which is also why a mesh of one takes no push.
func (n *Node) HandleHandoverPush(h *rpc.HandoffPayload) error {
	if !n.isPeer(h.FromNode) {
		return &NotPeerError{Member: n.self.Name, From: h.FromNode}
	}
	sys := n.system()
	if sys == nil {
		return fmt.Errorf("mesh: node not bound to a system")
	}
	for i := range h.General {
		g := &h.General[i]
		k := kb.Key{Domain: g.Domain, Role: kb.RoleCodec}
		if h.Reason == rpc.HandoffReplica && sys.Sender.Cache().Contains(k) {
			continue
		}
		m, err := n.reviveModel(k, g)
		if err != nil {
			return fmt.Errorf("mesh: revive pushed general %s: %w", g.Domain, err)
		}
		// A drain push makes this node an owner: install exactly as a
		// local origin fetch would (pin iff this edge pins generals). A
		// replica push is a cache hint and stays evictable — coordinated
		// eviction protects the mesh's last copy.
		pinned := h.Reason == rpc.HandoffDrain && sys.Sender.PinsGeneral()
		if err := sys.Sender.Cache().Put(m, pinned); err != nil {
			if h.Reason == rpc.HandoffReplica {
				n.cfg.Logf("mesh: replica %s rejected: %v", g.Domain, err)
				continue
			}
			return fmt.Errorf("mesh: install pushed general %s: %w", g.Domain, err)
		}
		if h.Reason == rpc.HandoffReplica {
			n.replicasIn.Add(1)
		}
	}
	if h.User == "" {
		return nil // pure general-model push, no user state rides along
	}
	exp, err := exportFromWire(h)
	if err != nil {
		return err
	}
	if err := sys.ImportUserFromHandover(exp); err != nil {
		return err
	}
	n.handoversIn.Add(1)
	return nil
}
