package mesh

import (
	"fmt"

	"repro/internal/rpc"
)

// HandleOp serves one mesh op (rpc.IsMeshOp) — the whole peer-to-peer
// surface of a member. edged's server dispatches its mesh ops here.
func (n *Node) HandleOp(req *rpc.Request) *rpc.Response {
	switch req.Op {
	case rpc.OpJoin:
		if req.Peer == nil {
			return &rpc.Response{Error: "join requires peer info"}
		}
		return &rpc.Response{OK: true, Peers: n.HandleJoin(*req.Peer)}
	case rpc.OpLeave:
		if req.Peer == nil {
			return &rpc.Response{Error: "leave requires peer info"}
		}
		n.HandleLeave(*req.Peer)
		return &rpc.Response{OK: true}
	case rpc.OpPeerStats:
		ns := n.Stats()
		return &rpc.Response{OK: true, Node: &ns}
	case rpc.OpFetchModel:
		if req.Fetch == nil {
			return &rpc.Response{Error: "fetch-model requires a model key"}
		}
		payload, err := n.HandleFetch(*req.Fetch)
		if err != nil {
			return &rpc.Response{Error: err.Error()}
		}
		// A nil Model is a clean miss: the prober moves on.
		return &rpc.Response{OK: true, Model: payload}
	case rpc.OpHandoverPush:
		if req.Handoff == nil {
			return &rpc.Response{Error: "handover-push requires a payload"}
		}
		if err := n.HandleHandoverPush(req.Handoff); err != nil {
			return &rpc.Response{Error: err.Error()}
		}
		return &rpc.Response{OK: true}
	default:
		return &rpc.Response{Error: fmt.Sprintf("unknown mesh op %q", req.Op)}
	}
}
