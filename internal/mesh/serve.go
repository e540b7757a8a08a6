package mesh

import (
	"errors"
	"fmt"
	"net"

	"repro/internal/rpc"
)

// HandleOp serves one mesh op (rpc.IsMeshOp) — the whole peer-to-peer
// surface of a member. edged dispatches its v2 mesh frames here; Serve
// answers nothing else.
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

// Serve answers peers' mesh ops on ln until it is closed: everything a
// member that runs without an edged daemon — an in-process member behind
// an rpc.Listen("mem:...") listener — needs on the wire. Client ops
// (transmit, move, stats) are not served here; whoever owns the member
// calls its system and MoveUser directly. A connection is served until
// its peer closes it, which Stop, Abort and Drain all do.
func (n *Node) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go n.serveConn(conn)
	}
}

// serveConn answers one peer connection until it fails or closes.
func (n *Node) serveConn(conn net.Conn) {
	defer conn.Close()
	framed := rpc.NewConn(conn)
	for {
		req, version, err := framed.ReadRequestV()
		if err != nil {
			return
		}
		var resp *rpc.Response
		switch {
		case !rpc.IsMeshOp(req.Op):
			resp = &rpc.Response{Error: fmt.Sprintf("%s: not a mesh op", req.Op)}
		case version < rpc.Version2:
			resp = &rpc.Response{Error: rpc.ErrMeshOpVersion.Error()}
		default:
			resp = n.HandleOp(req)
		}
		if framed.WriteV(version, resp) != nil {
			return
		}
	}
}
