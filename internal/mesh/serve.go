package mesh

import (
	"errors"
	"fmt"
	"io"
	"net"

	"repro/internal/rpc"
)

// HandleOp serves one mesh op (rpc.IsMeshOp) — the whole peer-to-peer
// surface of a member. edged dispatches its mesh ops here; Serve answers
// nothing else.
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

// serveConn answers one peer connection until it fails or closes. A
// frame that fails to parse (a retired version byte among them) is
// logged and closes the connection unanswered.
func (n *Node) serveConn(conn net.Conn) {
	defer conn.Close()
	framed := rpc.NewConn(conn)
	for {
		req, err := framed.ReadRequest()
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) && !errors.Is(err, io.ErrClosedPipe) {
				n.cfg.Logf("mesh: %s: %v", conn.RemoteAddr(), err)
			}
			return
		}
		resp := &rpc.Response{Error: fmt.Sprintf("%s: not a mesh op", req.Op)}
		if rpc.IsMeshOp(req.Op) {
			resp = n.HandleOp(req)
		}
		if framed.Write(resp) != nil {
			return
		}
	}
}
