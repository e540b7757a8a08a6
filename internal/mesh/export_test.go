package mesh

import (
	"repro/internal/kb"
	"repro/internal/rpc"
)

// What the external test package (mesh_test, which boots members as
// edged daemons) reaches inside a node.

var (
	ExportToWire = exportToWire
	CellMember   = cellMember
)

// ClosePeer drops the connection to peer i, so the next call dials anew.
func (n *Node) ClosePeer(i int) { n.peers[i].close() }

// PeerClient returns the client connected to peer i, nil when none is.
func (n *Node) PeerClient(i int) *rpc.Client {
	p := n.peers[i]
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.client
}

// FirstPeerName names the remote peer with the lowest index.
func (n *Node) FirstPeerName() string { return n.peersByIndex()[0].info.Name }

func (n *Node) ReviveModel(k kb.Key, payload *rpc.ModelPayload) (*kb.Model, error) {
	return n.reviveModel(k, payload)
}

func (n *Node) PushReplicas(domain string) { n.pushReplicas(domain) }
