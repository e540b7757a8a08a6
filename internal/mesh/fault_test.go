package mesh_test

import (
	"net"
	"sync/atomic"
	"testing"

	"repro/internal/rpc/rpctest"
)

// cutListener accepts through the wrapped listener; once armed, the next
// connection it hands out dies after cutAfter bytes (rpctest.CutConn).
type cutListener struct {
	net.Listener
	armed *atomic.Bool
}

// cutAfter is far inside a handover push (tens of kilobytes) and far
// beyond any other mesh frame's header.
const cutAfter = 1000

func (l cutListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err == nil && l.armed.CompareAndSwap(true, false) {
		conn = &rpctest.CutConn{Conn: conn, After: cutAfter}
	}
	return conn, err
}

// TestHandoverPushCutMidFrame is a link fault, not a process fault: the
// connection carrying a handover push dies with the frame cut
// mid-payload. The move must fail as a whole — the source member keeps
// serving the user from their individual model, the target installs
// nothing on either edge — and once the link is healthy again the same
// move succeeds.
func TestHandoverPushCutMidFrame(t *testing.T) {
	var armed atomic.Bool
	mm := newMemMesh(t, 2, nil, func(_ int, ln net.Listener) net.Listener {
		return cutListener{Listener: ln, armed: &armed}
	})
	mm.warm(t)
	const user = "cutoff"
	mm.personalize(t, user, 0, 31)
	srcIdx := mm.router.Owner(user)
	dstIdx := 1 - srcIdx
	src, dst := mm.members[srcIdx], mm.members[dstIdx]
	words := messages(0, 3, 32)

	// Drop the established link so the push has to dial — into the fault.
	src.node.ClosePeer(dstIdx)
	armed.Store(true)
	if h, err := src.node.MoveUser(user, dstIdx); err == nil {
		t.Fatalf("move over a link cut mid-frame succeeded: %+v", h)
	}
	if armed.Load() {
		t.Fatal("the fault never fired: the push did not dial a new connection")
	}
	if res := src.serve(t, user, words[0]); !res.UsedIndividual {
		t.Fatal("after the failed move the source fell back to the general model: it dropped state it never handed over")
	}
	if s, r := dst.sys.Sender.UserDomains(user), dst.sys.Receiver.UserDomains(user); len(s)+len(r) != 0 {
		t.Fatalf("target installed %v / %v from a frame it never fully received", s, r)
	}
	if out, _ := src.node.HandoverStats(); out != 0 || dst.node.Stats().HandoversIn != 0 {
		t.Fatalf("a failed push was counted as a handover: out %d, in %d", out, dst.node.Stats().HandoversIn)
	}

	// The failed call demoted the peer; its next join (or probe) brings it
	// back, and the move goes through over a fresh, healthy connection.
	if live := src.node.LiveMembers(); len(live) != 1 {
		t.Fatalf("source still believes the peer alive after the link fault: %v", live)
	}
	src.node.HandleJoin(dst.node.Self())
	h, err := src.node.MoveUser(user, dstIdx)
	if err != nil {
		t.Fatalf("move over the healed link: %v", err)
	}
	if !h.Moved || h.Models == 0 || h.MigratedBytes <= cutAfter {
		t.Fatalf("handover %+v: want a moved model larger than the %d-byte cut", h, cutAfter)
	}
	mm.router.Moved(user, dstIdx)
	if res := dst.serve(t, user, words[1]); !res.UsedIndividual {
		t.Fatal("target does not serve from the migrated individual model")
	}
	if s, r := src.sys.Sender.UserDomains(user), src.sys.Receiver.UserDomains(user); len(s)+len(r) != 0 {
		t.Fatalf("source still holds %v / %v after the successful handover", s, r)
	}
}
