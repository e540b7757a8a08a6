package rpc

import (
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// echoServer accepts one connection and answers requests until EOF,
// echoing Text for transmits, reporting fixed stats, and acknowledging
// everything else. It sends each received request to reqs when non-nil.
func echoServer(t *testing.T, ln net.Listener, reqs chan<- *Request) {
	t.Helper()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		framed := NewConn(conn)
		for {
			req, err := framed.ReadRequest()
			if err != nil {
				return
			}
			if reqs != nil {
				reqs <- req
			}
			resp := &Response{OK: true}
			switch req.Op {
			case OpTransmit:
				resp.Restored = req.Text
			case OpStats:
				resp.Stats = &Stats{Messages: 9, Serve: &ServeStats{InFlight: 1}}
			case OpMove:
				resp.Handover = &Handover{From: "node-0", To: "node-1", Moved: true}
			case OpJoin:
				resp.Peers = []PeerInfo{{Name: "node-0", Index: 0, Addr: "127.0.0.1:1"}, *req.Peer}
			case OpPeerStats:
				resp.Node = &NodeStats{Name: "node-0", NeighborHits: 2}
			case OpFetchModel:
				if req.Fetch.Domain == "it" {
					resp.Model = &ModelPayload{Domain: "it", Version: 1, Params: []byte{5, 6}}
				}
			}
			if err := framed.Write(resp); err != nil {
				return
			}
		}
	}()
}

func dialTest(t *testing.T, reqs chan<- *Request) *Client {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	echoServer(t, ln, reqs)
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestClientCalls(t *testing.T) {
	c := dialTest(t, nil)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Transmit("alice", "the server is down")
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || resp.Restored != "the server is down" {
		t.Fatalf("transmit resp = %+v", resp)
	}
	mv, err := c.Move("alice", 2)
	if err != nil {
		t.Fatal(err)
	}
	if mv.Handover == nil || !mv.Handover.Moved {
		t.Fatalf("move resp = %+v", mv)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Messages != 9 || st.Serve == nil || st.Serve.InFlight != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestClientForwardsDeadline(t *testing.T) {
	reqs := make(chan *Request, 1)
	c := dialTest(t, reqs)
	// The forwarded DeadlineMs is the budget remaining when the frame is
	// written, so it lands just under the nominal value.
	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()
	if _, err := c.TransmitContext(ctx, "alice", "hi"); err != nil {
		t.Fatal(err)
	}
	req := <-reqs
	if req.DeadlineMs <= 100 || req.DeadlineMs > 250 {
		t.Fatalf("DeadlineMs = %g, want in (100, 250]", req.DeadlineMs)
	}
	// A call without a deadline forwards none.
	if _, err := c.Transmit("alice", "hi"); err != nil {
		t.Fatal(err)
	}
	if req = <-reqs; req.DeadlineMs != 0 {
		t.Fatalf("DeadlineMs = %g without a deadline, want 0", req.DeadlineMs)
	}
}

// TestClientDoContext: the context call every method goes through forwards
// its deadline and returns the daemon's response; a call whose context is
// already cancelled fails without writing a frame, so the next request the
// daemon reads is the call after it.
func TestClientDoContext(t *testing.T) {
	reqs := make(chan *Request, 1)
	c := dialTest(t, reqs)
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	resp, err := c.do(ctx, &Request{Op: OpTransmit, User: "alice", Text: "hello"})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || resp.Restored != "hello" {
		t.Fatalf("resp = %+v", resp)
	}
	req := <-reqs
	if req.DeadlineMs <= 0 || req.DeadlineMs > 300 {
		t.Fatalf("DeadlineMs = %g, want in (0, 300]", req.DeadlineMs)
	}
	cancelled, stop := context.WithCancel(context.Background())
	stop()
	if _, err := c.do(cancelled, &Request{Op: OpPing}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if err := c.PingContext(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("PingContext err = %v, want context.Canceled", err)
	}
	if _, err := c.Transmit("alice", "next"); err != nil {
		t.Fatal(err)
	}
	if req = <-reqs; req.Op != OpTransmit || req.DeadlineMs != 0 {
		t.Fatalf("after the cancelled calls the daemon read %s with DeadlineMs %g, want the next transmit with none", req.Op, req.DeadlineMs)
	}
}

func TestClientContextCancelUnblocks(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// A server that accepts but never answers: cancelling the context must
	// unblock the exchange even though it carries no deadline.
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		io.Copy(io.Discard, conn)
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	if _, err := c.TransmitContext(ctx, "alice", "hi"); err == nil {
		t.Fatal("call against a mute server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancel ignored: call blocked %v", elapsed)
	}
}

// cancelOnReadConn cancels a context in the Read that delivers the first
// bytes of a response: the call's context ends just as its exchange
// succeeds.
type cancelOnReadConn struct {
	net.Conn
	cancel context.CancelFunc // nil once fired
}

func (c *cancelOnReadConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && c.cancel != nil {
		c.cancel()
		c.cancel = nil
	}
	return n, err
}

// TestClientCancelAfterExchange checks a context that ends just after a
// successful exchange leaves no expired deadline on the connection: the
// next call on the client is served, not failed with a timeout.
func TestClientCancelAfterExchange(t *testing.T) {
	clientEnd, serverEnd := pipeConns(t)
	go func() {
		srv := NewConn(serverEnd)
		for {
			if _, err := srv.ReadRequest(); err != nil {
				return
			}
			if srv.Write(&Response{OK: true}) != nil {
				return
			}
		}
	}()
	conn := &cancelOnReadConn{Conn: clientEnd}
	cl := NewClient(conn)
	for i := 0; i < 20; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		conn.cancel = cancel
		if err := cl.PingContext(ctx); err != nil {
			t.Fatalf("round %d: ping cancelled as its response arrived: %v", i, err)
		}
		if err := cl.Ping(); err != nil {
			t.Fatalf("round %d: ping after a call whose context ended: %v", i, err)
		}
	}
}

func TestClientMeshCalls(t *testing.T) {
	reqs := make(chan *Request, 1)
	c := dialTest(t, reqs)
	ctx := context.Background()

	peers, err := c.Join(ctx, PeerInfo{Name: "node-1", Index: 1, Addr: "127.0.0.1:2"})
	if err != nil {
		t.Fatal(err)
	}
	<-reqs
	if len(peers) != 2 || peers[1].Name != "node-1" {
		t.Fatalf("join peers = %+v", peers)
	}
	node, err := c.PeerStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	<-reqs
	if node.Name != "node-0" || node.NeighborHits != 2 {
		t.Fatalf("peer stats = %+v", node)
	}
	m, err := c.FetchModel(ctx, FetchRequest{Domain: "it", Role: "codec"})
	if err != nil {
		t.Fatal(err)
	}
	<-reqs
	if m == nil || m.Domain != "it" {
		t.Fatalf("fetch hit = %+v", m)
	}
	miss, err := c.FetchModel(ctx, FetchRequest{Domain: "unknown", Role: "codec"})
	if err != nil {
		t.Fatal(err)
	}
	<-reqs
	if miss != nil {
		t.Fatalf("fetch miss returned %+v", miss)
	}
	if err := c.Leave(ctx, PeerInfo{Name: "node-1", Index: 1}); err != nil {
		t.Fatal(err)
	}
	req := <-reqs
	if req.Op != OpLeave || req.Peer == nil || req.Peer.Index != 1 {
		t.Fatalf("leave request = %+v", req)
	}
}

func TestClientDeadlineExpires(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// A server that accepts but never answers: the call must fail by the
	// deadline instead of hanging.
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		io.Copy(io.Discard, conn)
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := c.TransmitContext(ctx, "alice", "hi"); err == nil {
		t.Fatal("call against a mute server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline ignored: call blocked %v", elapsed)
	}
}

func TestClientClosed(t *testing.T) {
	c := dialTest(t, nil)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := c.Transmit("alice", "hi"); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}
