package edged

import (
	"bytes"
	"context"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/rpc"
	"repro/internal/rpc/rpctest"
)

// handleOn runs a fresh server's connection handler (around the shared
// test system) on the far end of an in-memory connection — net.Pipe hands
// each Write over as one segment, so read and write counts are exact —
// and returns the near end plus a channel closed when the handler exits.
// wrap, when non-nil, dresses the handler's end in a conn double.
func handleOn(t *testing.T, idleTimeout time.Duration, wrap func(net.Conn) net.Conn) (net.Conn, <-chan struct{}) {
	t.Helper()
	shared := testServer(t)
	srv := newServer(shared.sys, shared.mesh)
	srv.idleTimeout = idleTimeout
	near, far := net.Pipe()
	t.Cleanup(func() { near.Close() })
	if wrap != nil {
		far = wrap(far)
	}
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		srv.handle(far)
	}()
	return near, exited
}

// awaitExit fails the test unless the handler goroutine returns promptly.
func awaitExit(t *testing.T, exited <-chan struct{}) {
	t.Helper()
	select {
	case <-exited:
	case <-time.After(10 * time.Second):
		t.Fatal("connection handler never exited")
	}
}

const framingText = "the server has a kernel bug and the doctor will scan the patient before the game"

// TestHandleOneBytePerRead serves a connection that delivers one byte per
// Read, so every header and every payload arrives split.
func TestHandleOneBytePerRead(t *testing.T) {
	near, exited := handleOn(t, 0, func(c net.Conn) net.Conn { return rpctest.TrickleConn{Conn: c} })
	cl := rpc.NewClient(near)
	for i := 0; i < 3; i++ {
		resp, err := cl.Transmit("alice", framingText)
		if err != nil || !resp.OK || resp.Restored == "" {
			t.Fatalf("transmit %d over a trickling connection: %+v, %v", i, resp, err)
		}
	}
	cl.Close()
	awaitExit(t, exited)
}

// TestHandlePipelinedFrames sends two complete requests in one segment
// before reading anything: the handler takes both off the connection in a
// single Read and answers them in request order.
func TestHandlePipelinedFrames(t *testing.T) {
	var counted *rpctest.CountingConn
	near, exited := handleOn(t, 0, func(c net.Conn) net.Conn {
		counted = &rpctest.CountingConn{Conn: c}
		return counted
	})
	var both bytes.Buffer
	if err := rpc.WriteV(&both, rpc.Version, &rpc.Request{Op: rpc.OpTransmit, User: "alice", Text: framingText}); err != nil {
		t.Fatal(err)
	}
	if err := rpc.WriteV(&both, rpc.Version, &rpc.Request{Op: rpc.OpStats}); err != nil {
		t.Fatal(err)
	}
	if _, err := near.Write(both.Bytes()); err != nil {
		t.Fatal(err)
	}
	first, _, err := rpc.ReadResponseV(near)
	if err != nil || !first.OK || first.Restored == "" || first.Stats != nil {
		t.Fatalf("first response is not the transmit's: %+v, %v", first, err)
	}
	second, _, err := rpc.ReadResponseV(near)
	if err != nil || !second.OK || second.Stats == nil || second.Restored != "" {
		t.Fatalf("second response is not the stats': %+v, %v", second, err)
	}
	near.Close()
	awaitExit(t, exited)
	if r, w := counted.Reads.Load(), counted.Writes.Load(); r != 1 || w != 2 {
		t.Fatalf("two pipelined requests cost the handler %d reads and %d writes, want 1 and 2", r, w)
	}
}

// TestHandleOneWritePerFrame pins the daemon's side of the syscall
// budget: each request under the read buffer's size is one Read, each
// response exactly one Write — after a 100 B transmit and after a 52 KB
// handover push alike.
func TestHandleOneWritePerFrame(t *testing.T) {
	var counted *rpctest.CountingConn
	near, exited := handleOn(t, 0, func(c net.Conn) net.Conn {
		counted = &rpctest.CountingConn{Conn: c}
		return counted
	})
	cl := rpc.NewClient(near)
	resp, err := cl.Transmit("alice", framingText)
	if err != nil || !resp.OK {
		t.Fatalf("transmit: %+v, %v", resp, err)
	}
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	if r := counted.Reads.Load(); r != 2 {
		t.Fatalf("two small requests cost the handler %d reads, want 2", r)
	}
	params := make([]byte, 52<<10)
	for i := range params {
		params[i] = byte(i * 7)
	}
	// A mesh of one has no peer to take a push from, so it is refused — in
	// one frame, after the whole 52 KB request came off the connection.
	err = cl.HandoverPush(context.Background(), &rpc.HandoffPayload{User: "alice", FromNode: "node-0",
		Models: []rpc.HandoffModel{{Side: "sender", Model: rpc.ModelPayload{Domain: "it", User: "alice", Params: params}}}})
	if err == nil {
		t.Fatal("handover push accepted by a daemon with no peers")
	}
	if err := cl.Ping(); err != nil {
		t.Fatalf("connection unusable after a 52 KB frame: %v", err)
	}
	cl.Close()
	awaitExit(t, exited)
	if w := counted.Writes.Load(); w != 4 {
		t.Fatalf("four responses left in %d writes", w)
	}
}

// TestHandleStallMidPayload checks the buffered reader does not hide a
// stall from the read deadline: a peer that sends a header and half a
// payload, then nothing, is dropped and its handler exits.
func TestHandleStallMidPayload(t *testing.T) {
	near, exited := handleOn(t, 50*time.Millisecond, nil)
	var frame bytes.Buffer
	if err := rpc.WriteV(&frame, rpc.Version, &rpc.Request{Op: rpc.OpTransmit, User: "alice", Text: framingText}); err != nil {
		t.Fatal(err)
	}
	if _, err := near.Write(frame.Bytes()[:frame.Len()/2]); err != nil {
		t.Fatal(err)
	}
	awaitExit(t, exited)
	near.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := near.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("stalled connection: read err = %v, want io.EOF from the daemon closing it", err)
	}
}
