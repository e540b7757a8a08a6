package rpc

import (
	"context"
	"errors"
	"net"
	"os"
	"strings"
	"testing"
	"time"
)

// echoPings answers every request on every connection of ln with OK until
// the listener closes.
func echoPings(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go func() {
			defer conn.Close()
			framed := NewConn(conn)
			for {
				_, err := framed.ReadRequest()
				if err != nil || framed.Write(&Response{OK: true}) != nil {
					return
				}
			}
		}()
	}
}

// TestMemTransportRoundTrip checks an address alone selects the
// transport: the same Listen/Dial/Client code carries the same frames over
// a mem: name and over loopback TCP.
func TestMemTransportRoundTrip(t *testing.T) {
	for _, addr := range []string{"mem:roundtrip", "mem:", "127.0.0.1:0"} {
		ln, err := Listen(addr)
		if err != nil {
			t.Fatalf("Listen(%q): %v", addr, err)
		}
		go echoPings(ln)
		cl, err := Dial(ln.Addr().String())
		if err != nil {
			t.Fatalf("Dial(%q): %v", ln.Addr(), err)
		}
		if err := cl.Ping(); err != nil {
			t.Fatalf("%s: ping: %v", ln.Addr(), err)
		}
		// A frame far past the 4 KB read buffer crosses whole.
		big := &HandoffPayload{User: "u", General: []ModelPayload{{Domain: "it", Params: make([]byte, 70<<10)}}}
		if err := cl.HandoverPush(context.Background(), big); err != nil {
			t.Fatalf("%s: 70 KB push: %v", ln.Addr(), err)
		}
		cl.Close()
		ln.Close()
	}
}

// TestMemListenerNames checks the registry: a name is exclusive while
// listened on, free again after Close, auto-picked names are distinct,
// and nothing but a live listener can be dialed.
func TestMemListenerNames(t *testing.T) {
	ln, err := Listen("mem:names")
	if err != nil {
		t.Fatal(err)
	}
	if got := ln.Addr().String(); got != "mem:names" || ln.Addr().Network() != "mem" {
		t.Fatalf("Addr = %s/%s", ln.Addr().Network(), got)
	}
	if _, err := Listen("mem:names"); err == nil || !strings.Contains(err.Error(), "in use") {
		t.Fatalf("second Listen on a taken name: %v", err)
	}
	a, _ := Listen("mem:")
	b, _ := Listen("mem:")
	if a.Addr().String() == b.Addr().String() {
		t.Fatalf("two auto-named listeners share %s", a.Addr())
	}
	a.Close()
	b.Close()

	ln.Close()
	ln.Close() // idempotent
	if _, err := ln.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Accept after Close: %v, want net.ErrClosed", err)
	}
	if _, err := DialContext(context.Background(), "mem:names"); err == nil {
		t.Fatal("dialed a closed listener")
	}
	if _, err := Dial("mem:never-listened"); err == nil {
		t.Fatal("dialed a name nobody listens on")
	}
	again, err := Listen("mem:names")
	if err != nil {
		t.Fatalf("name not reusable after Close: %v", err)
	}
	again.Close()
}

// TestMemTransportHonoursDeadlines checks the two waits a dead peer can
// cause are bounded exactly as over TCP: a dial nobody accepts ends with
// its context, and a call nobody answers ends at the call's deadline.
func TestMemTransportHonoursDeadlines(t *testing.T) {
	ln, err := Listen("mem:")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := DialContext(ctx, ln.Addr().String()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("dial with nobody accepting: %v, want the context's deadline", err)
	}

	accepted := make(chan net.Conn, 1)
	go func() {
		conn, _ := ln.Accept()
		accepted <- conn // held open, never read
	}()
	cl, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	defer func() { (<-accepted).Close() }()
	callCtx, cancelCall := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancelCall()
	start := time.Now()
	err = cl.PingContext(callCtx)
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("call on a silent peer: %v, want a deadline error", err)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("deadline honoured only after %v", waited)
	}
}
