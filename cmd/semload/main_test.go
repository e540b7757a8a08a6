package main

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/mat"
	"repro/internal/metrics"
	"repro/internal/rpc"
)

// fakeDaemon accepts connections on an in-memory listener and hands each
// one to serve. It returns the listener's address and a stop function that
// closes the listener and waits for every serve call to return.
func fakeDaemon(t *testing.T, name string, serve func(c *rpc.Conn)) (string, func()) {
	t.Helper()
	l, err := rpc.Listen("mem:" + name)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := sync.OnceFunc(func() {
		l.Close()
		wg.Wait()
	})
	t.Cleanup(stop)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func(conn net.Conn) {
				defer wg.Done()
				defer conn.Close()
				serve(rpc.NewConn(conn))
			}(conn)
		}
	}()
	return l.Addr().String(), stop
}

// runUserLoop drives one userLoop over requests requests at deadline and
// returns its error and its timed-out count.
func runUserLoop(addr string, requests int, deadline time.Duration) (int64, error) {
	corp := corpus.Build()
	var budget, errs, shed, timedOut atomic.Int64
	budget.Store(int64(requests))
	err := userLoop(addr, "u000", mat.NewRNG(1), corp, []float64{1}, deadline, &budget,
		metrics.NewLatencyHistogram(), make([]atomic.Int64, len(corp.Domains)), &errs, &shed, &timedOut)
	return timedOut.Load(), err
}

// TestUserLoopCountsTimeoutsAndRedials: a call whose client deadline
// passes is counted as timed out, and the next request goes out on a fresh
// connection, so a deadline shorter than one response does not end the
// run.
func TestUserLoopCountsTimeoutsAndRedials(t *testing.T) {
	var requests, reused atomic.Int64
	addr, stop := fakeDaemon(t, "semload-timeout", func(c *rpc.Conn) {
		for n := 1; ; n++ { // read every request and answer none
			if _, err := c.ReadRequest(); err != nil {
				return
			}
			requests.Add(1)
			if n > 1 {
				reused.Add(1)
			}
		}
	})
	timedOut, err := runUserLoop(addr, 3, 20*time.Millisecond)
	stop() // userLoop has closed every connection: each serve call returns
	if err != nil {
		t.Fatalf("userLoop: %v", err)
	}
	if timedOut != 3 {
		t.Fatalf("timed out %d of 3 requests", timedOut)
	}
	if got := requests.Load(); got != 3 {
		t.Fatalf("daemon read %d requests, want 3", got)
	}
	if got := reused.Load(); got != 0 {
		t.Fatalf("%d requests followed a timed-out call on the same connection", got)
	}
}

// TestUserLoopFailsOnTransportError: a connection the daemon drops is not
// a timeout, and it still fails the run.
func TestUserLoopFailsOnTransportError(t *testing.T) {
	addr, _ := fakeDaemon(t, "semload-drop", func(c *rpc.Conn) {
		c.ReadRequest() // hang up without answering
	})
	timedOut, err := runUserLoop(addr, 3, time.Minute)
	if err == nil {
		t.Fatal("userLoop returned nil on a dropped connection")
	}
	if timedOut != 0 {
		t.Fatalf("timed out %d requests, want 0", timedOut)
	}
}

// TestUserLoopFailsWhenRedialFails: after a timeout the daemon is gone, so
// the redial fails, and that ends the run with an error.
func TestUserLoopFailsWhenRedialFails(t *testing.T) {
	l, err := rpc.Listen("mem:semload-gone")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := l.Accept()
		l.Close() // no second connection: the redial is refused
		if err != nil {
			return
		}
		defer conn.Close()
		c := rpc.NewConn(conn)
		for { // read every request and answer none
			if _, err := c.ReadRequest(); err != nil {
				return
			}
		}
	}()
	timedOut, err := runUserLoop(l.Addr().String(), 3, 20*time.Millisecond)
	<-done
	if err == nil {
		t.Fatal("userLoop returned nil after a failed redial")
	}
	if timedOut != 1 {
		t.Fatalf("timed out %d requests, want 1", timedOut)
	}
}
