package rpc

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/mat"
)

// pushParams copies every model's Params out of a handover push.
func pushParams(req *Request) [][]byte {
	var out [][]byte
	for _, m := range req.Handoff.Models {
		out = append(out, bytes.Clone(m.Model.Params))
	}
	return out
}

// serveOne sends req from client to server, reads it there, runs handle
// on it and writes the response: one exchange of a serve loop.
func serveOne(t *testing.T, client, server *Conn, req *Request, handle func(*Request)) {
	t.Helper()
	errc := make(chan error, 1)
	go func() {
		if err := client.Write(req); err != nil {
			errc <- err
			return
		}
		_, err := client.ReadResponse()
		errc <- err
	}()
	got, err := server.ReadRequest()
	if err != nil {
		t.Fatal(err)
	}
	handle(got)
	if err := server.Write(&Response{OK: true}); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// TestServedPushLentUntilResponse checks the serving side's loan: a
// push's Params view the frame it arrived in and stay byte-identical
// while other links cycle frames of the same size class through the pool,
// until the response is written, which ends the loan.
func TestServedPushLentUntilResponse(t *testing.T) {
	clientEnd, serverEnd := pipeConns(t)
	client, server := NewConn(clientEnd), NewConn(serverEnd)
	otherClient, otherServer := pipeConns(t)
	churnClient, churnServer := NewConn(otherClient), NewConn(otherServer)
	churn := roamPush()
	for _, m := range churn.Handoff.Models {
		for i := range m.Model.Params {
			m.Model.Params[i] = 0xff
		}
	}

	push := roamPush()
	want := pushParams(push)
	serveOne(t, client, server, push, func(req *Request) {
		if server.f.lent == nil {
			t.Fatal("the served push's Params do not view its frame")
		}
		for i := 0; i < 4; i++ {
			serveOne(t, churnClient, churnServer, churn, func(*Request) {})
		}
		for i, p := range pushParams(req) {
			if !bytes.Equal(p, want[i]) {
				t.Fatalf("model %d's Params changed before the response was written", i)
			}
		}
	})
	if server.f.lent != nil {
		t.Fatal("the loan outlived the response")
	}
}

// TestPushRoundTripAllocBudget checks that once a Conn pair is warm, a
// roam-sized handover push round trip takes both of its frame buffers,
// the sender's and the receiver's, from the pool: what it allocates is the
// decoded message, a fraction of one frame. The warm-up and the measured
// trips run on one P: sync.Pool keeps a slot per P, and a trip whose
// goroutines land on a P the warm-up did not fill misses the pool without
// any collection in between (seen as ≈18.8 KB a trip under GOGC=1).
func TestPushRoundTripAllocBudget(t *testing.T) {
	if mat.RaceEnabled {
		t.Skip("sync.Pool drops buffers at random under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	clientEnd, serverEnd := pipeConns(t)
	client, server := NewConn(clientEnd), NewConn(serverEnd)
	push := roamPush()
	var frame bytes.Buffer
	if err := WriteV(&frame, Version, push); err != nil {
		t.Fatal(err)
	}
	trip := func() { serveOne(t, client, server, push, func(*Request) {}) }
	trip()
	trip()
	const trips = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < trips; i++ {
		trip()
	}
	runtime.ReadMemStats(&after)
	perTrip := (after.TotalAlloc - before.TotalAlloc) / trips
	t.Logf("per round trip: %d B allocated for a %d B frame (%d GCs in the window)", perTrip, frame.Len(), after.NumGC-before.NumGC)
	if limit := uint64(frame.Len()) / 4; perTrip > limit {
		t.Fatalf("a push round trip allocates %d B, want <= %d: a frame buffer is not coming from the pool", perTrip, limit)
	}
}

// transmitAllocBudget is what a warm transmit round trip allocates: the
// request the server reads (the Request, its User and Text) and the
// response the client reads (the Response, its Restored and
// SelectedDomain). The frames themselves reuse each Conn's buffer.
const transmitAllocBudget = 6

// TestTransmitRoundTripAllocBudget pins the allocations of one warm
// wire_short-shaped transmit exchange over an in-memory connection:
// client Write, server ReadRequest, server Write, client ReadResponse. It
// runs on one P, like TestPushRoundTripAllocBudget.
func TestTransmitRoundTripAllocBudget(t *testing.T) {
	if mat.RaceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	clientEnd, serverEnd := pipeConns(t)
	client, server := NewConn(clientEnd), NewConn(serverEnd)
	req := &Request{Op: OpTransmit, User: "u03", Text: "the server has a kernel bug and the patch is late", DeadlineMs: 1800}
	resp := &Response{OK: true, Restored: req.Text, SelectedDomain: "it", Mismatch: 0.1, PayloadBytes: 18, LatencyMs: 4.25, CacheHit: true}
	go func() {
		for {
			if _, err := server.ReadRequest(); err != nil {
				return
			}
			if err := server.Write(resp); err != nil {
				return
			}
		}
	}()
	var got *Response
	allocs := testing.AllocsPerRun(200, func() {
		if err := client.Write(req); err != nil {
			t.Fatal(err)
		}
		var err error
		if got, err = client.ReadResponse(); err != nil {
			t.Fatal(err)
		}
	})
	if !reflect.DeepEqual(got, resp) {
		t.Fatalf("response came back as %+v", got)
	}
	t.Logf("%.1f allocations per round trip", allocs)
	if allocs > transmitAllocBudget {
		t.Fatalf("a transmit round trip allocates %.1f times, want <= %d", allocs, transmitAllocBudget)
	}
}
