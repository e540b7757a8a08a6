package rpc

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"reflect"
	"testing"
	"time"

	"repro/internal/rpc/rpctest"
)

// z8 is a float64 zero: 8 zero bytes.
const z8 = "\x00\x00\x00\x00\x00\x00\x00\x00"

// Pinned wire frames, one layout for every op: the version byte, the body
// length, then the message's fields in struct order (see codec.go).
var goldenFrames = []struct {
	name string
	msg  interface{}
	wire string
}{
	{"transmit request",
		&Request{Op: OpTransmit, User: "alice", Text: "the <server> is down & out", DeadlineMs: 250.5},
		"\x04" + "\x36\x00\x00\x00" + // version 4, a 54-byte body
			"\x08transmit" + "\x05alice" + "\x1athe <server> is down & out" + // Op, User, Text
			"\x00" + // Cell 0
			"\x00\x00\x00\x00\x00\x50\x6f\x40" + // DeadlineMs 250.5
			"\x00\x00\x00"}, // no Peer, Fetch or Handoff
	{"transmit response",
		&Response{OK: true, Restored: "the server is down", SelectedDomain: "it", Mismatch: 0.125, PayloadBytes: 18, LatencyMs: 12.5, CacheHit: true},
		"\x04" + "\x2e\x00\x00\x00" + // a 46-byte body
			"\x09" + // flags: OK (bit 0), CacheHit (bit 3)
			"\x00" + "\x12the server is down" + "\x02it" + // Error, Restored, SelectedDomain
			"\x00\x00\x00\x00\x00\x00\xc0\x3f" + // Mismatch 0.125
			"\x24" + // PayloadBytes 18, zigzag
			"\x00\x00\x00\x00\x00\x00\x29\x40" + // LatencyMs 12.5
			"\x00\x00\x00\x00" + // no Handover, Stats, Model or Node
			"\x00"}, // no Peers
	{"handoff push",
		&Request{Op: OpHandoverPush, Handoff: &HandoffPayload{
			User: "alice", FromNode: "node-0", NoiseSeq: 17,
			Models: []HandoffModel{{Side: "sender", Model: ModelPayload{Domain: "it", User: "alice", Version: 2, Params: []byte{0, 1, 2, 250, 255}}}},
			Reason: HandoffDrain, Belief: []float64{0.5, 0.25},
			Buffers: []BufferState{{Domain: "it", Txs: []TxState{{Surfaces: []int{3, 1}, Concepts: []int{2, -1}, Decoded: []int{3, 1}}}}},
		}},
		"\x04" + "\x83\x00\x00\x00" + // version 4, a 131-byte body
			"\x0dhandover-push" + "\x00" + "\x00" + "\x00" + z8 + // Op, no User or Text, Cell 0, DeadlineMs 0
			"\x00\x00" + "\x01" + // no Peer or Fetch; a Handoff:
			"\x05alice" + "\x06node-0" + "\x11" + // User, FromNode, NoiseSeq 17
			"\x01" + "\x06sender" + // one model, its Side
			"\x02it" + "\x05alice" + "\x04" + // its Domain, User, Version 2 (zigzag)
			"\x05\x00\x01\x02\xfa\xff" + // its Params, raw
			"\x05drain" + "\x00" + // Reason, no General
			"\x02" + "\x00\x00\x00\x00\x00\x00\xe0\x3f" + "\x00\x00\x00\x00\x00\x00\xd0\x3f" + // Belief 0.5, 0.25
			"\x01" + "\x02it" + "\x01" + // one buffer, its Domain, one transaction:
			"\x02\x00\x00\x00\x02\x00\x00\x00\x02\x00\x00\x00" + // its three list lengths
			"\x03\x00\x00\x00\x01\x00\x00\x00\x02\x00\x00\x00\xff\xff\xff\xff\x03\x00\x00\x00\x01\x00\x00\x00"}, // its ids, int32
	{"fetch-model hit",
		&Response{OK: true, Model: &ModelPayload{Domain: "it", User: "alice", Version: 3, Params: []byte{7, 0, 9}}},
		"\x04" + "\x28\x00\x00\x00" + // a 40-byte body
			"\x01" + "\x00\x00\x00" + z8 + "\x00" + z8 + // OK; empty strings, zero transmit results
			"\x00\x00" + "\x01" + // no Handover or Stats; a Model:
			"\x02it" + "\x05alice" + "\x06" + "\x03\x07\x00\x09" + // Domain, User, Version 3, Params
			"\x00" + "\x00"}, // no Node, no Peers
	{"stats response",
		&Response{OK: true, Stats: &Stats{Messages: 70, SenderHitRate: 0.5, SyncBytes: 300, SyncCount: 2,
			CachedModels: 8, CacheUsedBytes: 64, UpdateFailures: -1,
			MemoStats: MemoStats{MemoLookups: 200, MemoHits: 150, MemoInserts: 50, MemoReplaced: 1},
			Serve:     &ServeStats{InFlight: 1, LatencyP99Ms: 2, Shed: 3},
			Nodes: []NodeStats{{Name: "node-0", Users: 4, CachedModels: 8, Generals: []string{"it"},
				Hot: []DomainHeat{{Domain: "it", Count: 70}}, MemoStats: MemoStats{MemoHits: 150}}},
			Handovers: 5, MigratedBytes: 4096}},
		"\x04" + "\xaa\x00\x00\x00" + // a 170-byte body
			"\x01" + "\x00\x00\x00" + z8 + "\x00" + z8 + "\x00" + // OK, no transmit results, no Handover
			"\x01" + // a Stats:
			"\x8c\x01" + "\x00\x00\x00\x00\x00\x00\xe0\x3f" + // Messages 70 (zigzag, two bytes), SenderHitRate 0.5
			"\xd8\x04" + "\x04" + "\x10" + "\x80\x01" + "\x01" + // SyncBytes 300, SyncCount 2, CachedModels 8, CacheUsedBytes 64, UpdateFailures -1
			"\xc8\x01" + "\x96\x01" + "\x32" + "\x01" + // MemoStats: lookups, hits, inserts, replaced (uvarints)
			"\x01" + "\x02" + z8 + z8 + // a Serve: InFlight 1, LatencyP50Ms, LatencyP95Ms
			"\x00\x00\x00\x00\x00\x00\x00\x40" + z8 + z8 + z8 + // LatencyP99Ms 2, the queue-wait percentiles
			"\x06" + z8 + z8 + // Shed 3, the update percentiles
			"\x01" + "\x06node-0" + "\x08" + z8 + "\x10" + // one node: Name, Users 4, HitRate, CachedModels 8
			"\x00\x00\x00\x00\x00\x00\x00\x00" + z8 + // CacheUsedBytes … OriginBytes, FetchLatencyMs
			"\x01\x02it" + "\x01\x02it\x8c\x01" + // Generals, Hot
			"\x00\x00" + "\x00\x96\x01\x00\x00" + // ReplicasOut, ReplicasIn, MemoStats
			"\x0a" + "\x80\x40" + // Handovers 5, MigratedBytes 4096
			"\x00\x00" + "\x00"}, // no Model or Node, no Peers
}

// sinkConn records every Write as one segment; nothing else is used.
type sinkConn struct {
	net.Conn
	segments [][]byte
}

func (c *sinkConn) Write(p []byte) (int, error) {
	c.segments = append(c.segments, append([]byte(nil), p...))
	return len(p), nil
}

// discardConn accepts every Write and keeps nothing.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }

// TestGoldenFrameBytes pins the wire format from both writers — the
// package-level WriteV and a Conn, whose buffer is reused from frame to
// frame — and that each golden frame still parses to the message.
func TestGoldenFrameBytes(t *testing.T) {
	sink := &sinkConn{}
	conn := NewConn(sink)
	for _, g := range goldenFrames {
		var buf bytes.Buffer
		if err := WriteV(&buf, Version, g.msg); err != nil {
			t.Fatal(err)
		}
		if buf.String() != g.wire {
			t.Errorf("%s: WriteV wrote\n%q\nwant\n%q", g.name, buf.String(), g.wire)
		}
		if err := conn.Write(g.msg); err != nil {
			t.Fatal(err)
		}
	}
	if len(sink.segments) != len(goldenFrames) {
		t.Fatalf("Conn made %d writes for %d frames", len(sink.segments), len(goldenFrames))
	}
	for i, g := range goldenFrames {
		if string(sink.segments[i]) != g.wire {
			t.Errorf("%s: Conn wrote\n%q\nwant\n%q", g.name, sink.segments[i], g.wire)
		}
		var got interface{}
		var err error
		if _, isReq := g.msg.(*Request); isReq {
			got, _, err = ReadRequestV(bytes.NewReader([]byte(g.wire)))
		} else {
			got, _, err = ReadResponseV(bytes.NewReader([]byte(g.wire)))
		}
		if err != nil || !reflect.DeepEqual(got, g.msg) {
			t.Errorf("%s: golden frame parsed to %+v (err %v)", g.name, got, err)
		}
	}
}

// bigHandoff is a handover push near the size the roam workload ships
// (≈63 KB): one individual model's parameters, ≈52 KB on the wire.
func bigHandoff() *HandoffPayload {
	params := make([]byte, 52<<10)
	for i := range params {
		params[i] = byte(i * 7)
	}
	return &HandoffPayload{User: "alice", FromNode: "node-0", NoiseSeq: 3,
		Models: []HandoffModel{{Side: "sender", Model: ModelPayload{Domain: "it", User: "alice", Version: 1, Params: params}}}}
}

// pipeConns returns the two ends of an in-memory connection. A net.Pipe
// hands each Write to the reader as one segment, so how many Reads a
// frame costs is deterministic.
func pipeConns(t *testing.T) (client, server net.Conn) {
	t.Helper()
	client, server = net.Pipe()
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

// TestClientOneWriteOneReadPerFrame pins the syscall budget of a call: a
// Client puts a request on the connection in exactly one Write — 100 B
// transmit and 52 KB handover push alike — and takes a response smaller
// than the read buffer off it in exactly one Read.
func TestClientOneWriteOneReadPerFrame(t *testing.T) {
	clientEnd, serverEnd := pipeConns(t)
	counted := &rpctest.CountingConn{Conn: clientEnd}
	cl := NewClient(counted)
	served := &rpctest.CountingConn{Conn: serverEnd}
	done := make(chan error, 1)
	go func() {
		srv := NewConn(served)
		for {
			req, err := srv.ReadRequest()
			if err != nil {
				done <- err
				return
			}
			if err := srv.Write(&Response{OK: true, Restored: req.Text}); err != nil {
				done <- err
				return
			}
		}
	}()

	text := "the server has a kernel bug and the doctor will scan the patient before the game"
	resp, err := cl.Transmit("alice", text)
	if err != nil || resp.Restored != text {
		t.Fatalf("transmit: %+v, %v", resp, err)
	}
	if w, r := counted.Writes.Load(), counted.Reads.Load(); w != 1 || r != 1 {
		t.Fatalf("transmit cost the client %d writes and %d reads, want 1 and 1", w, r)
	}
	if r := served.Reads.Load(); r != 1 {
		t.Fatalf("the serving Conn took the transmit off the connection in %d reads, want 1", r)
	}
	if err := cl.HandoverPush(context.Background(), bigHandoff()); err != nil {
		t.Fatal(err)
	}
	if w, r := counted.Writes.Load(), counted.Reads.Load(); w != 2 || r != 2 {
		t.Fatalf("after a 52 KB push the client made %d writes and %d reads, want 2 and 2", w, r)
	}
	cl.Close()
	if err := <-done; err != io.EOF {
		t.Fatalf("serving loop ended with %v, want io.EOF", err)
	}
	if w := served.Writes.Load(); w != 2 {
		t.Fatalf("serving Conn made %d writes for 2 responses", w)
	}
}

// TestConnOneBytePerRead splits every header and payload: a connection
// that delivers one byte per Read still yields whole frames.
func TestConnOneBytePerRead(t *testing.T) {
	clientEnd, serverEnd := pipeConns(t)
	go func() {
		for _, g := range goldenFrames {
			if _, ok := g.msg.(*Request); ok {
				clientEnd.Write([]byte(g.wire))
			}
		}
		clientEnd.Close()
	}()
	conn := NewConn(rpctest.TrickleConn{Conn: serverEnd})
	for _, g := range goldenFrames {
		want, ok := g.msg.(*Request)
		if !ok {
			continue
		}
		got, err := conn.ReadRequest()
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: read %+v (err %v)", g.name, got, err)
		}
	}
	if _, err := conn.ReadRequest(); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
}

// TestConnBackToBackFrames delivers two complete frames in one segment:
// both come out, in order, and the connection is read once.
func TestConnBackToBackFrames(t *testing.T) {
	clientEnd, serverEnd := pipeConns(t)
	var both bytes.Buffer
	first := &Request{Op: OpTransmit, User: "alice", Text: "first"}
	second := &Request{Op: OpPeerStats}
	if err := WriteV(&both, Version, first); err != nil {
		t.Fatal(err)
	}
	if err := WriteV(&both, Version, second); err != nil {
		t.Fatal(err)
	}
	go clientEnd.Write(both.Bytes())
	counted := &rpctest.CountingConn{Conn: serverEnd}
	conn := NewConn(counted)
	for i, want := range []*Request{first, second} {
		got, err := conn.ReadRequest()
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d: read %+v (err %v)", i, got, err)
		}
	}
	if r := counted.Reads.Load(); r != 1 {
		t.Fatalf("two frames in one segment took %d reads, want 1", r)
	}
}

// stallReader yields its bytes, then fails the way a connection does
// when its read deadline passes with the frame incomplete.
type stallReader struct{ r io.Reader }

var errStalled = errors.New("stalled")

func (s *stallReader) Read(p []byte) (int, error) {
	n, err := s.r.Read(p)
	if err == io.EOF {
		err = errStalled
	}
	return n, err
}

// TestReadGrowsWithArrivingBytes checks that the header does not drive
// allocation: a peer that claims a MaxMessageBytes frame and sends five
// bytes costs one growth step, and one that stalls part-way costs what
// arrived plus a step — never the claimed megabyte.
func TestReadGrowsWithArrivingBytes(t *testing.T) {
	for _, arrived := range []int{0, 200 << 10} {
		data := append(header(Version, MaxMessageBytes), make([]byte, arrived)...)
		var f frameBuf
		_, err := f.read(&stallReader{bytes.NewReader(data)})
		if !errors.Is(err, errStalled) {
			t.Fatalf("%d bytes arrived: err = %v, want the stall", arrived, err)
		}
		if limit := 2 * (arrived + growStepBytes); cap(f.b) > limit {
			t.Fatalf("%d payload bytes arrived of a claimed %d: buffer grew to %d, want <= %d",
				arrived, MaxMessageBytes, cap(f.b), limit)
		}
	}
}

// TestConnShrinksAfterLargeFrame checks an idle link does not keep the
// memory of the largest frame it ever carried, in either direction, and
// that small frames keep reusing one buffer.
func TestConnShrinksAfterLargeFrame(t *testing.T) {
	clientEnd, serverEnd := pipeConns(t)
	sender, receiver := NewConn(clientEnd), NewConn(serverEnd)
	big := &Request{Op: OpHandoverPush, Handoff: bigHandoff()}
	small := &Request{Op: OpTransmit, User: "alice", Text: "the server is down"}
	for _, req := range []*Request{small, big, small, small} {
		errc := make(chan error, 1)
		go func() { errc <- sender.Write(req) }()
		got, err := receiver.ReadRequest()
		if err != nil || !reflect.DeepEqual(got, req) {
			t.Fatalf("%s frame: err %v, equal %v", req.Op, err, reflect.DeepEqual(got, req))
		}
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		for side, c := range map[string]*Conn{"sender": sender, "receiver": receiver} {
			if cap(c.f.b) > connBufBytes {
				t.Fatalf("%s keeps a %d-byte buffer after a %s frame, want <= %d", side, cap(c.f.b), req.Op, connBufBytes)
			}
		}
	}
	if sender.f.b == nil || receiver.f.b == nil {
		t.Fatal("small frames did not keep their buffer for reuse")
	}
}

// TestClientStalledMidPayload checks the buffered reader does not hide a
// stall: a daemon that sends a header and half a payload, then nothing,
// fails the call at its deadline.
func TestClientStalledMidPayload(t *testing.T) {
	clientEnd, serverEnd := pipeConns(t)
	go func() {
		if _, _, err := ReadRequestV(serverEnd); err != nil {
			return
		}
		half := goldenFrames[1].wire[:len(goldenFrames[1].wire)/2]
		serverEnd.Write([]byte(half))
	}()
	cl := NewClient(clientEnd)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := cl.TransmitContext(ctx, "alice", "hello")
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("err = %v, want a timeout", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("stalled call took %v to fail", waited)
	}
}

// TestCutConnFailsBothEndsMidFrame pins the fault double: a frame larger
// than the cut never reaches the reader as a request, the reader sees an
// error instead of a short frame, and the writer's single Write fails
// rather than reporting the frame sent.
func TestCutConnFailsBothEndsMidFrame(t *testing.T) {
	clientEnd, serverEnd := net.Pipe()
	defer clientEnd.Close()
	cut := &rpctest.CutConn{Conn: serverEnd, After: 1000}
	readErr := make(chan error, 1)
	go func() {
		req, err := NewConn(cut).ReadRequest()
		if err == nil {
			err = errors.New("read a whole request: " + req.Op)
		}
		readErr <- err
	}()
	push := &Request{Op: OpHandoverPush, Handoff: &HandoffPayload{User: "u",
		General: []ModelPayload{{Domain: "it", Params: make([]byte, 20<<10)}}}}
	if err := NewConn(clientEnd).Write(push); err == nil {
		t.Fatal("the writer was told a frame cut at byte 1000 had been sent")
	}
	if err := <-readErr; !errors.Is(err, io.ErrClosedPipe) && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
		t.Fatalf("reader error = %v, want the connection's end", err)
	}
	if cut.After != 0 {
		t.Fatalf("cut fired with %d bytes of budget left", cut.After)
	}
}

// TestDecodedParamsSurviveNextFrame checks decoded Params do not alias a
// Conn's reusable frame buffer: a fetch-model hit small enough that the
// Conn keeps its buffer, then a second one on the same Conn, and the
// first model's Params are unchanged.
func TestDecodedParamsSurviveNextFrame(t *testing.T) {
	params := bytes.Repeat([]byte{0xa5}, 256)
	var stream bytes.Buffer
	if err := WriteV(&stream, Version, &Response{OK: true, Model: &ModelPayload{Domain: "it", Version: 1, Params: params}}); err != nil {
		t.Fatal(err)
	}
	if stream.Len() > connBufBytes {
		t.Fatalf("first frame is %d bytes, want one the Conn keeps its buffer for (<= %d)", stream.Len(), connBufBytes)
	}
	second := &Response{OK: true, Model: &ModelPayload{Domain: "it", Version: 2, Params: bytes.Repeat([]byte{0x5a}, 256)}}
	if err := WriteV(&stream, Version, second); err != nil {
		t.Fatal(err)
	}
	conn := NewConn(replayConn{data: bytes.NewReader(stream.Bytes())})
	first, err := conn.ReadResponse()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.ReadResponse(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Model.Params, params) {
		t.Fatal("a later frame on the Conn overwrote the first response's Params")
	}
}

// roamPush is a handover push the size the roam workload ships: two
// ≈31 KB individual models (sender and receiver side), the user's belief
// and two federated buffers of ten transactions each.
func roamPush() *Request {
	model := func(side string, seed byte) HandoffModel {
		params := make([]byte, 31<<10)
		for i := range params {
			params[i] = byte(i*7) + seed
		}
		return HandoffModel{Side: side, Model: ModelPayload{Domain: "it", User: "u07", Version: 4, Params: params}}
	}
	buffer := func(domain string) BufferState {
		b := BufferState{Domain: domain}
		for i := 0; i < 10; i++ {
			tx := TxState{}
			for j := 0; j < 12; j++ {
				tx.Surfaces = append(tx.Surfaces, 100+i*12+j)
				tx.Concepts = append(tx.Concepts, 40+j)
				tx.Decoded = append(tx.Decoded, 40+j)
			}
			b.Txs = append(b.Txs, tx)
		}
		return b
	}
	return &Request{Op: OpHandoverPush, Handoff: &HandoffPayload{
		User: "u07", FromNode: "node-0", NoiseSeq: 1234,
		Models:  []HandoffModel{model("sender", 1), model("receiver", 2)},
		Belief:  []float64{0.61, 0.12, 0.09, 0.08, 0.06, 0.04},
		Buffers: []BufferState{buffer("it"), buffer("medical")},
	}}
}

// BenchmarkHandoverPushFrame encodes and decodes one roam-sized handover
// push through a pair of Conns, the way a member ships it to a peer.
func BenchmarkHandoverPushFrame(b *testing.B) {
	push := roamPush()
	var frame bytes.Buffer
	if err := WriteV(&frame, Version, push); err != nil {
		b.Fatal(err)
	}
	wire := frame.Bytes()
	b.Run("encode", func(b *testing.B) {
		conn := NewConn(discardConn{})
		b.SetBytes(int64(len(wire)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := conn.Write(push); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		src := bytes.NewReader(wire)
		conn := NewConn(replayConn{data: src})
		b.SetBytes(int64(len(wire)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			src.Reset(wire)
			if _, err := conn.ReadRequest(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// boundaryShapes are the messages TestFramesAtBufferBoundaries pads: one
// string or Params field of each takes the padding.
var boundaryShapes = []struct {
	name string
	msg  func(pad []byte) interface{}
}{
	{"transmit request", func(p []byte) interface{} {
		return &Request{Op: OpTransmit, User: "u07", Text: string(p), DeadlineMs: 1800}
	}},
	{"transmit response", func(p []byte) interface{} {
		return &Response{OK: true, Restored: string(p), SelectedDomain: "it", Mismatch: 0.125, PayloadBytes: 18, LatencyMs: 4.5, CacheHit: true}
	}},
	{"move request", func(p []byte) interface{} { return &Request{Op: OpMove, User: string(p), Cell: 2} }},
	{"move response", func(p []byte) interface{} {
		return &Response{OK: true, Handover: &Handover{From: string(p), To: "node-1", Moved: true, Models: 2, MigratedBytes: 63 << 10, LatencyMs: 1.5}}
	}},
	{"stats response", func(p []byte) interface{} {
		node := func(name string) NodeStats {
			return NodeStats{Name: name, Users: 3, HitRate: 0.75, CachedModels: 8, HandoversIn: 2, OriginFetches: 1,
				Generals: []string{"it", "medical"}, Hot: []DomainHeat{{Domain: "it", Count: 40}, {Domain: "sports", Count: 2}},
				MemoStats: MemoStats{MemoLookups: 90, MemoHits: 80, MemoInserts: 10}}
		}
		return &Response{OK: true, Stats: &Stats{Messages: 42, SenderHitRate: 0.9, CachedModels: 16,
			Serve: &ServeStats{InFlight: 1, LatencyP50Ms: 0.01, LatencyP99Ms: 0.2, Shed: 1},
			Nodes: []NodeStats{node("node-0"), node(string(p))}, Handovers: 2}}
	}},
	{"join request", func(p []byte) interface{} {
		return &Request{Op: OpJoin, Peer: &PeerInfo{Name: "node-1", Index: 1, Addr: string(p)}}
	}},
	{"join response", func(p []byte) interface{} {
		return &Response{OK: true, Peers: []PeerInfo{{Name: "node-0", Addr: "127.0.0.1:7101"}, {Name: string(p), Index: 1}}}
	}},
	{"fetch-model hit", func(p []byte) interface{} {
		return &Response{OK: true, Model: &ModelPayload{Domain: "it", Version: 2, Params: p}}
	}},
	{"handover push", func(p []byte) interface{} {
		return &Request{Op: OpHandoverPush, Handoff: &HandoffPayload{
			User: "u07", FromNode: "node-0", NoiseSeq: 1234,
			Models:  []HandoffModel{{Side: "sender", Model: ModelPayload{Domain: "it", User: "u07", Version: 4, Params: p}}},
			General: []ModelPayload{{Domain: "medical", Version: 1, Params: []byte{1, 2, 3}}},
			Belief:  []float64{0.61, 0.12, 0.27},
			Buffers: []BufferState{{Domain: "it", Txs: []TxState{{Surfaces: []int{5, 6}, Concepts: []int{1, -1}, Decoded: []int{1, 0}}, {}}}},
		}}
	}},
}

// padFor returns how many bytes of padding give msg a body of exactly n
// bytes: the padding plus its uvarint length prefix fill what the rest of
// the message leaves.
func padFor(t *testing.T, msg func([]byte) interface{}, n int) int {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteV(&buf, Version, msg(nil)); err != nil {
		t.Fatal(err)
	}
	rest := buf.Len() - headerBytes - 1 // the empty field's length takes a byte
	for prefix := 1; prefix <= 3; prefix++ {
		if pad := n - rest - prefix; pad >= 0 && len(binary.AppendUvarint(nil, uint64(pad))) == prefix {
			return pad
		}
	}
	t.Fatalf("no padding gives a %d-byte body", n)
	return 0
}

// padding is n bytes of text.
func padding(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = 'a' + byte(i%26)
	}
	return p
}

// TestFramesAtBufferBoundaries pads each message shape so that its body,
// and so that its whole frame, lands on each side of the frame buffer's
// size steps — minFrameBytes, connBufBytes, growStepBytes — and at
// MaxMessageBytes. Every such frame comes back equal through both write
// paths and both read paths: Conn.Write then Conn.ReadRequest /
// ReadResponse, and WriteV then ReadRequestV / ReadResponseV, the calls
// the benchmark's frame measurement makes. A body one byte over
// MaxMessageBytes is refused by both writers with nothing written.
func TestFramesAtBufferBoundaries(t *testing.T) {
	var sizes []int
	for _, edge := range []int{minFrameBytes, connBufBytes} {
		for _, n := range []int{edge - 1, edge, edge + 1} {
			sizes = append(sizes, n, n-headerBytes)
		}
	}
	sizes = append(sizes, growStepBytes+1, growStepBytes+1-headerBytes, MaxMessageBytes)
	for _, shape := range boundaryShapes {
		for _, n := range sizes {
			want := shape.msg(padding(padFor(t, shape.msg, n)))
			_, isReq := want.(*Request)
			sink := &sinkConn{}
			if err := NewConn(sink).Write(want); err != nil || len(sink.segments) != 1 {
				t.Fatalf("%s, %d-byte body: Conn.Write made %d writes (err %v)", shape.name, n, len(sink.segments), err)
			}
			frame := sink.segments[0]
			if len(frame) != headerBytes+n {
				t.Fatalf("%s: padded for a %d-byte body, framed %d bytes", shape.name, n, len(frame))
			}
			var got interface{}
			var err error
			conn := NewConn(replayConn{data: bytes.NewReader(frame)})
			if isReq {
				got, err = conn.ReadRequest()
			} else {
				got, err = conn.ReadResponse()
			}
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, %d-byte body: the Conn read back a different message (err %v)", shape.name, n, err)
			}
			var buf bytes.Buffer
			if err := WriteV(&buf, Version, want); err != nil || !bytes.Equal(buf.Bytes(), frame) {
				t.Fatalf("%s, %d-byte body: WriteV wrote other bytes than Conn.Write (err %v)", shape.name, n, err)
			}
			if isReq {
				got, _, err = ReadRequestV(&buf)
			} else {
				got, _, err = ReadResponseV(&buf)
			}
			if err != nil || !reflect.DeepEqual(got, want) || buf.Len() != 0 {
				t.Fatalf("%s, %d-byte body: ReadV read back a different message (err %v, %d bytes left)", shape.name, n, err, buf.Len())
			}
		}
		over := shape.msg(padding(padFor(t, shape.msg, MaxMessageBytes) + 1))
		var buf bytes.Buffer
		if err := WriteV(&buf, Version, over); !errors.Is(err, errFrameTooLarge) || buf.Len() != 0 {
			t.Fatalf("%s, a body over MaxMessageBytes: WriteV wrote %d bytes (err %v)", shape.name, buf.Len(), err)
		}
		sink := &sinkConn{}
		if err := NewConn(sink).Write(over); !errors.Is(err, errFrameTooLarge) || len(sink.segments) != 0 {
			t.Fatalf("%s, a body over MaxMessageBytes: Conn.Write made %d writes (err %v)", shape.name, len(sink.segments), err)
		}
	}
}
