package rpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"reflect"
	"testing"
)

// replayConn is a connection whose peer sent data and closed.
type replayConn struct {
	net.Conn
	data *bytes.Reader
}

func (c replayConn) Read(p []byte) (int, error) { return c.data.Read(p) }

// checkBuffered re-parses a fuzz input through a Conn's buffered reader:
// the path every connection takes must accept exactly what the plain
// reader accepts, and decode it to the same message.
func checkBuffered(t *testing.T, data []byte, want interface{}, wantVersion byte, wantErr error) {
	t.Helper()
	conn := NewConn(replayConn{data: bytes.NewReader(data)})
	var got interface{}
	var version byte
	var err error
	if _, isReq := want.(*Request); isReq {
		got, version, err = conn.ReadRequestV()
	} else {
		got, version, err = conn.ReadResponseV()
	}
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("buffered read: err %v, plain read: err %v", err, wantErr)
	}
	if err == nil && (version != wantVersion || !reflect.DeepEqual(got, want)) {
		t.Fatalf("buffered read decoded %+v (v%d), plain read %+v (v%d)", got, version, want, wantVersion)
	}
}

// frame wraps payload in the wire format (possibly with a lying header
// when lieLen is set) for seeding the fuzz corpus.
func frame(payload []byte, lieLen uint32) []byte {
	return frameV(Version, payload, lieLen)
}

// frameV is frame with an explicit version byte, for seeding
// wrong-version inputs.
func frameV(version byte, payload []byte, lieLen uint32) []byte {
	hdr := make([]byte, headerBytes)
	hdr[0] = version
	n := uint32(len(payload))
	if lieLen != 0 {
		n = lieLen
	}
	binary.LittleEndian.PutUint32(hdr[1:], n)
	return append(hdr, payload...)
}

// seedFrames is the shared corpus for both framed-message parsers: valid
// messages, truncations, oversized and lying headers, and JSON garbage.
func seedFrames(f *testing.F, valid interface{}) {
	f.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, valid); err != nil {
		f.Fatal(err)
	}
	full := buf.Bytes()
	f.Add(full)
	f.Add(full[:len(full)-2])                       // truncated payload
	f.Add(full[:3])                                 // truncated header
	f.Add([]byte{})                                 // empty stream
	f.Add(frame([]byte(`{"op":`), 0))               // malformed JSON
	f.Add(frame([]byte(`null`), 0))                 // null document
	f.Add(frame([]byte(`{}`), 1<<30))               // lying oversize header
	f.Add(frame(bytes.Repeat([]byte{0xff}, 64), 0)) // binary garbage
	f.Add(frameV(0, []byte(`{}`), 0))               // pre-versioning framing
	f.Add(frameV(Version2, []byte(`{}`), 0))        // mesh protocol version
	f.Add(frameV(3, []byte(`{}`), 0))               // future protocol version
	f.Add(frameV(0xff, []byte(`{}`), 0))            // junk version byte
}

// seedFramesV2 adds v2-framed variants of the mesh messages to the
// corpus.
func seedFramesV2(f *testing.F, valids ...interface{}) {
	f.Helper()
	for _, valid := range valids {
		var buf bytes.Buffer
		if err := WriteV(&buf, Version2, valid); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
}

// checkVersionByte asserts the parser's version handling for one fuzz
// input: any frame whose first byte is neither supported version must be
// rejected with *VersionError (never accepted, never misreported), and
// *VersionError must never surface for a supported-version frame.
func checkVersionByte(t *testing.T, data []byte, err error) {
	t.Helper()
	var verr *VersionError
	wrongVersion := len(data) >= headerBytes && data[0] != Version && data[0] != Version2
	if wrongVersion && err == nil {
		t.Fatalf("frame with version byte %d accepted", data[0])
	}
	if errors.As(err, &verr) {
		if !wrongVersion {
			t.Fatalf("VersionError %v for frame %q", verr, data)
		}
		if verr.Got != data[0] {
			t.Fatalf("VersionError.Got = %d, frame has %d", verr.Got, data[0])
		}
	}
}

// FuzzReadRequest feeds arbitrary bytes to the request parser: it must
// never panic, and every frame it accepts must re-frame losslessly.
func FuzzReadRequest(f *testing.F) {
	seedFrames(f, &Request{Op: OpTransmit, User: "u01", Text: "the server restarted", Cell: 2})
	seedFramesV2(f,
		&Request{Op: OpJoin, Peer: &PeerInfo{Name: "node-1", Index: 1, Addr: "127.0.0.1:7102"}},
		&Request{Op: OpLeave, Peer: &PeerInfo{Name: "node-2", Index: 2}},
		&Request{Op: OpPeerStats},
		&Request{Op: OpFetchModel, Fetch: &FetchRequest{Domain: "it", Role: "codec"}},
		&Request{Op: OpHandoverPush, Handoff: &HandoffPayload{
			User: "u01", FromNode: "node-0", NoiseSeq: 41,
			Models: []HandoffModel{{Side: "sender", Model: ModelPayload{
				Domain: "it", User: "u01", Version: 3, Params: []byte{1, 2, 3, 4},
			}}},
		}},
		&Request{Op: OpHandoverPush, Handoff: &HandoffPayload{
			User: "u02", FromNode: "node-1", NoiseSeq: 7, Reason: HandoffDrain,
			Belief:  []float64{0.5, 0.25, 0.25},
			Buffers: []BufferState{{Domain: "it", Txs: []TxState{{Surfaces: []int{3, 1}, Concepts: []int{2}, Decoded: []int{3, 1}}}}},
			General: []ModelPayload{{Domain: "it", Version: 1, Params: []byte{5, 6}}},
		}},
		&Request{Op: OpHandoverPush, Handoff: &HandoffPayload{
			FromNode: "node-2", Reason: HandoffReplica,
			General: []ModelPayload{{Domain: "sports", Version: 1, Params: []byte{7}}},
		}},
	)
	f.Fuzz(func(t *testing.T, data []byte) {
		req, version, err := ReadRequestV(bytes.NewReader(data))
		checkVersionByte(t, data, err)
		checkBuffered(t, data, req, version, err)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteV(&buf, version, req); err != nil {
			t.Fatalf("accepted request %+v fails to serialize: %v", req, err)
		}
		again, v2, err := ReadRequestV(&buf)
		if err != nil {
			t.Fatalf("re-framed request fails to parse: %v", err)
		}
		if v2 != version {
			t.Fatalf("version changed across round-trip: %d != %d", v2, version)
		}
		if !reflect.DeepEqual(again, req) {
			t.Fatalf("request round-trip changed: %+v != %+v", again, req)
		}
	})
}

// FuzzReadResponse is the response-side twin of FuzzReadRequest.
func FuzzReadResponse(f *testing.F) {
	seedFrames(f, &Response{
		OK: true, Restored: "the server restarted", SelectedDomain: "it",
		Mismatch: 0.25, PayloadBytes: 96, LatencyMs: 41.5,
		Handover: &Handover{From: "node-0", To: "node-1", Moved: true, Models: 1},
		Stats:    &Stats{Messages: 7, Nodes: []NodeStats{{Name: "node-0", Users: 3}}},
	})
	seedFramesV2(f,
		&Response{OK: true, Model: &ModelPayload{Domain: "it", Version: 2, Params: []byte{9, 8, 7}}},
		&Response{OK: true, Node: &NodeStats{Name: "node-1", NeighborHits: 4, NeighborBytes: 512, OriginBytes: 2048, FetchLatencyMs: 5.5}},
		&Response{OK: true, Node: &NodeStats{
			Name: "node-2", Generals: []string{"it", "sports"},
			Hot: []DomainHeat{{Domain: "it", Count: 31}}, ReplicasOut: 2, ReplicasIn: 1,
		}},
		&Response{OK: true, Peers: []PeerInfo{{Name: "node-0", Index: 0, Addr: "127.0.0.1:7101"}}},
		&Response{OK: false, Error: ErrMeshOpVersion.Error()},
		&Response{OK: false, Draining: true, Error: "draining: member is leaving the mesh"},
	)
	f.Fuzz(func(t *testing.T, data []byte) {
		resp, version, err := ReadResponseV(bytes.NewReader(data))
		checkVersionByte(t, data, err)
		checkBuffered(t, data, resp, version, err)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteV(&buf, version, resp); err != nil {
			t.Fatalf("accepted response fails to serialize: %v", err)
		}
		again, err := ReadResponse(&buf)
		if err != nil {
			t.Fatalf("re-framed response fails to parse: %v", err)
		}
		if !reflect.DeepEqual(again, resp) {
			t.Fatalf("response round-trip changed: %+v != %+v", again, resp)
		}
	})
}
