package rpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
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
func checkBuffered(t *testing.T, data []byte, want interface{}, wantErr error) {
	t.Helper()
	conn := NewConn(replayConn{data: bytes.NewReader(data)})
	var got interface{}
	var err error
	if _, isReq := want.(*Request); isReq {
		got, err = conn.ReadRequest()
	} else {
		got, err = conn.ReadResponse()
	}
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("buffered read: err %v, plain read: err %v", err, wantErr)
	}
	if err == nil && !equalBits(reflect.ValueOf(got), reflect.ValueOf(want)) {
		t.Fatalf("buffered read decoded %+v, plain read %+v", got, want)
	}
}

// frameV puts payload behind a header with an explicit version byte (and
// a lying length when lieLen is set), for seeding wrong-version and
// malformed-body inputs.
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

// v3Push and v3Hit are a handover push and a fetch-model hit as a
// version-3 member framed them: a uint32 JSON length, the JSON document,
// then the raw parameters and the packed transactions.
const (
	v3Push = "\x03/\x01\x00\x00\x02\x01\x00\x00{\"op\":\"handover-push\",\"handoff\":{\"user\":\"alice\",\"from_node\":\"node-0\",\"noise_seq\":17,\"models\":[{\"side\":\"sender\",\"model\":{\"domain\":\"it\",\"user\":\"alice\",\"version\":2,\"params_len\":5}}],\"reason\":\"drain\",\"belief\":[0.5,0.25],\"buffers\":[{\"domain\":\"it\",\"txs_len\":36}]}}" +
		"\x00\x01\x02\xfa\xff" +
		"\x02\x00\x00\x00\x02\x00\x00\x00\x02\x00\x00\x00" +
		"\x03\x00\x00\x00\x01\x00\x00\x00\x02\x00\x00\x00\xff\xff\xff\xff\x03\x00\x00\x00\x01\x00\x00\x00"
	v3Hit = "\x03\x82\x00\x00\x00{\x00\x00\x00{\"ok\":true,\"mismatch\":0,\"payload_bytes\":0,\"latency_ms\":0,\"model\":{\"domain\":\"it\",\"user\":\"alice\",\"version\":3,\"params_len\":3}}\a\x00\t"
)

// seedFrames is the shared corpus for both framed-message parsers: valid
// messages, truncations, oversized and lying headers, text and garbage
// bodies and wrong version bytes.
func seedFrames(f *testing.F, valid interface{}) {
	f.Helper()
	var buf bytes.Buffer
	if err := WriteV(&buf, Version, valid); err != nil {
		f.Fatal(err)
	}
	full := buf.Bytes()
	f.Add(full)
	f.Add(full[:len(full)-2])                                 // truncated payload
	f.Add(full[:3])                                           // truncated header
	f.Add([]byte{})                                           // empty stream
	f.Add(frameV(Version, []byte(`{"op":`), 0))               // a JSON fragment
	f.Add(frameV(Version, nil, 0))                            // empty body
	f.Add(frameV(Version, []byte{0}, 1<<30))                  // lying oversize header
	f.Add(frameV(Version, bytes.Repeat([]byte{0xff}, 64), 0)) // binary garbage
	f.Add(frameV(0, []byte(`{}`), 0))                         // pre-versioning framing
	f.Add(frameV(1, []byte(`{"op":"ping"}`), 0))              // the retired version 1
	f.Add(frameV(2, full[headerBytes:], 0))                   // the retired version 2
	f.Add(frameV(3, full[headerBytes:], 0))                   // the retired version 3
	f.Add(frameV(5, full[headerBytes:], 0))                   // future protocol version
	f.Add(frameV(0xff, []byte(`{}`), 0))                      // junk version byte
}

// Wire pieces for hand-built bodies.

// cat joins wire pieces.
func cat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// wstr is s behind its uvarint length.
func wstr(s string) []byte { return append(binary.AppendUvarint(nil, uint64(len(s))), s...) }

// uv is v as a uvarint.
func uv(v uint64) []byte { return binary.AppendUvarint(nil, v) }

// u32s packs vs as little-endian uint32s.
func u32s(vs ...uint32) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	return b
}

// bodyFrame is a frame exercising the body codec, and whether the reader
// of its message type must accept it.
type bodyFrame struct {
	name  string
	req   bool // a Request frame; otherwise a Response frame
	frame []byte
	ok    bool
}

// bodyFrames builds, for a handover push and a fetch-model hit, bodies
// that are exactly one message and bodies that are not — a length past
// the body, a non-minimal or overflowing varint, a count the bytes left
// cannot hold, an unknown presence or flags bit, trailing bytes — the
// same valid body at the retired versions, the version-3 layout at
// Version; then push bodies whose packed transactions do or do not end
// where they should.
func bodyFrames() []bodyFrame {
	// A push: no User, Text, Cell or DeadlineMs, no Peer or Fetch, then a
	// Handoff with one general model and then buffers.
	push := func(paramsLen, params []byte, buffers []byte) []byte {
		return cat(wstr(OpHandoverPush), wstr(""), wstr(""), uv(0), []byte(z8), []byte{0, 0, 1},
			wstr("u"), wstr(""), uv(0), uv(0), wstr(""), // User, FromNode, NoiseSeq, no Models, Reason
			uv(1), wstr("it"), wstr(""), uv(2), paramsLen, params, // one general model, version 1
			uv(0), buffers) // no Belief, then the buffers
	}
	noBuffers := uv(0)
	// A fetch-model hit: OK, empty transmit results, then the Model.
	hit := func(paramsLen, params []byte, _ []byte) []byte {
		return cat([]byte{1}, wstr(""), wstr(""), wstr(""), []byte(z8), uv(0), []byte(z8), []byte{0, 0, 1},
			wstr("it"), wstr(""), uv(4), paramsLen, params, // version 2
			[]byte{0}, uv(0)) // no Node, no Peers
	}
	var out []bodyFrame
	for _, m := range []struct {
		req  bool
		body func(paramsLen, params, buffers []byte) []byte
	}{{true, push}, {false, hit}} {
		params := []byte{1, 2, 3}
		exact := m.body(uv(3), params, noBuffers)
		add := func(name string, body []byte, ok bool) {
			out = append(out, bodyFrame{name, m.req, frameV(Version, body, 0), ok})
		}
		add("exact params", exact, true)
		add("no params", m.body(uv(0), nil, noBuffers), true)
		add("a params length past the body", m.body(uv(200), params, noBuffers), false)
		add("a params length short of the params", m.body(uv(2), params, noBuffers), false)
		add("an overlong params length", m.body([]byte{0x83, 0x00}, params, noBuffers), false)
		add("a params length past 64 bits", m.body(bytes.Repeat([]byte{0xff}, 10), params, noBuffers), false)
		add("a trailing byte", append(exact, 0), false)
		add("a body cut mid-params", exact[:len(exact)-4], false)
		add("an empty body", nil, false)
		add("a presence byte of 2", bytes.Replace(exact, []byte{0, 0, 1}, []byte{0, 0, 2}, 1), false)
		for _, v := range []byte{1, 2, 3} {
			out = append(out, bodyFrame{fmt.Sprintf("exact params at version %d", v), m.req, frameV(v, exact, 0), false})
		}
	}
	out = append(out,
		bodyFrame{"hit with an unknown flags bit", false, frameV(Version, append([]byte{0x41}, hit(uv(0), nil, nil)[1:]...), 0), false},
		bodyFrame{"push with more general models than bytes", true, frameV(Version, bytes.Replace(push(uv(0), nil, noBuffers), []byte{1, 2, 'i', 't'}, []byte{200, 2, 'i', 't'}, 1), 0), false})
	// One buffer in domain "it": a transaction count, then per
	// transaction three uint32 list lengths and the int32 ids.
	buffers := func(count uint64, packed []byte) []byte { return cat(uv(1), wstr("it"), uv(count), packed) }
	txs := u32s(1, 1, 0, 7, 0xffffffff) // surfaces [7], concepts [-1]
	for _, c := range []struct {
		name    string
		buffers []byte
		ok      bool
	}{
		{"packed transactions", buffers(1, txs), true},
		{"an empty transaction", buffers(1, u32s(0, 0, 0)), true},
		{"a buffer with no transactions", buffers(0, nil), true},
		{"a transaction count past the body", buffers(2, txs), false},
		{"a transaction count short of the transactions", buffers(1, append(txs, txs...)), false},
		{"a body cut inside a transaction header", buffers(1, u32s(0, 0)), false},
		{"list lengths past the body", buffers(1, u32s(1, 1, 1, 7, 7)), false},
		{"list lengths that overflow uint32 sums", buffers(1, u32s(0xffffffff, 0xffffffff, 2, 0)), false},
		{"a list length past MaxMessageBytes", buffers(1, u32s(1<<30, 0, 0)), false},
	} {
		out = append(out, bodyFrame{"push with " + c.name, true, frameV(Version, push(uv(1), []byte{9}, c.buffers), 0), c.ok})
	}
	// The version-3 layout: refused by its version byte, and refused by
	// the codec when relabelled at Version.
	relabel := func(frame string) []byte { return frameV(Version, []byte(frame[headerBytes:]), 0) }
	return append(out,
		bodyFrame{"version-3 push", true, []byte(v3Push), false},
		bodyFrame{"version-3 hit", false, []byte(v3Hit), false},
		bodyFrame{"version-3 push body at Version", true, relabel(v3Push), false},
		bodyFrame{"version-3 hit body at Version", false, relabel(v3Hit), false})
}

// seedMeshFrames adds the mesh messages to the corpus, and the body
// frames.
func seedMeshFrames(f *testing.F, valids ...interface{}) {
	f.Helper()
	for _, valid := range valids {
		var buf bytes.Buffer
		if err := WriteV(&buf, Version, valid); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, bf := range bodyFrames() {
		f.Add(bf.frame)
	}
}

// TestFrameTailLengths checks the decoder accepts a body only when it is
// exactly one message in the body codec, and only at Version.
func TestFrameTailLengths(t *testing.T) {
	for _, bf := range bodyFrames() {
		var err error
		if bf.req {
			_, _, err = ReadRequestV(bytes.NewReader(bf.frame))
		} else {
			_, _, err = ReadResponseV(bytes.NewReader(bf.frame))
		}
		if (err == nil) != bf.ok {
			t.Errorf("%s (request %v): err %v, want accepted %v", bf.name, bf.req, err, bf.ok)
		}
	}
}

// equalBits is reflect.DeepEqual with every float64 compared by its bits:
// the codec carries a NaN exactly, and DeepEqual finds no NaN equal.
func equalBits(a, b reflect.Value) bool {
	_, equal := diffBits(a, b)
	return equal
}

// diffBits compares like equalBits and, when a and b differ, also returns
// the path to the first field, element or pointer that does (".Stats.
// Nodes[1].Hot", "" for a and b themselves).
func diffBits(a, b reflect.Value) (string, bool) {
	switch a.Kind() {
	case reflect.Float64:
		return "", math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return "", a.IsNil() == b.IsNil()
		}
		return diffBits(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := range a.NumField() {
			if path, equal := diffBits(a.Field(i), b.Field(i)); !equal {
				return "." + a.Type().Field(i).Name + path, false
			}
		}
		return "", true
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return "", false
		}
		for i := range a.Len() {
			if path, equal := diffBits(a.Index(i), b.Index(i)); !equal {
				return fmt.Sprintf("[%d]%s", i, path), false
			}
		}
		return "", true
	}
	return "", a.Interface() == b.Interface()
}

// checkCanonical asserts a parsed message's canonical form: written again
// it is byte for byte the frame it was parsed from, and that frame parses
// to an equal message.
func checkCanonical(t *testing.T, data []byte, msg interface{}) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteV(&buf, Version, msg); err != nil {
		t.Fatalf("accepted %+v fails to serialize: %v", msg, err)
	}
	if n := headerBytes + int(binary.LittleEndian.Uint32(data[1:])); !bytes.Equal(buf.Bytes(), data[:n]) {
		t.Fatalf("accepted frame re-frames differently:\n got %q\nwant %q", buf.Bytes(), data[:n])
	}
	var again interface{}
	var err error
	if _, isReq := msg.(*Request); isReq {
		again, _, err = ReadRequestV(&buf)
	} else {
		again, _, err = ReadResponseV(&buf)
	}
	if err != nil {
		t.Fatalf("re-framed message fails to parse: %v", err)
	}
	if !equalBits(reflect.ValueOf(again), reflect.ValueOf(msg)) {
		t.Fatalf("round-trip changed: %+v != %+v", again, msg)
	}
}

// checkVersionByte asserts the parser's version handling for one fuzz
// input: a frame whose first byte is not Version — the retired version 1
// among them — must fail with *VersionError naming that byte, and
// *VersionError must never surface for a frame at Version.
func checkVersionByte(t *testing.T, data []byte, err error) {
	t.Helper()
	var verr *VersionError
	wrongVersion := len(data) >= headerBytes && data[0] != Version
	isVersionErr := errors.As(err, &verr)
	if wrongVersion && !isVersionErr {
		t.Fatalf("frame with version byte %d: err = %v, want *VersionError", data[0], err)
	}
	if isVersionErr && (!wrongVersion || verr.Got != data[0]) {
		t.Fatalf("VersionError %v for frame %q", verr, data)
	}
}

// FuzzReadRequest feeds arbitrary bytes to the request parser: it must
// never panic, and every frame it accepts must re-frame losslessly.
func FuzzReadRequest(f *testing.F) {
	seedFrames(f, &Request{Op: OpTransmit, User: "u01", Text: "the server restarted", Cell: 2})
	seedMeshFrames(f,
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
		&Request{Op: OpHandoverPush, Handoff: &HandoffPayload{
			User: "u03", FromNode: "node-1", NoiseSeq: 12,
			Models: []HandoffModel{
				{Side: "sender", Model: ModelPayload{Domain: "it", User: "u03", Version: 2, Params: []byte{1, 2}}},
				{Side: "receiver", Model: ModelPayload{Domain: "it", User: "u03", Version: 2, Params: []byte{3}}},
			},
			Buffers: []BufferState{
				{Domain: "it", Txs: []TxState{
					{Surfaces: []int{5, 6}, Concepts: []int{1, -1}, Decoded: []int{1, 0}},
					{Surfaces: []int{4}, Concepts: []int{3}, Decoded: []int{3}},
				}},
				{Domain: "medical", Txs: []TxState{{}}},
			},
		}},
	)
	f.Fuzz(func(t *testing.T, data []byte) {
		req, version, err := ReadRequestV(bytes.NewReader(data))
		checkVersionByte(t, data, err)
		checkBuffered(t, data, req, err)
		if err != nil {
			return
		}
		if version != Version {
			t.Fatalf("accepted a frame reported at version %d", version)
		}
		checkCanonical(t, data, req)
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
	seedMeshFrames(f,
		&Response{OK: true, Model: &ModelPayload{Domain: "it", Version: 2, Params: []byte{9, 8, 7}}},
		&Response{OK: true, Node: &NodeStats{Name: "node-1", NeighborHits: 4, NeighborBytes: 512, OriginBytes: 2048, FetchLatencyMs: 5.5}},
		&Response{OK: true, Node: &NodeStats{
			Name: "node-2", Generals: []string{"it", "sports"},
			Hot: []DomainHeat{{Domain: "it", Count: 31}}, ReplicasOut: 2, ReplicasIn: 1,
		}},
		&Response{OK: true, Peers: []PeerInfo{{Name: "node-0", Index: 0, Addr: "127.0.0.1:7101"}}},
		&Response{OK: false, Error: (&VersionError{Got: 1}).Error()},
		&Response{OK: false, Draining: true, Error: "draining: member is leaving the mesh"},
		&Response{OK: true, Mismatch: math.NaN(), LatencyMs: math.Copysign(0, -1), PayloadBytes: -1},
	)
	f.Fuzz(func(t *testing.T, data []byte) {
		resp, version, err := ReadResponseV(bytes.NewReader(data))
		checkVersionByte(t, data, err)
		checkBuffered(t, data, resp, err)
		if err != nil {
			return
		}
		if version != Version {
			t.Fatalf("accepted a frame reported at version %d", version)
		}
		checkCanonical(t, data, resp)
	})
}
