package rpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
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
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("buffered read decoded %+v, plain read %+v", got, want)
	}
}

// frame wraps a JSON document in the wire format (possibly with a lying
// header when lieLen is set) for seeding the fuzz corpus.
func frame(doc []byte, lieLen uint32) []byte {
	return frameV(Version, body(-1, string(doc), nil), lieLen)
}

// frameV puts payload behind a header with an explicit version byte, for
// seeding wrong-version and malformed-body inputs.
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
// messages, truncations, oversized and lying headers, JSON garbage and
// wrong version bytes.
func seedFrames(f *testing.F, valid interface{}) {
	f.Helper()
	var buf bytes.Buffer
	if err := WriteV(&buf, Version, valid); err != nil {
		f.Fatal(err)
	}
	full := buf.Bytes()
	doc := full[headerBytes+jsonLenBytes:]
	f.Add(full)
	f.Add(full[:len(full)-2])                       // truncated payload
	f.Add(full[:3])                                 // truncated header
	f.Add([]byte{})                                 // empty stream
	f.Add(frame([]byte(`{"op":`), 0))               // malformed JSON
	f.Add(frame([]byte(`null`), 0))                 // null document
	f.Add(frame([]byte(`{}`), 1<<30))               // lying oversize header
	f.Add(frame(bytes.Repeat([]byte{0xff}, 64), 0)) // binary garbage
	f.Add(frameV(0, []byte(`{}`), 0))               // pre-versioning framing
	f.Add(frameV(1, doc, 0))                        // the retired version 1
	f.Add(frameV(2, full[headerBytes:], 0))         // the retired version 2
	f.Add(frameV(4, []byte(`{}`), 0))               // future protocol version
	f.Add(frameV(0xff, []byte(`{}`), 0))            // junk version byte
}

// body is a frame body: the JSON length (jsonLen, or the document's true
// length when jsonLen is negative), the document, then tail.
func body(jsonLen int, doc string, tail []byte) []byte {
	if jsonLen < 0 {
		jsonLen = len(doc)
	}
	b := binary.LittleEndian.AppendUint32(nil, uint32(jsonLen))
	return append(append(b, doc...), tail...)
}

// tailFrame is a frame exercising the parameter tail, and whether the
// reader of its message type must accept it.
type tailFrame struct {
	name  string
	req   bool // a Request frame; otherwise a Response frame
	frame []byte
	ok    bool
}

// tailFrames builds, for a handover push and a fetch-model hit, frames
// whose JSON length and params_len fields consume the body exactly or
// fail to, the same body at the retired versions 1 and 2, and the
// pre-tail layout with base64 "params"; then push frames whose txs_len
// fields and packed transactions consume the tail exactly or fail to.
func tailFrames() []tailFrame {
	docs := []struct {
		req bool
		doc string
	}{
		{true, `{"op":"handover-push","handoff":{"user":"u","general":[{"domain":"it","version":1,"params_len":%d}]}}`},
		{false, `{"ok":true,"model":{"domain":"it","version":2,"params_len":%d}}`},
	}
	var out []tailFrame
	for _, d := range docs {
		tail := []byte{1, 2, 3}
		add := func(name string, payload []byte, ok bool) {
			out = append(out, tailFrame{name, d.req, frameV(Version, payload, 0), ok})
		}
		add("exact tail", body(-1, fmt.Sprintf(d.doc, 3), tail), true)
		add("no params", body(-1, fmt.Sprintf(d.doc, 0), nil), true)
		add("JSON length past the payload", body(1000, fmt.Sprintf(d.doc, 3), tail), false)
		add("params_len short of the tail", body(-1, fmt.Sprintf(d.doc, 2), tail), false)
		add("params_len past the tail", body(-1, fmt.Sprintf(d.doc, 4), tail), false)
		add("negative params_len", body(-1, fmt.Sprintf(d.doc, -1), tail), false)
		add("body shorter than the JSON length prefix", []byte{2, 0}, false)
		for _, v := range []byte{1, 2} {
			out = append(out, tailFrame{fmt.Sprintf("exact tail at version %d", v), d.req, frameV(v, body(-1, fmt.Sprintf(d.doc, 3), tail), 0), false})
		}
	}
	// A push whose model parameters are followed by one buffer's packed
	// transactions: per transaction three uint32 list lengths, then the
	// int32 ids.
	u32s := func(vs ...uint32) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint32(b, v)
		}
		return b
	}
	const bufDoc = `{"op":"handover-push","handoff":{"user":"u","general":[{"domain":"it","version":1,"params_len":1}],"buffers":[{"domain":"it","txs_len":%d}]}}`
	txs := u32s(1, 1, 0, 7, 0xffffffff) // surfaces [7], concepts [-1]
	pushTail := func(txsLen int, packed []byte) []byte {
		return body(-1, fmt.Sprintf(bufDoc, txsLen), append([]byte{9}, packed...))
	}
	for _, c := range []struct {
		name   string
		txsLen int
		packed []byte
		ok     bool
	}{
		{"packed transactions", len(txs), txs, true},
		{"an empty transaction", 12, u32s(0, 0, 0), true},
		{"txs_len short of the tail", len(txs) - 4, txs, false},
		{"txs_len past the tail", len(txs) + 4, txs, false},
		{"negative txs_len", -1, txs, false},
		{"txs_len inside a transaction header", 8, u32s(0, 0), false},
		{"list lengths past the segment", 20, u32s(1, 1, 1, 7, 7), false},
		{"list lengths that overflow uint32 sums", 16, u32s(0xffffffff, 0xffffffff, 2, 0), false},
		{"a list length past MaxMessageBytes", 12, u32s(1<<30, 0, 0), false},
	} {
		out = append(out, tailFrame{"push with " + c.name, true, frameV(Version, pushTail(c.txsLen, c.packed), 0), c.ok})
	}
	// The pre-tail layout, one JSON document with base64 "params": a
	// member of an older build must be refused, never served a model
	// with empty Params.
	out = append(out,
		tailFrame{"pre-tail push", true, []byte("\x034\x01\x00\x00{\"op\":\"handover-push\",\"handoff\":{\"user\":\"alice\",\"from_node\":\"node-0\",\"noise_seq\":17,\"models\":[{\"side\":\"sender\",\"model\":{\"domain\":\"it\",\"user\":\"alice\",\"version\":2,\"params\":\"AAEC+v8=\"}}],\"reason\":\"drain\",\"belief\":[0.5,0.25],\"buffers\":[{\"domain\":\"it\",\"txs\":[{\"surfaces\":[3,1],\"concepts\":[2],\"decoded\":[3,1]}]}]}}"), false},
		tailFrame{"pre-tail hit", false, frameV(Version, []byte(`{"ok":true,"model":{"domain":"it","version":2,"params":"AAEC+v8="}}`), 0), false})
	return out
}

// seedMeshFrames adds the mesh messages to the corpus, and the tail
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
	for _, tf := range tailFrames() {
		f.Add(tf.frame)
	}
	// Empty arrays, which re-frame as absent fields.
	f.Add(frameV(Version, body(-1, `{"op":"handover-push","ok":true,"handoff":{"belief":[],"buffers":[{"txs":[{"concepts":[]}]}]},"peers":[]}`, nil), 0))
}

// TestFrameTailLengths checks the decoder accepts a body only when its
// JSON length and params_len fields consume it exactly, and only at
// Version.
func TestFrameTailLengths(t *testing.T) {
	for _, tf := range tailFrames() {
		var err error
		if tf.req {
			_, _, err = ReadRequestV(bytes.NewReader(tf.frame))
		} else {
			_, _, err = ReadResponseV(bytes.NewReader(tf.frame))
		}
		if (err == nil) != tf.ok {
			t.Errorf("%s (request %v): err %v, want accepted %v", tf.name, tf.req, err, tf.ok)
		}
	}
}

// canonical sets to nil each empty slice reachable from v that sits in a
// struct field tagged omitempty: the encoder drops such a field, so a
// decoded [] re-frames as absent, and no frame can carry the difference.
// This loosens the round-trip property for exactly those fields; every
// other slice, Params included, keeps nil and empty apart.
func canonical(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			canonical(v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fv, ft := v.Field(i), v.Type().Field(i)
			if !fv.CanSet() {
				continue
			}
			if fv.Kind() == reflect.Slice && fv.Len() == 0 && strings.Contains(ft.Tag.Get("json"), ",omitempty") {
				fv.SetZero()
			}
			canonical(fv)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			canonical(v.Index(i))
		}
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
		var buf bytes.Buffer
		if err := WriteV(&buf, Version, req); err != nil {
			t.Fatalf("accepted request %+v fails to serialize: %v", req, err)
		}
		again, _, err := ReadRequestV(&buf)
		if err != nil {
			t.Fatalf("re-framed request fails to parse: %v", err)
		}
		canonical(reflect.ValueOf(req))
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
		var buf bytes.Buffer
		if err := WriteV(&buf, Version, resp); err != nil {
			t.Fatalf("accepted response fails to serialize: %v", err)
		}
		again, _, err := ReadResponseV(&buf)
		if err != nil {
			t.Fatalf("re-framed response fails to parse: %v", err)
		}
		canonical(reflect.ValueOf(resp))
		if !reflect.DeepEqual(again, resp) {
			t.Fatalf("response round-trip changed: %+v != %+v", again, resp)
		}
	})
}
