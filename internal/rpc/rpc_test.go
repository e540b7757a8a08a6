package rpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"testing"
)

func TestRequestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := &Request{Op: OpTransmit, User: "alice", Text: "the server is down"}
	if err := WriteV(&buf, Version, in); err != nil {
		t.Fatal(err)
	}
	out, _, err := ReadRequestV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if *out != *in {
		t.Fatalf("round trip %+v != %+v", out, in)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := &Response{OK: true, Restored: "the server is down", SelectedDomain: "it",
		PayloadBytes: 25, LatencyMs: 14.2, Stats: &Stats{Messages: 3, UpdateFailures: 2}}
	if err := WriteV(&buf, Version, in); err != nil {
		t.Fatal(err)
	}
	out, _, err := ReadResponseV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Restored != in.Restored || out.Stats.Messages != 3 || out.Stats.UpdateFailures != 2 {
		t.Fatalf("round trip mismatch: %+v", out)
	}
}

// TestEveryFieldRoundTrips fills every exported field of a Request and of
// a Response, recursively, and checks each comes back equal. The codec's
// walks list their fields by hand, so a field added to a message and
// forgotten in its walk is dropped by the writer and the parser alike;
// here it comes back zero and fails.
func TestEveryFieldRoundTrips(t *testing.T) {
	for _, in := range []interface{}{new(Request), new(Response)} {
		var leaves int
		fillDistinct(t, reflect.ValueOf(in).Elem(), &leaves)
		var buf bytes.Buffer
		if err := WriteV(&buf, Version, in); err != nil {
			t.Fatalf("%T: %v", in, err)
		}
		var out interface{}
		var err error
		if _, isReq := in.(*Request); isReq {
			out, _, err = ReadRequestV(&buf)
		} else {
			out, _, err = ReadResponseV(&buf)
		}
		if err != nil {
			t.Fatalf("%T with every field set: %v", in, err)
		}
		if path, equal := diffBits(reflect.ValueOf(out).Elem(), reflect.ValueOf(in).Elem()); !equal {
			t.Errorf("%T%s did not survive the round trip (%d leaves filled)", in, path, leaves)
		}
	}
}

// fillDistinct sets every exported field under v: each pointer to a new
// value, each slice to two elements, and each leaf to a value no other
// leaf holds (a bool to true). *n counts the leaves. A kind it cannot
// fill fails the test, so a new kind of field extends it rather than
// going unchecked.
func fillDistinct(t *testing.T, v reflect.Value, n *int) {
	t.Helper()
	switch v.Kind() {
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillDistinct(t, v.Elem(), n)
		return
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := range v.Len() {
			fillDistinct(t, v.Index(i), n)
		}
		return
	case reflect.Struct:
		for i := range v.NumField() {
			if v.Type().Field(i).IsExported() {
				fillDistinct(t, v.Field(i), n)
			}
		}
		return
	}
	*n++
	switch {
	case v.Kind() == reflect.String:
		v.SetString(fmt.Sprintf("s%d", *n))
	case v.Kind() == reflect.Bool:
		v.SetBool(true)
	case v.CanInt():
		v.SetInt(int64(*n))
	case v.CanUint():
		v.SetUint(uint64(*n))
	case v.CanFloat():
		v.SetFloat(float64(*n) + 0.25)
	default:
		t.Fatalf("fillDistinct: cannot fill a %s", v.Type())
	}
}

// TestZeroTransmitFieldsSerialize checks a transmit's numeric results
// always travel: every one has its place in the body whatever its value,
// so a flawless transmit (mismatch 0, and here -0) frames to the same
// length as a lossy one and comes back bit for bit.
func TestZeroTransmitFieldsSerialize(t *testing.T) {
	perfect := &Response{OK: true, Restored: "perfect", Mismatch: math.Copysign(0, -1)}
	lossy := &Response{OK: true, Restored: "perfect", Mismatch: 0.5, PayloadBytes: 18, LatencyMs: 3.25}
	var a, b bytes.Buffer
	if err := WriteV(&a, Version, perfect); err != nil {
		t.Fatal(err)
	}
	if err := WriteV(&b, Version, lossy); err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("a zero-valued transmit frames to %d bytes, a lossy one to %d", a.Len(), b.Len())
	}
	got, _, err := ReadResponseV(&a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got.Mismatch) != math.Float64bits(perfect.Mismatch) || got.PayloadBytes != 0 || got.LatencyMs != 0 {
		t.Fatalf("zero transmit fields came back as %+v", got)
	}
}

// header builds a wire header with the given version and payload length.
func header(version byte, n uint32) []byte {
	hdr := make([]byte, headerBytes)
	hdr[0] = version
	binary.LittleEndian.PutUint32(hdr[1:], n)
	return hdr
}

func TestReadRejectsOversizedFrame(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(header(Version, MaxMessageBytes+1))
	if _, _, err := ReadRequestV(&buf); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestReadTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(header(Version, 100))
	buf.WriteString("short")
	if _, _, err := ReadRequestV(&buf); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

// TestWriteEmitsVersionByte checks both writers start every frame with
// the one protocol version, 4.
func TestWriteEmitsVersionByte(t *testing.T) {
	if Version != 4 {
		t.Fatalf("Version = %d, want 4", Version)
	}
	var buf bytes.Buffer
	if err := WriteV(&buf, Version, &Request{Op: OpPing}); err != nil {
		t.Fatal(err)
	}
	sink := &sinkConn{}
	if err := NewConn(sink).Write(&Response{OK: true}); err != nil {
		t.Fatal(err)
	}
	for _, frame := range [][]byte{buf.Bytes(), sink.segments[0]} {
		if frame[0] != Version {
			t.Fatalf("frame starts with %d, want version byte %d", frame[0], Version)
		}
	}
}

// TestReadRejectsUnknownVersions checks every version byte but Version —
// the retired versions 1, 2 and 3 among them — fails with *VersionError
// before the body is read.
func TestReadRejectsUnknownVersions(t *testing.T) {
	for _, v := range []byte{0, 1, 2, 3, 5, 0x7f, 0xff} {
		var buf bytes.Buffer
		buf.Write(header(v, 2))
		buf.WriteString("{}")
		_, _, err := ReadRequestV(&buf)
		var verr *VersionError
		if !errors.As(err, &verr) {
			t.Fatalf("version %d: err = %v, want *VersionError", v, err)
		}
		if verr.Got != v {
			t.Fatalf("VersionError.Got = %d, want %d", verr.Got, v)
		}
	}
}

// TestV2RequestRoundTrip round-trips a handover push at Version with
// everything a push carries — each model's raw parameters, the belief and
// the packed pending transactions, empty lists and negative ids included —
// and checks that an id past int32 fails the write before a byte of it.
func TestV2RequestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := &Request{Op: OpHandoverPush, Handoff: &HandoffPayload{
		User: "alice", FromNode: "node-0", NoiseSeq: 17,
		Models: []HandoffModel{{Side: "sender", Model: ModelPayload{
			Domain: "it", User: "alice", Version: 2, Params: []byte{1, 2, 3},
		}}},
		General: []ModelPayload{{Domain: "medical", Version: 1, Params: []byte{4, 5}}},
		Buffers: []BufferState{
			{Domain: "it", Txs: []TxState{
				{Surfaces: []int{3, 1, 4}, Concepts: []int{-1, 0, 1 << 30}, Decoded: []int{2, 2, 2}},
				{},
				{Surfaces: []int{9}, Concepts: []int{-1}},
			}},
			{Domain: "medical"},
			{Domain: "sports", Txs: []TxState{{Decoded: []int{-1 << 31, 1<<31 - 1}}}},
		},
	}}
	if err := WriteV(&buf, Version, in); err != nil {
		t.Fatal(err)
	}
	out, version, err := ReadRequestV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if version != Version {
		t.Fatalf("version = %d, want %d", version, Version)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("handoff round trip:\n got %+v\nwant %+v", out.Handoff, in.Handoff)
	}
	// An id outside int32 cannot be packed: the write fails whole.
	buf.Reset()
	in.Handoff.Buffers[0].Txs[0].Surfaces[0] = 1 << 31
	if err := WriteV(&buf, Version, in); err == nil || buf.Len() != 0 {
		t.Fatalf("an id past int32 wrote %d bytes (err %v)", buf.Len(), err)
	}
}

// TestWriteVRejectsUnknownVersion checks WriteV writes only Version: the
// retired versions 1, 2 and 3 and an unknown byte alike fail with
// *VersionError.
func TestWriteVRejectsUnknownVersion(t *testing.T) {
	for _, v := range []byte{1, 2, 3, 9} {
		var buf bytes.Buffer
		err := WriteV(&buf, v, &Request{Op: OpPing})
		var verr *VersionError
		if !errors.As(err, &verr) || verr.Got != v || buf.Len() != 0 {
			t.Fatalf("version %d: err = %v, %d bytes written; want *VersionError{Got: %d} and nothing written", v, err, buf.Len(), v)
		}
	}
}

func TestIsMeshOp(t *testing.T) {
	for _, op := range []string{OpJoin, OpLeave, OpPeerStats, OpFetchModel, OpHandoverPush} {
		if !IsMeshOp(op) {
			t.Fatalf("IsMeshOp(%q) = false", op)
		}
	}
	for _, op := range []string{OpTransmit, OpMove, OpStats, OpPing, "nonsense"} {
		if IsMeshOp(op) {
			t.Fatalf("IsMeshOp(%q) = true", op)
		}
	}
}

func TestStatsMerge(t *testing.T) {
	a := &Stats{
		Messages: 10, SenderHitRate: 0.8, SyncBytes: 100, SyncCount: 2,
		CachedModels: 3, CacheUsedBytes: 300, Handovers: 1, MigratedBytes: 50,
		UpdateFailures: 1,
		MemoStats:      MemoStats{MemoLookups: 100, MemoHits: 90, MemoInserts: 10, MemoReplaced: 1},
		Nodes:          []NodeStats{{Name: "node-0", Users: 4}},
		Serve:          &ServeStats{InFlight: 1, Shed: 2},
	}
	b := &Stats{
		Messages: 30, SenderHitRate: 0.4, SyncBytes: 200, SyncCount: 1,
		CachedModels: 5, CacheUsedBytes: 700, Handovers: 2, MigratedBytes: 70,
		UpdateFailures: 4,
		MemoStats:      MemoStats{MemoLookups: 50, MemoHits: 20, MemoInserts: 30, MemoReplaced: 4},
		Nodes:          []NodeStats{{Name: "node-1", Users: 6}},
		Serve:          &ServeStats{InFlight: 2, Shed: 1},
	}
	a.Merge(b)
	if a.Messages != 40 {
		t.Fatalf("Messages = %d, want 40", a.Messages)
	}
	// Weighted hit rate: (0.8*10 + 0.4*30) / 40 = 0.5.
	if math.Abs(a.SenderHitRate-0.5) > 1e-12 {
		t.Fatalf("SenderHitRate = %g, want 0.5", a.SenderHitRate)
	}
	if a.SyncBytes != 300 || a.SyncCount != 3 || a.CachedModels != 8 || a.CacheUsedBytes != 1000 || a.UpdateFailures != 5 {
		t.Fatalf("additive counters wrong: %+v", a)
	}
	if want := (MemoStats{MemoLookups: 150, MemoHits: 110, MemoInserts: 40, MemoReplaced: 5}); a.MemoStats != want {
		t.Fatalf("memo counters = %+v, want %+v", a.MemoStats, want)
	}
	if got := a.MemoStats.HitRate(); math.Abs(got-110.0/150) > 1e-12 || (MemoStats{}).HitRate() != 0 {
		t.Fatalf("memo hit rate = %g, want 110/150 (and 0 before any lookup)", got)
	}
	if a.Handovers != 3 || a.MigratedBytes != 120 {
		t.Fatalf("handover counters wrong: %+v", a)
	}
	if len(a.Nodes) != 2 || a.Nodes[1].Name != "node-1" {
		t.Fatalf("Nodes = %+v", a.Nodes)
	}
	if a.Serve.InFlight != 3 || a.Serve.Shed != 3 {
		t.Fatalf("Serve counters wrong: %+v", a.Serve)
	}
	// Merging nil and merging into empty both behave.
	a.Merge(nil)
	empty := &Stats{}
	empty.Merge(&Stats{Messages: 4, SenderHitRate: 1})
	if empty.Messages != 4 || empty.SenderHitRate != 1 {
		t.Fatalf("merge into empty: %+v", empty)
	}
}

func TestReadEOFPassthrough(t *testing.T) {
	if _, _, err := ReadRequestV(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("err = %v, want io.EOF", err)
	}
}

// TestReadGarbageJSON checks a body that is text, not the binary codec —
// a JSON fragment or a version-3 document relabelled at Version — is
// refused, not misread.
func TestReadGarbageJSON(t *testing.T) {
	for _, doc := range []string{"]]]]", `{"op":"ping"}`, "\x0d\x00\x00\x00{\"op\":\"ping\"}"} {
		if req, _, err := ReadRequestV(bytes.NewReader(frameV(Version, []byte(doc), 0))); err == nil {
			t.Fatalf("garbage body %q parsed to %+v", doc, req)
		}
	}
}

func TestOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		req, _, err := ReadRequestV(conn)
		if err != nil {
			done <- err
			return
		}
		done <- WriteV(conn, Version, &Response{OK: true, Restored: req.Text})
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteV(conn, Version, &Request{Op: OpPing, Text: "hello"}); err != nil {
		t.Fatal(err)
	}
	resp, _, err := ReadResponseV(conn)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || resp.Restored != "hello" {
		t.Fatalf("resp = %+v", resp)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
