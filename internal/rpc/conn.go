package rpc

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"slices"
)

const (
	// connBufBytes sizes a Conn's buffered reader, and is the largest
	// frame buffer a Conn keeps between frames: client traffic (100 B to
	// 1 KB frames) reuses one buffer forever, while a link that carried a
	// ≈63 KB handover frame gives the memory back once the frame is done.
	connBufBytes = 4096
	// minFrameBytes is the smallest frame buffer allocated, so a short
	// frame's header and payload share one allocation.
	minFrameBytes = 512
	// growStepBytes caps how far a read grows the frame buffer ahead of
	// the bytes that have actually arrived: a peer that sends only a
	// header claiming MaxMessageBytes pins one step, not the full claim.
	growStepBytes = 64 << 10
	// jsonLenBytes is the size of a v2 body's JSON length prefix.
	jsonLenBytes = 4
)

// frameBuf assembles and parses frames in one reusable buffer: 5 header
// bytes, then the body (see the package comment). A decoded frame with a
// parameter tail hands the buffer over to the message, whose Params slice
// it, so the next frame never overwrites them.
type frameBuf struct {
	b   []byte
	enc *json.Encoder // appends to b through Write
}

// Write appends to the frame under assembly; it is the json.Encoder's sink.
func (f *frameBuf) Write(p []byte) (int, error) {
	f.b = append(f.b, p...)
	return len(p), nil
}

// reset empties the buffer, allocating it when absent.
func (f *frameBuf) reset() {
	if f.b == nil {
		f.b = make([]byte, 0, minFrameBytes)
	}
	f.b = f.b[:0]
}

// release drops a buffer that a large frame grew past connBufBytes.
func (f *frameBuf) release() {
	if cap(f.b) > connBufBytes {
		f.b = nil
	}
}

// encode marshals v straight into the buffer behind the reserved header
// bytes, appends the parameter tail on a v2 frame, and returns the
// complete frame, valid until the next use of f.
func (f *frameBuf) encode(version byte, v interface{}) ([]byte, error) {
	if version != Version && version != Version2 {
		return nil, &VersionError{Got: version}
	}
	if f.enc == nil {
		f.enc = json.NewEncoder(f)
	}
	f.reset()
	f.b = append(f.b, version, 0, 0, 0, 0)
	if version == Version2 {
		f.b = append(f.b, 0, 0, 0, 0)
	}
	start := len(f.b)
	if err := f.enc.Encode(v); err != nil {
		return nil, fmt.Errorf("rpc: marshal: %w", err)
	}
	// Encode ends the document with a newline json.Marshal does not
	// produce; the wire format is the bare document.
	f.b = f.b[:len(f.b)-1]
	if version == Version2 {
		binary.LittleEndian.PutUint32(f.b[headerBytes:], uint32(len(f.b)-start))
	}
	ms, tail := models(v), 0
	for _, m := range ms {
		tail += len(m.Params)
	}
	if version == Version && tail > 0 {
		return nil, errV1Params
	}
	f.b = slices.Grow(f.b, tail)
	for _, m := range ms {
		f.b = append(f.b, m.Params...)
	}
	n := len(f.b) - headerBytes
	if n > MaxMessageBytes {
		return nil, errFrameTooLarge
	}
	binary.LittleEndian.PutUint32(f.b[1:], uint32(n))
	return f.b, nil
}

// read reads one frame from r, taking exactly the frame's bytes, and
// returns its payload (valid until the next use of f) and version byte,
// rejecting unknown protocol versions and oversized frames before any
// payload is read.
func (f *frameBuf) read(r io.Reader) ([]byte, byte, error) {
	f.reset()
	f.b = f.b[:headerBytes]
	if _, err := io.ReadFull(r, f.b); err != nil {
		return nil, 0, err // io.EOF passes through for clean shutdown
	}
	version := f.b[0]
	if version != Version && version != Version2 {
		return nil, 0, &VersionError{Got: version}
	}
	n := binary.LittleEndian.Uint32(f.b[1:])
	if n > MaxMessageBytes {
		return nil, 0, errFrameTooLarge
	}
	for total := headerBytes + int(n); len(f.b) < total; {
		step := min(total-len(f.b), growStepBytes)
		f.b = slices.Grow(f.b, step)[:len(f.b)+step]
		if _, err := io.ReadFull(r, f.b[len(f.b)-step:]); err != nil {
			return nil, 0, fmt.Errorf("rpc: read payload: %w", err)
		}
	}
	return f.b[headerBytes:], version, nil
}

// decode reads one frame into v (a *Request or *Response): the JSON
// document, then, on a v2 frame, each ModelPayload's Params sliced off
// the tail by its params_len. The lengths must consume the tail exactly.
func (f *frameBuf) decode(r io.Reader, v interface{}) (byte, error) {
	payload, version, err := f.read(r)
	if err != nil {
		return 0, err
	}
	doc, tail := payload, payload[len(payload):]
	if version == Version2 {
		if len(payload) < jsonLenBytes {
			return 0, errBadTail
		}
		n := binary.LittleEndian.Uint32(payload)
		if uint64(n) > uint64(len(payload)-jsonLenBytes) {
			return 0, errBadTail
		}
		doc, tail = payload[jsonLenBytes:jsonLenBytes+n], payload[jsonLenBytes+n:]
	}
	if err := json.Unmarshal(doc, v); err != nil {
		return 0, fmt.Errorf("rpc: unmarshal: %w", err)
	}
	rest := tail
	for _, m := range models(v) {
		n := m.paramsLen
		if n < 0 || n > len(rest) {
			return 0, errBadTail
		}
		if n > 0 {
			m.Params = rest[:n:n]
		}
		m.paramsLen = 0
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return 0, errBadTail
	}
	if len(tail) > 0 {
		f.b = nil // the decoded Params own the buffer now
	}
	return version, nil
}

// readRequest reads and decodes one framed Request.
func (f *frameBuf) readRequest(r io.Reader) (*Request, byte, error) {
	var req Request
	version, err := f.decode(r, &req)
	if err != nil {
		return nil, 0, err
	}
	return &req, version, nil
}

// readResponse reads and decodes one framed Response.
func (f *frameBuf) readResponse(r io.Reader) (*Response, byte, error) {
	var resp Response
	version, err := f.decode(r, &resp)
	if err != nil {
		return nil, 0, err
	}
	return &resp, version, nil
}

// Conn is one framed connection: every frame a Client, the daemon or a
// mesh peer link puts on or takes off a net.Conn goes through it. A frame
// leaves in exactly one Write on the connection, so a TCP_NODELAY socket
// carries it as one segment; reads are buffered, so a frame's header and
// payload arrive in one Read, and frames a peer sent back to back are
// returned in order out of the buffer. The bytes on the wire are those of
// the package-level WriteV.
//
// A Conn is not safe for concurrent use: both directions share one frame
// buffer, which fits the protocol's strict request/response alternation.
// Deadlines and Close stay on the net.Conn, which the caller keeps.
type Conn struct {
	conn net.Conn
	br   *bufio.Reader
	f    frameBuf
}

// NewConn wraps an established connection. From here on only the Conn may
// read from or write to conn.
func NewConn(conn net.Conn) *Conn {
	return &Conn{conn: conn, br: bufio.NewReaderSize(conn, connBufBytes)}
}

// WriteV marshals v and sends it as one frame at the given protocol
// version, in a single Write.
func (c *Conn) WriteV(version byte, v interface{}) error {
	defer c.f.release()
	frame, err := c.f.encode(version, v)
	if err != nil {
		return err
	}
	if _, err := c.conn.Write(frame); err != nil {
		return fmt.Errorf("rpc: write frame: %w", err)
	}
	return nil
}

// ReadRequestV reads one framed Request and reports the protocol version
// it arrived on.
func (c *Conn) ReadRequestV() (*Request, byte, error) {
	defer c.f.release()
	return c.f.readRequest(c.br)
}

// ReadResponseV reads one framed Response and reports the protocol
// version it arrived on.
func (c *Conn) ReadResponseV() (*Response, byte, error) {
	defer c.f.release()
	return c.f.readResponse(c.br)
}

// modelPayloadJSON is ModelPayload's JSON form.
type modelPayloadJSON struct {
	Domain    string `json:"domain"`
	User      string `json:"user,omitempty"`
	Version   int    `json:"version"`
	ParamsLen int    `json:"params_len"`
}

// MarshalJSON writes the payload with params_len in place of Params.
func (m ModelPayload) MarshalJSON() ([]byte, error) {
	return json.Marshal(modelPayloadJSON{Domain: m.Domain, User: m.User, Version: m.Version, ParamsLen: len(m.Params)})
}

// UnmarshalJSON reads the payload's fields and params_len; Params stays
// nil until the frame decoder fills it from the tail. A JSON null leaves
// m unchanged, as it does for any other struct.
func (m *ModelPayload) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		return nil
	}
	var w modelPayloadJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*m = ModelPayload{Domain: w.Domain, User: w.User, Version: w.Version, paramsLen: w.ParamsLen}
	return nil
}

// models lists the ModelPayloads of a message in document order: the
// order of their params_len fields in its JSON, and so of their Params in
// a v2 frame's tail. Messages of other types carry none.
func models(v interface{}) []*ModelPayload {
	var ms []*ModelPayload
	switch m := v.(type) {
	case *Request:
		if m != nil && m.Handoff != nil {
			for i := range m.Handoff.Models {
				ms = append(ms, &m.Handoff.Models[i].Model)
			}
			for i := range m.Handoff.General {
				ms = append(ms, &m.Handoff.General[i])
			}
		}
	case *Response:
		if m != nil && m.Model != nil {
			ms = append(ms, m.Model)
		}
	}
	return ms
}
