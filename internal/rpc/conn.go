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
	// jsonLenBytes is the size of a body's JSON length prefix.
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
// and JSON length bytes, appends the parameter tail, and returns the
// complete frame, valid until the next use of f.
func (f *frameBuf) encode(v interface{}) ([]byte, error) {
	if f.enc == nil {
		f.enc = json.NewEncoder(f)
	}
	f.reset()
	f.b = append(f.b, Version, 0, 0, 0, 0, 0, 0, 0, 0)
	start := len(f.b)
	if err := f.enc.Encode(v); err != nil {
		return nil, fmt.Errorf("rpc: marshal: %w", err)
	}
	// Encode ends the document with a newline json.Marshal does not
	// produce; the wire format is the bare document.
	f.b = f.b[:len(f.b)-1]
	binary.LittleEndian.PutUint32(f.b[headerBytes:], uint32(len(f.b)-start))
	ms, tail := models(v), 0
	for _, m := range ms {
		tail += len(m.Params)
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
// returns its body (valid until the next use of f), rejecting any version
// byte but Version and oversized frames before any body byte is read.
func (f *frameBuf) read(r io.Reader) ([]byte, error) {
	f.reset()
	f.b = f.b[:headerBytes]
	if _, err := io.ReadFull(r, f.b); err != nil {
		return nil, err // io.EOF passes through for clean shutdown
	}
	if f.b[0] != Version {
		return nil, &VersionError{Got: f.b[0]}
	}
	n := binary.LittleEndian.Uint32(f.b[1:])
	if n > MaxMessageBytes {
		return nil, errFrameTooLarge
	}
	for total := headerBytes + int(n); len(f.b) < total; {
		step := min(total-len(f.b), growStepBytes)
		f.b = slices.Grow(f.b, step)[:len(f.b)+step]
		if _, err := io.ReadFull(r, f.b[len(f.b)-step:]); err != nil {
			return nil, fmt.Errorf("rpc: read payload: %w", err)
		}
	}
	return f.b[headerBytes:], nil
}

// decode reads one frame into v (a *Request or *Response): the JSON
// document, then each ModelPayload's Params sliced off the tail by its
// params_len. The lengths must consume the body exactly.
func (f *frameBuf) decode(r io.Reader, v interface{}) error {
	body, err := f.read(r)
	if err != nil {
		return err
	}
	if len(body) < jsonLenBytes {
		return errBadTail
	}
	n := binary.LittleEndian.Uint32(body)
	if uint64(n) > uint64(len(body)-jsonLenBytes) {
		return errBadTail
	}
	doc, tail := body[jsonLenBytes:jsonLenBytes+n], body[jsonLenBytes+n:]
	if err := json.Unmarshal(doc, v); err != nil {
		return fmt.Errorf("rpc: unmarshal: %w", err)
	}
	rest := tail
	for _, m := range models(v) {
		n := m.paramsLen
		if n < 0 || n > len(rest) {
			return errBadTail
		}
		if n > 0 {
			m.Params = rest[:n:n]
		}
		m.paramsLen = 0
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return errBadTail
	}
	if len(tail) > 0 {
		f.b = nil // the decoded Params own the buffer now
	}
	return nil
}

// readMsg reads and decodes one framed Request or Response.
func readMsg[T Request | Response](f *frameBuf, r io.Reader) (*T, error) {
	var m T
	if err := f.decode(r, &m); err != nil {
		return nil, err
	}
	return &m, nil
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

// Write marshals v and sends it as one frame, in a single Write.
func (c *Conn) Write(v interface{}) error {
	defer c.f.release()
	frame, err := c.f.encode(v)
	if err != nil {
		return err
	}
	if _, err := c.conn.Write(frame); err != nil {
		return fmt.Errorf("rpc: write frame: %w", err)
	}
	return nil
}

// ReadRequest reads one framed Request.
func (c *Conn) ReadRequest() (*Request, error) {
	defer c.f.release()
	return readMsg[Request](&c.f, c.br)
}

// ReadResponse reads one framed Response.
func (c *Conn) ReadResponse() (*Response, error) {
	defer c.f.release()
	return readMsg[Response](&c.f, c.br)
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
// the frame's tail. Messages of other types carry none.
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
