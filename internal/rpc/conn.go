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
	// 70 KB handover frame gives the memory back once the frame is done.
	connBufBytes = 4096
	// minFrameBytes is the smallest frame buffer allocated, so a short
	// frame's header and payload share one allocation.
	minFrameBytes = 512
	// growStepBytes caps how far a read grows the frame buffer ahead of
	// the bytes that have actually arrived: a peer that sends only a
	// header claiming MaxMessageBytes pins one step, not the full claim.
	growStepBytes = 64 << 10
)

// frameBuf assembles and parses frames in one reusable buffer: 5 header
// bytes, then the JSON document.
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
// bytes and returns the complete frame, valid until the next use of f.
func (f *frameBuf) encode(version byte, v interface{}) ([]byte, error) {
	if version != Version && version != Version2 {
		return nil, &VersionError{Got: version}
	}
	if f.enc == nil {
		f.enc = json.NewEncoder(f)
	}
	f.reset()
	f.b = append(f.b, version, 0, 0, 0, 0)
	if err := f.enc.Encode(v); err != nil {
		return nil, fmt.Errorf("rpc: marshal: %w", err)
	}
	// Encode ends the document with a newline json.Marshal does not
	// produce; the wire format is the bare document.
	f.b = f.b[:len(f.b)-1]
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

// readRequest reads and decodes one framed Request.
func (f *frameBuf) readRequest(r io.Reader) (*Request, byte, error) {
	payload, version, err := f.read(r)
	if err != nil {
		return nil, 0, err
	}
	var req Request
	if err := json.Unmarshal(payload, &req); err != nil {
		return nil, 0, fmt.Errorf("rpc: unmarshal request: %w", err)
	}
	return &req, version, nil
}

// readResponse reads and decodes one framed Response.
func (f *frameBuf) readResponse(r io.Reader) (*Response, byte, error) {
	payload, version, err := f.read(r)
	if err != nil {
		return nil, 0, err
	}
	var resp Response
	if err := json.Unmarshal(payload, &resp); err != nil {
		return nil, 0, fmt.Errorf("rpc: unmarshal response: %w", err)
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
