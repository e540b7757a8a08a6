package rpc

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"slices"
)

const (
	// connBufBytes sizes a Conn's buffered reader, and is the largest
	// frame buffer a Conn keeps between frames: client traffic (100 B to
	// 1 KB frames) reuses one buffer forever, while a frame larger than
	// this (a ≈80 KB handover push) is assembled or read in a buffer from
	// the pool (pool.go), which goes back once the frame is done.
	connBufBytes = 4096
	// minFrameBytes is the smallest frame buffer allocated, so a short
	// frame's header and payload share one allocation.
	minFrameBytes = 512
	// growStepBytes caps how far a read allocates ahead of the bytes that
	// have actually arrived: a peer that sends only a header claiming
	// MaxMessageBytes pins one step, not the full claim. A handover push
	// (≈80 KB for two models per edge side) fits one step, so its buffer
	// is allocated once, at its size class, when the pool has none.
	growStepBytes = 128 << 10
)

// frameBuf assembles and parses frames: 5 header bytes, then the body (see
// the package comment). Frames up to connBufBytes reuse one buffer; a
// larger one takes a buffer from the pool, which release gives back. A
// decoded message whose Params view the frame takes its buffer over, so
// the next frame never overwrites them; a Conn serving requests lends it
// instead and takes it back (reclaim) once the response is written.
type frameBuf struct {
	b    []byte // the frame under assembly or just read
	lent []byte // the frame the last request's Params view
}

// reset empties the buffer, allocating it when absent.
func (f *frameBuf) reset() {
	if f.b == nil {
		f.b = make([]byte, 0, minFrameBytes)
	}
	f.b = f.b[:0]
}

// release gives a buffer grown past connBufBytes back to the pool.
func (f *frameBuf) release() {
	if cap(f.b) > connBufBytes {
		PutBuffer(f.b)
		f.b = nil
	}
}

// reclaim ends the loan of the last request's frame, whose Params must
// not be read again.
func (f *frameBuf) reclaim() {
	PutBuffer(f.lent)
	f.lent = nil
}

// encode returns v (a *Request or *Response) as one complete frame, valid
// until the next use of f. A first walk of v sizes the body, so the
// buffer grows at most once — taken from the pool when the frame is over
// connBufBytes — and a message that cannot be framed, too large or with
// a transaction id past int32, fails before a byte is written.
func (f *frameBuf) encode(v interface{}) ([]byte, error) {
	c := codec{mode: sizing}
	if err := c.message(v); err != nil {
		return nil, err
	}
	if c.n > MaxMessageBytes {
		return nil, errFrameTooLarge
	}
	switch total := headerBytes + c.n; {
	case total > connBufBytes:
		f.b = GetBuffer(total)
	case cap(f.b) < total:
		f.b = make([]byte, 0, max(total, minFrameBytes))
	}
	c.b = binary.LittleEndian.AppendUint32(append(f.b[:0], Version), uint32(c.n))
	c.mode = writing
	c.message(v)
	f.b = c.b
	return f.b, nil
}

// read reads one frame from r, taking exactly the frame's bytes, and
// returns its body (valid until the next use of f), rejecting any version
// byte but Version and oversized frames before any body byte is read. A
// frame over connBufBytes is read into a pooled buffer of its own size
// class. When the pool holds none, a frame that fits one growth step gets
// a new buffer of its class, at most growStepBytes, and a larger one grows
// with the bytes that arrive.
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
	total := headerBytes + int(n)
	switch {
	case total > growStepBytes:
		f.b = append(pooled(total), f.b...)
	case total > connBufBytes:
		f.b = append(GetBuffer(total), f.b...)
	}
	for len(f.b) < total {
		step := min(total-len(f.b), growStepBytes)
		f.b = slices.Grow(f.b, step)[:len(f.b)+step]
		if _, err := io.ReadFull(r, f.b[len(f.b)-step:]); err != nil {
			return nil, fmt.Errorf("rpc: read payload: %w", err)
		}
	}
	return f.b[headerBytes:], nil
}

// readMsg reads one frame and parses its body, which the message must
// consume exactly. When the message's Params view the frame, its buffer is
// lent to the message until reclaim if lend is set, and handed over
// otherwise.
func readMsg[T Request | Response](f *frameBuf, r io.Reader, lend bool) (*T, error) {
	body, err := f.read(r)
	if err != nil {
		return nil, err
	}
	m := new(T)
	c := codec{mode: reading, b: body}
	switch m := any(m).(type) {
	case *Request:
		c.request(m)
	case *Response:
		c.response(m)
	}
	if len(c.b) != 0 {
		c.fail()
	}
	if c.err != nil {
		return nil, c.err
	}
	if c.sliced {
		if lend {
			f.lent = f.b
		}
		f.b = nil // the decoded Params hold the buffer now
	}
	return m, nil
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
// The serving side of that alternation borrows: a request's Params view
// the frame it arrived in until the Conn's next Write or read (see
// ModelPayload.Params). Deadlines and Close stay on the net.Conn, which
// the caller keeps.
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

// Write encodes v (a *Request or *Response) and sends it as one frame, in
// a single Write. Once the frame is written, the frame buffer and the last
// request's lent frame go back to the pool.
func (c *Conn) Write(v interface{}) error {
	defer c.f.reclaim()
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

// ReadRequest reads one framed Request. Its ModelPayload Params are lent:
// they view the frame, which the Conn takes back at its next Write or
// read, so a handler must copy any it keeps past its response.
func (c *Conn) ReadRequest() (*Request, error) {
	c.f.reclaim()
	defer c.f.release()
	return readMsg[Request](&c.f, c.br, true)
}

// ReadResponse reads one framed Response. Its ModelPayload Params are the
// caller's to keep.
func (c *Conn) ReadResponse() (*Response, error) {
	c.f.reclaim()
	defer c.f.release()
	return readMsg[Response](&c.f, c.br, false)
}
