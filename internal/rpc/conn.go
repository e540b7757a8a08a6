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
	// jsonLenBytes is the size of a body's JSON length prefix.
	jsonLenBytes = 4
)

// frameBuf assembles and parses frames: 5 header bytes, then the body (see
// the package comment). Frames up to connBufBytes reuse one buffer; a
// larger one takes a buffer from the pool, which release gives back. A
// decoded frame with a parameter tail hands its buffer over to the
// message, whose Params slice it, so the next frame never overwrites
// them; a Conn serving requests lends it instead and takes it back
// (reclaim) once the response is written.
type frameBuf struct {
	b    []byte        // the frame under assembly or just read
	lent []byte        // the frame the last request's Params view
	enc  *json.Encoder // appends to b through Write
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

// encode marshals v straight into the buffer behind the reserved header
// and JSON length bytes, appends the binary tail, and returns the
// complete frame, valid until the next use of f. A frame with a tail
// sizes the buffer for it, and for a document of up to minFrameBytes,
// before the document is written, taking it from the pool when that is
// more than connBufBytes.
func (f *frameBuf) encode(v interface{}) ([]byte, error) {
	if f.enc == nil {
		f.enc = json.NewEncoder(f)
	}
	ms, bs := tailParts(v)
	tail := 0
	for _, m := range ms {
		tail += len(m.Params)
	}
	for _, b := range bs {
		tail += packedTxsBytes(b.Txs)
	}
	if size := headerBytes + jsonLenBytes + minFrameBytes + tail; tail > 0 && size > connBufBytes {
		f.b = GetBuffer(size)
	} else {
		f.reset()
	}
	f.b = append(f.b, Version, 0, 0, 0, 0, 0, 0, 0, 0)
	start := len(f.b)
	if err := f.enc.Encode(v); err != nil {
		return nil, fmt.Errorf("rpc: marshal: %w", err)
	}
	// Encode ends the document with a newline json.Marshal does not
	// produce; the wire format is the bare document.
	f.b = f.b[:len(f.b)-1]
	binary.LittleEndian.PutUint32(f.b[headerBytes:], uint32(len(f.b)-start))
	f.b = slices.Grow(f.b, tail)
	for _, m := range ms {
		f.b = append(f.b, m.Params...)
	}
	for _, b := range bs {
		f.b = appendTxs(f.b, b.Txs)
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

// decode reads one frame into v (a *Request or *Response): the JSON
// document, then each ModelPayload's Params sliced off the tail by its
// params_len, then each BufferState's Txs unpacked from the rest by its
// txs_len. The lengths must consume the body exactly.
//
// When lend is set and Params were sliced, the buffer is lent to v until
// reclaim; otherwise v owns it.
func (f *frameBuf) decode(r io.Reader, v interface{}, lend bool) error {
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
	ms, bs := tailParts(v)
	rest, sliced := tail, false
	for _, m := range ms {
		n := m.paramsLen
		if n < 0 || n > len(rest) {
			return errBadTail
		}
		if n > 0 {
			m.Params, sliced = rest[:n:n], true
		}
		m.paramsLen = 0
		rest = rest[n:]
	}
	for _, b := range bs {
		n := b.txsLen
		if n < 0 || n > len(rest) {
			return errBadTail
		}
		txs, err := unpackTxs(rest[:n])
		if err != nil {
			return err
		}
		b.Txs, b.txsLen = txs, 0
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return errBadTail
	}
	if sliced {
		if lend {
			f.lent = f.b
		}
		f.b = nil // the decoded Params hold the buffer now
	}
	return nil
}

// readMsg reads and decodes one framed Request or Response, lending it the
// frame's buffer when lend is set (see decode).
func readMsg[T Request | Response](f *frameBuf, r io.Reader, lend bool) (*T, error) {
	var m T
	if err := f.decode(r, &m, lend); err != nil {
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

// Write marshals v and sends it as one frame, in a single Write. Once the
// frame is written, the frame buffer and the last request's lent frame go
// back to the pool.
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

// bufferStateJSON is BufferState's JSON form.
type bufferStateJSON struct {
	Domain string `json:"domain"`
	TxsLen int    `json:"txs_len"`
}

// MarshalJSON writes the buffer with txs_len, the packed size of its
// transactions, in place of Txs. An id outside int32 fails it.
func (b BufferState) MarshalJSON() ([]byte, error) {
	for _, tx := range b.Txs {
		for _, ids := range [...][]int{tx.Surfaces, tx.Concepts, tx.Decoded} {
			for _, id := range ids {
				if id != int(int32(id)) {
					return nil, fmt.Errorf("rpc: buffer %q: transaction id %d does not fit in an int32", b.Domain, id)
				}
			}
		}
	}
	return json.Marshal(bufferStateJSON{Domain: b.Domain, TxsLen: packedTxsBytes(b.Txs)})
}

// UnmarshalJSON reads the buffer's domain and txs_len; Txs stays nil until
// the frame decoder unpacks it from the tail. A JSON null leaves b
// unchanged.
func (b *BufferState) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		return nil
	}
	var w bufferStateJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*b = BufferState{Domain: w.Domain, txsLen: w.TxsLen}
	return nil
}

// txHeaderBytes is the size of a packed transaction's header: the uint32
// lengths of its surface, concept and decoded lists.
const txHeaderBytes = 12

// packedTxsBytes is the size of txs in appendTxs's form.
func packedTxsBytes(txs []TxState) int {
	n := 0
	for _, tx := range txs {
		n += txHeaderBytes + 4*(len(tx.Surfaces)+len(tx.Concepts)+len(tx.Decoded))
	}
	return n
}

// appendTxs packs txs onto dst: per transaction the three list lengths,
// then the surfaces, concepts and decoded ids, every number 4 bytes
// little-endian, the ids as int32.
func appendTxs(dst []byte, txs []TxState) []byte {
	for _, tx := range txs {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(tx.Surfaces)))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(tx.Concepts)))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(tx.Decoded)))
		for _, ids := range [...][]int{tx.Surfaces, tx.Concepts, tx.Decoded} {
			for _, id := range ids {
				dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(id)))
			}
		}
	}
	return dst
}

// unpackTxs decodes what appendTxs packed, which must be all of b. A first
// pass checks every length against the bytes present, so the transactions
// and their ids are then allocated once each, sized exactly.
func unpackTxs(b []byte) ([]TxState, error) {
	count, ids := 0, 0
	for rest := b; len(rest) > 0; count++ {
		if len(rest) < txHeaderBytes {
			return nil, errBadTail
		}
		n := uint64(binary.LittleEndian.Uint32(rest)) +
			uint64(binary.LittleEndian.Uint32(rest[4:])) +
			uint64(binary.LittleEndian.Uint32(rest[8:]))
		if n > uint64(len(rest)-txHeaderBytes)/4 {
			return nil, errBadTail
		}
		ids += int(n)
		rest = rest[txHeaderBytes+4*n:]
	}
	if count == 0 {
		return nil, nil
	}
	txs, all := make([]TxState, count), make([]int, ids)
	for i := range txs {
		var lens [3]int
		for j := range lens {
			lens[j] = int(binary.LittleEndian.Uint32(b[4*j:]))
		}
		b = b[txHeaderBytes:]
		for j, dst := range [...]*[]int{&txs[i].Surfaces, &txs[i].Concepts, &txs[i].Decoded} {
			n := lens[j]
			if n == 0 {
				continue
			}
			list := all[:n:n]
			for k := range list {
				list[k] = int(int32(binary.LittleEndian.Uint32(b[4*k:])))
			}
			*dst, all, b = list, all[n:], b[4*n:]
		}
	}
	return txs, nil
}

// tailParts lists what a message carries in the frame's tail, in document
// order: its ModelPayloads, whose Params come first, then its
// BufferStates, whose packed Txs follow. Messages of other types carry
// neither.
func tailParts(v interface{}) ([]*ModelPayload, []*BufferState) {
	var ms []*ModelPayload
	var bs []*BufferState
	switch m := v.(type) {
	case *Request:
		if m != nil && m.Handoff != nil {
			for i := range m.Handoff.Models {
				ms = append(ms, &m.Handoff.Models[i].Model)
			}
			for i := range m.Handoff.General {
				ms = append(ms, &m.Handoff.General[i])
			}
			for i := range m.Handoff.Buffers {
				bs = append(bs, &m.Handoff.Buffers[i])
			}
		}
	case *Response:
		if m != nil && m.Model != nil {
			ms = append(ms, m.Model)
		}
	}
	return ms, bs
}
