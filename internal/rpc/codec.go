package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// The frame body is the message's fields in struct order:
//
//   - a string or []byte: a uvarint length, then the bytes;
//   - an int or int64: a zigzag varint; a uint64: a uvarint;
//   - a float64: its 8 IEEE bits, little-endian;
//   - a struct's bools: one flags byte at the first bool's place, bit i
//     the struct's i-th bool (Response: OK, Shed, Draining, CacheHit,
//     Individual, UpdateFired; Handover: Moved);
//   - a pointer: a presence byte, 0 or 1, then the pointee when 1;
//   - a slice: a uvarint count, then the elements;
//   - a BufferState's Txs: a uvarint count, then per transaction its three
//     list lengths as uint32, then its ids as int32, all little-endian;
//   - an embedded MemoStats: its four counters, at its place.
//
// One walk per type carries every field; it runs in three modes — size,
// write, read — so the writer and the parser cannot disagree on the
// layout. The parser reads in place: Params view the frame, every other
// field is copied out of it. It accepts exactly what the writer writes —
// minimal varints, presence and flags bytes without unknown bits, counts
// the bytes left can hold, no byte after the message — so a body that
// parses re-encodes to the same bytes, and an empty slice arrives nil.

// errBadBody reports a frame body that is not one message in the body
// codec: a length or count past the bytes left, a varint that overflows or
// is not minimal, an unknown bit in a presence or flags byte, or bytes
// after the message — among them a body in a retired layout.
var errBadBody = errors.New("rpc: malformed frame body")

// mode is what a walk does with each field.
type mode uint8

const (
	sizing  mode = iota // add the field's encoded size to n
	writing             // append the field to b
	reading             // parse the field off the front of b
)

// codec walks one message in wire order.
type codec struct {
	mode   mode
	b      []byte // writing: the frame so far; reading: the body left
	n      int    // sizing: the body's bytes so far
	err    error  // sizing: an id past int32; reading: errBadBody
	sliced bool   // reading: a Params field views b
}

// message walks v, which must be a non-nil *Request or *Response, to size
// or write it.
func (c *codec) message(v interface{}) error {
	switch m := v.(type) {
	case *Request:
		if m != nil {
			c.request(m)
			return c.err
		}
	case *Response:
		if m != nil {
			c.response(m)
			return c.err
		}
	}
	return fmt.Errorf("rpc: cannot frame a %T", v)
}

// fail marks the body malformed and drops what is left of it, so every
// later read fails too and leaves its field zero.
func (c *codec) fail() {
	if c.err == nil {
		c.err = errBadBody
	}
	c.b = nil
}

// put sizes or writes one byte.
func (c *codec) put(v byte) {
	if c.mode == sizing {
		c.n++
		return
	}
	c.b = append(c.b, v)
}

// get reads one byte.
func (c *codec) get() byte {
	if len(c.b) == 0 {
		c.fail()
		return 0
	}
	v := c.b[0]
	c.b = c.b[1:]
	return v
}

// putUvarint sizes or writes a uvarint.
func (c *codec) putUvarint(v uint64) {
	if c.mode == sizing {
		c.n += (bits.Len64(v|1) + 6) / 7
		return
	}
	c.b = binary.AppendUvarint(c.b, v)
}

// getUvarint reads a minimal uvarint: a longer encoding of the same value
// ends in a zero byte.
func (c *codec) getUvarint() uint64 {
	if len(c.b) > 0 && c.b[0] < 0x80 {
		return uint64(c.get())
	}
	v, n := binary.Uvarint(c.b)
	if n <= 0 || c.b[n-1] == 0 {
		c.fail()
		return 0
	}
	c.b = c.b[n:]
	return v
}

// view reads length-prefixed bytes as a view of the body, nil when empty.
func (c *codec) view() []byte {
	n := c.getUvarint()
	if n > uint64(len(c.b)) {
		c.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	v := c.b[:n:n]
	c.b = c.b[n:]
	return v
}

func (c *codec) u64(p *uint64) {
	if c.mode == reading {
		*p = c.getUvarint()
		return
	}
	c.putUvarint(*p)
}

func (c *codec) i64(p *int64) {
	if c.mode == reading {
		u := c.getUvarint()
		*p = int64(u>>1) ^ -int64(u&1)
		return
	}
	c.putUvarint(uint64(*p<<1) ^ uint64(*p>>63))
}

func (c *codec) int(p *int) {
	v := int64(*p)
	c.i64(&v)
	if c.mode == reading {
		if int64(int(v)) != v {
			c.fail()
			return
		}
		*p = int(v)
	}
}

func (c *codec) f64(p *float64) {
	switch c.mode {
	case sizing:
		c.n += 8
	case writing:
		c.b = binary.LittleEndian.AppendUint64(c.b, math.Float64bits(*p))
	default:
		if len(c.b) < 8 {
			c.fail()
			return
		}
		*p = math.Float64frombits(binary.LittleEndian.Uint64(c.b))
		c.b = c.b[8:]
	}
}

func (c *codec) str(p *string) {
	if c.mode == reading {
		*p = string(c.view())
		return
	}
	putBytes(c, *p)
}

// params carries a model's parameters; read, they view the body.
func (c *codec) params(p *[]byte) {
	if c.mode == reading {
		*p = c.view()
		c.sliced = c.sliced || *p != nil
		return
	}
	putBytes(c, *p)
}

// putBytes sizes or writes s behind its length.
func putBytes[S string | []byte](c *codec, s S) {
	c.putUvarint(uint64(len(s)))
	if c.mode == sizing {
		c.n += len(s)
		return
	}
	c.b = append(c.b, s...)
}

// flags carries a struct's bools in one byte, the first in bit 0.
func (c *codec) flags(ps ...*bool) {
	if c.mode != reading {
		var f byte
		for i, p := range ps {
			if *p {
				f |= 1 << i
			}
		}
		c.put(f)
		return
	}
	f := c.get()
	if f>>len(ps) != 0 {
		c.fail()
		return
	}
	for i, p := range ps {
		*p = f&(1<<i) != 0
	}
}

// present carries a pointer's presence byte and reports whether the
// pointee follows; reading, it allocates the pointee.
func present[T any](c *codec, p **T) bool {
	if c.mode != reading {
		if *p == nil {
			c.put(0)
			return false
		}
		c.put(1)
		return true
	}
	switch c.get() {
	case 0:
		return false
	case 1:
		*p = new(T)
		return true
	}
	c.fail()
	return false
}

// count carries a slice's length and returns it; reading, it allocates the
// slice, nil when empty, once the bytes left can hold that many elements
// of minBytes each.
func count[T any](c *codec, s *[]T, minBytes int) int {
	if c.mode != reading {
		c.putUvarint(uint64(len(*s)))
		return len(*s)
	}
	n := c.getUvarint()
	if n > uint64(len(c.b)/minBytes) {
		c.fail()
		return 0
	}
	if n > 0 {
		*s = make([]T, n)
	}
	return int(n)
}

// zeroBytes is the encoded size of T's zero value: the fewest bytes one
// element of a []T takes on the wire.
func zeroBytes[T any](walk func(*codec, *T)) int {
	c := codec{mode: sizing}
	walk(&c, new(T))
	return c.n
}

var (
	peerBytes         = zeroBytes((*codec).peer)
	handoffModelBytes = zeroBytes((*codec).handoffModel)
	modelBytes        = zeroBytes((*codec).model)
	bufferBytes       = zeroBytes((*codec).buffer)
	nodeBytes         = zeroBytes((*codec).node)
	heatBytes         = zeroBytes((*codec).heat)
)

// ops are the request ops a parsed Request.Op shares instead of
// allocating a copy.
var ops = [...]string{OpTransmit, OpMove, OpStats, OpPing, OpJoin, OpLeave, OpPeerStats, OpFetchModel, OpHandoverPush}

// op carries Request.Op; read, a known op is its constant, so the common
// requests allocate no string for it.
func (c *codec) op(p *string) {
	if c.mode != reading {
		c.str(p)
		return
	}
	v := c.view()
	for _, op := range ops {
		if string(v) == op {
			*p = op
			return
		}
	}
	*p = string(v)
}

func (c *codec) request(m *Request) {
	c.op(&m.Op)
	c.str(&m.User)
	c.str(&m.Text)
	c.int(&m.Cell)
	c.f64(&m.DeadlineMs)
	if present(c, &m.Peer) {
		c.peer(m.Peer)
	}
	if present(c, &m.Fetch) {
		c.str(&m.Fetch.Domain)
		c.str(&m.Fetch.User)
		c.str(&m.Fetch.Role)
	}
	if present(c, &m.Handoff) {
		c.handoff(m.Handoff)
	}
}

func (c *codec) peer(p *PeerInfo) {
	c.str(&p.Name)
	c.int(&p.Index)
	c.str(&p.Addr)
}

func (c *codec) handoff(h *HandoffPayload) {
	c.str(&h.User)
	c.str(&h.FromNode)
	c.u64(&h.NoiseSeq)
	for i := range count(c, &h.Models, handoffModelBytes) {
		c.handoffModel(&h.Models[i])
	}
	c.str(&h.Reason)
	for i := range count(c, &h.General, modelBytes) {
		c.model(&h.General[i])
	}
	for i := range count(c, &h.Belief, 8) {
		c.f64(&h.Belief[i])
	}
	for i := range count(c, &h.Buffers, bufferBytes) {
		c.buffer(&h.Buffers[i])
	}
}

func (c *codec) handoffModel(m *HandoffModel) {
	c.str(&m.Side)
	c.model(&m.Model)
}

func (c *codec) model(m *ModelPayload) {
	c.str(&m.Domain)
	c.str(&m.User)
	c.int(&m.Version)
	c.params(&m.Params)
}

// buffer carries a buffer's domain and its packed transactions. Sizing, it
// fails the message for an id outside int32.
func (c *codec) buffer(b *BufferState) {
	c.str(&b.Domain)
	switch c.mode {
	case sizing:
		c.putUvarint(uint64(len(b.Txs)))
		for _, tx := range b.Txs {
			c.n += txHeaderBytes
			for _, ids := range [...][]int{tx.Surfaces, tx.Concepts, tx.Decoded} {
				c.n += 4 * len(ids)
				for _, id := range ids {
					if id != int(int32(id)) && c.err == nil {
						c.err = fmt.Errorf("rpc: buffer %q: transaction id %d does not fit in an int32", b.Domain, id)
					}
				}
			}
		}
	case writing:
		c.putUvarint(uint64(len(b.Txs)))
		c.b = appendTxs(c.b, b.Txs)
	default:
		n := c.getUvarint()
		if n > uint64(len(c.b)/txHeaderBytes) {
			c.fail()
			return
		}
		if n == 0 {
			return
		}
		txs, rest, ok := unpackTxs(c.b, int(n))
		if !ok {
			c.fail()
			return
		}
		b.Txs, c.b = txs, rest
	}
}

func (c *codec) response(m *Response) {
	c.flags(&m.OK, &m.Shed, &m.Draining, &m.CacheHit, &m.Individual, &m.UpdateFired)
	c.str(&m.Error)
	c.str(&m.Restored)
	c.str(&m.SelectedDomain)
	c.f64(&m.Mismatch)
	c.int(&m.PayloadBytes)
	c.f64(&m.LatencyMs)
	if present(c, &m.Handover) {
		h := m.Handover
		c.str(&h.From)
		c.str(&h.To)
		c.flags(&h.Moved)
		c.int(&h.Models)
		c.i64(&h.MigratedBytes)
		c.f64(&h.LatencyMs)
	}
	if present(c, &m.Stats) {
		c.stats(m.Stats)
	}
	if present(c, &m.Model) {
		c.model(m.Model)
	}
	if present(c, &m.Node) {
		c.node(m.Node)
	}
	for i := range count(c, &m.Peers, peerBytes) {
		c.peer(&m.Peers[i])
	}
}

func (c *codec) stats(s *Stats) {
	c.int(&s.Messages)
	c.f64(&s.SenderHitRate)
	c.i64(&s.SyncBytes)
	c.int(&s.SyncCount)
	c.int(&s.CachedModels)
	c.i64(&s.CacheUsedBytes)
	c.i64(&s.UpdateFailures)
	c.memo(&s.MemoStats)
	if present(c, &s.Serve) {
		sv := s.Serve
		c.int(&sv.InFlight)
		for _, p := range [...]*float64{&sv.LatencyP50Ms, &sv.LatencyP95Ms, &sv.LatencyP99Ms,
			&sv.QueueWaitP50Ms, &sv.QueueWaitP95Ms, &sv.QueueWaitP99Ms} {
			c.f64(p)
		}
		c.i64(&sv.Shed)
		c.f64(&sv.UpdateP50Ms)
		c.f64(&sv.UpdateP99Ms)
	}
	for i := range count(c, &s.Nodes, nodeBytes) {
		c.node(&s.Nodes[i])
	}
	c.i64(&s.Handovers)
	c.i64(&s.MigratedBytes)
}

func (c *codec) node(n *NodeStats) {
	c.str(&n.Name)
	c.int(&n.Users)
	c.f64(&n.HitRate)
	c.int(&n.CachedModels)
	for _, p := range [...]*int64{&n.CacheUsedBytes, &n.HandoversIn, &n.HandoversOut, &n.NeighborHits,
		&n.NeighborBytes, &n.NeighborServed, &n.OriginFetches, &n.OriginBytes} {
		c.i64(p)
	}
	c.f64(&n.FetchLatencyMs)
	for i := range count(c, &n.Generals, 1) {
		c.str(&n.Generals[i])
	}
	for i := range count(c, &n.Hot, heatBytes) {
		c.heat(&n.Hot[i])
	}
	c.i64(&n.ReplicasOut)
	c.i64(&n.ReplicasIn)
	c.memo(&n.MemoStats)
}

func (c *codec) heat(h *DomainHeat) {
	c.str(&h.Domain)
	c.i64(&h.Count)
}

func (c *codec) memo(m *MemoStats) {
	c.u64(&m.MemoLookups)
	c.u64(&m.MemoHits)
	c.u64(&m.MemoInserts)
	c.u64(&m.MemoReplaced)
}

// txHeaderBytes is the size of a packed transaction's header: the uint32
// lengths of its surface, concept and decoded lists.
const txHeaderBytes = 12

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

// unpackTxs decodes count transactions that appendTxs packed at the start
// of b and returns them with the bytes after them. A first pass checks
// every length against the bytes present, so the transactions and their
// ids are then allocated once each, sized exactly.
func unpackTxs(b []byte, count int) ([]TxState, []byte, bool) {
	ids, end := 0, 0
	for range count {
		rest := b[end:]
		if len(rest) < txHeaderBytes {
			return nil, nil, false
		}
		n := uint64(binary.LittleEndian.Uint32(rest)) +
			uint64(binary.LittleEndian.Uint32(rest[4:])) +
			uint64(binary.LittleEndian.Uint32(rest[8:]))
		if n > uint64(len(rest)-txHeaderBytes)/4 {
			return nil, nil, false
		}
		ids += int(n)
		end += txHeaderBytes + 4*int(n)
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
	return txs, b, true
}
