package experiments

import (
	"container/heap"
	"sort"

	"repro/internal/channel"
)

// This file is the traditional bit-oriented communication pipeline E1 and
// the erasure ablation contrast semantic communication against: Huffman
// source coding of the raw text, channel coding, modulation and
// transmission of every bit. Meaning plays no role; fidelity is exact bit
// recovery, and errors surviving the channel code corrupt the decoded text
// from the flip onward.

// huffman is a byte-level Huffman coder with a static code table trained
// on representative corpus text.
type huffman struct {
	codes [256][]bool
	root  *hnode
}

// hnode is a Huffman tree node; leaves carry a byte symbol.
type hnode struct {
	count       int
	symbol      byte
	leaf        bool
	left, right *hnode
	// order breaks frequency ties deterministically.
	order int
}

// hheap is a min-heap over nodes by count, then insertion order.
type hheap []*hnode

func (h hheap) Len() int { return len(h) }
func (h hheap) Less(i, j int) bool {
	if h[i].count != h[j].count {
		return h[i].count < h[j].count
	}
	return h[i].order < h[j].order
}
func (h hheap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *hheap) Push(x interface{}) { *h = append(*h, x.(*hnode)) }
func (h *hheap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// trainHuffman builds a Huffman coder from sample text. Lowercase letters,
// digits and the space character receive add-one smoothing so any corpus
// sentence is encodable even if a byte never occurred in the samples.
func trainHuffman(samples []string) *huffman {
	counts := make([]int, 256)
	for _, s := range samples {
		for i := 0; i < len(s); i++ {
			counts[s[i]]++
		}
	}
	for b := byte('a'); b <= 'z'; b++ {
		counts[b]++
	}
	for b := byte('0'); b <= '9'; b++ {
		counts[b]++
	}
	counts[' ']++

	var nodes []*hnode
	for b := 0; b < 256; b++ {
		if counts[b] > 0 {
			nodes = append(nodes, &hnode{count: counts[b], symbol: byte(b), leaf: true, order: b})
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].order < nodes[j].order })

	h := &huffman{}
	if len(nodes) == 1 {
		// Degenerate single-symbol alphabet: assign a 1-bit code.
		h.root = &hnode{left: nodes[0], right: nil}
		h.codes[nodes[0].symbol] = []bool{false}
		return h
	}
	hp := hheap(nodes)
	heap.Init(&hp)
	next := 256
	for hp.Len() > 1 {
		a := heap.Pop(&hp).(*hnode)
		b := heap.Pop(&hp).(*hnode)
		heap.Push(&hp, &hnode{count: a.count + b.count, left: a, right: b, order: next})
		next++
	}
	h.root = heap.Pop(&hp).(*hnode)
	h.buildCodes(h.root, nil)
	return h
}

// buildCodes assigns codes by tree walk (left = 0, right = 1).
func (h *huffman) buildCodes(n *hnode, prefix []bool) {
	if n == nil {
		return
	}
	if n.leaf {
		code := make([]bool, len(prefix))
		copy(code, prefix)
		h.codes[n.symbol] = code
		return
	}
	h.buildCodes(n.left, append(prefix, false))
	h.buildCodes(n.right, append(prefix, true))
}

// encode converts text to its Huffman bit stream. Bytes without a code
// (never seen and outside the smoothed set) are silently skipped; corpus
// text never contains such bytes.
func (h *huffman) encode(s string) []bool {
	out := make([]bool, 0, 6*len(s))
	for i := 0; i < len(s); i++ {
		out = append(out, h.codes[s[i]]...)
	}
	return out
}

// decode converts a bit stream back to text by walking the code tree. A
// bit error desynchronizes the walk and corrupts the remainder — the
// characteristic cliff of bit-oriented transmission. Decoding stops at the
// end of the stream; a partial code at the tail is dropped.
func (h *huffman) decode(bits []bool) string {
	if h.root == nil {
		return ""
	}
	out := make([]byte, 0, len(bits)/4)
	n := h.root
	for _, b := range bits {
		if b {
			n = n.right
		} else {
			n = n.left
		}
		if n == nil {
			// Invalid path (possible under corruption): restart.
			n = h.root
			continue
		}
		if n.leaf {
			out = append(out, n.symbol)
			n = h.root
		}
	}
	return string(out)
}

// tradPipeline is the end-to-end traditional transmitter/receiver: Huffman
// source coding, forward error correction, modulation and the physical
// channel. It transmits the exact text, bit by bit.
type tradPipeline struct {
	huff *huffman
	code channel.Code
	mod  channel.Modulation
	ch   channel.Channel
}

// newTradPipeline builds the traditional pipeline the tables run over ch:
// env's Huffman coder, Hamming(7,4) and BPSK, the semantic link's code and
// modulation.
func newTradPipeline(env *Env, ch channel.Channel) tradPipeline {
	return tradPipeline{huff: env.huff, code: channel.Hamming74{}, mod: channel.BPSK{}, ch: ch}
}

// send transmits text through the pipeline and returns the decoded text
// with transport statistics. A 16-bit CRC is carried alongside the payload
// so the receiver can flag residual corruption; the returned ok reports
// whether the frame passed the integrity check.
func (p tradPipeline) send(text string) (decoded string, ok bool, stats channel.LinkStats) {
	info := p.huff.encode(text)
	crc := crc16(info)
	frame := make([]bool, 0, len(info)+16)
	frame = append(frame, info...)
	for b := 15; b >= 0; b-- {
		frame = append(frame, crc&(1<<uint(b)) != 0)
	}

	coded := p.code.EncodeTo(nil, frame)
	symbols := p.mod.ModulateTo(nil, coded)
	received := p.ch.TransmitTo(nil, symbols)
	codedRx := p.mod.DemodulateTo(nil, received)
	if len(codedRx) > len(coded) {
		codedRx = codedRx[:len(coded)]
	}
	frameRx := p.code.DecodeTo(nil, codedRx)
	if len(frameRx) > len(frame) {
		frameRx = frameRx[:len(frame)]
	}
	if len(frameRx) < 16 {
		return "", false, channel.LinkStats{InfoBits: len(frame), CodedBits: len(coded), Symbols: len(symbols)}
	}
	infoRx := frameRx[:len(frameRx)-16]
	var crcRx uint16
	for _, b := range frameRx[len(frameRx)-16:] {
		crcRx <<= 1
		if b {
			crcRx |= 1
		}
	}
	decoded = p.huff.decode(infoRx)
	ok = crc16(infoRx) == crcRx
	stats = channel.LinkStats{InfoBits: len(frame), CodedBits: len(coded), Symbols: len(symbols)}
	return decoded, ok, stats
}

// packBits packs a bit slice into bytes, most significant bit first. The
// final byte is zero-padded.
func packBits(bits []bool) []byte {
	out := make([]byte, (len(bits)+7)/8)
	for i, b := range bits {
		if b {
			out[i/8] |= 1 << (7 - uint(i%8))
		}
	}
	return out
}

// crc16 computes the CRC-16/CCITT-FALSE checksum of the packed form of
// bits: the pipeline's frame-integrity check.
func crc16(bits []bool) uint16 {
	data := packBits(bits)
	crc := uint16(0xFFFF)
	for _, b := range data {
		crc ^= uint16(b) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}
