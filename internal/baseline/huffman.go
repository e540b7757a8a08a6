// Package baseline implements the traditional bit-oriented communication
// pipeline the paper contrasts semantic communication against: Huffman
// source coding of the raw text, channel coding, modulation and
// transmission of every bit. Meaning plays no role; fidelity is exact bit
// recovery, and errors surviving the channel code corrupt the decoded text
// from the flip onward.
package baseline

import (
	"container/heap"
	"sort"
)

// Huffman is a byte-level Huffman coder with a static code table trained
// on representative corpus text.
type Huffman struct {
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

// Train builds a Huffman coder from sample text. Lowercase letters, digits
// and the space character receive add-one smoothing so any corpus sentence
// is encodable even if a byte never occurred in the samples.
func Train(samples []string) *Huffman {
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

	h := &Huffman{}
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
func (h *Huffman) buildCodes(n *hnode, prefix []bool) {
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

// Encode converts text to its Huffman bit stream. Bytes without a code
// (never seen and outside the smoothed set) are silently skipped; corpus
// text never contains such bytes.
func (h *Huffman) Encode(s string) []bool {
	out := make([]bool, 0, 6*len(s))
	for i := 0; i < len(s); i++ {
		out = append(out, h.codes[s[i]]...)
	}
	return out
}

// Decode converts a bit stream back to text by walking the code tree. A
// bit error desynchronizes the walk and corrupts the remainder — the
// characteristic cliff of bit-oriented transmission. Decoding stops at the
// end of the stream; a partial code at the tail is dropped.
func (h *Huffman) Decode(bits []bool) string {
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
