package channel

// TxScratch holds the per-stage buffers of one feature transmission. Every
// Code, Modulation and Channel method appends to the destination it is
// given, so reusing a TxScratch across transmissions (serialized by the
// caller — the buffers are not safe for concurrent use) stops the staged
// channel path allocating: each buffer reaches its high-water mark after
// the first few messages.
type TxScratch struct {
	info, coded, codedRx, infoRx []bool
	symbols, received            []complex128
}
