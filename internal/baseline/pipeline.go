package baseline

import (
	"repro/internal/channel"
)

// Pipeline is the end-to-end traditional transmitter/receiver: Huffman
// source coding, forward error correction, modulation and the physical
// channel. It transmits the exact text, bit by bit.
type Pipeline struct {
	Huff *Huffman
	Code channel.Code
	Mod  channel.Modulation
	Ch   channel.Channel
}

// Send transmits text through the pipeline and returns the decoded text
// with transport statistics. A 16-bit CRC is carried alongside the payload
// so the receiver can flag residual corruption; the returned ok reports
// whether the frame passed the integrity check.
func (p Pipeline) Send(text string) (decoded string, ok bool, stats channel.LinkStats) {
	info := p.Huff.Encode(text)
	crc := channel.CRC16(info)
	frame := make([]bool, 0, len(info)+16)
	frame = append(frame, info...)
	for b := 15; b >= 0; b-- {
		frame = append(frame, crc&(1<<uint(b)) != 0)
	}

	coded := p.Code.EncodeTo(nil, frame)
	symbols := p.Mod.ModulateTo(nil, coded)
	received := p.Ch.TransmitTo(nil, symbols)
	codedRx := p.Mod.DemodulateTo(nil, received)
	if len(codedRx) > len(coded) {
		codedRx = codedRx[:len(coded)]
	}
	frameRx := p.Code.DecodeTo(nil, codedRx)
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
	decoded = p.Huff.Decode(infoRx)
	ok = channel.CRC16(infoRx) == crcRx
	stats = channel.LinkStats{InfoBits: len(frame), CodedBits: len(coded), Symbols: len(symbols)}
	return decoded, ok, stats
}
