// Package channel simulates the physical layer of the semantic
// communication workflow: feature quantization, channel coding, modulation
// and noisy channel models. Both the semantic pipeline and the classical
// bit-oriented baseline transmit through this package, so comparisons see
// identical channel conditions.
package channel

// PackBits packs a bit slice into bytes, most significant bit first. The
// final byte is zero-padded.
func PackBits(bits []bool) []byte {
	out := make([]byte, (len(bits)+7)/8)
	for i, b := range bits {
		if b {
			out[i/8] |= 1 << (7 - uint(i%8))
		}
	}
	return out
}

// CRC16 computes the CRC-16/CCITT-FALSE checksum of the packed form of
// bits. The baseline pipeline uses it for frame-integrity detection.
func CRC16(bits []bool) uint16 {
	data := PackBits(bits)
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
