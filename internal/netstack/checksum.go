package netstack

// Internet checksum arithmetic per RFC 1071, with the incremental-update
// rule from RFC 1624. The forwarding fast path uses the incremental form
// when decrementing TTL, exactly as production routers do; tests verify
// it against full recomputation.

import (
	"encoding/binary"
	"math/bits"
)

// Checksum computes the 16-bit one's-complement of the one's-complement
// sum of b, with the standard odd-length zero-pad.
func Checksum(b []byte) uint16 {
	return ^foldChecksum(sumBytes(0, b))
}

// sumBytes adds b to a running 32-bit partial one's-complement sum.
//
// It adds eight bytes at a time: native little-endian 64-bit words,
// summed with end-around carry, then folded to 16 bits and byte-swapped
// back to network order. RFC 1071 §2(B) shows the one's-complement sum
// does not depend on byte order, so the result is congruent mod 0xffff
// to the big-endian pairwise sum, and zero exactly when that sum is; an
// odd trailing byte is zero-padded on the right as before.
func sumBytes(sum uint32, b []byte) uint32 {
	var acc, c uint64
	for len(b) >= 32 {
		acc, c = bits.Add64(acc, binary.LittleEndian.Uint64(b[0:8]), c)
		acc, c = bits.Add64(acc, binary.LittleEndian.Uint64(b[8:16]), c)
		acc, c = bits.Add64(acc, binary.LittleEndian.Uint64(b[16:24]), c)
		acc, c = bits.Add64(acc, binary.LittleEndian.Uint64(b[24:32]), c)
		b = b[32:]
	}
	for len(b) >= 8 {
		acc, c = bits.Add64(acc, binary.LittleEndian.Uint64(b), c)
		b = b[8:]
	}
	// The tail pieces start at even offsets, so they keep each byte's
	// lane (high or low half of a 16-bit word) the 64-bit loads give it.
	if len(b) >= 4 {
		acc, c = bits.Add64(acc, uint64(binary.LittleEndian.Uint32(b)), c)
		b = b[4:]
	}
	if len(b) >= 2 {
		acc, c = bits.Add64(acc, uint64(binary.LittleEndian.Uint16(b)), c)
		b = b[2:]
	}
	if len(b) > 0 {
		acc, c = bits.Add64(acc, uint64(b[0]), c)
	}
	acc += c // cannot wrap: an Add64 that carries out leaves acc ≤ 2⁶⁴-2
	s := acc>>32 + acc&0xffffffff
	s = s>>16 + s&0xffff
	s = s>>16 + s&0xffff
	s = s>>16 + s&0xffff
	return sum + uint32(bits.ReverseBytes16(uint16(s)))
}

// foldChecksum reduces a 32-bit partial sum to 16 bits.
func foldChecksum(sum uint32) uint16 {
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return uint16(sum)
}

// ChecksumUpdate16 returns the checksum after a 16-bit field covered by
// it changes from old to new, using the RFC 1624 Eqn. 3 formulation:
//
//	HC' = ~(~HC + ~m + m')
//
// which is safe for all inputs (unlike the RFC 1141 form).
func ChecksumUpdate16(check, old, new uint16) uint16 {
	sum := uint32(^check&0xffff) + uint32(^old&0xffff) + uint32(new)
	return ^foldChecksum(sum)
}
