package wire

import "encoding/binary"

// Response values travel bit-packed at a width w of 1 to 64 bits: value j
// occupies bits [j·w, (j+1)·w), counted from the least significant bit of
// the first byte, and the bits after the last value are zero.

// packedLen is the byte length of n values packed at w bits.
func packedLen(n, w uint64) uint64 { return (n*w + 7) / 8 }

// bitWriter appends values packed at w bits.
type bitWriter struct {
	dst []byte
	acc uint64 // bits not yet written, lowest first
	n   uint   // how many
	w   uint
}

// put appends v, which must be below 2^w.
func (b *bitWriter) put(v uint64) {
	b.acc |= v << b.n
	b.n += b.w
	if b.n >= 64 {
		b.dst = binary.LittleEndian.AppendUint64(b.dst, b.acc)
		b.n -= 64
		b.acc = v >> (b.w - b.n) // the high bits of v that did not fit; 0 if none
	}
}

// flush writes the bits still held and returns the buffer.
func (b *bitWriter) flush() []byte {
	for i := uint(0); i < b.n; i += 8 {
		b.dst = append(b.dst, byte(b.acc>>i))
	}
	return b.dst
}

// unpack reads len(dst) values packed at w bits from src, which must hold
// exactly packedLen(len(dst), w) bytes. ok=false if a bit after the last
// value is set.
func unpack(dst []uint64, src []byte, w uint) (ok bool) {
	mask := uint64(1)<<w - 1 // all ones at w = 64
	bit := uint(0)
	i := 0
	if w <= 56 && len(src) >= 8 {
		// One unaligned load a value, for the values whose eight bytes from
		// their first lie inside src.
		fast := dst[:min(len(dst), int((uint(len(src))-8)*8/w)+1)]
		for j := range fast {
			off := bit / 8
			fast[j] = binary.LittleEndian.Uint64(src[off:off+8]) >> (bit % 8) & mask
			bit += w
		}
		i = len(fast)
	}
	for ; i < len(dst); i++ {
		off, sh := bit/8, bit%8
		var lo uint64
		for j := uint(0); j < 8 && off+j < uint(len(src)); j++ {
			lo |= uint64(src[off+j]) << (8 * j)
		}
		v := lo >> sh
		if w+sh > 64 {
			v |= uint64(src[off+8]) << (64 - sh)
		}
		dst[i] = v & mask
		bit += w
	}
	if r := bit % 8; r != 0 {
		return src[len(src)-1]>>r == 0
	}
	return true
}
