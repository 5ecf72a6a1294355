package poly

import (
	"encoding/binary"
	"math/bits"
)

// The word codec reads and writes the binary layout of marshal.go straight
// from and to []uint64 coefficient vectors (ascending degree), so the
// word-sized data plane — store files, fetch responses — never boxes a
// coefficient into a big.Int. The bytes are those of
// NewUint64(w).MarshalBinary() exactly.

// trimWords drops trailing zero coefficients (the canonical form).
func trimWords(w []uint64) []uint64 {
	n := len(w)
	for n > 0 && w[n-1] == 0 {
		n--
	}
	return w[:n]
}

// wordBytes is the length of v's minimal big-endian magnitude.
func wordBytes(v uint64) int { return (bits.Len64(v) + 7) / 8 }

// AppendWords appends the canonical encoding of the polynomial with
// coefficients w to dst. Trailing zero coefficients are not written.
func AppendWords(dst []byte, w []uint64) []byte {
	w = trimWords(w)
	dst = binary.AppendUvarint(dst, uint64(len(w)))
	for _, v := range w {
		if v == 0 {
			dst = append(dst, 0)
			continue
		}
		nb := wordBytes(v)
		dst = append(dst, 1, byte(nb))
		for s := (nb - 1) * 8; s >= 0; s -= 8 {
			dst = append(dst, byte(v>>uint(s)))
		}
	}
	return dst
}

// WordsSize returns len(AppendWords(nil, w)) without encoding.
func WordsSize(w []uint64) int {
	w = trimWords(w)
	n := uvarintLen(uint64(len(w)))
	for _, v := range w {
		n++ // sign byte
		if v != 0 {
			n += 1 + wordBytes(v)
		}
	}
	return n
}

// DecodeWords decodes one polynomial from the front of data into machine
// words, returning the remaining bytes. It accepts exactly the inputs
// DecodePoly accepts whose coefficients are all non-negative and fit a
// word, and yields what Uint64Coeffs would yield on that polynomial
// (trailing zeros trimmed; non-nil even when empty). ok=false — a negative
// or wider coefficient, or malformed input — sends the caller to
// DecodePoly, which decodes the general form or reports the error.
func DecodeWords(data []byte) (w []uint64, rest []byte, ok bool) {
	n, k := binary.Uvarint(data)
	if k <= 0 || n > maxMarshalCoeffs {
		return nil, nil, false
	}
	data = data[k:]
	if n > uint64(len(data)) {
		return nil, nil, false
	}
	w = make([]uint64, n)
	for i := range w {
		if len(data) == 0 {
			return nil, nil, false
		}
		sign := data[0]
		data = data[1:]
		if sign == 0 {
			continue
		}
		if sign != 1 && sign != 2 {
			return nil, nil, false
		}
		l, k := binary.Uvarint(data)
		if k <= 0 || l > maxCoeffBytes || uint64(len(data)-k) < l {
			return nil, nil, false
		}
		mag := data[k : k+int(l)]
		data = data[k+int(l):]
		for len(mag) > 0 && mag[0] == 0 {
			mag = mag[1:]
		}
		// A negative sign over a zero magnitude is still zero.
		if len(mag) > 8 || (sign == 2 && len(mag) > 0) {
			return nil, nil, false
		}
		var v uint64
		for _, b := range mag {
			v = v<<8 | uint64(b)
		}
		w[i] = v
	}
	return trimWords(w), data, true
}
