package poly

import (
	"encoding/binary"
	"math/bits"
	"slices"
)

// The word codec reads and writes the binary layout of marshal.go straight
// from and to []uint64 coefficient vectors (ascending degree), so the
// word-sized data plane — store files, fetch responses — never boxes a
// coefficient into a big.Int. The bytes are those of
// NewUint64(w).MarshalBinary() exactly, and Poly.MarshalBinary / DecodePoly
// stay the reference both directions are tested against. Both directions
// run one pass with no per-coefficient allocation or append: the encoder
// sizes its output once and writes by index, the decoder fills a vector it
// was handed.

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
	return AppendWordList(dst, trimWords(w))
}

// AppendWordList appends the count of w and every word of it, trailing
// zeros included, in that layout: a list of scalars (the values of an
// evaluation answer) where AppendWords writes a polynomial.
func AppendWordList(dst []byte, w []uint64) []byte {
	// Sized once — and not at all inside a buffer its caller already sized,
	// where even ten bytes a coefficient would fit.
	if cap(dst)-len(dst) < binary.MaxVarintLen64*(1+len(w)) {
		dst = slices.Grow(dst, WordListSize(w))
	}
	dst = binary.AppendUvarint(dst, uint64(len(w)))
	b := dst[len(dst):cap(dst)]
	k := 0
	for _, v := range w {
		switch {
		case v == 0:
			b[k] = 0
			k++
		case v < 1<<8: // every coefficient but one of F_257
			b[k+2] = byte(v)
			b[k], b[k+1] = 1, 1
			k += 3
		case v < 1<<16:
			b[k+3] = byte(v)
			b[k], b[k+1], b[k+2] = 1, 2, byte(v>>8)
			k += 4
		default:
			nb := wordBytes(v)
			b[k], b[k+1] = 1, byte(nb)
			k += 2
			for s := (nb - 1) * 8; s >= 0; s -= 8 {
				b[k] = byte(v >> uint(s))
				k++
			}
		}
	}
	return dst[:len(dst)+k]
}

// WordsSize returns len(AppendWords(nil, w)) without encoding.
func WordsSize(w []uint64) int { return WordListSize(trimWords(w)) }

// WordListSize returns len(AppendWordList(nil, w)) without encoding.
func WordListSize(w []uint64) int {
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
	n, body, ok := wordsHeader(data, maxMarshalCoeffs)
	if !ok {
		return nil, nil, false
	}
	w = make([]uint64, n)
	if rest, ok = decodeCoeffs(w, body); !ok {
		return nil, nil, false
	}
	return trimWords(w), rest, true
}

// WordSlab decodes the polynomials of one message into shared backing
// arrays instead of one allocation each. The vectors it returns are
// capacity-clipped views of those arrays, which live as long as any of
// them does — right for a response whose polynomials are used and dropped
// together, wrong for a store whose nodes are kept one by one. The zero
// value is ready.
type WordSlab struct {
	free []uint64
}

// Decode is DecodeWords into the slab. A refused polynomial takes nothing
// from it.
func (s *WordSlab) Decode(data []byte) (w []uint64, rest []byte, ok bool) {
	if w, rest, ok = s.DecodeList(data, maxMarshalCoeffs); ok {
		w = trimWords(w)
	}
	return w, rest, ok
}

// Reserve makes room for n more words, for a caller that knows what its
// message holds better than Decode's own estimate. n must not exceed the
// bytes still to decode, so that a count read off the wire allocates
// nothing the message could not fill.
func (s *WordSlab) Reserve(n int) {
	if n > len(s.free) {
		s.free = make([]uint64, n)
	}
}

// DecodeList decodes what AppendWordList wrote — a list of at most maxLen
// words, every one kept — into the slab. ok=false as for DecodeWords; a
// refused list takes nothing from the slab.
func (s *WordSlab) DecodeList(data []byte, maxLen uint64) (w []uint64, rest []byte, ok bool) {
	n, body, ok := wordsHeader(data, maxLen)
	if !ok {
		return nil, nil, false
	}
	free := s.free
	if n > len(free) || free == nil {
		// Room for this polynomial and, at the three bytes a non-zero
		// coefficient takes at least, for what the rest of the message can
		// still hold. n ≤ len(body): never more words than bytes present.
		free = make([]uint64, max(n, len(body)/3))
	}
	w = free[:n:n]
	if rest, ok = decodeCoeffs(w, body); !ok {
		return nil, nil, false
	}
	s.free = free[n:]
	return w, rest, true
}

// wordsHeader reads the coefficient count in front of a polynomial,
// refusing one over maxLen or that the remaining bytes cannot hold (each
// coefficient needs at least its sign byte), so no caller allocates beyond
// the bytes present.
func wordsHeader(data []byte, maxLen uint64) (n int, body []byte, ok bool) {
	c, k := binary.Uvarint(data)
	if k <= 0 || c > maxLen || c > uint64(len(data)-k) {
		return 0, nil, false
	}
	return int(c), data[k:], true
}

// decodeCoeffs decodes len(w) coefficients from the front of data into w,
// writing every slot.
func decodeCoeffs(w []uint64, data []byte) (rest []byte, ok bool) {
	for i := range w {
		// Straight line for a positive coefficient of one or two magnitude
		// bytes — all a word ring up to 2^16 writes. A leading zero byte
		// needs no care here: it does not change the value.
		if len(data) >= 4 && data[0] == 1 {
			if data[1] == 1 {
				w[i] = uint64(data[2])
				data = data[3:]
				continue
			}
			if data[1] == 2 {
				w[i] = uint64(data[2])<<8 | uint64(data[3])
				data = data[4:]
				continue
			}
		}
		if len(data) == 0 {
			return nil, false
		}
		sign := data[0]
		data = data[1:]
		if sign == 0 {
			w[i] = 0
			continue
		}
		if sign != 1 && sign != 2 {
			return nil, false
		}
		l, k := binary.Uvarint(data)
		if k <= 0 || l > maxCoeffBytes || uint64(len(data)-k) < l {
			return nil, false
		}
		mag := data[k : k+int(l)]
		data = data[k+int(l):]
		for len(mag) > 0 && mag[0] == 0 {
			mag = mag[1:]
		}
		// A negative sign over a zero magnitude is still zero.
		if len(mag) > 8 || (sign == 2 && len(mag) > 0) {
			return nil, false
		}
		var v uint64
		for _, b := range mag {
			v = v<<8 | uint64(b)
		}
		w[i] = v
	}
	return data, true
}
