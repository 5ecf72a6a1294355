package poly

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
)

// Binary layout (all varint = unsigned LEB128 via encoding/binary):
//
//	varint  nCoeffs
//	repeat nCoeffs times:
//	    byte    sign (0 = zero, 1 = positive, 2 = negative)
//	    varint  len(bytes)      (omitted when sign == 0)
//	    bytes   big-endian magnitude
//
// The encoding is canonical: trailing zero coefficients are never written.

// maxCoeffBytes bounds a single coefficient encoding (1 MiB) to keep a
// corrupt or hostile input from driving huge allocations.
const maxCoeffBytes = 1 << 20

// maxMarshalCoeffs bounds the coefficient count accepted by UnmarshalBinary.
const maxMarshalCoeffs = 1 << 24

// MarshalBinary implements encoding.BinaryMarshaler.
func (p Poly) MarshalBinary() ([]byte, error) {
	return p.AppendBinary(make([]byte, 0, 8+len(p.c)*9))
}

// AppendBinary appends the canonical encoding of p to dst.
func (p Poly) AppendBinary(dst []byte) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(p.c)))
	for _, v := range p.c {
		switch v.Sign() {
		case 0:
			dst = append(dst, 0)
			continue
		case 1:
			dst = append(dst, 1)
		case -1:
			dst = append(dst, 2)
		}
		nb := (v.BitLen() + 7) / 8
		dst = binary.AppendUvarint(dst, uint64(nb))
		dst = append(dst, make([]byte, nb)...)
		v.FillBytes(dst[len(dst)-nb:])
	}
	return dst, nil
}

// BinarySize returns len(MarshalBinary()) without allocating — transfer
// accounting on the query hot path must not marshal just to count.
func (p Poly) BinarySize() int {
	n := uvarintLen(uint64(len(p.c)))
	for _, v := range p.c {
		n++ // sign byte
		if v.Sign() != 0 {
			b := (v.BitLen() + 7) / 8
			n += uvarintLen(uint64(b)) + b
		}
	}
	return n
}

// uvarintLen is the encoded length of v as an unsigned LEB128 varint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// UnmarshalBinary decodes a polynomial previously encoded with
// MarshalBinary. It replaces the receiver's contents.
func (p *Poly) UnmarshalBinary(data []byte) error {
	q, rest, err := DecodePoly(data)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return errors.New("poly: trailing bytes after polynomial")
	}
	*p = q
	return nil
}

// DecodePoly decodes one polynomial from the front of data, returning the
// remaining bytes. This is the streaming form used by the wire protocol and
// the on-disk store.
func DecodePoly(data []byte) (Poly, []byte, error) {
	n, k := binary.Uvarint(data)
	if k <= 0 {
		return Poly{}, nil, errors.New("poly: bad coefficient count")
	}
	if n > maxMarshalCoeffs {
		return Poly{}, nil, fmt.Errorf("poly: coefficient count %d exceeds limit", n)
	}
	data = data[k:]
	// Each coefficient needs at least its sign byte: reject impossible
	// counts before allocating (DoS hardening).
	if n > uint64(len(data)) {
		return Poly{}, nil, errors.New("poly: coefficient count exceeds available bytes")
	}
	c := make([]*big.Int, n)
	for i := uint64(0); i < n; i++ {
		if len(data) == 0 {
			return Poly{}, nil, errors.New("poly: truncated coefficient")
		}
		sign := data[0]
		data = data[1:]
		switch sign {
		case 0:
			c[i] = new(big.Int)
		case 1, 2:
			l, k := binary.Uvarint(data)
			if k <= 0 {
				return Poly{}, nil, errors.New("poly: bad coefficient length")
			}
			if l > maxCoeffBytes {
				return Poly{}, nil, fmt.Errorf("poly: coefficient length %d exceeds limit", l)
			}
			data = data[k:]
			if uint64(len(data)) < l {
				return Poly{}, nil, errors.New("poly: truncated coefficient bytes")
			}
			v := new(big.Int).SetBytes(data[:l])
			if sign == 2 {
				v.Neg(v)
			}
			c[i] = v
			data = data[l:]
		default:
			return Poly{}, nil, fmt.Errorf("poly: invalid sign byte %d", sign)
		}
	}
	return Poly{c: c}.trim(), data, nil
}
