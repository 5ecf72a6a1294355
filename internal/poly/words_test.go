package poly

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// checkDecodeWords pins DecodeWords to the reference decoder on one input:
// it must accept exactly when DecodePoly accepts AND Uint64Coeffs then
// succeeds, and agree on coefficients and remaining bytes.
func checkDecodeWords(t *testing.T, data []byte) {
	t.Helper()
	w, rest, ok := DecodeWords(data)
	p, refRest, err := DecodePoly(data)
	var ref []uint64
	refOK := err == nil
	if refOK {
		ref, refOK = p.Uint64Coeffs([]uint64{})
	}
	if ok != refOK {
		t.Fatalf("DecodeWords ok=%v, reference ok=%v (err %v) on %x", ok, refOK, err, data)
	}
	if !ok {
		return
	}
	if w == nil {
		t.Fatalf("accepted input %x decoded to a nil vector", data)
	}
	if len(w) != len(ref) {
		t.Fatalf("decoded %d words, reference %d, on %x", len(w), len(ref), data)
	}
	for i := range w {
		if w[i] != ref[i] {
			t.Fatalf("word %d = %d, reference %d, on %x", i, w[i], ref[i], data)
		}
	}
	if !bytes.Equal(rest, refRest) {
		t.Fatalf("rest %x, reference %x, on %x", rest, refRest, data)
	}
	// What was accepted re-encodes canonically, as the reference would.
	want, _ := p.MarshalBinary()
	if got := AppendWords(nil, w); !bytes.Equal(got, want) {
		t.Fatalf("re-encoding %x, reference %x", got, want)
	}
}

// wordCases are coefficient vectors covering every magnitude length, zeros
// inside and at the end, and the empty polynomial.
func wordCases() [][]uint64 {
	cases := [][]uint64{
		nil,
		{},
		{0},
		{0, 0, 0},
		{1},
		{0, 0, 5},
		{7, 0, 0},
		{255, 256, 65535, 65536, 1 << 24, 1 << 32, 1 << 40, 1 << 48, 1 << 56, math.MaxUint64},
		{math.MaxUint64, 0, 1<<62 - 57, 0},
	}
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 40; i++ {
		v := make([]uint64, rng.Intn(300))
		for j := range v {
			switch rng.Intn(4) {
			case 0: // stays zero
			case 1:
				v[j] = uint64(rng.Intn(257))
			default:
				v[j] = rng.Uint64() >> uint(rng.Intn(64))
			}
		}
		cases = append(cases, v)
	}
	return cases
}

// TestAppendWordsMatchesBigIntMarshal: the word codec writes the bytes of
// the big.Int marshaler, trailing zeros and the empty polynomial included,
// and WordsSize counts them.
func TestAppendWordsMatchesBigIntMarshal(t *testing.T) {
	for _, w := range wordCases() {
		want, err := NewUint64(w).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		prefix := []byte{0xAB, 0xCD}
		got := AppendWords(append([]byte(nil), prefix...), w)
		if !bytes.Equal(got[:2], prefix) || !bytes.Equal(got[2:], want) {
			t.Fatalf("AppendWords(%v) = %x, want %x", w, got[2:], want)
		}
		if n := WordsSize(w); n != len(want) {
			t.Fatalf("WordsSize(%v) = %d, encoding has %d bytes", w, n, len(want))
		}
		appended, err := NewUint64(w).AppendBinary(append([]byte(nil), prefix...))
		if err != nil || !bytes.Equal(appended, got) {
			t.Fatalf("Poly.AppendBinary = %x (%v), want %x", appended, err, got)
		}
	}
}

// TestDecodeWordsRoundTrip: encoded word vectors decode back (trimmed),
// leaving the bytes that follow untouched.
func TestDecodeWordsRoundTrip(t *testing.T) {
	for _, w := range wordCases() {
		data := append(AppendWords(nil, w), 0xEE, 0xFF)
		got, rest, ok := DecodeWords(data)
		if !ok || !bytes.Equal(rest, []byte{0xEE, 0xFF}) {
			t.Fatalf("DecodeWords(%v): ok=%v rest=%x", w, ok, rest)
		}
		want := trimWords(w)
		if len(got) != len(want) {
			t.Fatalf("decoded %d words, want %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("word %d = %d, want %d", i, got[i], want[i])
			}
		}
		checkDecodeWords(t, data)
	}
}

// hostileWordInputs are encodings DecodeWords must hand to the big.Int
// decoder — or accept exactly as it does.
func hostileWordInputs() [][]byte {
	neg, _ := FromInt64(3, -4, 5).MarshalBinary()
	wide, _ := New(big.NewInt(1), new(big.Int).Lsh(big.NewInt(1), 64)).MarshalBinary()
	huge, _ := New(new(big.Int).Lsh(big.NewInt(1), 500)).MarshalBinary()
	return [][]byte{
		neg, wide, huge,
		{},                                   // no count
		{0x80},                               // unterminated count varint
		{3, 0, 0},                            // count exceeds available bytes
		{1},                                  // truncated: missing sign byte
		{1, 1},                               // missing length
		{1, 1, 2, 0xFF},                      // truncated magnitude
		{1, 3, 1, 5},                         // invalid sign byte
		{1, 1, 0},                            // positive sign, empty magnitude: zero
		{2, 1, 1, 9, 1, 0},                   // non-canonical trailing zero coefficient
		{1, 1, 9, 0, 0, 0, 0, 0, 0, 0, 0, 7}, // nine magnitude bytes, leading zero: fits a word
		{1, 1, 9, 1, 0, 0, 0, 0, 0, 0, 0, 0}, // nine significant bytes: does not
		{1, 1, 2, 0, 7, 0xAA},                // leading zero byte, trailing data
		binary.AppendUvarint(nil, maxMarshalCoeffs+1),
		append(binary.AppendUvarint([]byte{1, 1}, maxCoeffBytes+1), 1),
	}
}

func TestDecodeWordsAgreesOnHostileInputs(t *testing.T) {
	for _, data := range hostileWordInputs() {
		checkDecodeWords(t, data)
	}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 2000; i++ {
		data := make([]byte, rng.Intn(24))
		for j := range data {
			data[j] = byte(rng.Intn(4)) // small values: counts, signs and lengths that parse
		}
		checkDecodeWords(t, data)
	}
}

// FuzzDecodeWords: on any input, DecodeWords accepts exactly what
// DecodePoly followed by Uint64Coeffs accepts, and agrees with it.
func FuzzDecodeWords(f *testing.F) {
	for _, w := range wordCases()[:12] {
		f.Add(AppendWords(nil, w))
	}
	for _, data := range hostileWordInputs() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeWords(t, data)
	})
}
