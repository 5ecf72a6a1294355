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
	checkWordSlab(t, data)
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

// checkWordSlab pins the slab decoder to DecodeWords on one input, decoded
// after a polynomial that dirtied the slab: the same verdict, words and
// rest, a vector its neighbours cannot be reached from, and nothing taken
// for a refused input.
func checkWordSlab(t *testing.T, data []byte) {
	t.Helper()
	var slab WordSlab
	first, _, ok := slab.Decode([]byte{3, 1, 1, 9, 1, 1, 8, 1, 1, 7, 0xCC, 0xCC, 0xCC, 0xCC, 0xCC, 0xCC, 0xCC, 0xCC, 0xCC, 0xCC, 0xCC, 0xCC})
	if !ok || len(first) != 3 {
		t.Fatalf("slab refused the priming polynomial: %v %v", first, ok)
	}
	before := len(slab.free)
	w, rest, ok := slab.Decode(data)
	ref, refRest, refOK := DecodeWords(data)
	if ok != refOK {
		t.Fatalf("slab ok=%v, DecodeWords ok=%v on %x", ok, refOK, data)
	}
	if !ok {
		if len(slab.free) != before {
			t.Fatalf("refused input %x took %d words from the slab", data, before-len(slab.free))
		}
		return
	}
	if w == nil || len(w) != len(ref) || !bytes.Equal(rest, refRest) {
		t.Fatalf("slab decoded %v rest %x, DecodeWords %v rest %x, on %x", w, rest, ref, refRest, data)
	}
	for i := range w {
		if w[i] != ref[i] {
			t.Fatalf("slab word %d = %d, DecodeWords %d, on %x", i, w[i], ref[i], data)
		}
	}
	_ = append(w, 0xDEAD) // must reallocate, not write into the slab
	if first[0] != 9 || first[1] != 8 || first[2] != 7 {
		t.Fatalf("decoding %x overwrote the polynomial before it: %v", data, first)
	}
	next, _, ok := slab.Decode([]byte{1, 1, 1, 6})
	if !ok || len(next) != 1 || next[0] != 6 {
		t.Fatalf("slab decode after %x: %v %v", data, next, ok)
	}
	for i := range w {
		if w[i] != ref[i] {
			t.Fatalf("appending to and decoding after %x changed word %d", data, i)
		}
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
		// The straight-line path's own edges: one- and two-byte magnitudes
		// that are zero or carry a leading zero, at the very end of the
		// input (under four bytes left) and not, a two-byte length varint
		// spelling one, and a negative sign over a zero magnitude.
		{1, 1, 1, 0},                     // positive sign over the magnitude 00: zero
		{1, 1, 1, 7},                     // the last coefficient has only three bytes left
		{2, 1, 1, 7, 1, 1, 9},            // … and the one before it has more
		{1, 1, 2, 0, 0},                  // two zero magnitude bytes
		{2, 1, 2, 0, 7, 1, 2, 1, 0},      // 7 with a leading zero, then 256
		{1, 1, 2, 1},                     // two-byte magnitude cut after one
		{1, 1, 0x81, 0x00, 5},            // length 1 as an over-long varint
		{1, 2, 1, 0},                     // negative sign, magnitude 00: zero
		{1, 2, 0},                        // negative sign, empty magnitude: zero
		{2, 1, 1, 4, 2, 2, 0, 0, 0xBB},   // … after a coefficient, before trailing data
		{1, 2, 1, 1},                     // −1
		{3, 1, 1, 5, 0, 1, 1, 6},         // a zero between two fast-path coefficients
		binary.AppendUvarint(nil, 1<<20), // a count and nothing else
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

// TestDecodeWordsTruncatedPrefixes: every proper prefix of a valid encoding
// is refused or decodes as DecodePoly decodes it — never a panic, never a
// polynomial the reference does not see.
func TestDecodeWordsTruncatedPrefixes(t *testing.T) {
	for _, w := range wordCases() {
		data := AppendWords(nil, w)
		for cut := 0; cut < len(data); cut++ {
			checkDecodeWords(t, data[:cut])
		}
	}
}

// TestDecodeWordsHostileCountAllocatesNothing: a coefficient count larger
// than the bytes that follow is refused before any vector is made, by
// DecodeWords and by the slab, and a slab never holds more words than the
// message has bytes.
func TestDecodeWordsHostileCountAllocatesNothing(t *testing.T) {
	hostile := append(binary.AppendUvarint(nil, 1<<20), bytes.Repeat([]byte{0}, 1000)...)
	if n := testing.AllocsPerRun(50, func() {
		var slab WordSlab
		if _, _, ok := DecodeWords(hostile); ok {
			t.Fatal("DecodeWords accepted a count past the input")
		}
		if _, _, ok := slab.Decode(hostile); ok {
			t.Fatal("WordSlab accepted a count past the input")
		}
	}); n != 0 {
		t.Fatalf("refusing a hostile count allocated %v times", n)
	}
	// The honest extreme: a message of nothing but zero coefficients, one
	// byte each. The slab grows to them and no further.
	zeros := append(binary.AppendUvarint(nil, 1000), bytes.Repeat([]byte{0}, 1000)...)
	var slab WordSlab
	if w, _, ok := slab.Decode(zeros); !ok || len(w) != 0 {
		t.Fatalf("all-zero polynomial decoded to %v, %v", w, ok)
	}
	if got := cap(slab.free) + 1000; got > len(zeros) {
		t.Fatalf("slab holds %d words for a %d-byte message", got, len(zeros))
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
	// Cut inside a one-byte, a two-byte and a wide coefficient.
	cut := AppendWords(nil, []uint64{200, 256, 1 << 40, 3})
	for _, n := range []int{2, 3, 5, 7, 9, len(cut) - 1} {
		f.Add(cut[:n])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeWords(t, data)
	})
}
