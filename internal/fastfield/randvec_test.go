package fastfield

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/big"
	"math/bits"
	"testing"

	"sssearch/internal/drbg"
)

// untouched marks the slots of dst a sampler has not written.
const untouched = ^uint64(0)

// refRandVec is the sampler written from its definition on math/big, one
// read per sample: w = 8·⌈bitlen(p)/8⌉ bits big-endian, accepted below
// p·⌊2^w/p⌋, reduced mod p. It fills dst in order and stops at the first
// failed read.
func refRandVec(p uint64, r io.Reader, dst []uint64) error {
	bp := new(big.Int).SetUint64(p)
	buf := make([]byte, (bp.BitLen()+7)/8)
	span := new(big.Int).Lsh(big.NewInt(1), uint(8*len(buf)))
	limit := new(big.Int).Div(span, bp)
	limit.Mul(limit, bp)
	for i := 0; i < len(dst); {
		if _, err := io.ReadFull(r, buf); err != nil {
			return err
		}
		v := new(big.Int).SetBytes(buf)
		if v.Cmp(limit) < 0 {
			dst[i] = v.Mod(v, bp).Uint64()
			i++
		}
	}
	return nil
}

// shortStream reports the class of error a stream that ends early gives:
// the bulk sampler sees the end inside one large read, the reference at a
// sample boundary, so io.ErrUnexpectedEOF and io.EOF are the same failure.
func shortStream(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

// checkRandVec runs RandVec and the reference over the same bytes and
// requires the same vector or the same failure, with dst filled from the
// complete samples before the failure and untouched past it.
func checkRandVec(t *testing.T, p uint64, data []byte, n int) {
	t.Helper()
	f, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	got, want := make([]uint64, n), make([]uint64, n)
	for i := range got {
		got[i], want[i] = untouched, untouched
	}
	gotErr := f.RandVec(bytes.NewReader(data), got)
	wantErr := refRandVec(p, bytes.NewReader(data), want)
	if (gotErr == nil) != (wantErr == nil) || shortStream(gotErr) != shortStream(wantErr) {
		t.Fatalf("p=%d n=%d stream %x: RandVec error %v, reference %v", p, n, data, gotErr, wantErr)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("p=%d n=%d stream %x: element %d is %d, reference %d (error %v)", p, n, data, i, got[i], want[i], gotErr)
		}
		if got[i] >= p && got[i] != untouched {
			t.Fatalf("p=%d: element %d = %d is out of range", p, i, got[i])
		}
	}
}

// TestRandVecExhaustivePreimages puts every w-bit input through RandVec
// and requires what the uniformity of a pad rests on: every residue has
// exactly ⌊2^w/p⌋ accepted preimages, each accepted v yields v mod p, and
// nothing at or above p·⌊2^w/p⌋ is accepted. Proven, not sampled: moving
// the limit or the reduction by one fails it.
func TestRandVecExhaustivePreimages(t *testing.T) {
	for _, p := range []uint64{97, 257, 769, 12289, 65537} {
		f, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		sb := (bits.Len64(p) + 7) / 8
		span := uint64(1) << (8 * sb)
		quot := span / p
		limit := quot * p
		preimages := make([]uint64, p)
		// Chunks of consecutive inputs, each a stream that ends after its
		// last sample: the accepted ones land in dst in order, the stream
		// then runs dry unless every input of the chunk was accepted.
		chunk := uint64(1) << 12
		if chunk > span {
			chunk = span
		}
		stream := make([]byte, 0, chunk*uint64(sb))
		dst := make([]uint64, chunk)
		for base := uint64(0); base < span; base += chunk {
			stream = stream[:0]
			for v := base; v < base+chunk; v++ {
				for s := sb - 1; s >= 0; s-- {
					stream = append(stream, byte(v>>(8*s)))
				}
			}
			for i := range dst {
				dst[i] = untouched
			}
			err := f.RandVec(bytes.NewReader(stream), dst)
			i := 0
			for v := base; v < base+chunk; v++ {
				if v >= limit {
					continue
				}
				if dst[i] != v%p {
					t.Fatalf("p=%d: input %d gave %d, want %d", p, v, dst[i], v%p)
				}
				preimages[dst[i]]++
				i++
			}
			if i < len(dst) && (dst[i] != untouched || !shortStream(err)) {
				t.Fatalf("p=%d: an input at or above the limit %d was accepted in [%d, %d) (slot %d = %d, error %v)", p, limit, base, base+chunk, i, dst[i], err)
			}
			if i == len(dst) && err != nil {
				t.Fatalf("p=%d: inputs [%d, %d) are all below the limit %d: %v", p, base, base+chunk, limit, err)
			}
		}
		for r, c := range preimages {
			if c != quot {
				t.Fatalf("p=%d: residue %d has %d accepted preimages among %d inputs, want exactly %d", p, r, c, span, quot)
			}
		}
	}
}

// TestRandVecWideLimit: above 56 bits a sample is a whole word and the
// limit p·⌊2^64/p⌋ comes from a 128-by-64 division. The inputs around it
// are pinned one by one, then a share stream is bucketed for a chi-square
// look at the distribution nothing can enumerate.
func TestRandVecWideLimit(t *testing.T) {
	for _, p := range []uint64{4611686018427387847, 1<<61 - 1} {
		f, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		quot, _ := bits.Div64(1, 0, p)
		limit := quot * p
		var stream []byte
		put := func(v uint64) {
			stream = append(stream, byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32), byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
		}
		// Rejected: the limit itself and everything above. Accepted: the
		// value just below it, and multiples of p reduce to zero.
		for _, v := range []uint64{limit, ^uint64(0), limit - 1, limit + 1, 0, p, p - 1, (quot-1)*p + 5, limit} {
			put(v)
		}
		want := []uint64{p - 1, 0, 0, p - 1, 5}
		got := make([]uint64, len(want)+1)
		got[len(want)] = untouched
		if err := f.RandVec(bytes.NewReader(stream), got); !shortStream(err) {
			t.Fatalf("p=%d: a stream that ends on a rejected sample: %v", p, err)
		}
		for i, w := range append(want, untouched) {
			if got[i] != w {
				t.Fatalf("p=%d limit=%d: element %d is %d, want %d", p, limit, i, got[i], w)
			}
		}

		const buckets, n = 64, 1 << 16
		g := drbg.NewDeriver(drbg.Seed(sha256.Sum256([]byte("chi"))), fmt.Sprint(p)).ForNode(nil)
		vec := make([]uint64, n)
		if err := f.RandVec(g, vec); err != nil {
			t.Fatal(err)
		}
		var count [buckets]float64
		for _, v := range vec {
			if v >= p {
				t.Fatalf("p=%d: %d out of range", p, v)
			}
			b, _ := bits.Div64(v>>58, v<<6, p) // ⌊v·64/p⌋, v < p
			count[b]++
		}
		chi := 0.0
		for _, c := range count {
			d := c - n/buckets
			chi += d * d / (n / buckets)
		}
		// 63 degrees of freedom: mean 63, standard deviation 11.2; the
		// stream is deterministic, so this is a fixed number, not a flake.
		if chi > 120 {
			t.Fatalf("p=%d: chi-square %.1f over %d buckets", p, chi, buckets)
		}
	}
}

// FuzzRandVec holds RandVec to the from-definition sampler on arbitrary
// byte streams, including ones that end inside a sample or inside the
// refill after a rejection.
func FuzzRandVec(f *testing.F) {
	primes := []uint64{97, 257, 769, 12289, 65537, 5, 251, 1<<61 - 1, 4611686018427387847, 1<<56 - 5}
	f.Add(uint8(1), uint8(2), []byte{0xff, 0xff, 0x00, 0x01})             // rejection, then the refill finds nothing
	f.Add(uint8(1), uint8(2), []byte{0xff, 0xff, 0x00, 0x01, 0x02})       // the refill ends inside its sample
	f.Add(uint8(1), uint8(2), []byte{0xff, 0xff, 0x00, 0x01, 0xff, 0xfe}) // refill accepted: 65534 mod 257
	f.Add(uint8(1), uint8(3), []byte{0x01, 0x01, 0x02})                   // the bulk read ends inside a sample
	f.Add(uint8(0), uint8(4), []byte{96, 97, 193, 194, 255, 0})           // one-byte samples around multiples of 97
	f.Add(uint8(4), uint8(2), []byte{0xff, 0xff, 0xff, 0, 0, 1, 1, 0, 1}) // three-byte samples
	f.Add(uint8(7), uint8(1), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xf8, 0, 0, 0, 0, 0, 0, 0, 9})
	f.Add(uint8(8), uint8(0), []byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, pSel, n uint8, data []byte) {
		checkRandVec(t, primes[int(pSel)%len(primes)], data, int(n%65))
	})
}
