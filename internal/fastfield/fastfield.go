// Package fastfield is the word-sized fast-path arithmetic engine for
// prime fields whose modulus fits in a single machine word.
//
// The scheme's F_p arithmetic — the value-form encode's pointwise
// products, the pad sampler, the Lagrange combine, the client's sums and
// the coefficient form the reference paths use — reduces to scalar
// arithmetic mod a prime p that, for every deployable parameter set, fits
// comfortably in 62 bits. This package does that arithmetic on plain
// uint64 values with Montgomery reduction built on bits.Mul64, avoiding
// the per-operation allocations of math/big entirely:
//
//   - Elem is a canonical field element in [0, p), represented as uint64.
//   - Mul/Add/Sub/Neg/Inv/Exp are single-word operations; Mul uses
//     bits.Div64 in the plain domain, MRed/MForm expose the Montgomery
//     domain for chained multiplications.
//   - Packed coefficient vectors ([]uint64, ascending degree) carry whole
//     polynomials; EvalMany runs one allocation-free multi-point Horner
//     pass over a polynomial, serving all active query points at once.
//   - RandVec draws a uniform vector from an io.Reader with the same
//     accept-and-reduce sampling as field.(*Field).Rand, but reading the
//     stream in bulk.
//
// Callers fall back to the math/big path (package field / poly) whenever
// the modulus exceeds MaxModulusBits or the ring is not a prime field
// (ring.IntQuotient coefficients are unbounded integers). New(p) reports
// such moduli as unsupported; the packages ring, sharing and server gate
// on that and keep the exact pre-existing big.Int behavior.
//
// The Montgomery constants and reduction shape follow the widely used
// single-word design (cf. Lattigo's ring package): R = 2^64,
// MRed(a, b·R) = a·b mod p with one Mul64 by the precomputed p^{-1} mod
// 2^64 and a conditional subtraction. Correctness against math/big is
// enforced by the differential tests and the fuzz target in this package.
package fastfield

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"
	"math/bits"
)

// MaxModulusBits is the largest modulus bit length the fast path accepts.
// 62 bits leaves headroom so a Montgomery-reduced product plus one
// canonical summand stays below 2^63 without intermediate reductions.
const MaxModulusBits = 62

// ErrUnsupportedModulus reports a modulus the fast path cannot carry.
var ErrUnsupportedModulus = errors.New("fastfield: modulus not supported by the word-sized fast path")

// Field holds the precomputed constants for F_p arithmetic on uint64
// words. Immutable after New; safe for concurrent use.
type Field struct {
	p    uint64 // the modulus (odd prime, <= MaxModulusBits bits)
	pInv uint64 // p^{-1} mod 2^64, for Montgomery reduction
	r2   uint64 // (2^64)^2 mod p, converts into the Montgomery domain
	one  uint64 // 2^64 mod p: the Montgomery form of 1

	// Sampling shape, mirroring field.(*Field).Rand: draw w = 8·sampleBytes
	// bits big-endian, accept v < sampleLimit = p·⌊2^w/p⌋, keep v mod p.
	sampleBytes int
	sampleLimit uint64
}

// New precomputes the Montgomery constants for modulus p. It returns
// ErrUnsupportedModulus when p is even, below 3, or wider than
// MaxModulusBits. Primality is the caller's responsibility (package field
// verifies it once at construction); compositeness here would break
// inversion, not reduction.
func New(p uint64) (*Field, error) {
	if p < 3 || p&1 == 0 || bits.Len64(p) > MaxModulusBits {
		return nil, fmt.Errorf("%w: %d", ErrUnsupportedModulus, p)
	}
	// Newton iteration for p^{-1} mod 2^64: each step doubles the number
	// of correct low bits; p odd gives 3 correct bits to start.
	pInv := p
	for i := 0; i < 5; i++ {
		pInv *= 2 - p*pInv
	}
	// 2^64 mod p via one 128/64 division of 2^64 = (1, 0).
	_, one := bits.Div64(1%p, 0, p)
	// R^2 mod p = (2^64 mod p)^2 mod p.
	hi, lo := bits.Mul64(one, one)
	_, r2 := bits.Div64(hi, lo, p)

	nbytes := (bits.Len64(p) + 7) / 8
	// p·⌊2^w/p⌋ = 2^w − (2^w mod p), in wrapping arithmetic when w = 64.
	limit := -one
	if w := uint(8 * nbytes); w < 64 {
		limit = 1<<w - (1<<w)%p
	}
	return &Field{
		p:           p,
		pInv:        pInv,
		r2:          r2,
		one:         one,
		sampleBytes: nbytes,
		sampleLimit: limit,
	}, nil
}

// Supported reports whether modulus p is carried by the fast path.
func Supported(p *big.Int) bool {
	return p != nil && p.IsUint64() && p.Sign() > 0 &&
		p.BitLen() <= MaxModulusBits && p.Bit(0) == 1 && p.Uint64() >= 3
}

// P returns the modulus.
func (f *Field) P() uint64 { return f.p }

// Reduce maps an arbitrary uint64 into [0, p).
func (f *Field) Reduce(a uint64) uint64 {
	if a < f.p {
		return a
	}
	return a % f.p
}

// ReduceBig maps an arbitrary big integer into [0, p), without assuming
// it fits a word.
func (f *Field) ReduceBig(a *big.Int) uint64 {
	if a.Sign() >= 0 && a.IsUint64() {
		return f.Reduce(a.Uint64())
	}
	var t big.Int
	return t.Mod(a, t.SetUint64(f.p)).Uint64()
}

// Add returns a + b mod p for canonical a, b.
func (f *Field) Add(a, b uint64) uint64 {
	r := a + b // no overflow: a, b < 2^62
	if r >= f.p {
		r -= f.p
	}
	return r
}

// Sub returns a - b mod p for canonical a, b.
func (f *Field) Sub(a, b uint64) uint64 {
	r := a + f.p - b
	if r >= f.p {
		r -= f.p
	}
	return r
}

// Neg returns -a mod p for canonical a.
func (f *Field) Neg(a uint64) uint64 {
	if a == 0 {
		return 0
	}
	return f.p - a
}

// Mul returns a·b mod p for canonical a, b, via a 128-bit product and one
// hardware division (no domain conversion — use MRed/MForm in loops).
func (f *Field) Mul(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	_, r := bits.Div64(hi, lo, f.p)
	return r
}

// MForm converts a canonical element into the Montgomery domain: a·R mod p.
func (f *Field) MForm(a uint64) uint64 {
	return f.MRed(a, f.r2)
}

// MRed is the Montgomery product a·b·R^{-1} mod p for a, b < p. With b in
// Montgomery form (b = x·R mod p) the result is the plain product a·x mod
// p — the shape every inner loop here uses.
func (f *Field) MRed(a, b uint64) uint64 {
	return mred(a, b, f.p, f.pInv)
}

// mred is MRed on constants the caller holds in registers: a loop that
// stores between products cannot keep f's fields there itself.
func mred(a, b, p, pInv uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	h, _ := bits.Mul64(lo*pInv, p)
	r := hi - h + p
	if r >= p {
		r -= p
	}
	return r
}

// Exp returns a^e mod p for canonical a (0^0 = 1).
func (f *Field) Exp(a uint64, e uint64) uint64 {
	acc := f.one // Montgomery form of 1
	base := f.MForm(a)
	for ; e > 0; e >>= 1 {
		if e&1 == 1 {
			acc = f.MRed(acc, base)
		}
		base = f.MRed(base, base)
	}
	return f.MRed(acc, 1) // out of the Montgomery domain
}

// Inv returns a^{-1} mod p via Fermat's little theorem; ok is false for
// a ≡ 0.
func (f *Field) Inv(a uint64) (uint64, bool) {
	if a == 0 {
		return 0, false
	}
	return f.Exp(a, f.p-2), true
}

// BatchInv writes the inverse of every src element into dst (which may be
// src itself) using Montgomery's batch-inversion trick: one Inv plus 3(n-1)
// multiplications. Zero elements map to zero. dst must have len(src).
func (f *Field) BatchInv(dst, src []uint64) {
	if len(dst) != len(src) {
		panic("fastfield: BatchInv length mismatch")
	}
	if len(src) == 0 {
		return
	}
	// Prefix products over the non-zero elements.
	prefix := make([]uint64, len(src))
	acc := f.one // Montgomery form of the running product
	for i, v := range src {
		prefix[i] = acc
		if v != 0 {
			acc = f.MRed(acc, f.MForm(v))
		}
	}
	// acc is M(prod); invert once.
	inv, ok := f.Inv(f.MRed(acc, 1))
	if !ok {
		// Product is zero only if p divides it — impossible with zeros
		// skipped, unless src is all zeros.
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	accInv := f.MForm(inv)
	for i := len(src) - 1; i >= 0; i-- {
		v := src[i]
		if v == 0 {
			dst[i] = 0
			continue
		}
		// dst[i] = prod_{j<i, src[j]!=0} src[j] · (prod_{j<=i})^{-1} = src[i]^{-1}.
		dst[i] = f.MRed(f.MRed(accInv, prefix[i]), 1)
		accInv = f.MRed(accInv, f.MForm(v))
	}
}

// ReduceVec reduces every element of src into [0, p), writing into dst
// (which may be src). dst must have len(src).
func (f *Field) ReduceVec(dst, src []uint64) {
	for i, v := range src {
		dst[i] = f.Reduce(v)
	}
}

// MFormVec converts a canonical vector into the Montgomery domain.
func (f *Field) MFormVec(dst, src []uint64) {
	for i, v := range src {
		dst[i] = f.MRed(v, f.r2)
	}
}

// ScalarMulAddVec accumulates dst[i] += src[i]·c for a scalar c given in
// Montgomery form (see MForm) — the axpy step of vectorized Shamir share
// generation. dst and src must have equal length; dst may alias src.
func (f *Field) ScalarMulAddVec(dst, src []uint64, cM uint64) {
	if len(dst) != len(src) {
		panic("fastfield: ScalarMulAddVec length mismatch")
	}
	for i, v := range src {
		dst[i] = f.Add(dst[i], f.MRed(v, cM))
	}
}

// MRedVec multiplies dst by src elementwise in the Montgomery domain:
// dst[i] = dst[i]·src[i]·R^{-1} mod p, for canonical operands. dst and src
// must have equal length.
func (f *Field) MRedVec(dst, src []uint64) {
	if len(dst) != len(src) {
		panic("fastfield: MRedVec length mismatch")
	}
	p, pInv := f.p, f.pInv
	for i, v := range src {
		dst[i] = mred(dst[i], v, p, pInv)
	}
}

// Eval evaluates the packed polynomial coeffs (ascending degree,
// canonical coefficients) at the canonical point x by Horner's rule (see
// horner4).
func (f *Field) Eval(coeffs []uint64, x uint64) uint64 {
	return f.horner4(coeffs, f.MForm(x))
}

// EvalMany evaluates the packed polynomial coeffs at every point of
// xsMont (each in Montgomery form, see MFormVec), writing the plain-domain
// values into dst. One pass over the polynomial serves all points; the
// call performs no allocations. dst must have len(xsMont).
func (f *Field) EvalMany(coeffs []uint64, xsMont []uint64, dst []uint64) {
	if len(dst) != len(xsMont) {
		panic("fastfield: EvalMany length mismatch")
	}
	if len(xsMont) < horner4Points {
		for j, xm := range xsMont {
			dst[j] = f.horner4(coeffs, xm)
		}
		return
	}
	for j := range dst {
		dst[j] = 0
	}
	p := f.p
	for i := len(coeffs) - 1; i >= 0; i-- {
		c := coeffs[i]
		for j, xm := range xsMont {
			acc := f.MRed(dst[j], xm) + c
			if acc >= p {
				acc -= p
			}
			dst[j] = acc
		}
	}
}

// horner4Points is the point count from which EvalMany's one pass over the
// polynomial keeps the multiplier busy by itself: each point is its own
// dependency chain, and with four of them in flight the pass costs little
// more than with one. Below it every point takes horner4.
const horner4Points = 4

// horner4 evaluates coeffs at the point whose Montgomery form is xm. One
// Horner chain is bound by the latency of MRed (each step waits for the
// last), so the polynomial is split by degree mod 4 into four polynomials in
// x^4 whose chains run side by side: f(x) = g0(x^4) + x·g1(x^4) + x^2·g2(x^4)
// + x^3·g3(x^4). About three times faster than the single chain on 256
// coefficients.
func (f *Field) horner4(coeffs []uint64, xm uint64) uint64 {
	p := f.p
	x2m := f.MRed(xm, xm)
	x4m := f.MRed(x2m, x2m)
	// The top group may be partial: its missing coefficients are zeros.
	n := len(coeffs)
	var a0, a1, a2, a3 uint64
	switch top := n &^ 3; n - top {
	case 3:
		a2 = coeffs[top+2]
		fallthrough
	case 2:
		a1 = coeffs[top+1]
		fallthrough
	case 1:
		a0 = coeffs[top]
	}
	for i := n&^3 - 4; i >= 0; i -= 4 {
		c := coeffs[i : i+4 : i+4]
		// MRed(a, x4m) < p and c < p: the sums stay below 2^63.
		if a0 = f.MRed(a0, x4m) + c[0]; a0 >= p {
			a0 -= p
		}
		if a1 = f.MRed(a1, x4m) + c[1]; a1 >= p {
			a1 -= p
		}
		if a2 = f.MRed(a2, x4m) + c[2]; a2 >= p {
			a2 -= p
		}
		if a3 = f.MRed(a3, x4m) + c[3]; a3 >= p {
			a3 -= p
		}
	}
	acc := a3
	for _, a := range [...]uint64{a2, a1, a0} {
		if acc = f.MRed(acc, xm) + a; acc >= p {
			acc -= p
		}
	}
	return acc
}

// RandVec fills dst with independent uniform elements of [0, p), reading
// entropy (or a share stream) from r. A sample is sampleBytes big-endian
// bytes v; it is accepted when v < sampleLimit = p·⌊2^w/p⌋ and yields
// v mod p, so every residue has exactly ⌊2^w/p⌋ accepted preimages — the
// rule of field.(*Field).Rand, which draws the same vector from the same
// stream. One bulk read covers the vector; only a rejection reads again,
// for exactly the samples still missing. On a read error dst holds the
// elements drawn from the complete samples read and is untouched past them.
func (f *Field) RandVec(r io.Reader, dst []uint64) error {
	sb := f.sampleBytes
	// Eight bytes of slack let every sample load as one big-endian word.
	buf := make([]byte, len(dst)*sb+8)
	for len(dst) > 0 {
		n, err := io.ReadFull(r, buf[:len(dst)*sb])
		dst = dst[f.accept(dst, buf, n/sb):]
		if err != nil {
			return fmt.Errorf("fastfield: rand: %w", err)
		}
	}
	return nil
}

// accept runs the first count samples of buf through the rule of RandVec,
// stores the elements they yield at the head of dst and returns how many
// there are. buf extends eight bytes past its last sample. A function of
// its own so that the loop's constants stay in registers.
func (f *Field) accept(dst []uint64, buf []byte, count int) int {
	sb, shift := f.sampleBytes, uint(64-8*f.sampleBytes)&63
	p, pInv, one, limit := f.p, f.pInv, f.one, f.sampleLimit
	i := 0
	for ; count > 0; count-- {
		v := binary.BigEndian.Uint64(buf) >> shift
		buf = buf[sb:]
		if v < limit {
			dst[i] = mred(v, one, p, pInv) // v mod p: one is R mod p
			i++
		}
	}
	return i
}
