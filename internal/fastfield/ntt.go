package fastfield

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// This file implements the number-theoretic transform behind the packed
// polynomial multiply of ring.FpCyclotomic. The quotient F_p[x]/(x^{p-1}-1)
// is cyclic convolution of length n = p-1, and F_p^* is cyclic of exactly
// that order, so F_p always contains a primitive n-th root of unity ω (any
// generator of F_p^*): the length-n DFT over F_p itself diagonalizes the
// ring product. When n factors into small primes the transform runs as a
// mixed-radix Cooley-Tukey decimation in O(n log n) Montgomery operations;
// when n has a large prime factor the convolution fallback in conv.go takes
// over (see there). Schoolbook multiplication remains the right choice for
// short products — the cutover lives in ring.MulPacked, not here.
//
// Shape: n = m·2^k with m odd. The odd prime factors are peeled by a
// recursive decimation in time (rec: one generic butterfly per radix),
// which leaves m interleaved subsequences of length 2^k for one iterative
// in-place kernel (dft2: bit-reversed load, k butterfly stages over twiddles
// stored stage by stage, reductions deferred where a word holds the sums).
// A power-of-two n is that kernel alone. Only the forward transform exists:
// the inverse is the forward one read backwards (X⁻¹[j] = X[n-j]/n), which
// the 1/n scaling pass does on its way.
//
// Tables are built once in NewNTT, immutable afterwards, and shared
// read-only across any number of concurrent transforms; scratch vectors
// come from an internal pool so steady-state multiplies do not allocate.

// MaxRadix is the largest prime factor of the transform length the
// mixed-radix path accepts. Lengths with a larger factor return
// ErrNotSmooth from NewNTT (callers fall back to the convolution engine).
// 61 keeps the generic-radix butterfly's gather buffer on the stack.
const MaxRadix = 61

// ErrNotSmooth reports a transform length whose largest prime factor
// exceeds MaxRadix.
var ErrNotSmooth = errors.New("fastfield: transform length not smooth enough for the mixed-radix NTT")

// NTT is a cached number-theoretic transform of fixed length n over F_p.
// Immutable after NewNTT; safe for concurrent use.
type NTT struct {
	f *Field
	n int
	// root is the primitive n-th root of unity ω (plain domain) whose
	// powers the tables hold.
	root uint64
	// plan is the odd prime factors of n in ascending order; the recursion
	// peels them front to back. pow2 = 2^k is what they leave: the length
	// dft2 transforms.
	plan []int
	pow2 int
	// tw holds dft2's twiddles stage by stage, in Montgomery form:
	// tw[h+j] = ω_{2h}^j for h = 1, 2, 4, …, pow2/2 and j < h, where
	// ω_{2h} = ω^{n/2h}.
	tw []uint64
	// tab[j] = ω^j (Montgomery form, j < n) serves the odd-radix butterfly;
	// nil when n is a power of two.
	tab []uint64
	// lazy reports pow2·p ≤ 2^64: dft2 then defers the reduction of its
	// sums. The 62-bit auxiliary primes of conv.go fail the bound.
	lazy bool
	// nInvM is n^{-1} mod p in Montgomery form — the inverse-transform
	// scaling factor.
	nInvM uint64
	// bufs pools length-n scratch vectors for products.
	bufs sync.Pool
}

// factorSmooth returns the ascending prime factorization of n, or
// ErrNotSmooth when a prime factor exceeds MaxRadix.
func factorSmooth(n int) ([]int, error) {
	var plan []int
	m := n
	for f := 2; f <= MaxRadix && f*f <= m; f++ {
		for m%f == 0 {
			plan = append(plan, f)
			m /= f
		}
	}
	if m > 1 {
		if m > MaxRadix {
			return nil, fmt.Errorf("%w: %d has prime factor %d", ErrNotSmooth, n, m)
		}
		plan = append(plan, m)
	}
	return plan, nil
}

// TransformCost estimates one length-n transform in schoolbook coefficient
// pairs (a Montgomery product and an addition each) without building it:
// half a pair per element and radix-2 stage, r+1 per element and odd radix
// r — the weights ring's BenchmarkMulPackedCutover sweep fits. It fails as
// NewNTT does.
func TransformCost(n int) (int, error) {
	factors, err := factorSmooth(n)
	halves := 0
	for _, r := range factors {
		if r == 2 {
			halves++
		} else {
			halves += 2 * (r + 1)
		}
	}
	return n * halves / 2, err
}

// rootOfUnity finds an element of exact multiplicative order n in F_p,
// given the prime factors of n. Requires n | p-1 (F_p^* is cyclic, so such
// elements exist exactly then).
func rootOfUnity(f *Field, n int, factors []int) (uint64, error) {
	if n < 1 || (f.p-1)%uint64(n) != 0 {
		return 0, fmt.Errorf("fastfield: no order-%d root of unity mod %d", n, f.p)
	}
	if n == 1 {
		return 1, nil
	}
	exp := (f.p - 1) / uint64(n)
	// Distinct prime factors of n, for the exact-order check.
	var distinct []int
	for i, q := range factors {
		if i == 0 || q != factors[i-1] {
			distinct = append(distinct, q)
		}
	}
search:
	for a := uint64(2); a < f.p; a++ {
		w := f.Exp(a, exp)
		if w == 0 || w == 1 {
			continue
		}
		// ord(w) divides n; it equals n iff w^{n/q} != 1 for every prime
		// q | n.
		for _, q := range distinct {
			if f.Exp(w, uint64(n/q)) == 1 {
				continue search
			}
		}
		return w, nil
	}
	return 0, fmt.Errorf("fastfield: no order-%d root of unity mod %d found", n, f.p)
}

// NewNTT builds the transform tables for length n over f. It returns
// ErrNotSmooth when n has a prime factor above MaxRadix — the caller then
// falls back to NewCyclicConv. Table memory is at most 12n bytes plus
// pooled scratch; build cost is O(n) Montgomery multiplies plus the root
// search.
func NewNTT(f *Field, n int) (*NTT, error) {
	if n < 1 {
		return nil, fmt.Errorf("fastfield: invalid NTT length %d", n)
	}
	factors, err := factorSmooth(n)
	if err != nil {
		return nil, err
	}
	w, err := rootOfUnity(f, n, factors)
	if err != nil {
		return nil, err
	}
	nInv, ok := f.Inv(f.Reduce(uint64(n)))
	if !ok {
		// n = p-1 (or a divisor) is never ≡ 0 mod p.
		return nil, fmt.Errorf("fastfield: transform length %d not invertible mod %d", n, f.p)
	}
	k := 0
	for k < len(factors) && factors[k] == 2 {
		k++
	}
	t := &NTT{f: f, n: n, root: w, plan: factors[k:], pow2: 1 << k, lazy: f.p <= math.MaxUint64>>k, nInvM: f.MForm(nInv)}
	t.tw = make([]uint64, t.pow2)
	for h := 1; h < t.pow2; h <<= 1 {
		stepM := f.MForm(f.Exp(w, uint64(n/(2*h)))) // ω_{2h}
		t.tw[h] = f.one
		for j := 1; j < h; j++ {
			t.tw[h+j] = f.MRed(t.tw[h+j-1], stepM)
		}
	}
	if len(t.plan) > 0 {
		t.tab = make([]uint64, n)
		t.tab[0] = f.one // Montgomery form of ω^0 = 1
		wM := f.MForm(w)
		for j := 1; j < n; j++ {
			t.tab[j] = f.MRed(t.tab[j-1], wM)
		}
	}
	t.bufs.New = func() any { v := make([]uint64, n); return &v }
	return t, nil
}

// N returns the transform length.
func (t *NTT) N() int { return t.n }

func (t *NTT) getBuf() *[]uint64 { return t.bufs.Get().(*[]uint64) }
func (t *NTT) putBuf(b *[]uint64) {
	t.bufs.Put(b)
}

// checkArgs panics on a destination that is not exactly one transform long,
// a source longer than that, or a source that is the destination itself:
// the first two were a short write and a silent truncation, the third
// corrupts the result because the kernel's load permutes.
func (t *NTT) checkArgs(op string, dst []uint64, srcs ...[]uint64) {
	if len(dst) != t.n {
		panic("fastfield: " + op + " dst length mismatch")
	}
	for _, src := range srcs {
		if len(src) > t.n {
			panic("fastfield: " + op + " source longer than the transform")
		}
		if len(src) > 0 && &src[0] == &dst[0] {
			panic("fastfield: " + op + " source aliases dst")
		}
	}
}

// Transform computes the length-n DFT (inverse=false) or inverse DFT
// (inverse=true) of src into dst. src holds canonical coefficients and is
// read with padding: entries beyond len(src) count as zero; a source longer
// than n panics, as a dst of any length but n does. dst must not overlap
// src — the transform loads src in a permuted order while it writes dst.
// The inverse transform applies the 1/n scaling, so
// Transform(inverse=true) ∘ Transform(inverse=false) is the identity. The
// result is canonical.
func (t *NTT) Transform(dst, src []uint64, inverse bool) {
	t.checkArgs("Transform", dst, src)
	if inverse {
		t.inverse(dst, src)
		return
	}
	t.rec(dst, src, 0, 1, 0, true)
}

// inverse writes the inverse DFT of src into dst: the forward transform
// read backwards, X⁻¹[j] = X[(n-j) mod n]/n. The scaling multiplication
// reduces whatever the forward transform deferred.
func (t *NTT) inverse(dst, src []uint64) {
	t.rec(dst, src, 0, 1, 0, false)
	c, p, pInv := t.nInvM, t.f.p, t.f.pInv
	dst[0] = mred(dst[0], c, p, pInv)
	for i, j := 1, t.n-1; i <= j; i, j = i+1, j-1 {
		dst[i], dst[j] = mred(dst[j], c, p, pInv), mred(dst[i], c, p, pInv)
	}
}

// dft2 is the iterative power-of-two kernel: it writes into x (length
// pow2) the DFT, for the root ω^{n/pow2}, of src[off], src[off+stride], …
// (zero beyond len(src)). The load visits the source in bit-reversed order
// and is fused with the first butterfly stage; the remaining stages run in
// place over tw. With t.lazy the sums are not reduced — values entering the
// stage of half-width h are below h·p, its twiddle-free first butterfly
// subtracts under the offset h·p, the others under p because a Montgomery
// product is canonical — and canon asks for a final reducing pass.
func (t *NTT) dft2(x, src []uint64, off, stride int, canon bool) {
	f, p, n := t.f, t.f.p, len(x)
	at := func(i int) uint64 {
		if i < len(src) {
			return src[i]
		}
		return 0
	}
	if n == 1 {
		x[0] = at(off)
		return
	}
	lazy := t.lazy
	shift := uint(bits.LeadingZeros32(uint32(n)) + 1) // Reverse32(i)>>shift reverses i's log₂n bits
	far := n / 2 * stride                             // x[i+1] loads the element half a transform after x[i]'s
	for i := 0; i < n; i += 2 {
		lo := off + int(bits.Reverse32(uint32(i))>>shift)*stride
		a, b := at(lo), at(lo+far)
		if lazy {
			x[i], x[i+1] = a+b, a+p-b
		} else {
			x[i], x[i+1] = f.Add(a, b), f.Sub(a, b)
		}
	}
	pInv := f.pInv
	for h := 2; h < n; h <<= 1 {
		w := t.tw[h:][:h]
		hp := uint64(h) * p
		for s := 0; s < n; s += 2 * h {
			lo, hi := x[s:][:h], x[s+h:][:h]
			a, b := lo[0], hi[0]
			if lazy {
				lo[0], hi[0] = a+b, a+hp-b
				for j := 1; j < h; j++ {
					a, bw := lo[j], mred(hi[j], w[j], p, pInv)
					lo[j], hi[j] = a+bw, a+p-bw
				}
			} else {
				lo[0], hi[0] = f.Add(a, b), f.Sub(a, b)
				for j := 1; j < h; j++ {
					a, bw := lo[j], mred(hi[j], w[j], p, pInv)
					lo[j], hi[j] = f.Add(a, bw), f.Sub(a, bw)
				}
			}
		}
	}
	if lazy && canon {
		for i, v := range x {
			x[i] = mred(v, f.one, p, pInv)
		}
	}
}

// rec is the forward transform, one odd-radix Cooley-Tukey step at a time:
// it computes into dst the DFT of src[off], src[off+stride], … (len(dst)
// points, zero beyond len(src)), peeling radix plan[pi]; with the odd
// radices used up the subsequence is dft2's, whose canon the butterflies
// below always need. All twiddle exponents are maintained incrementally
// (add the step, conditionally subtract n) — the butterfly loops carry no
// integer division.
func (t *NTT) rec(dst, src []uint64, off, stride, pi int, canon bool) {
	if pi == len(t.plan) {
		t.dft2(dst, src, off, stride, canon)
		return
	}
	sz := len(dst)
	r := t.plan[pi]
	m := sz / r
	for j := 0; j < r; j++ {
		t.rec(dst[j*m:(j+1)*m], src, off+j*stride, stride*r, pi+1, true)
	}
	f := t.f
	step := t.n / sz // global exponent scale: ω_sz = ω^step
	var scratch [MaxRadix + 1]uint64
	// ew[j] tracks (step·j·k0) mod n across the k0 loop; stepJ[j] is its
	// per-iteration increment (step·j) mod n.
	var ew, stepJ [MaxRadix]int
	for j := 1; j < r; j++ {
		stepJ[j] = stepJ[j-1] + step
		if stepJ[j] >= t.n {
			stepJ[j] -= t.n
		}
	}
	rootR := t.n / r // ω_sz^{m} = ω^{n/r}
	for k0 := 0; k0 < m; k0++ {
		for j := 0; j < r; j++ {
			x := dst[j*m+k0]
			if e := ew[j]; e != 0 {
				x = f.MRed(x, t.tab[e])
			}
			scratch[j] = x
		}
		for k1 := 0; k1 < r; k1++ {
			acc := scratch[0]
			// idx tracks (j·k1) mod r incrementally (idx += k1 with a
			// conditional subtract — k1 < r keeps it in range).
			idx := 0
			for j := 1; j < r; j++ {
				idx += k1
				if idx >= r {
					idx -= r
				}
				x := scratch[j]
				if idx != 0 {
					x = f.MRed(x, t.tab[rootR*idx])
				}
				acc = f.Add(acc, x)
			}
			dst[k1*m+k0] = acc
		}
		for j := 1; j < r; j++ {
			ew[j] += stepJ[j]
			if ew[j] >= t.n {
				ew[j] -= t.n
			}
		}
	}
}

// MulCyclicInto writes the length-n cyclic convolution of a and b (each of
// length ≤ n, canonical coefficients) into dst (length n, overlapping
// neither): the product in F_p[x]/(x^n - 1). Allocation-free in steady
// state (pooled scratch).
func (t *NTT) MulCyclicInto(dst, a, b []uint64) {
	t.checkArgs("MulCyclicInto", dst, a, b)
	fa, fb := t.getBuf(), t.getBuf()
	defer t.putBuf(fa)
	defer t.putBuf(fb)
	t.rec(*fa, a, 0, 1, 0, false)
	t.rec(*fb, b, 0, 1, 0, false)
	t.mulPointwise(*fa, *fb)
	t.inverse(dst, *fa)
}

// mulPointwise multiplies acc by v slot by slot in the evaluation domain:
// one side is lifted to Montgomery form so each product is two MReds, which
// also reduce what forward deferred — the result is canonical.
func (t *NTT) mulPointwise(acc, v []uint64) {
	r2, p, pInv := t.f.r2, t.f.p, t.f.pInv
	v = v[:len(acc)]
	for i := range acc {
		acc[i] = mred(acc[i], mred(v[i], r2, p, pInv), p, pInv)
	}
}

// ProdCyclicInto writes the cyclic product of all factors into dst (length
// n, overlapping none of them): each factor is transformed once, multiplied
// pointwise into one accumulator, and a single inverse transform recovers
// the coefficients — the shape the bottom-up tree encode wants, where an
// interior node multiplies its tag factor against every child product.
func (t *NTT) ProdCyclicInto(dst []uint64, factors ...[]uint64) {
	t.checkArgs("ProdCyclicInto", dst, factors...)
	if len(factors) == 0 {
		for i := range dst {
			dst[i] = 0
		}
		dst[0] = 1
		return
	}
	acc, fb := t.getBuf(), t.getBuf()
	defer t.putBuf(acc)
	defer t.putBuf(fb)
	// A single factor has no pointwise pass to reduce it before the inverse
	// transform's lazy first stage.
	t.rec(*acc, factors[0], 0, 1, 0, len(factors) == 1)
	for _, fac := range factors[1:] {
		t.rec(*fb, fac, 0, 1, 0, false)
		t.mulPointwise(*acc, *fb)
	}
	t.inverse(dst, *acc)
}
