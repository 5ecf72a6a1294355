package ring

import (
	"errors"
	"fmt"
	"io"
	"math/big"
	"math/bits"
	"sync"
	"sync/atomic"

	"sssearch/internal/fastfield"
	"sssearch/internal/field"
	"sssearch/internal/poly"
)

// FpCyclotomic is the quotient ring F_p[x]/(x^{p-1}-1).
//
// Canonical representatives have degree < p-1 and coefficients in [0, p).
// By Lemma 1 of the paper, x^{p-1}-1 ≡ ∏_{i=1}^{p-1}(x-i) (mod p), so
// reduction never destroys root information for tags in [1, p-2]
// (Theorem 1).
//
// When the modulus fits fastfield.MaxModulusBits (every constructible
// FpCyclotomic does — the coefficient-count cap keeps p far below it),
// the ring carries a word-sized fast path: polynomials whose coefficients
// fit machine words are packed into []uint64 vectors and all arithmetic
// runs in package fastfield without big.Int allocations. Polynomials that
// do not pack (negative or oversized coefficients from unreduced Z[x]
// inputs) fall back to the original big.Int path; both paths compute
// identical results (differentially tested in fastpath_test.go).
type FpCyclotomic struct {
	f *field.Field
	p *big.Int
	// n = p-1 is the folding period (number of coefficients).
	n int
	// fast is the word-sized engine, nil when disabled (SetFast) or
	// unsupported.
	fast *fastfield.Field

	// The NTT-backed product engine of the coefficient form (the reference
	// encode, the coefficient solve of eq. (2)). The quotient ring is cyclic
	// convolution of length n, so long packed products run through a
	// number-theoretic transform instead of the O(n²) schoolbook loop.
	// The tables are built lazily on the first eligible product (nttOnce;
	// immutable and shared read-only afterwards): ntt carries the
	// mixed-radix transform when n is MaxRadix-smooth, conv the
	// auxiliary-prime convolution fallback otherwise. Short products stay
	// on the schoolbook path (nttCut); SetNTT(false) disables the engine
	// for ablation benchmarks and differential tests.
	nttOnce sync.Once
	ntt     *fastfield.NTT
	conv    *fastfield.CyclicConv
	nttOff  atomic.Bool
	// nttCut is the pairwise size cutover: a product with
	// len(pa)·len(pb) below it runs schoolbook (see nttCutoverCost).
	nttCut int

	// bmPool recycles the Montgomery-form operand scratch of the
	// schoolbook loop (length-n vectors), so MulPackedInto is
	// allocation-free.
	bmPool sync.Pool
}

// nttCutoverCost is the operand-pair count len(pa)·len(pb) from which one
// NTT-backed multiply of cyclic length n beats the schoolbook loop: 3.5
// transforms' worth of fastfield.TransformCost — three transforms plus the
// pointwise and scaling passes. Measured, not counted: across pure
// power-of-two (256, 65536) and mixed (96 … 40960) lengths the two paths of
// BenchmarkMulPackedCutover cross at 3.1-3.8 transform costs. Zero for a
// length the in-field transform rejects: there convCutoverCost alone decides.
func nttCutoverCost(n int) int {
	c, err := fastfield.TransformCost(n)
	if err != nil {
		return 0
	}
	return 7 * c / 2
}

// convCutoverCost is the same bar for the convolution fallback on a linear
// convolution of convLen coefficients: three exactly reduced power-of-two
// transforms over a 62-bit auxiliary prime plus the fold, 3·m·log₂m pairs
// at transform length m (the sweep crosses at 2.0-2.5 from m = 256 up and,
// its fixed costs showing, at 3.7 below).
func convCutoverCost(convLen int) int {
	m := 1
	for m < convLen {
		m <<= 1
	}
	return 3 * m * bits.Len(uint(m))
}

// NewFpCyclotomic constructs F_p[x]/(x^{p-1}-1) for prime p >= 5.
// Primes below 5 leave no usable tag values in [1, p-2].
func NewFpCyclotomic(p *big.Int) (*FpCyclotomic, error) {
	f, err := field.New(p)
	if err != nil {
		return nil, err
	}
	if p.Cmp(big.NewInt(5)) < 0 {
		return nil, errors.New("ring: p must be >= 5 to leave usable tag values")
	}
	if !p.IsInt64() || p.Int64() > 1<<22 {
		// p-1 coefficients per node; beyond ~4M coefficients per polynomial
		// the representation is unusable in practice.
		return nil, errors.New("ring: p too large for the F_p[x]/(x^(p-1)-1) representation")
	}
	r := &FpCyclotomic{f: f, p: new(big.Int).Set(p), n: int(p.Int64() - 1), fast: f.Fast()}
	r.nttCut = nttCutoverCost(r.n)
	r.bmPool.New = func() any { v := make([]uint64, r.n); return &v }
	return r, nil
}

// MustFp is NewFpCyclotomic for a uint64 prime; panics on error (tests).
func MustFp(p uint64) *FpCyclotomic {
	r, err := NewFpCyclotomic(new(big.Int).SetUint64(p))
	if err != nil {
		panic(err)
	}
	return r
}

// Kind implements Ring.
func (r *FpCyclotomic) Kind() Kind { return KindFpCyclotomic }

// Name implements Ring.
func (r *FpCyclotomic) Name() string {
	return fmt.Sprintf("F_%s[x]/(x^%d-1)", r.p, r.n)
}

// P returns (a copy of) the field characteristic.
func (r *FpCyclotomic) P() *big.Int { return new(big.Int).Set(r.p) }

// Field returns the coefficient field.
func (r *FpCyclotomic) Field() *field.Field { return r.f }

// Fast returns the word-sized arithmetic engine behind this ring's fast
// path, or nil when it is disabled. Packed-representation callers
// (server.Local, sharing.SeedClient) capture it once at construction.
func (r *FpCyclotomic) Fast() *fastfield.Field { return r.fast }

// SetFast enables or disables the word-sized fast path. It exists for
// differential tests and ablation benchmarks; production code leaves the
// fast path on. Not safe to call concurrently with ring use.
//
// It toggles arithmetic only: Rand draws the same pads from a share stream
// at either setting (see Rand), and so do the value-form pads of package
// sharing, so a store split on the fast path can be queried with it off.
func (r *FpCyclotomic) SetFast(enabled bool) {
	if enabled {
		r.fast = r.f.Fast()
		return
	}
	r.fast = nil
}

// Pack converts a polynomial into the packed word representation:
// coefficients reduced into [0, p), ascending degree, degrees NOT folded
// (evaluation is invariant under folding; use Reduce first when a
// canonical representative is required). ok is false — and the caller
// must take the big.Int path — when the fast path is off or any
// coefficient is negative or wider than a word.
func (r *FpCyclotomic) Pack(q poly.Poly) ([]uint64, bool) {
	if r.fast == nil {
		return nil, false
	}
	c, ok := q.Uint64Coeffs(make([]uint64, 0, q.Len()))
	if !ok {
		return nil, false
	}
	r.fast.ReduceVec(c, c)
	return c, true
}

// Unpack converts a packed vector back into the big.Int boundary
// representation. Coefficients must be canonical (< p).
func (r *FpCyclotomic) Unpack(c []uint64) poly.Poly {
	return poly.NewUint64(c)
}

// PackPoint maps an evaluation point to its canonical word residue,
// rejecting a ≡ 0 (evaluation is undefined there, see Eval): the point's
// index into a value vector, plus one. Valid at either fast-path setting.
func (r *FpCyclotomic) PackPoint(a *big.Int) (uint64, error) {
	var x uint64
	if r.fast != nil {
		x = r.fast.ReduceBig(a)
	} else {
		x = new(big.Int).Mod(a, r.p).Uint64()
	}
	if x == 0 {
		return 0, fmt.Errorf("%w: a ≡ 0 (mod %s)", ErrEvalUndefined, r.p)
	}
	return x, nil
}

// Values evaluates q at every point a = 1 … p−1, in order: its image under
// F_p[x]/(x^{p−1}−1) ≅ F_p^{p−1}, the value form a share is stored and
// served in. A product of ring elements is the pointwise product of their
// values, so this is the conversion from the coefficient form, and the
// oracle the value-form encode is tested against.
func (r *FpCyclotomic) Values(q poly.Poly) []uint64 {
	out := make([]uint64, r.n)
	if c, ok := r.packFold(q); ok {
		xs := make([]uint64, r.n)
		for i := range xs {
			xs[i] = uint64(i + 1)
		}
		r.fast.MFormVec(xs, xs)
		r.fast.EvalMany(c, xs, out)
		return out
	}
	for i := range out {
		v, _ := r.Eval(q, big.NewInt(int64(i+1))) // a ≢ 0: never fails
		out[i] = v.Uint64()
	}
	return out
}

// packFold packs q and folds its degrees with x^{p-1} ≡ 1, yielding at
// most n canonical word coefficients.
func (r *FpCyclotomic) packFold(q poly.Poly) ([]uint64, bool) {
	c, ok := r.Pack(q)
	if !ok {
		return nil, false
	}
	if len(c) <= r.n {
		return c, true
	}
	folded := c[:r.n]
	for i := r.n; i < len(c); i++ {
		folded[i%r.n] = r.fast.Add(folded[i%r.n], c[i])
	}
	return folded, true
}

// Reduce folds degrees with x^{p-1} ≡ 1 and reduces coefficients mod p.
func (r *FpCyclotomic) Reduce(p poly.Poly) poly.Poly {
	if c, ok := r.packFold(p); ok {
		return r.Unpack(c)
	}
	if p.Degree() < r.n {
		return p.ReduceCoeffs(r.p)
	}
	folded := make([]*big.Int, r.n)
	for i := range folded {
		folded[i] = new(big.Int)
	}
	for i, d := 0, p.Degree(); i <= d; i++ {
		folded[i%r.n].Add(folded[i%r.n], p.Coeff(i))
	}
	return poly.New(folded...).ReduceCoeffs(r.p)
}

// Add implements Ring.
func (r *FpCyclotomic) Add(a, b poly.Poly) poly.Poly {
	if pa, ok := r.packFold(a); ok {
		if pb, ok := r.packFold(b); ok {
			if len(pb) > len(pa) {
				pa, pb = pb, pa
			}
			for i, v := range pb {
				pa[i] = r.fast.Add(pa[i], v)
			}
			return r.Unpack(pa)
		}
	}
	return r.Reduce(a.Add(b))
}

// Sub implements Ring.
func (r *FpCyclotomic) Sub(a, b poly.Poly) poly.Poly {
	if pa, ok := r.packFold(a); ok {
		if pb, ok := r.packFold(b); ok {
			if len(pb) > len(pa) {
				grown := make([]uint64, len(pb))
				copy(grown, pa)
				pa = grown
			}
			for i, v := range pb {
				pa[i] = r.fast.Sub(pa[i], v)
			}
			return r.Unpack(pa)
		}
	}
	return r.Reduce(a.Sub(b))
}

// Neg implements Ring.
func (r *FpCyclotomic) Neg(a poly.Poly) poly.Poly {
	if pa, ok := r.packFold(a); ok {
		for i, v := range pa {
			pa[i] = r.fast.Neg(v)
		}
		return r.Unpack(pa)
	}
	return r.Reduce(a.Neg())
}

// Mul implements Ring. The fast path multiplies in the packed
// representation with no intermediate big.Int allocation — via the NTT
// engine for long operands, directly into the folded residue
// (out[(i+j) mod n]) schoolbook-style for short ones (see MulPacked).
func (r *FpCyclotomic) Mul(a, b poly.Poly) poly.Poly {
	pa, okA := r.packFold(a)
	if okA {
		if pb, okB := r.packFold(b); okB {
			return r.Unpack(r.MulPacked(pa, pb))
		}
	}
	return r.Reduce(a.Mul(b))
}

// MulPacked multiplies two packed canonical vectors (each of length <= n,
// coefficients < p) in the quotient ring, returning a fresh length-n
// packed product. Only valid when the fast path is on; packed-
// representation callers (polyenc tag recovery) use it to stay off the
// big.Int boundary entirely.
//
// Long products run through the NTT engine (O(n log n)); short ones —
// where len(pa)·len(pb) is below the transform cost — keep the schoolbook
// loop. Both paths produce bit-identical canonical output.
func (r *FpCyclotomic) MulPacked(pa, pb []uint64) []uint64 {
	out := make([]uint64, r.n)
	r.MulPackedInto(out, pa, pb)
	return out
}

// MulPackedInto is MulPacked with a caller-provided output vector (length
// n, overwritten; must not alias pa or pb) — the hot encode and
// tag-recovery loops use it with reused buffers so steady-state products
// do not allocate.
func (r *FpCyclotomic) MulPackedInto(dst, pa, pb []uint64) {
	if len(dst) != r.n {
		panic("ring: MulPackedInto dst length mismatch")
	}
	if ntt, conv := r.engine(len(pa), len(pb)); ntt != nil {
		ntt.MulCyclicInto(dst, pa, pb)
		return
	} else if conv != nil {
		conv.MulCyclicInto(dst, pa, pb)
		return
	}
	r.mulSchoolbookInto(dst, pa, pb)
}

// MulPackedSchoolbook is the retained O(len(pa)·len(pb)) reference
// multiply — the differential-test anchor the NTT path is pinned against,
// and the path SetNTT(false) ablation benchmarks measure.
func (r *FpCyclotomic) MulPackedSchoolbook(pa, pb []uint64) []uint64 {
	out := make([]uint64, r.n)
	r.mulSchoolbookInto(out, pa, pb)
	return out
}

func (r *FpCyclotomic) mulSchoolbookInto(dst, pa, pb []uint64) {
	for i := range dst {
		dst[i] = 0
	}
	bmp := r.bmPool.Get().(*[]uint64)
	defer r.bmPool.Put(bmp)
	bm := (*bmp)[:len(pb)]
	r.fast.MFormVec(bm, pb)
	for i, ai := range pa {
		if ai == 0 {
			continue
		}
		for j, bj := range bm {
			k := i + j
			if k >= r.n {
				k -= r.n
			}
			dst[k] = r.fast.Add(dst[k], r.fast.MRed(ai, bj))
		}
	}
}

// engine decides the multiply path for operand lengths la, lb and returns
// the transform to use, building the per-ring tables on first eligible
// use. Both returns are nil when the schoolbook loop is the right (or
// only) choice: short products, SetNTT(false), or a disabled fast path.
func (r *FpCyclotomic) engine(la, lb int) (*fastfield.NTT, *fastfield.CyclicConv) {
	if r.nttOff.Load() || la == 0 || lb == 0 {
		return nil, nil
	}
	work := la * lb
	if work < r.nttCut {
		return nil, nil
	}
	r.nttOnce.Do(func() {
		ff := r.f.Fast()
		if ff == nil {
			return
		}
		ntt, err := fastfield.NewNTT(ff, r.n)
		if err == nil {
			r.ntt = ntt
			return
		}
		if errors.Is(err, fastfield.ErrNotSmooth) {
			r.conv = fastfield.NewCyclicConv(ff, r.n)
		}
	})
	if r.ntt != nil {
		return r.ntt, nil
	}
	if r.conv != nil && work >= convCutoverCost(la+lb-1) {
		return nil, r.conv
	}
	return nil, nil
}

// SetNTT enables or disables the NTT-backed multiply, leaving the rest of
// the word-sized fast path untouched. It exists for ablation benchmarks
// (the capacity-scale outsourcing targets measure NTT vs schoolbook in
// one run) and differential tests; production code leaves it on. Safe to
// call concurrently with ring use — the toggle is a single atomic and
// both paths compute identical results.
func (r *FpCyclotomic) SetNTT(enabled bool) {
	r.nttOff.Store(!enabled)
}

// MulPackedProd multiplies all factors (each a packed canonical vector of
// length <= n), returning a fresh length-n product: one forward transform
// per factor and a single inverse where the ring has an in-field transform
// (and SetNTT leaves it on), one pairwise MulPacked at a time otherwise. An
// empty factor list yields the ring's one. It is the coefficient form of a
// node, (x − t)·∏ children, and serves as the oracle of the value form,
// where the same product is pointwise.
func (r *FpCyclotomic) MulPackedProd(factors ...[]uint64) []uint64 {
	out := make([]uint64, r.n)
	if ntt, _ := r.engine(r.n, r.n); ntt != nil {
		ntt.ProdCyclicInto(out, factors...)
		return out
	}
	out[0] = 1
	for _, f := range factors {
		out = r.MulPacked(out, f)
	}
	return out
}

// Zero implements Ring.
func (r *FpCyclotomic) Zero() poly.Poly { return poly.Zero() }

// One implements Ring.
func (r *FpCyclotomic) One() poly.Poly { return poly.One() }

// Linear implements Ring.
func (r *FpCyclotomic) Linear(root *big.Int) poly.Poly {
	if r.fast != nil {
		return r.Unpack([]uint64{r.fast.Neg(r.fast.ReduceBig(root)), 1})
	}
	return r.Reduce(poly.Linear(root))
}

// Equal implements Ring.
func (r *FpCyclotomic) Equal(a, b poly.Poly) bool {
	return r.Reduce(a).Equal(r.Reduce(b))
}

// Eval implements Ring. Evaluation at a is well defined iff a ≢ 0 (mod p):
// the homomorphism F_p[x]/(x^{p-1}-1) → F_p, x ↦ a, requires a^{p-1} = 1.
func (r *FpCyclotomic) Eval(f poly.Poly, a *big.Int) (*big.Int, error) {
	if r.fast != nil {
		x, err := r.PackPoint(a)
		if err != nil {
			return nil, err
		}
		// Short polynomials (tag recovery, the paper's figures) pack into
		// a stack buffer; longer ones spill to the heap via append.
		var buf [64]uint64
		if c, ok := f.Uint64Coeffs(buf[:0]); ok {
			r.fast.ReduceVec(c, c)
			return new(big.Int).SetUint64(r.fast.Eval(c, x)), nil
		}
	}
	am := new(big.Int).Mod(a, r.p)
	if am.Sign() == 0 {
		return nil, fmt.Errorf("%w: a ≡ 0 (mod %s)", ErrEvalUndefined, r.p)
	}
	return f.EvalMod(am, r.p), nil
}

// EvalModulus implements Ring: the codomain of Eval is always F_p.
func (r *FpCyclotomic) EvalModulus(a *big.Int) (*big.Int, error) {
	am := new(big.Int).Mod(a, r.p)
	if am.Sign() == 0 {
		return nil, ErrEvalUndefined
	}
	return new(big.Int).Set(r.p), nil
}

// SolveScalar implements Ring: t = num/den in F_p when den ≢ 0.
func (r *FpCyclotomic) SolveScalar(num, den *big.Int) (*big.Int, bool) {
	if r.fast != nil {
		d := r.fast.ReduceBig(den)
		inv, ok := r.fast.Inv(d)
		if !ok {
			return nil, false
		}
		return new(big.Int).SetUint64(r.fast.Mul(r.fast.ReduceBig(num), inv)), true
	}
	d := new(big.Int).Mod(den, r.p)
	if d.Sign() == 0 {
		return nil, false
	}
	inv := new(big.Int).ModInverse(d, r.p)
	t := new(big.Int).Mul(new(big.Int).Mod(num, r.p), inv)
	return t.Mod(t, r.p), true
}

// CoeffZero implements Ring.
func (r *FpCyclotomic) CoeffZero(v *big.Int) bool {
	if r.fast != nil {
		return r.fast.ReduceBig(v) == 0
	}
	return new(big.Int).Mod(v, r.p).Sign() == 0
}

// Rand implements Ring: a uniformly random canonical representative (p-1
// independent uniform coefficients). This gives information-theoretic
// hiding for additive shares.
//
// The fast path draws the coefficient vector through the bulk sampler
// (fastfield.RandVec), the reference path one field.(*Field).Rand per
// coefficient: the same accept-and-reduce rule over the same samples, so
// an rng whose bytes do not depend on how reads are chunked (a drbg.Stream)
// yields the same polynomial on both.
func (r *FpCyclotomic) Rand(rng io.Reader) (poly.Poly, error) {
	if r.fast != nil {
		vec := make([]uint64, r.n)
		if err := r.fast.RandVec(rng, vec); err != nil {
			return poly.Poly{}, err
		}
		return r.Unpack(vec), nil
	}
	coeffs := make([]*big.Int, r.n)
	for i := range coeffs {
		v, err := r.f.Rand(rng)
		if err != nil {
			return poly.Poly{}, err
		}
		coeffs[i] = v
	}
	return poly.New(coeffs...), nil
}

// RandPacked is Rand in the packed representation: it fills dst (length
// DegreeBound) with a fresh uniform share pad, with no big.Int boundary
// crossing. Only valid when the fast path is on; the values are exactly
// what Rand would draw from the same rng.
func (r *FpCyclotomic) RandPacked(rng io.Reader, dst []uint64) error {
	if r.fast == nil {
		return errors.New("ring: RandPacked requires the fast path")
	}
	if len(dst) != r.n {
		return fmt.Errorf("ring: RandPacked needs %d slots, got %d", r.n, len(dst))
	}
	return r.fast.RandVec(rng, dst)
}

// MaxTag implements Ring: usable tags are [1, p-2].
func (r *FpCyclotomic) MaxTag() *big.Int {
	return new(big.Int).Sub(r.p, big.NewInt(2))
}

// DegreeBound implements Ring.
func (r *FpCyclotomic) DegreeBound() int { return r.n }

// Params implements Ring.
func (r *FpCyclotomic) Params() Params {
	return Params{Kind: KindFpCyclotomic, P: new(big.Int).Set(r.p)}
}

var _ Ring = (*FpCyclotomic)(nil)
