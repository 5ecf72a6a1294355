package ring

import (
	"errors"
	"fmt"
	"io"
	"math/big"

	"sssearch/internal/poly"
)

// DefaultRandBound is the default coefficient bound for IntQuotient share
// pads: coefficients are drawn uniformly from [-B, B] with B = 2^128.
// Over Z a finite pad cannot hide unbounded data information-theoretically;
// 2^128 gives 128 bits of statistical hiding for the coefficient sizes that
// occur in practice (the paper is silent on this point).
var DefaultRandBound = new(big.Int).Lsh(big.NewInt(1), 128)

// IntQuotient is the quotient ring Z[x]/(r(x)) for a monic irreducible
// integer polynomial r. Canonical representatives have degree < deg(r);
// their integer coefficients are unbounded and grow with tree size (§5 of
// the paper — measured by the `coeffgrowth` experiment).
type IntQuotient struct {
	r         poly.Poly
	deg       int
	randBound *big.Int
	// sampleBytes and sampleExcess precompute rejection-sampling parameters
	// for Rand: we draw values uniform in [0, 2B] and shift by -B.
	sampleSpan *big.Int // 2B+1
}

// NewIntQuotient constructs Z[x]/(r(x)) with the default pad bound.
// r must be monic of degree >= 1 and certifiably irreducible over Z
// (verified via reduction modulo small primes; see CertifyIrreducible).
func NewIntQuotient(r poly.Poly) (*IntQuotient, error) {
	return NewIntQuotientWithBound(r, DefaultRandBound)
}

// NewIntQuotientWithBound is NewIntQuotient with an explicit pad coefficient
// bound B >= 2 (shares drawn uniformly from [-B, B]).
func NewIntQuotientWithBound(r poly.Poly, bound *big.Int) (*IntQuotient, error) {
	if r.Degree() < 1 {
		return nil, errors.New("ring: modulus must have degree >= 1")
	}
	if !r.IsMonic() {
		return nil, errors.New("ring: modulus must be monic")
	}
	if err := CertifyIrreducible(r); err != nil {
		return nil, err
	}
	if bound == nil || bound.Cmp(big.NewInt(2)) < 0 {
		return nil, errors.New("ring: pad bound must be >= 2")
	}
	span := new(big.Int).Lsh(bound, 1)
	span.Add(span, big.NewInt(1))
	return &IntQuotient{
		r:          r,
		deg:        r.Degree(),
		randBound:  new(big.Int).Set(bound),
		sampleSpan: span,
	}, nil
}

// MustIntQuotient is NewIntQuotient but panics on error (tests).
func MustIntQuotient(coeffs ...int64) *IntQuotient {
	r, err := NewIntQuotient(poly.FromInt64(coeffs...))
	if err != nil {
		panic(err)
	}
	return r
}

// Kind implements Ring.
func (q *IntQuotient) Kind() Kind { return KindIntQuotient }

// Name implements Ring.
func (q *IntQuotient) Name() string { return fmt.Sprintf("Z[x]/(%s)", q.r) }

// Modulus returns the quotient polynomial r(x).
func (q *IntQuotient) Modulus() poly.Poly { return q.r }

// Reduce implements Ring.
func (q *IntQuotient) Reduce(p poly.Poly) poly.Poly {
	rem, err := p.Mod(q.r)
	if err != nil {
		// r is monic and nonzero by construction; Mod cannot fail.
		panic(fmt.Sprintf("ring: reduce: %v", err))
	}
	return rem
}

// Add implements Ring.
func (q *IntQuotient) Add(a, b poly.Poly) poly.Poly { return q.Reduce(a.Add(b)) }

// Sub implements Ring.
func (q *IntQuotient) Sub(a, b poly.Poly) poly.Poly { return q.Reduce(a.Sub(b)) }

// Neg implements Ring.
func (q *IntQuotient) Neg(a poly.Poly) poly.Poly { return q.Reduce(a.Neg()) }

// Mul implements Ring.
func (q *IntQuotient) Mul(a, b poly.Poly) poly.Poly { return q.Reduce(a.Mul(b)) }

// Zero implements Ring.
func (q *IntQuotient) Zero() poly.Poly { return poly.Zero() }

// One implements Ring.
func (q *IntQuotient) One() poly.Poly { return poly.One() }

// Linear implements Ring.
func (q *IntQuotient) Linear(root *big.Int) poly.Poly {
	return q.Reduce(poly.Linear(root))
}

// Equal implements Ring.
func (q *IntQuotient) Equal(a, b poly.Poly) bool {
	return q.Reduce(a).Equal(q.Reduce(b))
}

// Eval implements Ring: the homomorphism Z[x]/(r(x)) → Z/(r(a)), x ↦ a.
// Well defined whenever |r(a)| > 1 (figure 6 of the paper: "everything is
// calculated modulo r(2) = 5").
func (q *IntQuotient) Eval(f poly.Poly, a *big.Int) (*big.Int, error) {
	m, err := q.EvalModulus(a)
	if err != nil {
		return nil, err
	}
	return f.EvalMod(a, m), nil
}

// EvalModulus implements Ring: |r(a)|.
func (q *IntQuotient) EvalModulus(a *big.Int) (*big.Int, error) {
	m := q.r.Eval(a)
	m.Abs(m)
	if m.Cmp(big.NewInt(1)) <= 0 {
		return nil, fmt.Errorf("%w: |r(%s)| = %s", ErrEvalUndefined, a, m)
	}
	return m, nil
}

// SolveScalar implements Ring: exact integer division num/den.
func (q *IntQuotient) SolveScalar(num, den *big.Int) (*big.Int, bool) {
	if den.Sign() == 0 {
		return nil, false
	}
	t, rem := new(big.Int).QuoRem(num, den, new(big.Int))
	if rem.Sign() != 0 {
		return nil, false
	}
	return t, true
}

// CoeffZero implements Ring.
func (q *IntQuotient) CoeffZero(v *big.Int) bool { return v.Sign() == 0 }

// Rand implements Ring: deg(r) coefficients uniform in [-B, B].
func (q *IntQuotient) Rand(rng io.Reader) (poly.Poly, error) {
	coeffs := make([]*big.Int, q.deg)
	for i := range coeffs {
		v, err := uniformBelow(rng, q.sampleSpan)
		if err != nil {
			return poly.Poly{}, err
		}
		coeffs[i] = v.Sub(v, q.randBound)
	}
	return poly.New(coeffs...), nil
}

// RandBound returns the configured pad coefficient bound.
func (q *IntQuotient) RandBound() *big.Int { return new(big.Int).Set(q.randBound) }

// MaxTag implements Ring: tags are unbounded over Z (nil).
func (q *IntQuotient) MaxTag() *big.Int { return nil }

// DegreeBound implements Ring.
func (q *IntQuotient) DegreeBound() int { return q.deg }

// Params implements Ring.
func (q *IntQuotient) Params() Params {
	return Params{Kind: KindIntQuotient, R: q.r, RandBound: new(big.Int).Set(q.randBound)}
}

// uniformBelow draws a uniform integer in [0, n) by rejection sampling.
func uniformBelow(rng io.Reader, n *big.Int) (*big.Int, error) {
	bits := n.BitLen()
	nbytes := (bits + 7) / 8
	buf := make([]byte, nbytes)
	excess := uint(nbytes*8 - bits)
	for {
		if _, err := io.ReadFull(rng, buf); err != nil {
			return nil, err
		}
		buf[0] &= byte(0xff >> excess)
		v := new(big.Int).SetBytes(buf)
		if v.Cmp(n) < 0 {
			return v, nil
		}
	}
}

var _ Ring = (*IntQuotient)(nil)
