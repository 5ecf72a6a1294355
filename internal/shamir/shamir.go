// Package shamir implements Shamir's t-of-n secret sharing over a prime
// field, plus the additive 2-party sharing the search scheme uses directly
// (§4.2 of the paper calls it "a direct application of a basic secret
// sharing scheme") and the secure multi-party voting protocols the paper
// uses as its §3 worked example.
package shamir

import (
	"errors"
	"fmt"
	"io"
	"math/big"

	"sssearch/internal/field"
)

// Share is one party's share: the evaluation point X (1-based, nonzero) and
// the polynomial value Y = g(X).
type Share struct {
	X uint32
	Y *big.Int
}

// Scheme fixes a field, a reconstruction threshold t and a party count n.
// Any t of the n shares reconstruct the secret; t-1 shares reveal nothing.
type Scheme struct {
	f *field.Field
	t int
	n int
}

// NewScheme validates and builds a t-of-n scheme over f. Requires
// 1 <= t <= n and n < p (evaluation points 1..n must be distinct nonzero
// field elements).
func NewScheme(f *field.Field, t, n int) (*Scheme, error) {
	if t < 1 || n < 1 || t > n {
		return nil, fmt.Errorf("shamir: invalid threshold %d of %d", t, n)
	}
	if big.NewInt(int64(n)).Cmp(f.P()) >= 0 {
		return nil, fmt.Errorf("shamir: need n < p, got n=%d p=%s", n, f.P())
	}
	return &Scheme{f: f, t: t, n: n}, nil
}

// Threshold returns t.
func (s *Scheme) Threshold() int { return s.t }

// Parties returns n.
func (s *Scheme) Parties() int { return s.n }

// Field returns the underlying field.
func (s *Scheme) Field() *field.Field { return s.f }

// Split shares a secret: chooses a random polynomial g of degree t-1 with
// g(0) = secret and returns the n shares (i, g(i)) for i = 1..n.
func (s *Scheme) Split(secret *big.Int, rng io.Reader) ([]Share, error) {
	coeffs := make([]*big.Int, s.t)
	coeffs[0] = s.f.Reduce(secret)
	for i := 1; i < s.t; i++ {
		c, err := s.f.Rand(rng)
		if err != nil {
			return nil, err
		}
		coeffs[i] = c
	}
	shares := make([]Share, s.n)
	for i := 1; i <= s.n; i++ {
		shares[i-1] = Share{X: uint32(i), Y: evalAt(s.f, coeffs, int64(i))}
	}
	return shares, nil
}

// evalAt computes the polynomial with the given coefficients at x (Horner).
func evalAt(f *field.Field, coeffs []*big.Int, x int64) *big.Int {
	bx := f.FromInt64(x)
	acc := f.Zero()
	for i := len(coeffs) - 1; i >= 0; i-- {
		acc = f.Add(f.Mul(acc, bx), coeffs[i])
	}
	return acc
}

// Reconstruct recovers the secret (the value at x=0) from at least t
// shares with distinct X, by Lagrange interpolation.
func (s *Scheme) Reconstruct(shares []Share) (*big.Int, error) {
	return InterpolateAt(s.f, shares, s.f.Zero(), s.t)
}

// InterpolateAt evaluates the unique degree-<len(shares) polynomial through
// the shares at x0, requiring at least minShares points with distinct X.
func InterpolateAt(f *field.Field, shares []Share, x0 *big.Int, minShares int) (*big.Int, error) {
	if len(shares) < minShares {
		return nil, fmt.Errorf("shamir: need >= %d shares, got %d", minShares, len(shares))
	}
	seen := make(map[uint32]bool, len(shares))
	for _, sh := range shares {
		if sh.X == 0 {
			return nil, errors.New("shamir: share at x=0 is forbidden")
		}
		if seen[sh.X] {
			return nil, fmt.Errorf("shamir: duplicate share point x=%d", sh.X)
		}
		seen[sh.X] = true
	}
	// Lagrange: Σ_i y_i · ∏_{j≠i} (x0 - x_j)/(x_i - x_j).
	acc := f.Zero()
	for i, si := range shares {
		num := f.One()
		den := f.One()
		xi := f.FromInt64(int64(si.X))
		for j, sj := range shares {
			if i == j {
				continue
			}
			xj := f.FromInt64(int64(sj.X))
			num = f.Mul(num, f.Sub(x0, xj))
			den = f.Mul(den, f.Sub(xi, xj))
		}
		li, err := f.Div(num, den)
		if err != nil {
			return nil, fmt.Errorf("shamir: interpolation: %w", err)
		}
		acc = f.Add(acc, f.Mul(si.Y, li))
	}
	return acc, nil
}

// AddShares adds two share vectors pointwise: the shares of the sum of the
// secrets. Both vectors must cover the same points in the same order.
func (s *Scheme) AddShares(a, b []Share) ([]Share, error) {
	if len(a) != len(b) {
		return nil, errors.New("shamir: share vectors differ in length")
	}
	out := make([]Share, len(a))
	for i := range a {
		if a[i].X != b[i].X {
			return nil, fmt.Errorf("shamir: share point mismatch at %d: %d vs %d", i, a[i].X, b[i].X)
		}
		out[i] = Share{X: a[i].X, Y: s.f.Add(a[i].Y, b[i].Y)}
	}
	return out, nil
}

// MulShares multiplies two share vectors pointwise. The result lies on the
// product polynomial, whose degree is the sum of the operand degrees;
// reconstruction then needs correspondingly more shares. (This is the
// degree-growth behind the veto protocol's party requirement.)
func (s *Scheme) MulShares(a, b []Share) ([]Share, error) {
	if len(a) != len(b) {
		return nil, errors.New("shamir: share vectors differ in length")
	}
	out := make([]Share, len(a))
	for i := range a {
		if a[i].X != b[i].X {
			return nil, fmt.Errorf("shamir: share point mismatch at %d: %d vs %d", i, a[i].X, b[i].X)
		}
		out[i] = Share{X: a[i].X, Y: s.f.Mul(a[i].Y, b[i].Y)}
	}
	return out, nil
}

// SplitAdditive shares a secret additively among n parties: n-1 uniform
// values plus the difference. All n parts are required to reconstruct —
// the form the search scheme uses with n=2 (client + server).
func SplitAdditive(f *field.Field, secret *big.Int, n int, rng io.Reader) ([]*big.Int, error) {
	if n < 2 {
		return nil, errors.New("shamir: additive sharing needs n >= 2")
	}
	parts := make([]*big.Int, n)
	sum := f.Zero()
	for i := 0; i < n-1; i++ {
		v, err := f.Rand(rng)
		if err != nil {
			return nil, err
		}
		parts[i] = v
		sum = f.Add(sum, v)
	}
	parts[n-1] = f.Sub(f.Reduce(secret), sum)
	return parts, nil
}

// CombineAdditive reconstructs an additively shared secret.
func CombineAdditive(f *field.Field, parts []*big.Int) *big.Int {
	acc := f.Zero()
	for _, p := range parts {
		acc = f.Add(acc, p)
	}
	return acc
}
