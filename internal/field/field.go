// Package field implements arithmetic in the prime field F_p used by both
// the F_p[x]/(x^{p-1}-1) quotient ring of the scheme and the Shamir secret
// sharing layer.
//
// Elements are canonical *big.Int values in [0, p). All methods return fresh
// big.Int values and never mutate their arguments, so elements can be shared
// freely across goroutines once created.
package field

import (
	"errors"
	"fmt"
	"io"
	"math/big"

	"sssearch/internal/fastfield"
)

// Field is the prime field F_p. The zero value is not usable; construct with
// New or NewUint64.
type Field struct {
	p *big.Int
	// pMinus1 caches p-1, used for exponent reduction and range checks.
	pMinus1 *big.Int
	// fast is the word-sized arithmetic engine for this modulus, or nil
	// when p exceeds fastfield.MaxModulusBits. Callers on hot paths check
	// Fast() and fall back to the big.Int methods below.
	fast *fastfield.Field
	// randBytes and randLimit shape Rand: a sample is w = 8·randBytes bits
	// and is accepted below randLimit = p·⌊2^w/p⌋.
	randBytes int
	randLimit *big.Int
}

var (
	// ErrNotPrime is returned by New when the modulus fails a primality test.
	ErrNotPrime = errors.New("field: modulus is not prime")
	// ErrWrongField is returned when elements from different fields are mixed.
	ErrWrongField = errors.New("field: element out of range for this field")
	errNoInverse  = errors.New("field: zero has no inverse")
)

// New constructs F_p for a prime p. Primality is verified
// (ProbablyPrime(32), exact for all uint64-sized inputs in practice).
func New(p *big.Int) (*Field, error) {
	if p == nil || p.Sign() <= 0 {
		return nil, errors.New("field: modulus must be positive")
	}
	if !p.ProbablyPrime(32) {
		return nil, ErrNotPrime
	}
	return newField(new(big.Int).Set(p)), nil
}

// newField builds F_p around a prime p the field owns.
func newField(p *big.Int) *Field {
	nbytes := (p.BitLen() + 7) / 8
	span := new(big.Int).Lsh(big.NewInt(1), uint(8*nbytes))
	return &Field{
		p:         p,
		pMinus1:   new(big.Int).Sub(p, big.NewInt(1)),
		fast:      fastPath(p),
		randBytes: nbytes,
		randLimit: span.Sub(span, new(big.Int).Mod(span, p)),
	}
}

// fastPath builds the word-sized engine when the modulus supports it.
func fastPath(p *big.Int) *fastfield.Field {
	if !fastfield.Supported(p) {
		return nil
	}
	f, err := fastfield.New(p.Uint64())
	if err != nil {
		return nil
	}
	return f
}

// NewUint64 constructs F_p for a prime p given as uint64.
func NewUint64(p uint64) (*Field, error) {
	bp := new(big.Int).SetUint64(p)
	if !bp.ProbablyPrime(32) {
		return nil, ErrNotPrime
	}
	return newField(bp), nil
}

// MustNew is New but panics on error; intended for tests and constants.
func MustNew(p uint64) *Field {
	f, err := NewUint64(p)
	if err != nil {
		panic(err)
	}
	return f
}

// P returns (a copy of) the field characteristic.
func (f *Field) P() *big.Int { return new(big.Int).Set(f.p) }

// Fast returns the word-sized fast-path engine for this field, or nil
// when the modulus exceeds fastfield.MaxModulusBits. The fast engine
// computes the same results as the big.Int methods (differentially
// tested); hot paths use it to avoid per-operation allocations.
func (f *Field) Fast() *fastfield.Field { return f.fast }

// Order returns the number of elements of the field (same as P for F_p).
func (f *Field) Order() *big.Int { return f.P() }

// BitLen returns the bit length of the modulus.
func (f *Field) BitLen() int { return f.p.BitLen() }

// Reduce maps an arbitrary integer into its canonical representative in [0,p).
func (f *Field) Reduce(a *big.Int) *big.Int {
	r := new(big.Int).Mod(a, f.p)
	return r
}

// FromInt64 returns the canonical element congruent to v.
func (f *Field) FromInt64(v int64) *big.Int {
	return f.Reduce(big.NewInt(v))
}

// FromUint64 returns the canonical element congruent to v.
func (f *Field) FromUint64(v uint64) *big.Int {
	return f.Reduce(new(big.Int).SetUint64(v))
}

// Zero returns the additive identity.
func (f *Field) Zero() *big.Int { return big.NewInt(0) }

// One returns the multiplicative identity.
func (f *Field) One() *big.Int { return f.Reduce(big.NewInt(1)) }

// Contains reports whether a is a canonical representative (0 <= a < p).
func (f *Field) Contains(a *big.Int) bool {
	return a != nil && a.Sign() >= 0 && a.Cmp(f.p) < 0
}

// Add returns a + b mod p.
func (f *Field) Add(a, b *big.Int) *big.Int {
	return f.Reduce(new(big.Int).Add(a, b))
}

// Sub returns a - b mod p.
func (f *Field) Sub(a, b *big.Int) *big.Int {
	return f.Reduce(new(big.Int).Sub(a, b))
}

// Neg returns -a mod p.
func (f *Field) Neg(a *big.Int) *big.Int {
	return f.Reduce(new(big.Int).Neg(a))
}

// Mul returns a * b mod p.
func (f *Field) Mul(a, b *big.Int) *big.Int {
	return f.Reduce(new(big.Int).Mul(a, b))
}

// Inv returns a^{-1} mod p, or an error if a ≡ 0.
func (f *Field) Inv(a *big.Int) (*big.Int, error) {
	r := f.Reduce(a)
	if r.Sign() == 0 {
		return nil, errNoInverse
	}
	return new(big.Int).ModInverse(r, f.p), nil
}

// Div returns a / b mod p, or an error if b ≡ 0.
func (f *Field) Div(a, b *big.Int) (*big.Int, error) {
	bi, err := f.Inv(b)
	if err != nil {
		return nil, err
	}
	return f.Mul(a, bi), nil
}

// Exp returns a^e mod p. Negative exponents are supported when a is
// invertible.
func (f *Field) Exp(a, e *big.Int) (*big.Int, error) {
	base := f.Reduce(a)
	if e.Sign() < 0 {
		inv, err := f.Inv(base)
		if err != nil {
			return nil, err
		}
		return new(big.Int).Exp(inv, new(big.Int).Neg(e), f.p), nil
	}
	return new(big.Int).Exp(base, e, f.p), nil
}

// Equal reports whether a ≡ b (mod p).
func (f *Field) Equal(a, b *big.Int) bool {
	return f.Reduce(a).Cmp(f.Reduce(b)) == 0
}

// Rand returns a uniformly random canonical element, reading entropy (or a
// share stream) from r: w-bit big-endian samples v, the first one below
// p·⌊2^w/p⌋ reduced mod p. Every residue has exactly ⌊2^w/p⌋ accepted
// preimages, so there is no modular bias, and fastfield.RandVec — the same
// rule on words — draws the same elements from the same stream.
func (f *Field) Rand(r io.Reader) (*big.Int, error) {
	buf := make([]byte, f.randBytes)
	for {
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, fmt.Errorf("field: rand: %w", err)
		}
		v := new(big.Int).SetBytes(buf)
		if v.Cmp(f.randLimit) < 0 {
			return v.Mod(v, f.p), nil
		}
	}
}

// RandNonZero returns a uniformly random non-zero element.
func (f *Field) RandNonZero(r io.Reader) (*big.Int, error) {
	for {
		v, err := f.Rand(r)
		if err != nil {
			return nil, err
		}
		if v.Sign() != 0 {
			return v, nil
		}
	}
}

// String implements fmt.Stringer.
func (f *Field) String() string { return fmt.Sprintf("F_%s", f.p) }
