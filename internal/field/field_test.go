package field

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"math/big"
	"testing"
	"testing/quick"
)

func TestNewRejectsComposite(t *testing.T) {
	if _, err := NewUint64(10); err != ErrNotPrime {
		t.Errorf("NewUint64(10) err = %v, want ErrNotPrime", err)
	}
	if _, err := New(big.NewInt(0)); err == nil {
		t.Error("New(0) should fail")
	}
	if _, err := New(nil); err == nil {
		t.Error("New(nil) should fail")
	}
	if _, err := NewUint64(5); err != nil {
		t.Errorf("NewUint64(5): %v", err)
	}
}

func TestBasicOpsF5(t *testing.T) {
	f := MustNew(5)
	if got := f.Add(f.FromInt64(3), f.FromInt64(4)); got.Int64() != 2 {
		t.Errorf("3+4 mod 5 = %v, want 2", got)
	}
	if got := f.Sub(f.FromInt64(1), f.FromInt64(3)); got.Int64() != 3 {
		t.Errorf("1-3 mod 5 = %v, want 3", got)
	}
	if got := f.Mul(f.FromInt64(3), f.FromInt64(4)); got.Int64() != 2 {
		t.Errorf("3*4 mod 5 = %v, want 2", got)
	}
	if got := f.Neg(f.FromInt64(2)); got.Int64() != 3 {
		t.Errorf("-2 mod 5 = %v, want 3", got)
	}
	if got := f.FromInt64(-6); got.Int64() != 4 {
		t.Errorf("-6 mod 5 = %v, want 4", got)
	}
}

func TestInvDiv(t *testing.T) {
	f := MustNew(97)
	for a := int64(1); a < 97; a++ {
		inv, err := f.Inv(f.FromInt64(a))
		if err != nil {
			t.Fatal(err)
		}
		if f.Mul(f.FromInt64(a), inv).Int64() != 1 {
			t.Errorf("inv(%d) wrong", a)
		}
	}
	if _, err := f.Inv(f.Zero()); err == nil {
		t.Error("Inv(0) should fail")
	}
	q, err := f.Div(f.FromInt64(10), f.FromInt64(4))
	if err != nil {
		t.Fatal(err)
	}
	if f.Mul(q, f.FromInt64(4)).Int64() != 10 {
		t.Error("Div incorrect")
	}
	if _, err := f.Div(f.One(), f.Zero()); err == nil {
		t.Error("Div by zero should fail")
	}
}

func TestExp(t *testing.T) {
	f := MustNew(13)
	got, err := f.Exp(f.FromInt64(2), big.NewInt(10))
	if err != nil {
		t.Fatal(err)
	}
	if got.Int64() != 1024%13 {
		t.Errorf("2^10 mod 13 = %v", got)
	}
	// Fermat: a^(p-1) = 1.
	for a := int64(1); a < 13; a++ {
		v, err := f.Exp(f.FromInt64(a), big.NewInt(12))
		if err != nil {
			t.Fatal(err)
		}
		if v.Int64() != 1 {
			t.Errorf("%d^12 mod 13 = %v, want 1 (Fermat)", a, v)
		}
	}
	// Negative exponent.
	v, err := f.Exp(f.FromInt64(2), big.NewInt(-1))
	if err != nil {
		t.Fatal(err)
	}
	if f.Mul(v, f.FromInt64(2)).Int64() != 1 {
		t.Error("negative exponent broken")
	}
	if _, err := f.Exp(f.Zero(), big.NewInt(-1)); err == nil {
		t.Error("0^-1 should fail")
	}
}

func TestFieldAxiomsProperty(t *testing.T) {
	f := MustNew(65537)
	cfg := &quick.Config{MaxCount: 300}
	// Commutativity, associativity, distributivity.
	err := quick.Check(func(a, b, c int64) bool {
		x, y, z := f.FromInt64(a), f.FromInt64(b), f.FromInt64(c)
		if f.Add(x, y).Cmp(f.Add(y, x)) != 0 {
			return false
		}
		if f.Mul(x, y).Cmp(f.Mul(y, x)) != 0 {
			return false
		}
		if f.Add(f.Add(x, y), z).Cmp(f.Add(x, f.Add(y, z))) != 0 {
			return false
		}
		if f.Mul(f.Mul(x, y), z).Cmp(f.Mul(x, f.Mul(y, z))) != 0 {
			return false
		}
		// a*(b+c) == a*b + a*c
		return f.Mul(x, f.Add(y, z)).Cmp(f.Add(f.Mul(x, y), f.Mul(x, z))) == 0
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Additive and multiplicative inverses.
	err = quick.Check(func(a int64) bool {
		x := f.FromInt64(a)
		if f.Add(x, f.Neg(x)).Sign() != 0 {
			return false
		}
		if x.Sign() == 0 {
			return true
		}
		inv, err := f.Inv(x)
		if err != nil {
			return false
		}
		return f.Mul(x, inv).Int64() == 1
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRandUniformRange(t *testing.T) {
	f := MustNew(5)
	counts := make(map[int64]int)
	for i := 0; i < 2000; i++ {
		v, err := f.Rand(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		if !f.Contains(v) {
			t.Fatalf("Rand out of range: %v", v)
		}
		counts[v.Int64()]++
	}
	for i := int64(0); i < 5; i++ {
		if counts[i] < 200 { // expected 400, generous slack
			t.Errorf("value %d drawn only %d times out of 2000", i, counts[i])
		}
	}
}

func TestRandNonZero(t *testing.T) {
	f := MustNew(3)
	for i := 0; i < 100; i++ {
		v, err := f.RandNonZero(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		if v.Sign() == 0 {
			t.Fatal("RandNonZero returned zero")
		}
	}
}

func TestRandDeterministicSource(t *testing.T) {
	f := MustNew(65537)
	src := bytes.NewReader(bytes.Repeat([]byte{0x01, 0x02, 0x03, 0x04}, 64))
	a, err := f.Rand(src)
	if err != nil {
		t.Fatal(err)
	}
	src2 := bytes.NewReader(bytes.Repeat([]byte{0x01, 0x02, 0x03, 0x04}, 64))
	b, err := f.Rand(src2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cmp(b) != 0 {
		t.Error("Rand not deterministic for identical source")
	}
}

func TestStringAndAccessors(t *testing.T) {
	f := MustNew(5)
	if f.String() != "F_5" {
		t.Errorf("String() = %q", f.String())
	}
	if f.P().Int64() != 5 || f.Order().Int64() != 5 || f.BitLen() != 3 {
		t.Error("accessors wrong")
	}
	// P must be a copy: mutating it must not corrupt the field.
	f.P().SetInt64(99)
	if f.Add(f.FromInt64(4), f.FromInt64(4)).Int64() != 3 {
		t.Error("field state was mutated via P()")
	}
}

func BenchmarkMul(b *testing.B) {
	f := MustNew(18446744073709551557)
	x := f.FromUint64(123456789123456789)
	for i := 0; i < b.N; i++ {
		x = f.Mul(x, x)
	}
}

// TestRandMatchesRandVec: the big.Int sampler and the word sampler are one
// rule. Over the same bytes — share-stream-like noise salted with samples
// at and around each modulus's acceptance limit, so rejections happen —
// element i of the vector fastfield.RandVec draws is the i-th Rand.
func TestRandMatchesRandVec(t *testing.T) {
	for _, p := range []uint64{97, 251, 257, 12289, 65537, 1<<61 - 1, 4611686018427387847} {
		f := MustNew(p)
		nbytes := (f.BitLen() + 7) / 8
		limit := new(big.Int).Lsh(big.NewInt(1), uint(8*nbytes))
		limit.Sub(limit, new(big.Int).Mod(limit, f.P()))
		var stream []byte
		h := sha256.Sum256([]byte(f.String()))
		for i := 0; i < 40; i++ {
			stream = append(stream, h[:]...)
			h = sha256.Sum256(h[:])
			for _, d := range []int64{-1, 0, 1} {
				edge := new(big.Int).Add(limit, big.NewInt(d))
				if edge.BitLen() <= 8*nbytes {
					stream = append(stream, edge.FillBytes(make([]byte, nbytes))...)
				}
			}
		}
		const n = 64
		vec := make([]uint64, n)
		if err := f.Fast().RandVec(bytes.NewReader(stream), vec); err != nil {
			t.Fatal(err)
		}
		src := bytes.NewReader(stream)
		for i, want := range vec {
			got, err := f.Rand(src)
			if err != nil {
				t.Fatal(err)
			}
			if !got.IsUint64() || got.Uint64() != want {
				t.Fatalf("F_%d: draw %d is %v from Rand, %d from RandVec", p, i, got, want)
			}
		}
	}
}
