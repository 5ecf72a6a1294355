package fastfield

import (
	"math/big"
	"math/rand"
	"testing"
)

// naiveDFTAt is one output of the reference transform from its definition,
// dst[k] = Σ_j src[j]·ω^{jk}, on the plain-domain Mul; pow[e] = ω^e.
func naiveDFTAt(f *Field, pow, src []uint64, k int) uint64 {
	var acc uint64
	for j, e := 0, 0; j < len(src); j, e = j+1, (e+k)%len(pow) {
		acc = f.Add(acc, f.Mul(src[j], pow[e]))
	}
	return acc
}

// naiveDFT is the O(n^2) reference transform: dst[k] = Σ_j src[j]·ω^{jk}.
func naiveDFT(f *Field, w uint64, src []uint64, inverse bool) []uint64 {
	n := len(src)
	if inverse {
		winv, _ := f.Inv(w)
		w = winv
	}
	pow := make([]uint64, n)
	pow[0] = 1
	for e := 1; e < n; e++ {
		pow[e] = f.Mul(pow[e-1], w)
	}
	dst := make([]uint64, n)
	for k := range dst {
		dst[k] = naiveDFTAt(f, pow, src, k)
	}
	if inverse {
		nInv, _ := f.Inv(f.Reduce(uint64(n)))
		for k := range dst {
			dst[k] = f.Mul(dst[k], nInv)
		}
	}
	return dst
}

// naiveCyclicMul is the schoolbook product in F_p[x]/(x^n - 1).
func naiveCyclicMul(f *Field, n int, a, b []uint64) []uint64 {
	out := make([]uint64, n)
	for i, ai := range a {
		for j, bj := range b {
			k := (i + j) % n
			out[k] = f.Add(out[k], f.Mul(ai, bj))
		}
	}
	return out
}

func randVec(rng *rand.Rand, f *Field, n int) []uint64 {
	v := make([]uint64, n)
	for i := range v {
		v[i] = rng.Uint64() % f.p
	}
	return v
}

// testPrimes: smooth p-1 of several radix shapes. 257→2^8, 97→2^5·3,
// 31→2·3·5, 211→2·3·5·7, 4099→2·3·683 is NOT smooth (683 > MaxRadix).
var smoothPrimes = []uint64{31, 97, 211, 257}

func TestNTTMulCyclicMatchesSchoolbook(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, p := range smoothPrimes {
		f, _ := New(p)
		n := int(p - 1)
		ntt, err := NewNTT(f, n)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 20; trial++ {
			la, lb := 1+rng.Intn(n), 1+rng.Intn(n)
			a, b := randVec(rng, f, la), randVec(rng, f, lb)
			got := make([]uint64, n)
			ntt.MulCyclicInto(got, a, b)
			want := naiveCyclicMul(f, n, a, b)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("p=%d trial=%d coeff %d: got %d want %d", p, trial, i, got[i], want[i])
				}
			}
		}
	}
}

func TestNTTProdCyclic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f, _ := New(97)
	n := 96
	ntt, err := NewNTT(f, n)
	if err != nil {
		t.Fatal(err)
	}
	factors := make([][]uint64, 5)
	want := []uint64{1}
	for i := range factors {
		factors[i] = randVec(rng, f, 1+rng.Intn(20))
		want = naiveCyclicMul(f, n, want, factors[i])
	}
	got := make([]uint64, n)
	ntt.ProdCyclicInto(got, factors...)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("coeff %d: got %d want %d", i, got[i], want[i])
		}
	}
	// Empty product is the ring's one.
	ntt.ProdCyclicInto(got, [][]uint64{}...)
	if got[0] != 1 {
		t.Fatalf("empty product: got %d want 1", got[0])
	}
	for _, v := range got[1:] {
		if v != 0 {
			t.Fatal("empty product has nonzero tail")
		}
	}
}

func TestNTTNotSmooth(t *testing.T) {
	// 226 = 2·113: 113 > MaxRadix.
	f, _ := New(227)
	if _, err := NewNTT(f, 226); err == nil {
		t.Fatal("expected ErrNotSmooth for n=226")
	}
}

func TestCyclicConvMatchesSchoolbook(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	// 227-1 = 2·113 and 1283-1 = 2·641: both hit the fallback.
	for _, p := range []uint64{227, 1283} {
		f, _ := New(p)
		n := int(p - 1)
		conv := NewCyclicConv(f, n)
		for trial := 0; trial < 10; trial++ {
			la, lb := 1+rng.Intn(n), 1+rng.Intn(n)
			a, b := randVec(rng, f, la), randVec(rng, f, lb)
			got := make([]uint64, n)
			conv.MulCyclicInto(got, a, b)
			want := naiveCyclicMul(f, n, a, b)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("p=%d trial=%d coeff %d: got %d want %d", p, trial, i, got[i], want[i])
				}
			}
		}
	}
}

// TestCyclicConvCRTPath forces the two-prime CRT combine: a modulus wide
// enough that min(la,lb)·(p-1)^2 overflows the first auxiliary prime.
// (p-1)^2 ≈ 2^42 at p ≈ 2^21, so length ≥ 2^20 crosses q1 ≈ 2^62. A full
// malicious-size case would be slow; instead check the bound arithmetic by
// shrinking through the internal path with a big.Int cross-check on a
// moderate case that still satisfies onePrime=false is exercised in
// TestAuxPrimes below via direct bound math.
func TestCyclicConvCRTPath(t *testing.T) {
	// 1048573 is prime; 1048572 = 2^2·3·87381 = 2^2·3·3·29127... use
	// factorization-independent fallback: force CyclicConv regardless of
	// smoothness — the fallback works for any n.
	const p = 1048573
	f, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	// n chosen so minLen·(p-1)^2 > q1: (p-1)^2 ≈ 2^40, so minLen ≥ 2^22
	// would be needed — too slow for a unit test. Instead verify the CRT
	// lift directly on a small synthetic convolution by lowering the
	// single-prime bound: compute with both primes by hand.
	n := 1 << 12
	conv := NewCyclicConv(f, n)
	rng := rand.New(rand.NewSource(11))
	a, b := randVec(rng, f, 100), randVec(rng, f, 100)
	got := make([]uint64, n)
	// Force the two-prime path by pretending the bound does not fit.
	conv.pm1sq = 1 << 63
	conv.MulCyclicInto(got, a, b)
	want := naiveCyclicMul(f, n, a, b)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("coeff %d: got %d want %d", i, got[i], want[i])
		}
	}
}

func TestAuxPrimes(t *testing.T) {
	for _, q := range auxPrimes {
		bq := new(big.Int).SetUint64(q)
		if !bq.ProbablyPrime(64) {
			t.Fatalf("auxiliary modulus %d is not prime", q)
		}
		// Transform sizes reach 2^23 (linear convolution of two length-2^22
		// vectors); both primes must carry at least that adicity.
		if (q-1)%(1<<24) != 0 {
			t.Fatalf("auxiliary modulus %d lacks 2^24 adicity", q)
		}
	}
	if auxPrimes[0] <= auxPrimes[1] {
		t.Fatal("auxPrimes must be descending (bound check uses auxPrimes[0])")
	}
}
