package fastfield

import (
	"crypto/sha256"
	"math/big"
	"math/rand"
	"testing"

	"sssearch/internal/drbg"
)

// testPrimes spans the deployable range: tiny paper primes, the defaults
// used by benchmarks, a Mersenne prime near the top, and the largest
// prime below 2^62.
var testPrimes = []uint64{
	5, 7, 257, 1009, 65537,
	(1 << 61) - 1,       // Mersenne
	4611686018427387847, // largest prime < 2^62
}

func TestTestPrimesArePrime(t *testing.T) {
	for _, p := range testPrimes {
		if !new(big.Int).SetUint64(p).ProbablyPrime(64) {
			t.Fatalf("test prime %d is not prime", p)
		}
	}
}

// edgeValues returns the boundary elements every op is checked at.
func edgeValues(p uint64) []uint64 {
	vals := []uint64{0, 1, p - 1}
	if p > 2 {
		vals = append(vals, p-2, p/2)
	}
	return vals
}

func TestNewRejectsUnsupported(t *testing.T) {
	for _, p := range []uint64{0, 1, 2, 4, 1 << 62, 1<<62 + 1, ^uint64(0)} {
		if _, err := New(p); err == nil {
			t.Errorf("New(%d) accepted an unsupported modulus", p)
		}
	}
	if Supported(new(big.Int).Lsh(big.NewInt(1), 62)) {
		t.Error("Supported accepted a 63-bit modulus")
	}
	if !Supported(new(big.Int).SetUint64(257)) {
		t.Error("Supported rejected 257")
	}
}

func TestScalarOpsDifferential(t *testing.T) {
	for _, p := range testPrimes {
		f, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		bp := new(big.Int).SetUint64(p)
		rng := rand.New(rand.NewSource(int64(p)))
		var cases []uint64
		cases = append(cases, edgeValues(p)...)
		for i := 0; i < 40; i++ {
			cases = append(cases, rng.Uint64()%p)
		}
		mod := func(x *big.Int) uint64 { return new(big.Int).Mod(x, bp).Uint64() }
		for _, a := range cases {
			ba := new(big.Int).SetUint64(a)
			if got, want := f.Neg(a), mod(new(big.Int).Neg(ba)); got != want {
				t.Fatalf("p=%d Neg(%d) = %d, want %d", p, a, got, want)
			}
			if inv, ok := f.Inv(a); ok != (a != 0) {
				t.Fatalf("p=%d Inv(%d) ok=%v", p, a, ok)
			} else if ok {
				if got := f.Mul(a, inv); got != 1 {
					t.Fatalf("p=%d Inv(%d)=%d does not invert (a*inv=%d)", p, a, inv, got)
				}
			}
			e := rng.Uint64() % 1000
			wantExp := new(big.Int).Exp(ba, new(big.Int).SetUint64(e), bp).Uint64()
			if got := f.Exp(a, e); got != wantExp {
				t.Fatalf("p=%d Exp(%d,%d) = %d, want %d", p, a, e, got, wantExp)
			}
			for _, b := range cases {
				bb := new(big.Int).SetUint64(b)
				if got, want := f.Add(a, b), mod(new(big.Int).Add(ba, bb)); got != want {
					t.Fatalf("p=%d Add(%d,%d) = %d, want %d", p, a, b, got, want)
				}
				if got, want := f.Sub(a, b), mod(new(big.Int).Sub(ba, bb)); got != want {
					t.Fatalf("p=%d Sub(%d,%d) = %d, want %d", p, a, b, got, want)
				}
				wantMul := mod(new(big.Int).Mul(ba, bb))
				if got := f.Mul(a, b); got != wantMul {
					t.Fatalf("p=%d Mul(%d,%d) = %d, want %d", p, a, b, got, wantMul)
				}
				if got := f.MRed(a, f.MForm(b)); got != wantMul {
					t.Fatalf("p=%d MRed(%d,MForm(%d)) = %d, want %d", p, a, b, got, wantMul)
				}
			}
		}
	}
}

func TestBatchInv(t *testing.T) {
	for _, p := range testPrimes {
		f, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		src := make([]uint64, 33)
		for i := range src {
			src[i] = rng.Uint64() % p
		}
		src[0], src[13] = 0, 0 // zeros map to zero
		dst := make([]uint64, len(src))
		f.BatchInv(dst, src)
		for i, v := range src {
			if v == 0 {
				if dst[i] != 0 {
					t.Fatalf("p=%d BatchInv zero slot %d = %d", p, i, dst[i])
				}
				continue
			}
			inv, _ := f.Inv(v)
			if dst[i] != inv {
				t.Fatalf("p=%d BatchInv[%d] = %d, want %d", p, i, dst[i], inv)
			}
		}
		// In-place and all-zero variants.
		f.BatchInv(src, src)
		if src[1] != dst[1] {
			t.Fatalf("p=%d in-place BatchInv diverged", p)
		}
		zeros := make([]uint64, 5)
		f.BatchInv(zeros, zeros)
		for _, v := range zeros {
			if v != 0 {
				t.Fatalf("p=%d BatchInv of zeros produced %d", p, v)
			}
		}
	}
}

func TestEvalDifferential(t *testing.T) {
	for _, p := range testPrimes {
		f, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		bp := new(big.Int).SetUint64(p)
		rng := rand.New(rand.NewSource(int64(p) ^ 0x5ee))
		for _, n := range []int{0, 1, 2, 17, 64} {
			coeffs := make([]uint64, n)
			for i := range coeffs {
				coeffs[i] = rng.Uint64() % p
			}
			points := append(edgeValues(p), rng.Uint64()%p, rng.Uint64()%p)
			// Reference Horner over big.Int.
			ref := func(x uint64) uint64 {
				acc := new(big.Int)
				bx := new(big.Int).SetUint64(x)
				for i := n - 1; i >= 0; i-- {
					acc.Mul(acc, bx)
					acc.Add(acc, new(big.Int).SetUint64(coeffs[i]))
					acc.Mod(acc, bp)
				}
				return acc.Uint64()
			}
			xsM := make([]uint64, len(points))
			f.MFormVec(xsM, points)
			dst := make([]uint64, len(points))
			f.EvalMany(coeffs, xsM, dst)
			for j, x := range points {
				want := ref(x)
				if got := f.Eval(coeffs, x); got != want {
					t.Fatalf("p=%d n=%d Eval(x=%d) = %d, want %d", p, n, x, got, want)
				}
				if dst[j] != want {
					t.Fatalf("p=%d n=%d EvalMany(x=%d) = %d, want %d", p, n, x, dst[j], want)
				}
			}
		}
	}
}

// TestEvalFewPointsDifferential: below horner4Points EvalMany splits the
// polynomial into four chains; every length around the group size and the
// ring sizes in use, with one to three points, must agree with the plain
// single-chain Horner pass.
func TestEvalFewPointsDifferential(t *testing.T) {
	single := func(f *Field, coeffs []uint64, x uint64) uint64 {
		xm := f.MForm(x)
		var acc uint64
		for i := len(coeffs) - 1; i >= 0; i-- {
			acc = f.Add(f.MRed(acc, xm), coeffs[i])
		}
		return acc
	}
	lengths := []int{255, 256, 257, 1282}
	for n := 0; n <= 13; n++ {
		lengths = append(lengths, n)
	}
	for _, p := range testPrimes {
		f, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(p) ^ 0x4c4))
		for _, n := range lengths {
			coeffs := make([]uint64, n)
			for i := range coeffs {
				coeffs[i] = rng.Uint64() % p
			}
			if n > 0 && n%2 == 0 {
				coeffs[n-1] = p - 1 // extreme leading coefficient
			}
			for pts := 1; pts < horner4Points; pts++ {
				xs := append([]uint64{}, edgeValues(p)...)
				rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
				xs = append(xs[:pts-1:pts-1], rng.Uint64()%p)
				xsM := make([]uint64, pts)
				f.MFormVec(xsM, xs)
				dst := make([]uint64, pts)
				f.EvalMany(coeffs, xsM, dst)
				for j, x := range xs {
					if want := single(f, coeffs, x); dst[j] != want {
						t.Fatalf("p=%d n=%d, %d points: EvalMany(x=%d) = %d, single chain %d", p, n, pts, x, dst[j], want)
					}
				}
			}
		}
	}
}

func TestEvalManyAllocationFree(t *testing.T) {
	f, err := New(257)
	if err != nil {
		t.Fatal(err)
	}
	coeffs := make([]uint64, 256)
	for i := range coeffs {
		coeffs[i] = uint64(i) % 257
	}
	xsM := make([]uint64, 4)
	f.MFormVec(xsM, []uint64{2, 3, 5, 7})
	dst := make([]uint64, 4)
	avg := testing.AllocsPerRun(100, func() { f.EvalMany(coeffs, xsM, dst) })
	if avg != 0 {
		t.Fatalf("EvalMany allocates %v times per run, want 0", avg)
	}
}

// TestRandVecDistribution is the loose end-to-end look at a real share
// stream; randvec_test.go proves the rule itself exactly uniform.
func TestRandVecDistribution(t *testing.T) {
	const p = 257
	f, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	seed := drbg.Seed(sha256.Sum256([]byte("randvec")))
	g := drbg.NewDeriver(seed, "dist").ForNode(nil)
	dst := make([]uint64, 20000)
	if err := f.RandVec(g, dst); err != nil {
		t.Fatal(err)
	}
	counts := make([]int, p)
	for _, v := range dst {
		if v >= p {
			t.Fatalf("RandVec produced out-of-range %d", v)
		}
		counts[v]++
	}
	// Loose uniformity check: every residue appears, no residue dominates.
	for v, c := range counts {
		if c == 0 {
			t.Fatalf("residue %d never drawn in %d samples", v, len(dst))
		}
		if c > 4*len(dst)/int(p) {
			t.Fatalf("residue %d drawn %d times (expected ~%d)", v, c, len(dst)/int(p))
		}
	}
}

func TestRandVecDeterministic(t *testing.T) {
	f, err := New(1009)
	if err != nil {
		t.Fatal(err)
	}
	seed := drbg.Seed(sha256.Sum256([]byte("det")))
	a := make([]uint64, 100)
	b := make([]uint64, 100)
	if err := f.RandVec(drbg.NewDeriver(seed, "x").ForNode(nil), a); err != nil {
		t.Fatal(err)
	}
	if err := f.RandVec(drbg.NewDeriver(seed, "x").ForNode(nil), b); err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("RandVec not deterministic at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func BenchmarkMRed(b *testing.B) {
	f, _ := New((1 << 61) - 1)
	x := f.MForm(123456789)
	acc := uint64(987654321)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc = f.MRed(acc, x)
	}
	_ = acc
}

func BenchmarkEvalMany256x4(b *testing.B) {
	f, _ := New(257)
	coeffs := make([]uint64, 256)
	for i := range coeffs {
		coeffs[i] = uint64(i) % 257
	}
	xsM := make([]uint64, 4)
	f.MFormVec(xsM, []uint64{2, 3, 5, 7})
	dst := make([]uint64, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.EvalMany(coeffs, xsM, dst)
	}
}
