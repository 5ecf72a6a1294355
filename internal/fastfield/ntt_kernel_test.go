package fastfield

import (
	"math"
	"math/big"
	"math/bits"
	"math/rand"
	"sync"
	"testing"
)

// kernelCases are the (p, n) shapes of the transform: every power of two
// 2…4096 dividing p-1 on the in-field primes and on both auxiliary primes
// (exactly reduced butterflies), mixed plans whose odd radices leave a
// power-of-two tail, and the nearly odd lengths of smoothPrimes.
func kernelCases() (cases []struct {
	p uint64
	n int
}) {
	add := func(p uint64, n int) {
		cases = append(cases, struct {
			p uint64
			n int
		}{p, n})
	}
	for _, p := range []uint64{257, 769, 12289, 65537, auxPrimes[0], auxPrimes[1]} {
		for n := 2; n <= 4096 && (p-1)%uint64(n) == 0; n *= 2 {
			add(p, n)
		}
	}
	for _, p := range smoothPrimes {
		add(p, int(p-1)) // 2·3·5, 2^5·3, 2·3·5·7, 2^8
	}
	add(769, 768)     // 3 · 2^8
	add(12289, 12288) // 3 · 2^12
	add(40961, 40960) // 5 · 2^13
	return cases
}

// checkedOutputs is every output index up to 1024 points and 256 spread
// ones beyond — the reference costs n multiplications an output.
func checkedOutputs(rng *rand.Rand, n int) []int {
	if n <= 1024 {
		ks := make([]int, n)
		for k := range ks {
			ks[k] = k
		}
		return ks
	}
	ks := []int{0, 1, 2, n/2 - 1, n / 2, n/2 + 1, n - 2, n - 1}
	for len(ks) < 256 {
		ks = append(ks, rng.Intn(n))
	}
	return ks
}

// TestNTTMatchesNaiveDFT: on every kernel shape the forward transform
// is the defining sum, the inverse undoes it, a short source transforms as
// its zero-padded self, and the deferred-reduction kernel is chosen exactly
// under its bound.
func TestNTTMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, c := range kernelCases() {
		f, err := New(c.p)
		if err != nil {
			t.Fatal(err)
		}
		ntt, err := NewNTT(f, c.n)
		if err != nil {
			t.Fatalf("p=%d n=%d: %v", c.p, c.n, err)
		}
		if hi, _ := bits.Mul64(uint64(ntt.pow2), c.p); ntt.lazy != (hi == 0) {
			t.Fatalf("p=%d n=%d: lazy=%v though pow2·p overflows a word: %v", c.p, c.n, ntt.lazy, hi != 0)
		}
		pow := make([]uint64, c.n)
		pow[0] = 1
		for e := 1; e < c.n; e++ {
			pow[e] = f.Mul(pow[e-1], ntt.root)
		}
		src := randVec(rng, f, c.n)
		src[rng.Intn(c.n)] = c.p - 1
		src[rng.Intn(c.n)] = 0
		got := make([]uint64, c.n)
		ntt.Transform(got, src, false)
		for _, k := range checkedOutputs(rng, c.n) {
			if want := naiveDFTAt(f, pow, src, k); got[k] != want {
				t.Fatalf("p=%d n=%d forward[%d] = %d, want %d", c.p, c.n, k, got[k], want)
			}
		}
		back := make([]uint64, c.n)
		ntt.Transform(back, got, true)
		for i := range src {
			if back[i] != src[i] {
				t.Fatalf("p=%d n=%d inverse∘forward[%d] = %d, want %d", c.p, c.n, i, back[i], src[i])
			}
		}
		// Short sources, an empty one included, read as zero-padded.
		for _, l := range []int{0, 1, c.n / 3, c.n/2 + 1, c.n - 1} {
			padded := make([]uint64, c.n)
			copy(padded, src[:l])
			want := make([]uint64, c.n)
			ntt.Transform(want, padded, false)
			for i := range got {
				got[i] = ^uint64(0) // stale destination
			}
			ntt.Transform(got, src[:l], false)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("p=%d n=%d: source of %d transforms to %d at %d, padded to %d", c.p, c.n, l, got[i], i, want[i])
				}
			}
		}
	}
}

// primeBelow is the largest prime ≤ limit that is ≡ 1 mod m.
func primeBelow(t *testing.T, limit, m uint64) uint64 {
	t.Helper()
	for c := limit - (limit-1)%m; c > m; c -= m {
		if new(big.Int).SetUint64(c).ProbablyPrime(32) {
			return c
		}
	}
	t.Fatalf("no prime ≡ 1 mod %d below %d", m, limit)
	return 0
}

// TestNTTDeferredReductionBound drives the deferred kernel at the largest
// modulus it is chosen for — where an unreduced sum comes closest to
// overflowing a word — on the inputs that grow fastest (every coefficient
// p-1 feeds the twiddle-free butterflies, whose sums double each stage),
// and the exact kernel just above the bound.
func TestNTTDeferredReductionBound(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, k := range []uint{1, 3, 8, 10} {
		n := 1 << k
		bound := uint64(math.MaxUint64) >> k // lazy iff p ≤ bound
		if bound >= 1<<MaxModulusBits {
			bound = 1<<MaxModulusBits - 1 // every supported modulus defers
		}
		pLazy := primeBelow(t, bound, uint64(n))
		primes := []uint64{pLazy}
		if above := bound + 1; above < 1<<MaxModulusBits {
			primes = append(primes, primeBelow(t, min(2*above, 1<<MaxModulusBits-1), uint64(n)))
		}
		for _, p := range primes {
			f, err := New(p)
			if err != nil {
				t.Fatal(err)
			}
			ntt, err := NewNTT(f, n)
			if err != nil {
				t.Fatal(err)
			}
			if ntt.lazy != (p <= uint64(math.MaxUint64)>>k) {
				t.Fatalf("p=%d n=%d: lazy=%v", p, n, ntt.lazy)
			}
			if p == pLazy && !ntt.lazy {
				t.Fatalf("p=%d n=%d is under the bound and not deferred", p, n)
			}
			worst := make([]uint64, n)
			for i := range worst {
				worst[i] = p - 1
			}
			alternating := make([]uint64, n)
			for i := range alternating {
				alternating[i] = uint64(i%2) * (p - 1)
			}
			for _, src := range [][]uint64{worst, alternating, randVec(rng, f, n)} {
				got := make([]uint64, n)
				ntt.Transform(got, src, false)
				want := naiveDFT(f, ntt.root, src, false)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("p=%d n=%d forward[%d] = %d, want %d", p, n, i, got[i], want[i])
					}
				}
				// The product path leaves both transforms unreduced into the
				// pointwise pass and the inverse transform.
				ntt.MulCyclicInto(got, src, worst)
				for i, want := range naiveCyclicMul(f, n, src, worst) {
					if got[i] != want {
						t.Fatalf("p=%d n=%d product[%d] = %d, want %d", p, n, i, got[i], want)
					}
				}
			}
		}
	}
}

// TestNTTRejectsBadArguments: a destination of the wrong length, a source
// longer than the transform and a source that is the destination all panic
// — none is truncated or half-written in silence.
func TestNTTRejectsBadArguments(t *testing.T) {
	f, _ := New(257)
	ntt, err := NewNTT(f, 256)
	if err != nil {
		t.Fatal(err)
	}
	ok, long, dst := make([]uint64, 256), make([]uint64, 257), make([]uint64, 256)
	for name, call := range map[string]func(){
		"Transform short dst":        func() { ntt.Transform(dst[:255], ok, false) },
		"Transform long dst":         func() { ntt.Transform(long, ok, false) },
		"Transform long source":      func() { ntt.Transform(dst, long, false) },
		"Transform aliased source":   func() { ntt.Transform(dst, dst[:100], true) },
		"MulCyclicInto short dst":    func() { ntt.MulCyclicInto(dst[:1], ok, ok) },
		"MulCyclicInto long a":       func() { ntt.MulCyclicInto(dst, long, ok) },
		"MulCyclicInto long b":       func() { ntt.MulCyclicInto(dst, ok, long) },
		"MulCyclicInto aliased":      func() { ntt.MulCyclicInto(dst, ok, dst) },
		"ProdCyclicInto short dst":   func() { ntt.ProdCyclicInto(dst[:7], ok) },
		"ProdCyclicInto long factor": func() { ntt.ProdCyclicInto(dst, ok, ok, long) },
		"ProdCyclicInto aliased":     func() { ntt.ProdCyclicInto(dst, dst, ok) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			call()
		}()
	}
	// Exactly n, shorter, and empty sources are all fine.
	ntt.Transform(dst, ok, false)
	ntt.MulCyclicInto(dst, ok[:3], nil)
	ntt.ProdCyclicInto(dst, ok, ok[:0], ok[:200])
}

// TestNTTConcurrentUse hammers shared transforms of each kernel shape
// — deferred power of two, mixed plan, exactly reduced — from many
// goroutines through every entry point; meaningful under -race.
func TestNTTConcurrentUse(t *testing.T) {
	for _, c := range []struct {
		p uint64
		n int
	}{{257, 256}, {97, 96}, {auxPrimes[0], 128}} {
		f, _ := New(c.p)
		ntt, err := NewNTT(f, c.n)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(c.n)))
		a, b, d := randVec(rng, f, c.n), randVec(rng, f, c.n/2), randVec(rng, f, 5)
		wantProd := naiveCyclicMul(f, c.n, naiveCyclicMul(f, c.n, a, b), d)
		wantFwd := naiveDFT(f, ntt.root, a, false)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				prod, fwd, back := make([]uint64, c.n), make([]uint64, c.n), make([]uint64, c.n)
				for i := 0; i < 20; i++ {
					ntt.ProdCyclicInto(prod, a, b, d)
					ntt.Transform(fwd, a, false)
					ntt.Transform(back, fwd, true)
				}
				for i := range wantProd {
					if prod[i] != wantProd[i] || fwd[i] != wantFwd[i] || back[i] != a[i] {
						t.Errorf("p=%d n=%d: concurrent use diverged at %d", c.p, c.n, i)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestTransformCost pins the unit ring's cutover is counted in: half a pair
// per element and radix-2 stage, r+1 per element and odd radix r, and
// NewNTT's refusal for a length that is not smooth.
func TestTransformCost(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{1, 0}, {2, 1}, {256, 256 * 8 / 2}, {96, 96*5/2 + 96*4}, {30, 30/2 + 30*(4+6)}, {15, 15 * (4 + 6)},
	} {
		if got, err := TransformCost(c.n); err != nil || got != c.want {
			t.Fatalf("TransformCost(%d) = %d, %v; want %d", c.n, got, err, c.want)
		}
	}
	if _, err := TransformCost(226); err == nil {
		t.Fatal("TransformCost(226) accepted a length NewNTT refuses")
	}
}
