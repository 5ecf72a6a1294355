package ring

import (
	"math/bits"
	"math/rand"
	"sync"
	"testing"
)

// nttTestPrimes spans both engine paths: 31 and 257 have MaxRadix-smooth
// p-1 (mixed-radix NTT); 227 (226 = 2·113) and 1283 (1282 = 2·641) do not
// and exercise the auxiliary-prime convolution fallback.
var nttTestPrimes = []uint64{31, 257, 227, 1283}

func randPacked(rng *rand.Rand, p uint64, n int) []uint64 {
	v := make([]uint64, n)
	for i := range v {
		v[i] = rng.Uint64() % p
	}
	return v
}

// TestMulPackedNTTDifferential pins the engine-routed MulPacked against
// the schoolbook reference across random operand sizes on both smooth and
// fallback rings, with a big.Int cross-check (SetFast(false)) on a
// subset of trials. Sizes are drawn to straddle the cutover so both the
// short schoolbook path and the transform path are hit.
func TestMulPackedNTTDifferential(t *testing.T) {
	for _, p := range nttTestPrimes {
		r := MustFp(p)
		ref := MustFp(p)
		ref.SetFast(false)
		n := r.DegreeBound()
		rng := rand.New(rand.NewSource(int64(p) * 101))
		for trial := 0; trial < 40; trial++ {
			la, lb := 1+rng.Intn(n), 1+rng.Intn(n)
			pa, pb := randPacked(rng, p, la), randPacked(rng, p, lb)
			got := r.MulPacked(pa, pb)
			want := r.MulPackedSchoolbook(pa, pb)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("p=%d la=%d lb=%d coeff %d: NTT %d, schoolbook %d", p, la, lb, i, got[i], want[i])
				}
			}
			// big.Int cross-check on a few trials (O(n²) big.Int is slow on
			// the wide rings).
			if trial < 5 {
				bigWant := ref.Mul(r.Unpack(pa), r.Unpack(pb))
				if !r.Unpack(got).Equal(bigWant) {
					t.Fatalf("p=%d la=%d lb=%d: NTT diverged from big.Int reference", p, la, lb)
				}
			}
		}
	}
}

// TestMulPackedCutoverBoundary walks operand sizes across the schoolbook→
// engine cutover (the first square product the engine takes, ±2 a side) —
// the seam where the two paths hand over must be invisible. F_257 crosses
// into the power-of-two kernel, F_97 and F_12289 into mixed plans with a
// power-of-two tail, F_227 into the convolution fallback.
func TestMulPackedCutoverBoundary(t *testing.T) {
	for _, p := range []uint64{257, 97, 12289, 227} {
		r := MustFp(p)
		rng := rand.New(rand.NewSource(int64(p)))
		side := 1
		for ; side <= r.DegreeBound(); side++ {
			if ntt, conv := r.engine(side, side); ntt != nil || conv != nil {
				break
			}
		}
		if side > r.DegreeBound() {
			t.Fatalf("p=%d: no square product reaches the engine", p)
		}
		for _, la := range []int{side - 2, side - 1, side, side + 1} {
			if la < 1 || la > r.DegreeBound() {
				continue
			}
			for _, lb := range []int{side - 1, side, side + 1} {
				if lb < 1 || lb > r.DegreeBound() {
					continue
				}
				pa, pb := randPacked(rng, p, la), randPacked(rng, p, lb)
				got := r.MulPacked(pa, pb)
				want := r.MulPackedSchoolbook(pa, pb)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("p=%d la=%d lb=%d (seam %d) coeff %d: %d != %d",
							p, la, lb, side, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestMulPackedProdDifferential pins the multi-factor product against the
// left-to-right schoolbook fold, including empty and single-factor lists
// and a zero factor annihilating the product.
func TestMulPackedProdDifferential(t *testing.T) {
	for _, p := range []uint64{31, 257, 227} {
		r := MustFp(p)
		n := r.DegreeBound()
		rng := rand.New(rand.NewSource(int64(p) * 7))
		for trial := 0; trial < 25; trial++ {
			k := rng.Intn(6)
			factors := make([][]uint64, k)
			want := make([]uint64, n)
			want[0] = 1
			for i := range factors {
				factors[i] = randPacked(rng, p, 1+rng.Intn(n/2+1))
				want = r.MulPackedSchoolbook(want, factors[i])
			}
			got := r.MulPackedProd(factors...)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("p=%d k=%d coeff %d: prod %d, fold %d", p, k, i, got[i], want[i])
				}
			}
		}
		// A zero factor annihilates the product regardless of path.
		got := r.MulPackedProd(randPacked(rng, p, n), []uint64{0}, randPacked(rng, p, n))
		for i, v := range got {
			if v != 0 {
				t.Fatalf("p=%d: zero factor left coeff %d = %d", p, i, v)
			}
		}
	}
}

// TestSetNTTAblation: with the engine toggled off every product must run
// schoolbook and still match; toggled back on, the cached tables resume.
func TestSetNTTAblation(t *testing.T) {
	r := MustFp(257)
	rng := rand.New(rand.NewSource(42))
	pa, pb := randPacked(rng, 257, 256), randPacked(rng, 257, 256)
	on := r.MulPacked(pa, pb)
	r.SetNTT(false)
	off := r.MulPacked(pa, pb)
	r.SetNTT(true)
	back := r.MulPacked(pa, pb)
	for i := range on {
		if on[i] != off[i] || on[i] != back[i] {
			t.Fatalf("coeff %d: on=%d off=%d back=%d", i, on[i], off[i], back[i])
		}
	}
}

// TestNTTLazyInitRace regresses the lazy twiddle-table build under
// concurrent first use: many goroutines issue their first NTT-sized
// multiply on a fresh ring at once (meaningful under -race, which the CI
// race step runs).
func TestNTTLazyInitRace(t *testing.T) {
	for _, p := range []uint64{257, 227} {
		r := MustFp(p)
		n := r.DegreeBound()
		rng := rand.New(rand.NewSource(int64(p) * 13))
		pa, pb := randPacked(rng, p, n), randPacked(rng, p, n)
		want := r.MulPackedSchoolbook(pa, pb)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got := r.MulPacked(pa, pb)
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("p=%d racing first multiply diverged at %d", p, i)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

// FuzzMulPackedNTT fuzzes the engine-routed multiply against the
// schoolbook reference on every engine shape — odd-radix plan, power-of-two
// kernel, convolution fallback, mixed plans with a power-of-two tail —
// deriving operand shapes and coefficients from the fuzz input.
func FuzzMulPackedNTT(f *testing.F) {
	f.Add(uint8(0), uint16(3), uint16(5), int64(1))
	f.Add(uint8(1), uint16(200), uint16(256), int64(2))
	f.Add(uint8(2), uint16(100), uint16(226), int64(3))
	f.Add(uint8(3), uint16(1000), uint16(1282), int64(4))
	// Either side of each seam as the re-measured cutover places it (an
	// operand is 1 + its argument long): F_257 enters its kernel at 60², the
	// convolution rings at 56² and again at each step of the transform
	// length (F_227: 128→256→512, F_1283: 512→1024), the mixed rings F_97
	// (2^5·3) at 47² and F_769 (2^8·3) at 147².
	f.Add(uint8(1), uint16(58), uint16(58), int64(5))
	f.Add(uint8(1), uint16(59), uint16(60), int64(6))
	f.Add(uint8(1), uint16(13), uint16(255), int64(7))
	f.Add(uint8(2), uint16(54), uint16(54), int64(8))
	f.Add(uint8(2), uint16(54), uint16(55), int64(9))
	f.Add(uint8(2), uint16(82), uint16(83), int64(10))
	f.Add(uint8(2), uint16(127), uint16(128), int64(11))
	f.Add(uint8(2), uint16(128), uint16(128), int64(12))
	f.Add(uint8(3), uint16(255), uint16(256), int64(13))
	f.Add(uint8(3), uint16(256), uint16(257), int64(14))
	f.Add(uint8(4), uint16(45), uint16(46), int64(15))
	f.Add(uint8(4), uint16(46), uint16(46), int64(16))
	f.Add(uint8(4), uint16(95), uint16(95), int64(17))
	f.Add(uint8(5), uint16(145), uint16(145), int64(18))
	f.Add(uint8(5), uint16(146), uint16(146), int64(19))
	f.Add(uint8(5), uint16(767), uint16(400), int64(20))
	rings := []*FpCyclotomic{MustFp(31), MustFp(257), MustFp(227), MustFp(1283), MustFp(97), MustFp(769)}
	f.Fuzz(func(t *testing.T, which uint8, la, lb uint16, seed int64) {
		r := rings[int(which)%len(rings)]
		n := r.DegreeBound()
		a := 1 + int(la)%n
		b := 1 + int(lb)%n
		p := r.P().Uint64()
		rng := rand.New(rand.NewSource(seed))
		pa, pb := randPacked(rng, p, a), randPacked(rng, p, b)
		got := r.MulPacked(pa, pb)
		want := r.MulPackedSchoolbook(pa, pb)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("p=%d la=%d lb=%d coeff %d: %d != %d", p, a, b, i, got[i], want[i])
			}
		}
	})
}

// TestNTTCutoverCost pins the routing constants to the sweep they were read
// from (BenchmarkMulPackedCutover): 3.5 transform costs for an in-field
// multiply — half a pair per element and radix-2 stage, r+1 per element and
// odd radix r — no in-field bar on a length the transform rejects, and
// 3·m·log₂m for the convolution fallback; all increasing, none overflowing
// on the largest constructible ring.
func TestNTTCutoverCost(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{256, 7 * (256 * 8 / 2) / 2},            // 2^8: the F_257 ring
		{96, 7 * (96*5/2 + 96*4) / 2},           // 2^5·3
		{12288, 7 * (12288*12/2 + 12288*4) / 2}, // 2^12·3
		{210, 7 * (210/2 + 210*(4+6+8)) / 2},    // 2·3·5·7
		{226, 0},                                // 2·113: not smooth
		{1 << 22, 7 * ((1 << 22) * 22 / 2) / 2}, // the ring cap
	} {
		if got := nttCutoverCost(c.n); got != c.want {
			t.Fatalf("nttCutoverCost(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	last := 0
	for _, convLen := range []int{1, 3, 200, 451, 2563, 1<<23 - 1} {
		c := convCutoverCost(convLen)
		m := 1
		for m < convLen {
			m <<= 1
		}
		if c != 3*m*bits.Len(uint(m)) || c <= last {
			t.Fatalf("convCutoverCost(%d) = %d (transform length %d, previous bar %d)", convLen, c, m, last)
		}
		last = c
	}
}
