package ring

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkMulPackedCutover is the sweep behind the routing constants of
// fp.go (nttCutoverCost, the conv-fallback bar, MulPackedProd's (k+1)/3
// rule): square products either side of each ring's seam through the
// schoolbook loop and through the transform engine, and multi-factor
// products through one transform per factor against the pairwise fold. The
// engine's time barely depends on the operand lengths; the schoolbook
// loop's is proportional to their product, so the pair count at which the
// two rows cross is the constant. Re-run it before touching either:
//
//	go test -run '^$' -bench MulPackedCutover -benchtime 200x ./internal/ring/
func BenchmarkMulPackedCutover(b *testing.B) {
	// F_257: the in-field power-of-two kernel; F_12289: a mixed plan with a
	// 4096-point tail; F_227 and F_1283: the auxiliary-prime convolution at
	// transform lengths 256-512 and 2048-4096.
	for _, p := range []uint64{257, 12289, 227, 1283} {
		r := MustFp(p)
		n := r.DegreeBound()
		rng := rand.New(rand.NewSource(int64(p)))
		seam := 1 // the first square product the engine takes; finding it builds the tables
		for ntt, conv := r.engine(seam, seam); ntt == nil && conv == nil; ntt, conv = r.engine(seam, seam) {
			seam++
		}
		dst := make([]uint64, n)
		for _, side := range []int{seam / 4, seam / 2, seam * 3 / 4, seam, seam * 3 / 2, seam * 2} {
			if side < 1 || side > n {
				continue
			}
			pa, pb := randPacked(rng, p, side), randPacked(rng, p, side)
			b.Run(fmt.Sprintf("F%d/side=%d/schoolbook", p, side), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					r.mulSchoolbookInto(dst, pa, pb)
				}
			})
			b.Run(fmt.Sprintf("F%d/side=%d/engine", p, side), func(b *testing.B) {
				for i := 0; i < b.N; i++ { // the fields bypass every bar
					if r.ntt != nil {
						r.ntt.MulCyclicInto(dst, pa, pb)
					} else {
						r.conv.MulCyclicInto(dst, pa, pb)
					}
				}
			})
		}
	}
	// k factors of equal length: one transform per factor (plus the inverse)
	// against the left-to-right schoolbook fold MulPackedProd estimates.
	r := MustFp(257)
	rng := rand.New(rand.NewSource(3))
	dst := make([]uint64, 256)
	for _, k := range []int{2, 4, 8} {
		for _, flen := range []int{8, 16, 32, 64} {
			factors := make([][]uint64, k)
			for i := range factors {
				factors[i] = randPacked(rng, 257, flen)
			}
			b.Run(fmt.Sprintf("F257/prod/k=%d/len=%d/fold", k, flen), func(b *testing.B) {
				r.SetNTT(false)
				defer r.SetNTT(true)
				for i := 0; i < b.N; i++ {
					r.MulPackedProdInto(dst, factors...)
				}
			})
			b.Run(fmt.Sprintf("F257/prod/k=%d/len=%d/engine", k, flen), func(b *testing.B) {
				r.engine(256, 256)
				for i := 0; i < b.N; i++ {
					r.ntt.ProdCyclicInto(dst, factors...)
				}
			})
		}
	}
}
