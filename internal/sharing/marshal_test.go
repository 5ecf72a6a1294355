package sharing

import (
	"fmt"
	"math/rand"
	"testing"

	"sssearch/internal/ring"
)

// TestCheckSlabMatchesValueLoop: the loader's range check, and the
// word-wide kernel under it, agree with a Tree.Value loop over random
// slabs at every width — slabs of any length, so a word's four lanes and
// a tail shorter than a word each hold the bad value in some of them. The
// values are drawn below p, or from the edges of the lane test: 0, p−1,
// p, 2¹⁵−1, 2¹⁵ and 2¹⁶−1.
func TestCheckSlabMatchesValueLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for _, p := range []uint64{11, 257, 263, 32749, 65521, 65537} {
		w := ValueWidth(ring.MustFp(p))
		edges := []uint64{0, p - 1, p, 0x7FFF, 0x8000, 0xFFFF}
		caught := 0
		for trial := 0; trial < 3000; trial++ {
			slab := make([]byte, w*rng.Intn(40))
			for i := 0; i < len(slab)/w; i++ {
				v := uint64(rng.Int63n(int64(p)))
				if rng.Intn(16) == 0 {
					v = edges[rng.Intn(len(edges))] & (1<<(8*w) - 1)
				}
				putValue(slab, w, i, v)
			}
			var want error
			tree, n := &Tree{Width: w}, &Node{Vals: slab}
			for i := 0; i < len(slab)/w; i++ {
				if v := tree.Value(n, i); v >= p {
					want = fmt.Errorf("sharing: value %d at or above p = %d", v, p)
					break
				}
			}
			if got := checkSlab(slab, w, p); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("F_%d, slab % x: checkSlab says %v, the value loop %v", p, slab, got, want)
			}
			if w == 2 && p <= 1<<15 {
				if got := over16(slab, p); got != (want != nil) {
					t.Fatalf("F_%d, slab % x: the word kernel says %v, the value loop %v", p, slab, got, want)
				}
			}
			if want != nil {
				caught++
			}
		}
		if caught < 300 || caught > 2700 {
			t.Fatalf("F_%d: %d of 3000 slabs held a bad value; the draw tests too little of one side", p, caught)
		}
	}
}
