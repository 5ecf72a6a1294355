package fastfield

import (
	"math/rand"
	"testing"
)

// Kernel benchmarks. The schoolbook→transform cutover is calibrated one
// package up, where the routing lives (ring's BenchmarkMulPackedCutover).

func benchVecs(p uint64, n int) (a, b []uint64) {
	rng := rand.New(rand.NewSource(int64(p)))
	a = make([]uint64, n)
	b = make([]uint64, n)
	for i := range a {
		a[i] = rng.Uint64() % p
		b[i] = rng.Uint64() % p
	}
	return a, b
}

// BenchmarkNTT256Mul is one full-width cyclic product — three transforms
// and the pointwise pass — at the F_257 ring's native length.
func BenchmarkNTT256Mul(b *testing.B) {
	f, err := New(257)
	if err != nil {
		b.Fatal(err)
	}
	t, err := NewNTT(f, 256)
	if err != nil {
		b.Fatal(err)
	}
	va, vb := benchVecs(257, 256)
	dst := make([]uint64, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.MulCyclicInto(dst, va, vb)
	}
}

// BenchmarkConvFallback226Mul times the auxiliary-prime convolution engine
// at the F_227 ring's length (226 = 2·113 is not MaxRadix-smooth) — the
// path non-smooth rings pay instead of the in-field transform above.
func BenchmarkConvFallback226Mul(b *testing.B) {
	f, err := New(227)
	if err != nil {
		b.Fatal(err)
	}
	c := NewCyclicConv(f, 226)
	va, vb := benchVecs(227, 226)
	dst := make([]uint64, 226)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.MulCyclicInto(dst, va, vb)
	}
}

// BenchmarkNTTTransform times one forward transform per kernel shape: the
// deferred-reduction power-of-two kernel at the F_257 and F_65537 rings'
// lengths, a mixed plan with a power-of-two tail (12288 = 3·4096), and the
// exactly reduced kernel of a 62-bit auxiliary prime.
func BenchmarkNTTTransform(b *testing.B) {
	for _, c := range []struct {
		name string
		p    uint64
		n    int
	}{
		{"F257/256", 257, 256},
		{"F65537/65536", 65537, 65536},
		{"F12289/12288", 12289, 12288},
		{"aux62/256", auxPrimes[0], 256},
	} {
		b.Run(c.name, func(b *testing.B) {
			f, err := New(c.p)
			if err != nil {
				b.Fatal(err)
			}
			t, err := NewNTT(f, c.n)
			if err != nil {
				b.Fatal(err)
			}
			src, _ := benchVecs(c.p, c.n)
			dst := make([]uint64, c.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t.Transform(dst, src, false)
			}
		})
	}
}
