package poly

import (
	"math/rand"
	"testing"
)

// benchWords is one F_257-shaped polynomial: 256 coefficients in [0, 257).
func benchWords() []uint64 {
	rng := rand.New(rand.NewSource(21))
	w := make([]uint64, 256)
	for i := range w {
		w[i] = uint64(rng.Intn(257))
	}
	return w
}

func BenchmarkAppendWords(b *testing.B) {
	w := benchWords()
	buf := AppendWords(nil, w)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendWords(buf[:0], w)
	}
}

func BenchmarkDecodeWords(b *testing.B) {
	buf := AppendWords(nil, benchWords())
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := DecodeWords(buf); !ok {
			b.Fatal("refused")
		}
	}
}
