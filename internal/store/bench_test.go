package store

import (
	"path/filepath"
	"testing"

	"sssearch/internal/mapping"
	"sssearch/internal/polyenc"
	"sssearch/internal/ring"
	"sssearch/internal/sharing"
	"sssearch/internal/workload"
)

// benchTree outsources a 20,000-node random document on F_257: a 10 MB
// store, the size of the repository benchmark's TCP workload.
func benchTree(b *testing.B) (ring.Ring, *sharing.Tree) {
	b.Helper()
	r := ring.MustFp(257)
	doc := workload.RandomTree(workload.TreeConfig{Nodes: 20000, MaxFanout: 6, Vocab: 40, Seed: 3})
	m, err := mapping.New(r.MaxTag(), []byte("store-bench"))
	if err != nil {
		b.Fatal(err)
	}
	enc, err := polyenc.Encode(r, doc, m)
	if err != nil {
		b.Fatal(err)
	}
	tree, err := sharing.Split(enc, testSeed(9))
	if err != nil {
		b.Fatal(err)
	}
	return r, tree
}

// BenchmarkReadServer times the loader on a store already in memory: the
// checksum, the shape and the range check of every value.
func BenchmarkReadServer(b *testing.B) {
	r, tree := benchTree(b)
	file := storeBytes(b, r, tree)
	b.SetBytes(int64(len(file)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ReadServer(file); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSaveServer times a save to a file: the layout, the checksum,
// the write and the rename.
func BenchmarkSaveServer(b *testing.B) {
	r, tree := benchTree(b)
	path := filepath.Join(b.TempDir(), "store.sss")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := SaveServer(path, r, tree); err != nil {
			b.Fatal(err)
		}
	}
}
