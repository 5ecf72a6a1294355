package sharing

import (
	"crypto/sha256"
	"math/big"
	"testing"

	"sssearch/internal/drbg"
	"sssearch/internal/mapping"
	"sssearch/internal/polyenc"
	"sssearch/internal/ring"
	"sssearch/internal/workload"
)

// kernelTreeNodes is the size of the fixed tree of the allocation gate and
// the per-node split benchmark.
const kernelTreeNodes = 2000

// kernelFixture is a random kernelTreeNodes-node document encoded the way
// Outsource encodes it (value form only) on F_257, and its seed.
func kernelFixture(tb testing.TB) (*polyenc.Tree, drbg.Seed) {
	tb.Helper()
	fp := ring.MustFp(257)
	doc := workload.RandomTree(workload.TreeConfig{Nodes: kernelTreeNodes, MaxFanout: 6, Vocab: 20, Seed: 31})
	m, err := mapping.New(fp.MaxTag(), []byte("kernel"))
	if err != nil {
		tb.Fatal(err)
	}
	enc, err := polyenc.EncodeWithOpts(fp, doc, m, polyenc.Opts{PackedOnly: true})
	if err != nil {
		tb.Fatal(err)
	}
	return enc, drbg.Seed(sha256.Sum256([]byte("kernel")))
}

// kernelKeys is n node keys of depth 5, a wave's siblings and cousins.
func kernelKeys(n int) []drbg.NodeKey {
	keys := make([]drbg.NodeKey, n)
	for i := range keys {
		keys[i] = drbg.NodeKey{0, uint32(i % 7), 2, uint32(i / 7), uint32(i)}
	}
	return keys
}

// BenchmarkSplitPerNode is the write-pad time a node: the sequential split
// of a 2,000-node F_257 document, reported per node.
func BenchmarkSplitPerNode(b *testing.B) {
	enc, seed := kernelFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SplitWithOpts(enc, seed, SplitOpts{Parallelism: 1}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*kernelTreeNodes), "ns/node")
}

// BenchmarkEvalShareWordsPerKey is the client leg of a two-point F_257
// wave of 1,024 keys, reported per key.
func BenchmarkEvalShareWordsPerKey(b *testing.B) {
	c := NewSeedClient(ring.MustFp(257), testSeed(1))
	keys := kernelKeys(1024)
	points := []*big.Int{bi(3), bi(200)}
	dst := make([]uint64, len(keys)*len(points))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.EvalShareWords(dst, keys, points); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(keys)), "ns/key")
}

// splitAllocsPerNode bounds what Split allocates a node on the fixed tree:
// the node, its child list, key and share, and the walk's task. The
// write kernel allocates nothing a node — its tag and keystream are
// per-worker scratch — and this build measures 9,063 to 9,064
// allocations for the 2,000 nodes (4.53 a node). Share stream v4 made
// 11,567 (5.78 a node); a cipher.NewCTR a node would add one more, and
// its garbage lands in the cold start that follows an outsource.
const splitAllocsPerNode = 4.6

// TestSplitAllocationsPerNode gates the write path's allocations on a
// fixed 2,000-node F_257 tree. It runs the split sequentially: on more
// workers the walk starts a goroutine, with its closure, whenever a worker
// slot happens to be free, so the count depends on timing.
func TestSplitAllocationsPerNode(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates and drops pooled scratch")
	}
	enc, seed := kernelFixture(t)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := SplitWithOpts(enc, seed, SplitOpts{Parallelism: 1}); err != nil {
			t.Fatal(err)
		}
	})
	if per := allocs / kernelTreeNodes; per > splitAllocsPerNode {
		t.Fatalf("%.0f allocations, %.2f a node, want at most %.2f", allocs, per, splitAllocsPerNode)
	}
}

// TestEvalShareWordsAllocatesPerCall: a client leg allocates a constant
// per call, whatever the number of keys — none once its scratch is pooled.
func TestEvalShareWordsAllocatesPerCall(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates and drops pooled scratch")
	}
	c := NewSeedClient(ring.MustFp(257), testSeed(1))
	points := []*big.Int{bi(3), bi(201), bi(202)} // the last two share a block
	var counts []float64
	for _, n := range []int{1, 16, 1024} {
		keys := kernelKeys(n)
		dst := make([]uint64, n*len(points))
		counts = append(counts, testing.AllocsPerRun(20, func() {
			if _, _, err := c.EvalShareWords(dst, keys, points); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if counts[1] > counts[0] || counts[2] > counts[0] || counts[0] > 1 {
		t.Fatalf("allocations for 1, 16 and 1,024 keys: %v, want one count of at most 1", counts)
	}
}
