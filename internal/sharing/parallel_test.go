package sharing

import (
	"bytes"
	"crypto/aes"
	"crypto/sha256"
	"io"
	"math/big"
	"slices"
	"testing"

	"sssearch/internal/drbg"
	"sssearch/internal/mapping"
	"sssearch/internal/metrics"
	"sssearch/internal/polyenc"
	"sssearch/internal/ring"
	"sssearch/internal/workload"
)

func parallelFixture(t *testing.T, r ring.Ring, nodes int, seedNum int64, secret string) (*polyenc.Tree, drbg.Seed) {
	t.Helper()
	doc := workload.RandomTree(workload.TreeConfig{Nodes: nodes, MaxFanout: 4, Vocab: 9, Seed: seedNum})
	m, err := mapping.New(r.MaxTag(), []byte(secret))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := polyenc.Encode(r, doc, m)
	if err != nil {
		t.Fatal(err)
	}
	return enc, drbg.Seed(sha256.Sum256([]byte(secret)))
}

// TestSplitParallelismDeterminism is the tentpole property test: Split
// with Parallelism 1, 2 and 8 must produce byte-identical trees for
// random documents, on the packed F_p path and the generic IntQuotient
// path, and all must match the sequential big.Int-boundary reference.
func TestSplitParallelismDeterminism(t *testing.T) {
	for _, tc := range []struct {
		name string
		ring ring.Ring
	}{
		{"Fp257", ring.MustFp(257)},
		{"Fp1009", ring.MustFp(1009)},
		{"Z", ring.MustIntQuotient(1, 0, 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, nodes := range []int{1, 17, 230} {
				enc, seed := parallelFixture(t, tc.ring, nodes, int64(nodes)*3+1, "par-det")
				ref, err := SplitSequential(enc, seed)
				if err != nil {
					t.Fatal(err)
				}
				want, err := ref.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				for _, par := range []int{1, 2, 8} {
					tree, err := SplitWithOpts(enc, seed, SplitOpts{Parallelism: par})
					if err != nil {
						t.Fatalf("nodes=%d par=%d: %v", nodes, par, err)
					}
					got, err := tree.MarshalBinary()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("%s nodes=%d: Parallelism=%d tree differs from sequential reference", tc.name, nodes, par)
					}
				}
			}
		})
	}
}

// TestSplitPackedMatchesBigIntReference pins the value-form store to its
// definition, byte for byte, on F_5, F_11, F_101, F_257 and F_12289: the
// Outsource pipeline (PackedOnly encode, word sampler, parallel split)
// against the reference big.Int coefficient encode on a SetFast(false)
// ring, evaluated at every point, minus the pad field.Rand draws from each
// (node, point) chain.
func TestSplitPackedMatchesBigIntReference(t *testing.T) {
	for _, p := range []uint64{5, 11, 101, 257, 12289} {
		fast := ring.MustFp(p)
		nodes, vocab := 120, 9
		switch p {
		case 5:
			vocab = 3
		case 12289:
			nodes = 20 // the reference draws 12288 values a node
		}
		doc := workload.RandomTree(workload.TreeConfig{Nodes: nodes, MaxFanout: 4, Vocab: vocab, Seed: 5})
		seed := drbg.Seed(sha256.Sum256([]byte("packed-vs-big")))
		m1, err := mapping.New(fast.MaxTag(), []byte("packed-vs-big"))
		if err != nil {
			t.Fatal(err)
		}
		enc, err := polyenc.EncodeWithOpts(fast, doc, m1, polyenc.Opts{PackedOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		tree, err := SplitWithOpts(enc, seed, SplitOpts{Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}

		slow := ring.MustFp(p)
		slow.SetFast(false)
		m2, err := mapping.New(slow.MaxTag(), []byte("packed-vs-big"))
		if err != nil {
			t.Fatal(err)
		}
		ref, err := polyenc.Encode(slow, doc, m2)
		if err != nil {
			t.Fatal(err)
		}
		pd, f, w := newPads(slow, seed), slow.Field(), ValueWidth(fast)
		s := 16 / w // samples a keystream block
		ref.Walk(func(key drbg.NodeKey, n *polyenc.Node) bool {
			tag := new([aes.BlockSize]byte)
			pd.keys.Tag(tag, key)
			ks := make([]byte, (int(p-1)+s-1)/s*aes.BlockSize)
			if _, err := io.ReadFull(drbg.NewChain(pd.keys.Node(), tag), ks); err != nil {
				t.Fatal(err)
			}
			want := make([]byte, 0, int(p-1)*w)
			for a := uint64(1); a < p; a++ {
				v, err := slow.Eval(n.Poly, new(big.Int).SetUint64(a))
				if err != nil {
					t.Fatal(err)
				}
				i := int(a - 1)
				at := aes.BlockSize*(i/s) + w*(i%s)
				pad, err := f.Rand(io.MultiReader(bytes.NewReader(ks[at:at+w]), drbg.NewChain(pd.keys.Point(a), tag)))
				if err != nil {
					t.Fatal(err)
				}
				share := f.Sub(v, pad).Uint64()
				for j := 0; j < w; j++ {
					want = append(want, byte(share>>(8*j)))
				}
			}
			sn, err := tree.Lookup(key)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(sn.Vals, want) {
				t.Fatalf("F_%d node %s: the store differs from the reference encode minus the reference pad", p, key)
			}
			return true
		})
	}
}

// TestSplitPackedOnlyEncodePipeline drives the exact Outsource fast path
// (PackedOnly encode → packed parallel split) and checks the result
// against the default pipeline and against reconstruction.
func TestSplitPackedOnlyEncodePipeline(t *testing.T) {
	fp := ring.MustFp(257)
	doc := workload.RandomTree(workload.TreeConfig{Nodes: 90, MaxFanout: 4, Vocab: 9, Seed: 11})
	seed := drbg.Seed(sha256.Sum256([]byte("packed-only")))

	m1, err := mapping.New(fp.MaxTag(), []byte("packed-only"))
	if err != nil {
		t.Fatal(err)
	}
	encPacked, err := polyenc.EncodeWithOpts(fp, doc, m1, polyenc.Opts{PackedOnly: true, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := SplitWithOpts(encPacked, seed, SplitOpts{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}

	m2, err := mapping.New(fp.MaxTag(), []byte("packed-only"))
	if err != nil {
		t.Fatal(err)
	}
	encRef, err := polyenc.Encode(fp, doc, m2)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := SplitSequential(encRef, seed)
	if err != nil {
		t.Fatal(err)
	}
	fastBytes, err := fast.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	refBytes, err := ref.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fastBytes, refBytes) {
		t.Fatal("PackedOnly pipeline tree differs from reference pipeline")
	}

	// Client + server must still reconstruct the reference encoding.
	back, err := ReconstructFromSeed(fp, seed, fast)
	if err != nil {
		t.Fatal(err)
	}
	encRef.Walk(func(key drbg.NodeKey, n *polyenc.Node) bool {
		bn, err := back.Lookup(key)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(bn.Packed, fp.Values(n.Poly)) {
			t.Fatalf("node %s: reconstruction mismatch", key)
		}
		return true
	})
}

// TestSeedClientPadCounters: the client keeps no pad cache, so the pad and
// share-eval counters a client is wired to stay at zero however it is
// asked, and SetCounters is inert.
func TestSeedClientPadCounters(t *testing.T) {
	fp := ring.MustFp(257)
	seed := drbg.Seed(sha256.Sum256([]byte("counters")))
	m := &metrics.Counters{}
	for _, c := range []*SeedClient{NewSeedClient(fp, seed), NewSharedPadCache(fp, seed).NewClient()} {
		c.SetCounters(m)
		c.SetShareCacheNodes(16)
		key := drbg.NodeKey{0, 1}
		for i := 0; i < 2; i++ {
			if _, err := c.Share(key); err != nil {
				t.Fatal(err)
			}
			if _, err := c.EvalShare(key, big.NewInt(2)); err != nil {
				t.Fatal(err)
			}
			if _, _, err := c.EvalShareWords(make([]uint64, 2), []drbg.NodeKey{key}, []*big.Int{big.NewInt(3), big.NewInt(5)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	s := m.Snapshot()
	if s.PadCacheHits+s.PadCacheMiss+s.SharedPadHits+s.SharedPadMiss+s.SharedPadSingleflight+s.ShareEvalHits+s.ShareEvalMiss != 0 {
		t.Fatalf("a cacheless client tallied cache work: %+v", s)
	}
}

// TestSplitSequentialHandlesPackedOnlyTrees is the regression anchor for
// the PackedOnly hazard: the big.Int split paths must materialize the
// encoded polynomial from the packed mirror instead of silently
// subtracting pads from zero.
func TestSplitSequentialHandlesPackedOnlyTrees(t *testing.T) {
	fp := ring.MustFp(257)
	doc := workload.RandomTree(workload.TreeConfig{Nodes: 70, MaxFanout: 4, Vocab: 8, Seed: 21})
	seed := drbg.Seed(sha256.Sum256([]byte("packed-only-seq")))
	m, err := mapping.New(fp.MaxTag(), []byte("packed-only-seq"))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := polyenc.EncodeWithOpts(fp, doc, m, polyenc.Opts{PackedOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	seqTree, err := SplitSequential(enc, seed)
	if err != nil {
		t.Fatal(err)
	}
	fastTree, err := Split(enc, seed)
	if err != nil {
		t.Fatal(err)
	}
	seqBytes, err := seqTree.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	fastBytes, err := fastTree.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seqBytes, fastBytes) {
		t.Fatal("SplitSequential on a PackedOnly tree differs from Split")
	}
}
