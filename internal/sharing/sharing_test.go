package sharing

import (
	"crypto/rand"
	"math/big"
	"testing"

	"sssearch/internal/drbg"
	"sssearch/internal/paperdata"
	"sssearch/internal/polyenc"
	"sssearch/internal/ring"
	"sssearch/internal/shamir"
)

func bi(v int64) *big.Int { return big.NewInt(v) }

func testSeed(b byte) drbg.Seed {
	var s drbg.Seed
	for i := range s {
		s[i] = b
	}
	return s
}

func TestFig3PaperShares(t *testing.T) {
	// client + server must equal figure 2(a), node by node, in F_5[x]/(x^4-1).
	r := paperdata.FpRing()
	for path, pair := range paperdata.Fig3 {
		sum := r.Add(pair.Client, pair.Server)
		want := paperdata.Fig2a[path]
		if !r.Equal(sum, want) {
			t.Errorf("fig3 %s: client+server = %v, want %v", path, sum, want)
		}
	}
}

func TestFig4PaperShares(t *testing.T) {
	r := paperdata.ZRing()
	for path, pair := range paperdata.Fig4 {
		sum := r.Add(pair.Client, pair.Server)
		want := paperdata.Fig2b[path]
		if !r.Equal(sum, want) {
			t.Errorf("fig4 %s: client+server = %v, want %v", path, sum, want)
		}
	}
}

func encodePaperZ(t *testing.T) *polyenc.Tree {
	t.Helper()
	enc, err := polyenc.Encode(paperdata.ZRing(), paperdata.Document(), paperdata.Mapping(nil))
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

func TestSplitReconstructSeedOnly(t *testing.T) {
	enc := encodePaperZ(t)
	seed := testSeed(1)
	server, err := Split(enc, seed)
	if err != nil {
		t.Fatal(err)
	}
	if server.Count() != 5 {
		t.Fatalf("server tree has %d nodes", server.Count())
	}
	// Reconstruct from seed alone.
	back, err := ReconstructFromSeed(enc.Ring, seed, server)
	if err != nil {
		t.Fatal(err)
	}
	var mismatch bool
	back.Walk(func(key drbg.NodeKey, n *polyenc.Node) bool {
		orig, err := enc.Lookup(key)
		if err != nil || !enc.Ring.Equal(n.Poly, orig.Poly) {
			mismatch = true
			return false
		}
		return true
	})
	if mismatch {
		t.Fatal("reconstruction differs from original")
	}
}

func TestSplitDeterministicPerSeed(t *testing.T) {
	enc := encodePaperZ(t)
	s1, err := Split(enc, testSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Split(enc, testSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := s1.MarshalBinary()
	b2, _ := s2.MarshalBinary()
	if string(b1) != string(b2) {
		t.Error("same seed produced different server trees")
	}
	s3, err := Split(enc, testSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	b3, _ := s3.MarshalBinary()
	if string(b1) == string(b3) {
		t.Error("different seeds produced identical server trees")
	}
}

func TestSeedClientMatchesSplit(t *testing.T) {
	// The server tree plus regenerated client shares must reproduce the
	// encoded node at every node — for both rings: the polynomial on Z, the
	// value vector on F_p.
	rings := []ring.Ring{paperdata.ZRing(), ring.MustFp(11)}
	for _, r := range rings {
		m := paperdata.Mapping(r.MaxTag())
		enc, err := polyenc.Encode(r, paperdata.Document(), m)
		if err != nil {
			t.Fatalf("%s: %v", r.Name(), err)
		}
		seed := testSeed(7)
		server, err := Split(enc, seed)
		if err != nil {
			t.Fatal(err)
		}
		client := NewSeedClient(r, seed)
		enc.Walk(func(key drbg.NodeKey, n *polyenc.Node) bool {
			sn, err := server.Lookup(key)
			if err != nil {
				t.Fatal(err)
			}
			if fp, ok := r.(*ring.FpCyclotomic); ok {
				cv, _, err := client.PackedShare(key)
				if err != nil {
					t.Fatal(err)
				}
				for i, v := range n.Packed {
					if (cv[i]+server.Value(sn, i))%fp.P().Uint64() != v {
						t.Fatalf("%s node %s: shares do not sum to the value at %d", r.Name(), key, i+1)
					}
				}
				return true
			}
			cs, err := client.Share(key)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Equal(r.Add(cs, sn.Poly), n.Poly) {
				t.Fatalf("%s node %s: shares do not sum to original", r.Name(), key)
			}
			return true
		})
	}
}

func TestEvalShareAdditivity(t *testing.T) {
	// f(a) = client_share(a) + server_share(a) mod EvalModulus — the
	// query-time identity of figures 5 and 6, on both rings.
	for _, r := range []ring.Ring{paperdata.ZRing(), ring.MustFp(11)} {
		enc, err := polyenc.Encode(r, paperdata.Document(), paperdata.Mapping(r.MaxTag()))
		if err != nil {
			t.Fatal(err)
		}
		seed := testSeed(9)
		server, err := Split(enc, seed)
		if err != nil {
			t.Fatal(err)
		}
		client := NewSeedClient(r, seed)
		a := bi(paperdata.QueryPoint)
		mod, err := r.EvalModulus(a)
		if err != nil {
			t.Fatal(err)
		}
		enc.Walk(func(key drbg.NodeKey, n *polyenc.Node) bool {
			cv, err := client.EvalShare(key, a)
			if err != nil {
				t.Fatal(err)
			}
			sn, _ := server.Lookup(key)
			sv, err := server.Eval(r, sn, a)
			if err != nil {
				t.Fatal(err)
			}
			want, err := r.Eval(n.Poly, a)
			if err != nil {
				t.Fatal(err)
			}
			sum := new(big.Int).Add(cv, sv)
			sum.Mod(sum, mod)
			if sum.Cmp(want) != 0 {
				t.Fatalf("%s node %s: %v + %v != %v (mod %v)", r.Name(), key, cv, sv, want, mod)
			}
			return true
		})
	}
}

func TestMaterializeEqualsSeedClient(t *testing.T) {
	enc := encodePaperZ(t)
	seed := testSeed(4)
	server, _ := Split(enc, seed)
	mat, err := Materialize(enc.Ring, seed, server)
	if err != nil {
		t.Fatal(err)
	}
	client := NewSeedClient(enc.Ring, seed)
	mat.Walk(func(key drbg.NodeKey, n *Node) bool {
		want, err := client.Share(key)
		if err != nil {
			t.Fatal(err)
		}
		if !n.Poly.Equal(want) {
			t.Fatalf("materialized share differs at %s", key)
		}
		return true
	})
	if _, err := Materialize(enc.Ring, seed, nil); err == nil {
		t.Error("nil shape accepted")
	}
}

func TestReconstructShapeMismatch(t *testing.T) {
	enc := encodePaperZ(t)
	server, _ := Split(enc, testSeed(5))
	client, _ := Materialize(enc.Ring, testSeed(5), server)
	// Drop a child from the client copy.
	client.Root.Children = client.Root.Children[:1]
	if _, err := Reconstruct(enc.Ring, client, server); err == nil {
		t.Error("shape mismatch accepted")
	}
	if _, err := Reconstruct(enc.Ring, nil, server); err == nil {
		t.Error("nil tree accepted")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	enc := encodePaperZ(t)
	server, _ := Split(enc, testSeed(6))
	data, err := server.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Tree
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if back.Count() != server.Count() {
		t.Fatal("node count changed")
	}
	b2, _ := back.MarshalBinary()
	if string(data) != string(b2) {
		t.Error("re-marshal differs")
	}
	if server.ByteSize() != len(data) {
		t.Error("ByteSize inconsistent")
	}
	// Corrupt inputs.
	var bad Tree
	if err := bad.UnmarshalBinary(nil); err == nil {
		t.Error("empty input accepted")
	}
	if err := bad.UnmarshalBinary([]byte{0x00}); err == nil {
		t.Error("zero-node tree accepted")
	}
	if err := bad.UnmarshalBinary(append(data, 0xFF)); err == nil {
		t.Error("trailing bytes accepted")
	}
	// Child count exceeding node count.
	if err := bad.UnmarshalBinary([]byte{0x02, 0x00, 5 << 1, 0x00}); err == nil {
		t.Error("inconsistent child count accepted")
	}
	// A value-form tree needs its ring.
	if err := bad.UnmarshalBinary([]byte{0x01, 0x02, 0x01, 0x00, 0x00}); err == nil {
		t.Error("value-form tree decoded without a ring")
	}
}

func TestMultiSplitReconstruct(t *testing.T) {
	r := ring.MustFp(11)
	m := paperdata.Mapping(r.MaxTag())
	enc, err := polyenc.Encode(r, paperdata.Document(), m)
	if err != nil {
		t.Fatal(err)
	}
	seed := testSeed(8)
	const k, n = 2, 3
	servers, err := MultiSplit(enc, seed, k, n, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if len(servers) != n {
		t.Fatalf("%d servers", len(servers))
	}
	client := NewSeedClient(r, seed)
	a := bi(2)
	enc.Walk(func(key drbg.NodeKey, node *polyenc.Node) bool {
		want, err := r.Eval(node.Poly, a)
		if err != nil {
			t.Fatal(err)
		}
		cv, err := client.EvalShare(key, a)
		if err != nil {
			t.Fatal(err)
		}
		// Every k-subset of servers must reconstruct the evaluation, through
		// the reference Lagrange combiner.
		subsets := [][]int{{0, 1}, {0, 2}, {1, 2}}
		for _, sub := range subsets {
			evals := make([]shamir.Share, 0, k)
			for _, j := range sub {
				sn, err := servers[j].Tree.Lookup(key)
				if err != nil {
					t.Fatal(err)
				}
				v, err := servers[j].Tree.Eval(r, sn, a)
				if err != nil {
					t.Fatal(err)
				}
				evals = append(evals, shamir.Share{X: servers[j].X, Y: v})
			}
			rest, err := shamir.InterpolateAt(r.Field(), evals, big.NewInt(0), k)
			if err != nil {
				t.Fatal(err)
			}
			if got := r.Field().Add(cv, rest); got.Cmp(want) != 0 {
				t.Fatalf("node %s servers %v: got %v want %v", key, sub, got, want)
			}
		}
		return true
	})
}

func TestMultiSplitRejectsZRing(t *testing.T) {
	enc := encodePaperZ(t)
	if _, err := MultiSplit(enc, testSeed(1), 2, 3, rand.Reader); err == nil {
		t.Error("Z ring accepted for multi-server mode")
	}
}

func TestMultiSplitBadThreshold(t *testing.T) {
	r := ring.MustFp(11)
	m := paperdata.Mapping(r.MaxTag())
	enc, _ := polyenc.Encode(r, paperdata.Document(), m)
	if _, err := MultiSplit(enc, testSeed(1), 5, 3, rand.Reader); err == nil {
		t.Error("k>n accepted")
	}
}

func BenchmarkSplitPaperDoc(b *testing.B) {
	enc, err := polyenc.Encode(paperdata.ZRing(), paperdata.Document(), paperdata.Mapping(nil))
	if err != nil {
		b.Fatal(err)
	}
	seed := testSeed(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Split(enc, seed); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSeedClientShare(b *testing.B) {
	client := NewSeedClient(paperdata.ZRing(), testSeed(1))
	key := drbg.NodeKey{0, 1, 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Share(key); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPointPad is one client summand of a two-point F_257 wave: the
// node tag and a block of each point's chain.
func BenchmarkPointPad(b *testing.B) {
	fp := ring.MustFp(257)
	c := NewSeedClient(fp, testSeed(1))
	keys := []drbg.NodeKey{{0, 1, 2, 3, 4}}
	points := []*big.Int{bi(3), bi(256)}
	dst := make([]uint64, len(points))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.EvalShareWords(dst, keys, points); err != nil {
			b.Fatal(err)
		}
	}
}
