package sharing

import (
	"crypto/sha256"
	"math/big"
	"slices"
	"testing"

	"sssearch/internal/drbg"
	"sssearch/internal/mapping"
	"sssearch/internal/poly"
	"sssearch/internal/polyenc"
	"sssearch/internal/ring"
	"sssearch/internal/workload"
)

// fixtureKeys returns every node key of a small split document plus the
// seed used, over ring r.
func fixtureKeys(t *testing.T, r ring.Ring) (*Tree, []drbg.NodeKey, drbg.Seed) {
	t.Helper()
	doc := workload.RandomTree(workload.TreeConfig{Nodes: 25, MaxFanout: 3, Vocab: 6, Seed: 21})
	m, err := mapping.New(r.MaxTag(), []byte("sharing-fast"))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := polyenc.Encode(r, doc, m)
	if err != nil {
		t.Fatal(err)
	}
	seed := drbg.Seed(sha256.Sum256([]byte("sharing-fast")))
	server, err := Split(enc, seed)
	if err != nil {
		t.Fatal(err)
	}
	var keys []drbg.NodeKey
	server.Walk(func(k drbg.NodeKey, _ *Node) bool {
		keys = append(keys, k)
		return true
	})
	return server, keys, seed
}

// TestSeedClientEvalSharesDifferential: the word path (EvalShares over
// EvalShareWords), the per-point EvalShare and the reference client — the
// fast path off, every pad value drawn by field.Rand — must all agree, and
// agree with the value-form pad PackedShare regenerates.
func TestSeedClientEvalSharesDifferential(t *testing.T) {
	r := ring.MustFp(31)
	_, keys, seed := fixtureKeys(t, r)
	points := []*big.Int{big.NewInt(2), big.NewInt(7), big.NewInt(29), big.NewInt(31 + 7)}
	c := NewSeedClient(r, seed)
	slow := ring.MustFp(31)
	slow.SetFast(false)
	ref := NewSeedClient(slow, seed)
	for _, k := range keys {
		many, err := c.EvalShares(k, points)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.EvalShares(k, points)
		if err != nil {
			t.Fatal(err)
		}
		pad, _, err := c.PackedShare(k)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range points {
			one, err := c.EvalShare(k, p)
			if err != nil {
				t.Fatal(err)
			}
			x := new(big.Int).Mod(p, big.NewInt(31)).Uint64()
			if many[i].Cmp(want[i]) != 0 || one.Cmp(want[i]) != 0 || pad[x-1] != want[i].Uint64() {
				t.Fatalf("%s at %s: EvalShares %s, EvalShare %s, PackedShare %d, reference %s", k, p, many[i], one, pad[x-1], want[i])
			}
		}
	}
}

// TestSeedClientPackedShareMatchesShare: the value-form pad is the same
// vector on the word path, on the reference path and boxed by Share — it
// is what tag recovery reconstructs from.
func TestSeedClientPackedShareMatchesShare(t *testing.T) {
	r := ring.MustFp(31)
	_, keys, seed := fixtureKeys(t, r)
	c := NewSeedClient(r, seed)
	slow := ring.MustFp(31)
	slow.SetFast(false)
	ref := NewSeedClient(slow, seed)
	for _, k := range keys {
		vec, ok, err := c.PackedShare(k)
		if err != nil || !ok || len(vec) != r.DegreeBound() {
			t.Fatalf("%s: %d values, ok %v, err %v", k, len(vec), ok, err)
		}
		refVec, ok, err := ref.PackedShare(k)
		if err != nil || !ok || !slices.Equal(vec, refVec) {
			t.Fatalf("%s: the word and reference samplers regenerate different pads", k)
		}
		share, err := c.Share(k)
		if err != nil {
			t.Fatal(err)
		}
		if !poly.NewUint64(vec).Equal(share) {
			t.Fatalf("packed share of %s diverged from Share", k)
		}
	}
}

// TestStaticSourceEvalSharesDifferential covers the materialized source on
// both rings: an evaluation is the stored value at a on F_p, the ring's
// evaluation of the stored polynomial on Z.
func TestStaticSourceEvalSharesDifferential(t *testing.T) {
	for _, r := range []ring.Ring{ring.MustFp(31), ring.MustIntQuotient(1, 0, 1)} {
		server, keys, _ := fixtureKeys(t, r)
		src, err := NewStaticSource(r, server)
		if err != nil {
			t.Fatal(err)
		}
		points := []*big.Int{big.NewInt(2), big.NewInt(7)}
		for _, k := range keys {
			many, err := src.EvalShares(k, points)
			if err != nil {
				t.Fatal(err)
			}
			share, err := src.Share(k)
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range points {
				var ref *big.Int
				if _, ok := r.(*ring.FpCyclotomic); ok {
					ref = share.Coeff(int(p.Int64()) - 1)
				} else if ref, err = r.Eval(share, p); err != nil {
					t.Fatal(err)
				}
				if many[i].Cmp(ref) != 0 {
					t.Fatalf("%s: EvalShares(%s)[%s] = %s, ref %s", r.Name(), k, p, many[i], ref)
				}
			}
		}
	}
}

// TestSplitSeedClientConsistency: the pads Split subtracts must be the
// pads SeedClient regenerates — client + server ≡ encoded at every node.
func TestSplitSeedClientConsistency(t *testing.T) {
	for _, r := range []ring.Ring{ring.MustFp(257), ring.MustIntQuotient(1, 0, 1)} {
		doc := workload.RandomTree(workload.TreeConfig{Nodes: 25, MaxFanout: 3, Vocab: 6, Seed: 22})
		m, err := mapping.New(r.MaxTag(), []byte("consistency"))
		if err != nil {
			t.Fatal(err)
		}
		enc, err := polyenc.Encode(r, doc, m)
		if err != nil {
			t.Fatal(err)
		}
		seed := drbg.Seed(sha256.Sum256([]byte("consistency")))
		server, err := Split(enc, seed)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ReconstructFromSeed(r, seed, server)
		if err != nil {
			t.Fatal(err)
		}
		_, isFp := r.(*ring.FpCyclotomic)
		ok := true
		enc.Walk(func(k drbg.NodeKey, n *polyenc.Node) bool {
			bn, err := back.Lookup(k)
			ok = err == nil && (isFp && slices.Equal(bn.Packed, n.Packed) || !isFp && r.Equal(bn.Poly, n.Poly))
			return ok
		})
		if !ok {
			t.Fatalf("%s: client + server != encoded after the split", r.Name())
		}
	}
}
