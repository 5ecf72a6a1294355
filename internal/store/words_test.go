package store

import (
	"bytes"
	"math/big"
	"testing"

	"sssearch/internal/drbg"
	"sssearch/internal/mapping"
	"sssearch/internal/paperdata"
	"sssearch/internal/poly"
	"sssearch/internal/polyenc"
	"sssearch/internal/ring"
	"sssearch/internal/server"
	"sssearch/internal/sharing"
	"sssearch/internal/workload"
)

// splitRandom outsources a 200-node random document; over F_11 a tenth of
// the share polynomials have a zero top coefficient, so the trimmed
// encodings are exercised too.
func splitRandom(t *testing.T, r ring.Ring) *sharing.Tree {
	t.Helper()
	doc := workload.RandomTree(workload.TreeConfig{Nodes: 200, MaxFanout: 4, Vocab: 6, Seed: 5})
	m, err := mapping.New(r.MaxTag(), []byte("store-words"))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := polyenc.Encode(r, doc, m)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := sharing.Split(enc, testSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func storeBytes(t *testing.T, r ring.Ring, tree *sharing.Tree) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteServer(&buf, r, tree); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSaveLoadSaveByteIdentical: a loaded store saves back to the very
// bytes it was loaded from, and a tree loaded for a fast F_p ring holds
// every node as words — no big.Int form is ever built.
func TestSaveLoadSaveByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name   string
		r      ring.Ring
		packed bool
	}{
		{"Fp", ring.MustFp(11), true},
		{"Z", paperdata.ZRing(), false},
	} {
		tree := splitRandom(t, tc.r)
		first := storeBytes(t, tc.r, tree)
		// The word writer and the big.Int writer agree on the file.
		boxed := &sharing.Tree{Root: boxTree(tree.Root)}
		if !bytes.Equal(storeBytes(t, tc.r, boxed), first) {
			t.Fatalf("%s: the same tree in big.Int form saves to different bytes", tc.name)
		}
		_, loaded, err := ReadServer(first)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		loaded.Walk(func(key drbg.NodeKey, n *sharing.Node) bool {
			if (n.Packed != nil) != tc.packed {
				t.Fatalf("%s: node %s loaded with Packed set = %v, want %v", tc.name, key, n.Packed != nil, tc.packed)
			}
			return true
		})
		if second := storeBytes(t, tc.r, loaded); !bytes.Equal(second, first) {
			t.Fatalf("%s: save → load → save changed the file (%d vs %d bytes)", tc.name, len(second), len(first))
		}
	}
}

// boxTree copies a share tree into the big.Int form.
func boxTree(n *sharing.Node) *sharing.Node {
	out := &sharing.Node{Poly: n.Polynomial()}
	for _, c := range n.Children {
		out.Children = append(out.Children, boxTree(c))
	}
	return out
}

// TestLoadKeepsNonCanonicalPolysOffTheWordPath: a store file may hold
// anything a big.Int polynomial can. A coefficient at or above p, or more
// coefficients than the ring's degree bound, must not land in Node.Packed —
// the vector server.Local feeds to the Montgomery kernels unreduced — but
// in the big.Int form, which every consumer reduces. Evaluations through
// the loaded store stay those of the canonical polynomial.
func TestLoadKeepsNonCanonicalPolysOffTheWordPath(t *testing.T) {
	r := ring.MustFp(11)
	p := big.NewInt(11)
	tree := &sharing.Tree{Root: boxTree(splitRandom(t, r).Root)}
	canonical := map[string]poly.Poly{}
	tree.Walk(func(key drbg.NodeKey, n *sharing.Node) bool {
		canonical[key.String()] = n.Poly
		return true
	})
	// Same residues, non-canonical representatives.
	overP, overLong, wide := drbg.NodeKey{}, drbg.NodeKey{0}, drbg.NodeKey{1}
	bump := func(key drbg.NodeKey, delta poly.Poly) {
		n, err := tree.Lookup(key)
		if err != nil {
			t.Fatal(err)
		}
		n.Poly = n.Poly.Add(delta)
	}
	bump(overP, poly.Monomial(p, 2))                      // c2 += p
	bump(wide, poly.Monomial(new(big.Int).Lsh(p, 80), 1)) // c1 += p·2^80
	// Move the leading coefficient ten degrees up (x^10 ≡ 1): every
	// coefficient still below p, but more of them than the ring has.
	long := canonical[overLong.String()]
	lead := long.LeadingCoeff()
	bump(overLong, poly.Monomial(lead, long.Degree()+10).Sub(poly.Monomial(lead, long.Degree())))
	bumped := []drbg.NodeKey{overP, overLong, wide}
	noncanonical := map[string]bool{}
	for _, key := range bumped {
		noncanonical[key.String()] = true
	}

	_, loaded, err := ReadServer(storeBytes(t, r, tree))
	if err != nil {
		t.Fatal(err)
	}
	loaded.Walk(func(key drbg.NodeKey, n *sharing.Node) bool {
		if noncanonical[key.String()] != (n.Packed == nil) {
			t.Fatalf("node %s: Packed set = %v for a polynomial that is canonical = %v", key, n.Packed != nil, !noncanonical[key.String()])
		}
		for _, v := range n.Packed {
			if v >= 11 {
				t.Fatalf("node %s: unreduced word %d in Packed", key, v)
			}
		}
		if len(n.Packed) > r.DegreeBound() {
			t.Fatalf("node %s: %d words in Packed, degree bound %d", key, len(n.Packed), r.DegreeBound())
		}
		return true
	})

	local, err := server.NewLocal(r, loaded)
	if err != nil {
		t.Fatal(err)
	}
	ref := ring.MustFp(11)
	ref.SetFast(false) // the big.Int evaluator
	points := []*big.Int{big.NewInt(2), big.NewInt(7)}
	answers, err := local.EvalNodes(bumped, points)
	if err != nil {
		t.Fatal(err)
	}
	for k, key := range bumped {
		for i, a := range points {
			want, err := ref.Eval(canonical[key.String()], a)
			if err != nil {
				t.Fatal(err)
			}
			if got := answers[k].Values()[i]; got.Cmp(want) != 0 {
				t.Fatalf("node %s at %s: loaded store evaluates to %s, canonical polynomial to %s", key, a, got, want)
			}
		}
	}
}
