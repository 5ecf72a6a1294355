package sharing

import (
	"errors"
	"math/big"
	"slices"
	"testing"

	"sssearch/internal/drbg"
	"sssearch/internal/metrics"
	"sssearch/internal/poly"
	"sssearch/internal/ring"
)

// TestEvalShareWordsMatchesReference: on all three word sources — private
// SeedClient, the shared-cache shim's client, StaticSource over a
// hand-built coefficient tree (one polynomial with a coefficient wider than
// a word), taken into the value form at construction — a block of keys
// evaluated in words is, row by row, the reference: for a seed client the
// client with the fast path off (field.Rand reading the chains), for the
// static source the ring's evaluation of the given polynomials. EvalShares
// is the same row boxed and Share holds it at a−1; a block stops at its
// first failing key with the rows before it written and nothing after; and
// a ring without the word form sends the caller to EvalShares.
func TestEvalShareWordsMatchesReference(t *testing.T) {
	r := ring.MustFp(257)
	server, keys, seed := fixtureKeys(t, r)
	// A hand-built coefficient tree of the server's shape, one of whose
	// polynomials has a coefficient that is not a word.
	coeffTree := &Tree{Root: boxed(server, server.Root)}
	wide, err := coeffTree.Lookup(keys[3])
	if err != nil {
		t.Fatal(err)
	}
	wide.Poly = poly.New(new(big.Int).Lsh(big.NewInt(257), 80), big.NewInt(3))
	static, err := NewStaticSource(r, coeffTree)
	if err != nil {
		t.Fatal(err)
	}
	slow := ring.MustFp(257)
	slow.SetFast(false)
	ref := NewSeedClient(slow, seed)
	points := []*big.Int{big.NewInt(3), big.NewInt(251), big.NewInt(3 + 257), big.NewInt(1)}
	np := len(points)
	for name, src := range map[string]interface {
		WordSource
		MultiPointSource
	}{
		"private": NewSeedClient(r, seed),
		"shared":  NewSharedPadCache(r, seed).NewClient(),
		"static":  static,
	} {
		dst := make([]uint64, len(keys)*np)
		done, ok, err := src.EvalShareWords(dst, keys, points)
		if err != nil || !ok || done != len(keys) {
			t.Fatalf("%s: done %d of %d, ok %v, err %v", name, done, len(keys), ok, err)
		}
		for i, k := range keys {
			share, err := src.Share(k)
			if err != nil {
				t.Fatal(err)
			}
			boxed, err := src.EvalShares(k, points)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.EvalShares(k, points)
			if name == "static" {
				n, _ := coeffTree.Lookup(k)
				want, err = evalEach(r, n.Poly, points)
			}
			if err != nil {
				t.Fatal(err)
			}
			for j, p := range points {
				at := share.Coeff(int(new(big.Int).Mod(p, big.NewInt(257)).Int64()) - 1)
				if got := dst[i*np+j]; got != want[j].Uint64() || boxed[j].Cmp(want[j]) != 0 || at.Cmp(want[j]) != 0 {
					t.Fatalf("%s node %s at %s: word %d, boxed %s, share %s, reference %s", name, k, p, got, boxed[j], at, want[j])
				}
			}
		}
		// No points: nothing to write, nothing to fail.
		if done, ok, err := src.EvalShareWords(nil, keys, nil); err != nil || !ok || done != len(keys) {
			t.Fatalf("%s: a block at no points: done %d, ok %v, err %v", name, done, ok, err)
		}
		// A point ≡ 0 fails the block at its first key.
		if done, ok, err := src.EvalShareWords(make([]uint64, 2), keys[:2], []*big.Int{big.NewInt(257)}); !errors.Is(err, ring.ErrEvalUndefined) || !ok || done != 0 {
			t.Fatalf("%s: a block at the point 257 ≡ 0: done %d, ok %v, err %v", name, done, ok, err)
		}
	}

	// A key outside the tree fails the static source's block at that key.
	const sentinel = ^uint64(0)
	dst := []uint64{sentinel, sentinel, sentinel, sentinel, sentinel, sentinel}
	block := []drbg.NodeKey{keys[1], {1 << 30}, keys[2]}
	done, ok, err := static.EvalShareWords(dst, block, points[:2])
	if err == nil || !ok || done != 1 {
		t.Fatalf("a block holding an unknown key: done %d, ok %v, err %v", done, ok, err)
	}
	if dst[0] == sentinel || dst[1] == sentinel || dst[4] != sentinel || dst[5] != sentinel {
		t.Fatalf("rows after a failed block: %v, want the first written and the last untouched", dst)
	}

	// No word form, no word seam: the sources say so and write nothing.
	slowStatic, err := NewStaticSource(slow, mustMaterialize(t, slow, seed, server))
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range map[string]WordSource{
		"slow private": NewSeedClient(slow, seed),
		"slow shared":  NewSharedPadCache(slow, seed).NewClient(),
		"slow static":  slowStatic,
		"Z private":    NewSeedClient(ring.MustIntQuotient(1, 0, 1), seed),
	} {
		dst := []uint64{sentinel}
		if done, ok, err := src.EvalShareWords(dst, keys[:1], points[:1]); ok || err != nil || done != 0 || dst[0] != sentinel {
			t.Fatalf("%s: done %d, ok %v, err %v, dst %v: want a refusal that writes nothing", name, done, ok, err, dst)
		}
	}
}

// boxed copies the subtree at n of a value-form tree into a hand-built
// coefficient-form fixture: each node's value vector read as a
// polynomial's coefficients.
func boxed(t *Tree, n *Node) *Node {
	out := &Node{Poly: poly.NewUint64(t.Words(n))}
	for _, c := range n.Children {
		out.Children = append(out.Children, boxed(t, c))
	}
	return out
}

// TestSharedEvalBlockCountsAndAllocations: a block through the shared-cache
// shim's client tallies no cache work — there is no cache — and allocates
// per block (the point keys and the pad scratch), not per key: no rendered
// path, no boxed value.
func TestSharedEvalBlockCountsAndAllocations(t *testing.T) {
	r := ring.MustFp(257)
	_, keys, seed := fixtureKeys(t, r)
	c := NewSharedPadCache(r, seed).NewClient()
	m := &metrics.Counters{}
	c.SetCounters(m)
	points := []*big.Int{big.NewInt(5), big.NewInt(11)}
	dst := make([]uint64, len(keys)*len(points))
	if _, _, err := c.EvalShareWords(dst, keys, points); err != nil {
		t.Fatal(err)
	}
	again := make([]uint64, len(dst))
	if _, _, err := c.EvalShareWords(again, keys, points); err != nil {
		t.Fatal(err)
	}
	if s := m.Snapshot(); s != (metrics.Snapshot{}) {
		t.Fatalf("a block tallied %+v", s)
	}
	if !slices.Equal(dst, again) {
		t.Fatal("a repeated block answered differently")
	}
	if n := testing.AllocsPerRun(20, func() {
		if _, _, err := c.EvalShareWords(again, keys, points); err != nil {
			t.Fatal(err)
		}
	}); n > 4 {
		t.Fatalf("a block of %d keys allocated %v times, want a handful per block", len(keys), n)
	}
}
