package sharing

import (
	"errors"
	"math/big"
	"testing"

	"sssearch/internal/drbg"
	"sssearch/internal/metrics"
	"sssearch/internal/poly"
	"sssearch/internal/ring"
)

// TestEvalShareWordsMatchesReference: on all three word sources — private
// SeedClient, shared SeedClient, StaticSource (one of whose nodes has no
// packed form) — a block of keys evaluated in words is, row by row, what
// the ring evaluates on the node's share polynomial, cold and again from
// the caches; EvalShares is the same row boxed; a block stops at its first
// failing key with the rows before it written and nothing after; and a ring
// without the word form sends the caller to EvalShares.
func TestEvalShareWordsMatchesReference(t *testing.T) {
	r := ring.MustFp(257)
	server, keys, seed := fixtureKeys(t, r)
	tree := mustMaterialize(t, r, seed, server)
	// A coefficient wider than a word keeps this node out of the packed map.
	odd, err := tree.Lookup(keys[3])
	if err != nil {
		t.Fatal(err)
	}
	odd.Poly = odd.Polynomial().Add(poly.New(new(big.Int).Lsh(big.NewInt(257), 80)))
	odd.Packed = nil
	static, err := NewStaticSource(r, tree)
	if err != nil {
		t.Fatal(err)
	}
	if _, packed := static.packed[odd]; packed {
		t.Fatal("the wide node packed")
	}
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
		for pass := 0; pass < 2; pass++ {
			dst := make([]uint64, len(keys)*np)
			done, ok, err := src.EvalShareWords(dst, keys, points)
			if err != nil || !ok || done != len(keys) {
				t.Fatalf("%s pass %d: done %d of %d, ok %v, err %v", name, pass, done, len(keys), ok, err)
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
				for j, p := range points {
					want, err := r.Eval(share, p)
					if err != nil {
						t.Fatal(err)
					}
					if got := dst[i*np+j]; !want.IsUint64() || got != want.Uint64() || boxed[j].Cmp(want) != 0 {
						t.Fatalf("%s pass %d node %s at %s: word %d, boxed %s, the ring says %s", name, pass, k, p, got, boxed[j], want)
					}
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
	slow := ring.MustFp(257)
	slow.SetFast(false)
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

// TestSharedEvalBlockCountsAndAllocations: a block against the shared cache
// tallies one eval hit or miss a key, exactly as key-by-key calls do, and a
// block of hits allocates per block — the packed point vector and its
// signature — not per key: no rendered path, no boxed value.
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
	if s := m.Snapshot(); s.ShareEvalMiss != int64(len(keys)) || s.ShareEvalHits != 0 || s.SharedPadMiss != int64(len(keys)) {
		t.Fatalf("cold block: %d eval misses, %d hits, %d pad misses, want %d / 0 / %d", s.ShareEvalMiss, s.ShareEvalHits, s.SharedPadMiss, len(keys), len(keys))
	}
	again := make([]uint64, len(dst))
	if _, _, err := c.EvalShareWords(again, keys, points); err != nil {
		t.Fatal(err)
	}
	if s := m.Snapshot(); s.ShareEvalHits != int64(len(keys)) || s.ShareEvalMiss != int64(len(keys)) || s.SharedPadHits != 0 {
		t.Fatalf("warm block: %d eval hits, %d misses, %d pad hits, want %d / %d / 0", s.ShareEvalHits, s.ShareEvalMiss, s.SharedPadHits, len(keys), len(keys))
	}
	for i := range dst {
		if dst[i] != again[i] {
			t.Fatalf("word %d: %d cold, %d from the eval LRU", i, dst[i], again[i])
		}
	}
	if n := testing.AllocsPerRun(20, func() {
		if _, _, err := c.EvalShareWords(again, keys, points); err != nil {
			t.Fatal(err)
		}
	}); n > 4 {
		t.Fatalf("a warm block of %d keys allocated %v times, want a handful per block", len(keys), n)
	}
}
