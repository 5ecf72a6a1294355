package sharing

import (
	"math/big"
	"sync"
	"testing"

	"sssearch/internal/drbg"
	"sssearch/internal/metrics"
	"sssearch/internal/ring"
)

// TestSharedClientMatchesPrivate: a client of the SharedPadCache shim must
// be observationally identical to a private seed-only client — Share,
// PackedShare and EvalShares byte for byte, over every node, twice.
func TestSharedClientMatchesPrivate(t *testing.T) {
	r := ring.MustFp(257)
	_, keys, seed := fixtureKeys(t, r)
	shared := NewSharedPadCache(r, seed).NewClient()
	private := NewSeedClient(r, seed)
	points := []*big.Int{big.NewInt(3), big.NewInt(251), big.NewInt(1)}
	for pass := 0; pass < 2; pass++ {
		for _, k := range keys {
			sv, err := shared.EvalShares(k, points)
			if err != nil {
				t.Fatal(err)
			}
			pv, err := private.EvalShares(k, points)
			if err != nil {
				t.Fatal(err)
			}
			for i := range points {
				if sv[i].Cmp(pv[i]) != 0 {
					t.Fatalf("pass %d node %s point %s: shared %s != private %s", pass, k, points[i], sv[i], pv[i])
				}
			}
			ss, err := shared.Share(k)
			if err != nil {
				t.Fatal(err)
			}
			ps, err := private.Share(k)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Equal(ss, ps) {
				t.Fatalf("pass %d node %s: shared Share diverged", pass, k)
			}
			svec, ok, err := shared.PackedShare(k)
			if err != nil || !ok {
				t.Fatalf("shared PackedShare(%s): ok=%v err=%v", k, ok, err)
			}
			pvec, _, err := private.PackedShare(k)
			if err != nil {
				t.Fatal(err)
			}
			for i := range svec {
				if svec[i] != pvec[i] {
					t.Fatalf("pass %d node %s: packed share word %d diverged", pass, k, i)
				}
			}
		}
	}
}

// TestEvalSharesEdgePoints: zero-point and duplicate-point sets across
// the ShareSource implementations — private SeedClient, the shim's client,
// StaticSource.
func TestEvalSharesEdgePoints(t *testing.T) {
	r := ring.MustFp(257)
	server, keys, seed := fixtureKeys(t, r)
	sp := NewSharedPadCache(r, seed)
	static, err := NewStaticSource(r, mustMaterialize(t, r, seed, server))
	if err != nil {
		t.Fatal(err)
	}
	sources := map[string]MultiPointSource{
		"private": NewSeedClient(r, seed),
		"shared":  sp.NewClient(),
		"static":  static,
	}
	dup := []*big.Int{big.NewInt(9), big.NewInt(9), big.NewInt(2), big.NewInt(9)}
	for name, src := range sources {
		empty, err := src.EvalShares(keys[0], nil)
		if err != nil {
			t.Fatalf("%s: zero-point EvalShares: %v", name, err)
		}
		if len(empty) != 0 {
			t.Fatalf("%s: zero-point EvalShares returned %d values", name, len(empty))
		}
		vals, err := src.EvalShares(keys[0], dup)
		if err != nil {
			t.Fatalf("%s: duplicate-point EvalShares: %v", name, err)
		}
		if len(vals) != len(dup) {
			t.Fatalf("%s: got %d values for %d points", name, len(vals), len(dup))
		}
		if vals[0].Cmp(vals[1]) != 0 || vals[0].Cmp(vals[3]) != 0 {
			t.Fatalf("%s: duplicate points disagreed: %v", name, vals)
		}
		if vals[0].Cmp(vals[2]) == 0 {
			t.Logf("%s: note: distinct points coincided (possible but unlikely)", name)
		}
	}
}

func mustMaterialize(t *testing.T, r ring.Ring, seed drbg.Seed, shape *Tree) *Tree {
	t.Helper()
	tree, err := Materialize(r, seed, shape)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestSharedCacheInertOnSlowRing: on a ring without the value form the
// shim's client is a working private client too.
func TestSharedCacheInertOnSlowRing(t *testing.T) {
	r := ring.MustIntQuotient(1, 0, 1)
	_, keys, seed := fixtureKeys(t, r)
	c := NewSharedPadCache(r, seed).NewClient()
	ref := NewSeedClient(r, seed)
	got, err := c.Share(keys[0])
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Share(keys[0])
	if err != nil {
		t.Fatal(err)
	}
	if !r.Equal(got, want) {
		t.Fatal("inert-cache client diverged from the private client")
	}
}

// TestSeedClientSetterRaces pins the SetCounters / SetShareCacheNodes
// concurrency contract: both may be called while queries are in flight
// (run under -race in CI), and the client's point keys are derived under
// concurrent first use.
func TestSeedClientSetterRaces(t *testing.T) {
	r := ring.MustFp(257)
	_, keys, seed := fixtureKeys(t, r)
	c := NewSeedClient(r, seed)
	points := []*big.Int{big.NewInt(4)}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for _, k := range keys {
					if _, _, err := c.PackedShare(k); err != nil {
						t.Error(err)
						return
					}
					if _, err := c.EvalShares(k, points); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		c.SetCounters(&metrics.Counters{})
		c.SetShareCacheNodes(i % 8 * 64)
	}
	close(done)
	wg.Wait()
}
