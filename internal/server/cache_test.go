package server

import (
	"crypto/sha256"
	"math/big"
	"sync"
	"testing"

	"sssearch/internal/drbg"
	"sssearch/internal/mapping"
	"sssearch/internal/polyenc"
	"sssearch/internal/ring"
	"sssearch/internal/sharing"
	"sssearch/internal/workload"
)

func buildCacheFixture(t *testing.T, r ring.Ring) (*Local, []drbg.NodeKey, []*big.Int) {
	t.Helper()
	doc := workload.RandomTree(workload.TreeConfig{Nodes: 40, MaxFanout: 3, Vocab: 8, Seed: 5})
	m, err := mapping.New(r.MaxTag(), []byte("cache-test"))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := polyenc.Encode(r, doc, m)
	if err != nil {
		t.Fatal(err)
	}
	seed := drbg.Seed(sha256.Sum256([]byte("cache-test")))
	tree, err := sharing.Split(enc, seed)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewLocal(r, tree)
	if err != nil {
		t.Fatal(err)
	}
	var keys []drbg.NodeKey
	enc.Walk(func(k drbg.NodeKey, _ *polyenc.Node) bool {
		keys = append(keys, k)
		return true
	})
	points := []*big.Int{big.NewInt(2), big.NewInt(3), big.NewInt(5)}
	return srv, keys, points
}

// TestEvalCacheHitsAndConsistency: on a coefficient-form store the second
// identical request must be answered from the cache with identical values;
// a value-form store answers identically from its values, with nothing to
// cache and nothing tallied.
func TestEvalCacheHitsAndConsistency(t *testing.T) {
	for _, r := range []ring.Ring{ring.MustFp(257), ring.MustIntQuotient(1, 0, 1)} {
		_, cached := r.(*ring.IntQuotient)
		srv, keys, points := buildCacheFixture(t, r)
		first, err := srv.EvalNodes(keys, points)
		if err != nil {
			t.Fatal(err)
		}
		s1 := srv.Counters().Snapshot()
		want := int64(len(keys) * len(points))
		if !cached {
			want = 0
		}
		if s1.EvalCacheHits != 0 || s1.EvalCacheMiss != want {
			t.Fatalf("%s: cold pass hits = %d, misses = %d, want 0 / %d", r.Name(), s1.EvalCacheHits, s1.EvalCacheMiss, want)
		}
		second, err := srv.EvalNodes(keys, points)
		if err != nil {
			t.Fatal(err)
		}
		s2 := srv.Counters().Snapshot().Sub(s1)
		if s2.EvalCacheHits != want || s2.EvalCacheMiss != 0 {
			t.Fatalf("%s: warm pass hits = %d, misses = %d, want %d / 0", r.Name(), s2.EvalCacheHits, s2.EvalCacheMiss, want)
		}
		for i := range first {
			for j := range first[i].Values() {
				if first[i].Values()[j].Cmp(second[i].Values()[j]) != 0 {
					t.Fatalf("%s: cached value diverged at %s point %s", r.Name(), keys[i], points[j])
				}
			}
		}
	}
}

// TestEvalCacheDisabled: a zero-capacity cache must still answer
// correctly and never hit.
func TestEvalCacheDisabled(t *testing.T) {
	srv, keys, points := buildCacheFixture(t, ring.MustIntQuotient(1, 0, 1))
	ref, err := srv.EvalNodes(keys, points)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetEvalCacheEntries(0)
	for pass := 0; pass < 2; pass++ {
		got, err := srv.EvalNodes(keys, points)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			for j := range ref[i].Values() {
				if ref[i].Values()[j].Cmp(got[i].Values()[j]) != 0 {
					t.Fatalf("cache-off values diverged at %s", keys[i])
				}
			}
		}
	}
	if hits := srv.Counters().Snapshot().EvalCacheHits; hits != 0 {
		t.Fatalf("disabled cache produced %d hits", hits)
	}
}

// TestSetFastAfterConstruction: disabling the ring's fast path after the
// server was built must answer identically, not crash: a value-form store
// reads its values at either setting.
func TestSetFastAfterConstruction(t *testing.T) {
	r := ring.MustFp(257)
	srv, keys, points := buildCacheFixture(t, r)
	ref, err := srv.EvalNodes(keys, points)
	if err != nil {
		t.Fatal(err)
	}
	r.SetFast(false)
	got, err := srv.EvalNodes(keys, points)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		for j := range ref[i].Values() {
			if ref[i].Values()[j].Cmp(got[i].Values()[j]) != 0 {
				t.Fatalf("SetFast(false) changed the answer at %s", keys[i])
			}
		}
	}
}

// TestEvalCacheBounded: a tiny cache must evict, not grow.
func TestEvalCacheBounded(t *testing.T) {
	srv, keys, points := buildCacheFixture(t, ring.MustIntQuotient(1, 0, 1))
	srv.SetEvalCacheEntries(8)
	if _, err := srv.EvalNodes(keys, points); err != nil {
		t.Fatal(err)
	}
	// The LRU itself enforces the bound; this exercises eviction + reuse.
	if _, err := srv.EvalNodes(keys, points); err != nil {
		t.Fatal(err)
	}
}

// TestEvalCacheConcurrent exercises the cache, and the value reads, under
// parallel EvalNodes (the ServerAPI contract) — meaningful under -race.
func TestEvalCacheConcurrent(t *testing.T) {
	for _, r := range []ring.Ring{ring.MustFp(257), ring.MustIntQuotient(1, 0, 1)} {
		evalConcurrently(t, r)
	}
}

func evalConcurrently(t *testing.T, r ring.Ring) {
	srv, keys, points := buildCacheFixture(t, r)
	ref, err := srv.EvalNodes(keys, points)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				got, err := srv.EvalNodes(keys, points)
				if err != nil {
					t.Error(err)
					return
				}
				for k := range got {
					if got[k].Values()[0].Cmp(ref[k].Values()[0]) != 0 {
						t.Errorf("goroutine %d: value diverged at %s", g, keys[k])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestWarmEvalAllocatesPerCallNotPerValue: a value-form evaluation call
// allocates its answers, its value slab and its point indices — a handful
// of objects however many keys and points it is asked about, where boxing
// each value cost two a value — and every answer holds its values as
// words, capacity-clipped: an append to one cannot reach the next one's.
func TestWarmEvalAllocatesPerCallNotPerValue(t *testing.T) {
	srv, keys, points := buildCacheFixture(t, ring.MustFp(257))
	if _, err := srv.EvalNodes(keys, points); err != nil { // warm
		t.Fatal(err)
	}
	for _, n := range []int{1, len(keys)} {
		if got := testing.AllocsPerRun(50, func() {
			if _, err := srv.EvalNodes(keys[:n], points); err != nil {
				t.Fatal(err)
			}
		}); got > 4 {
			t.Fatalf("a warm call about %d keys at %d points allocated %v times, want at most 4 whatever the count", n, len(points), got)
		}
	}
	out, err := srv.EvalNodes(keys, points)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range out {
		if len(a.Big) != 0 || len(a.Words) != len(points) || cap(a.Words) != len(points) {
			t.Fatalf("answer %d: %d words (cap %d), %d big.Int values, want %d capacity-clipped words", i, len(a.Words), cap(a.Words), len(a.Big), len(points))
		}
	}
}
