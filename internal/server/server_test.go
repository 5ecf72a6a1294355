package server

import (
	"crypto/sha256"
	"math/big"
	"sync"
	"testing"

	"sssearch/internal/drbg"
	"sssearch/internal/mapping"
	"sssearch/internal/paperdata"
	"sssearch/internal/polyenc"
	"sssearch/internal/ring"
	"sssearch/internal/sharing"
	"sssearch/internal/workload"
)

func testSeed(b byte) drbg.Seed {
	var s drbg.Seed
	for i := range s {
		s[i] = b
	}
	return s
}

func buildLocal(t *testing.T) (*Local, ring.Ring) {
	t.Helper()
	r := paperdata.ZRing()
	enc, err := polyenc.Encode(r, paperdata.Document(), paperdata.Mapping(nil))
	if err != nil {
		t.Fatal(err)
	}
	tree, err := sharing.Split(enc, testSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	local, err := NewLocal(r, tree)
	if err != nil {
		t.Fatal(err)
	}
	return local, r
}

func TestNewLocalValidation(t *testing.T) {
	if _, err := NewLocal(nil, nil); err == nil {
		t.Error("nil inputs accepted")
	}
	if _, err := NewLocal(paperdata.ZRing(), &sharing.Tree{}); err == nil {
		t.Error("empty tree accepted")
	}
}

func TestEvalNodesShapes(t *testing.T) {
	local, _ := buildLocal(t)
	points := []*big.Int{big.NewInt(2), big.NewInt(3)}
	answers, err := local.EvalNodes([]drbg.NodeKey{{}, {0}, {0, 0}}, points)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 3 {
		t.Fatalf("%d answers", len(answers))
	}
	if answers[0].NumChildren != 2 || answers[1].NumChildren != 1 || answers[2].NumChildren != 0 {
		t.Errorf("child counts: %+v", answers)
	}
	for _, a := range answers {
		if a.Len() != 2 {
			t.Errorf("node %s: %d values", a.Key, a.Len())
		}
	}
	// Unknown key errors.
	if _, err := local.EvalNodes([]drbg.NodeKey{{9}}, points); err == nil {
		t.Error("bad key accepted")
	}
	// Undefined evaluation point errors (|r(0)| = 1).
	if _, err := local.EvalNodes([]drbg.NodeKey{{}}, []*big.Int{big.NewInt(0)}); err == nil {
		t.Error("undefined point accepted")
	}
}

func TestFetchPolysMatchesTree(t *testing.T) {
	local, r := buildLocal(t)
	answers, err := local.FetchPolys([]drbg.NodeKey{{1}})
	if err != nil {
		t.Fatal(err)
	}
	node, _ := local.Tree().Lookup(drbg.NodeKey{1})
	if !r.Equal(answers[0].Polynomial(), node.Poly) {
		t.Error("fetched polynomial differs from stored")
	}
	if answers[0].NumChildren != 1 {
		t.Error("child count wrong")
	}
	if _, err := local.FetchPolys([]drbg.NodeKey{{7, 7}}); err == nil {
		t.Error("bad key accepted")
	}
}

func TestPruneIsNoop(t *testing.T) {
	local, _ := buildLocal(t)
	if err := local.Prune([]drbg.NodeKey{{0}}); err != nil {
		t.Errorf("prune: %v", err)
	}
}

func TestTampererCounts(t *testing.T) {
	local, _ := buildLocal(t)
	tam := &Tamperer{Inner: local, CorruptValueAt: drbg.NodeKey{0}, CorruptPolyAt: drbg.NodeKey{1}}
	honest, _ := local.EvalNodes([]drbg.NodeKey{{0}}, []*big.Int{big.NewInt(2)})
	dirty, err := tam.EvalNodes([]drbg.NodeKey{{0}}, []*big.Int{big.NewInt(2)})
	if err != nil {
		t.Fatal(err)
	}
	if dirty[0].Values()[0].Cmp(honest[0].Values()[0]) == 0 {
		t.Error("value not tampered")
	}
	if tam.ValueTampered.Load() != 1 {
		t.Error("tamper count wrong")
	}
	hp, _ := local.FetchPolys([]drbg.NodeKey{{1}})
	dp, err := tam.FetchPolys([]drbg.NodeKey{{1}})
	if err != nil {
		t.Fatal(err)
	}
	if dp[0].Polynomial().Equal(hp[0].Polynomial()) {
		t.Error("poly not tampered")
	}
	if tam.PolyTampered.Load() != 1 {
		t.Error("poly tamper count wrong")
	}
	// Untargeted nodes pass through unchanged.
	clean, err := tam.EvalNodes([]drbg.NodeKey{{1}}, []*big.Int{big.NewInt(2)})
	if err != nil {
		t.Fatal(err)
	}
	honest2, _ := local.EvalNodes([]drbg.NodeKey{{1}}, []*big.Int{big.NewInt(2)})
	if clean[0].Values()[0].Cmp(honest2[0].Values()[0]) != 0 {
		t.Error("untargeted node modified")
	}
	if err := tam.Prune(nil); err != nil {
		t.Error(err)
	}
}

// TestTampererValueDelta: ValueDelta shapes the forgery point by point —
// one point only, every point alike, a delta of its own at each — and an
// answer it leaves alone everywhere is neither copied nor counted.
func TestTampererValueDelta(t *testing.T) {
	local, _ := buildLocal(t)
	keys := []drbg.NodeKey{{0}, {1}}
	points := []*big.Int{big.NewInt(2), big.NewInt(3), big.NewInt(4)}
	honest, err := local.EvalNodes(keys, points)
	if err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		delta func(*big.Int) *big.Int
		want  []int64 // what the forged answer adds at each point
	}{
		"onePointOnly": {func(pt *big.Int) *big.Int {
			if pt.Int64() == 3 {
				return big.NewInt(7)
			}
			return nil
		}, []int64{0, 7, 0}},
		"everyPointAlike": {func(*big.Int) *big.Int { return big.NewInt(5) }, []int64{5, 5, 5}},
		"perPoint":        {func(pt *big.Int) *big.Int { return new(big.Int).Mul(pt, pt) }, []int64{4, 9, 16}},
		"noPoint":         {func(*big.Int) *big.Int { return nil }, []int64{0, 0, 0}},
	} {
		tam := &Tamperer{Inner: local, CorruptValueAt: keys[0], ValueDelta: tc.delta}
		got, err := tam.EvalNodes(keys, points)
		if err != nil {
			t.Fatal(err)
		}
		forged := int64(0)
		for j, add := range tc.want {
			if want := new(big.Int).Add(honest[0].Values()[j], big.NewInt(add)); got[0].Values()[j].Cmp(want) != 0 {
				t.Errorf("%s: value %s at point %s, want %s", name, got[0].Values()[j], points[j], want)
			}
			if got[1].Values()[j].Cmp(honest[1].Values()[j]) != 0 {
				t.Errorf("%s: untargeted node modified at point %s", name, points[j])
			}
			if add != 0 {
				forged = 1
			}
		}
		if n := tam.ValueTampered.Load(); n != forged {
			t.Errorf("%s: counted %d forged answers, want %d", name, n, forged)
		}
	}
}

// TestTampererConcurrentCounts: the engine calls a ServerAPI from concurrent
// batches, so the counters are atomic — exact under contention, and quiet
// under the race detector.
func TestTampererConcurrentCounts(t *testing.T) {
	local, _ := buildLocal(t)
	tam := &Tamperer{Inner: local, CorruptValueAt: drbg.NodeKey{0}, CorruptPolyAt: drbg.NodeKey{1}}
	const callers, calls = 4, 50
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				if _, err := tam.EvalNodes([]drbg.NodeKey{{0}}, []*big.Int{big.NewInt(2)}); err != nil {
					t.Error(err)
				}
				if _, err := tam.FetchPolys([]drbg.NodeKey{{1}}); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if v, p := tam.ValueTampered.Load(), tam.PolyTampered.Load(); v != callers*calls || p != callers*calls {
		t.Fatalf("counted %d forged values and %d forged polynomials, want %d each", v, p, callers*calls)
	}
}

func buildEvalFixture(t *testing.T, r ring.Ring) (*Local, []drbg.NodeKey, []*big.Int) {
	t.Helper()
	doc := workload.RandomTree(workload.TreeConfig{Nodes: 40, MaxFanout: 3, Vocab: 8, Seed: 5})
	m, err := mapping.New(r.MaxTag(), []byte("eval-test"))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := polyenc.Encode(r, doc, m)
	if err != nil {
		t.Fatal(err)
	}
	seed := drbg.Seed(sha256.Sum256([]byte("eval-test")))
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

// ringEvalAnswers is what EvalNodes must answer for keys at points: ring.Eval
// of each node's share polynomial on a coefficient-form store, the first
// call's answer on a value-form store (whose values are the reference).
func ringEvalAnswers(t *testing.T, r ring.Ring, srv *Local, keys []drbg.NodeKey, points []*big.Int) [][]*big.Int {
	t.Helper()
	want := make([][]*big.Int, len(keys))
	if _, coeffs := r.(*ring.IntQuotient); !coeffs {
		first, err := srv.EvalNodes(keys, points)
		if err != nil {
			t.Fatal(err)
		}
		for i := range first {
			want[i] = first[i].Values()
		}
		return want
	}
	for i, k := range keys {
		node, err := srv.Tree().Lookup(k)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range points {
			v, err := r.Eval(node.Poly, p)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = append(want[i], v)
		}
	}
	return want
}

// checkEvalAnswers calls EvalNodes once and reports the first value that
// differs from want.
func checkEvalAnswers(t *testing.T, who string, srv *Local, keys []drbg.NodeKey, points []*big.Int, want [][]*big.Int) {
	got, err := srv.EvalNodes(keys, points)
	if err != nil {
		t.Error(err)
		return
	}
	for i := range got {
		for j, v := range got[i].Values() {
			if v.Cmp(want[i][j]) != 0 {
				t.Errorf("%s: %s at %s = %s, want %s", who, keys[i], points[j], v, want[i][j])
				return
			}
		}
	}
}

// TestEvalCacheHitsAndConsistency: nothing caches evaluations any more, so
// a first and a repeated request answer the same — ring.Eval of the share
// polynomial on a coefficient-form store, the stored values on a
// value-form one — and the eval-cache counters the benchmark reads stay 0.
func TestEvalCacheHitsAndConsistency(t *testing.T) {
	for _, r := range []ring.Ring{ring.MustFp(257), ring.MustIntQuotient(1, 0, 1)} {
		srv, keys, points := buildEvalFixture(t, r)
		want := ringEvalAnswers(t, r, srv, keys, points)
		checkEvalAnswers(t, r.Name()+" first call", srv, keys, points, want)
		checkEvalAnswers(t, r.Name()+" repeated call", srv, keys, points, want)
		if s := srv.Counters().Snapshot(); s.EvalCacheHits != 0 || s.EvalCacheMiss != 0 {
			t.Fatalf("%s: eval cache hits = %d, misses = %d, want 0 / 0", r.Name(), s.EvalCacheHits, s.EvalCacheMiss)
		}
	}
}

// TestEvalCacheConcurrent: parallel EvalNodes calls (the ServerAPI
// contract) answer as a lone call does, on both store forms — meaningful
// under -race.
func TestEvalCacheConcurrent(t *testing.T) {
	for _, r := range []ring.Ring{ring.MustFp(257), ring.MustIntQuotient(1, 0, 1)} {
		srv, keys, points := buildEvalFixture(t, r)
		want := ringEvalAnswers(t, r, srv, keys, points)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 10; i++ {
					checkEvalAnswers(t, r.Name()+" concurrent call", srv, keys, points, want)
				}
			}()
		}
		wg.Wait()
	}
}

// TestSetFastAfterConstruction: disabling the ring's fast path after the
// server was built must answer identically, not crash: a value-form store
// reads its values at either setting.
func TestSetFastAfterConstruction(t *testing.T) {
	r := ring.MustFp(257)
	srv, keys, points := buildEvalFixture(t, r)
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

// TestWarmEvalAllocatesPerCallNotPerValue: a value-form evaluation call
// allocates its answers, its value slab and its point indices — a handful
// of objects however many keys and points it is asked about, where boxing
// each value cost two a value — and every answer holds its values as
// words, capacity-clipped: an append to one cannot reach the next one's.
func TestWarmEvalAllocatesPerCallNotPerValue(t *testing.T) {
	srv, keys, points := buildEvalFixture(t, ring.MustFp(257))
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
