package shard

import (
	"errors"
	"math/big"
	"reflect"
	"sync"
	"testing"

	"sssearch/internal/core"
	"sssearch/internal/drbg"
	"sssearch/internal/mapping"
	"sssearch/internal/polyenc"
	"sssearch/internal/ring"
	"sssearch/internal/server"
	"sssearch/internal/sharing"
	"sssearch/internal/workload"
)

// fixture builds a deterministic share tree over r with its key walk and
// a couple of valid evaluation points.
func fixture(t testing.TB, r ring.Ring, nodes int) (*sharing.Tree, []drbg.NodeKey, []*big.Int) {
	t.Helper()
	doc := workload.RandomTree(workload.TreeConfig{Nodes: nodes, MaxFanout: 3, Vocab: 8, Seed: 42})
	m, err := mapping.New(r.MaxTag(), []byte("shard-test"))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := polyenc.Encode(r, doc, m)
	if err != nil {
		t.Fatal(err)
	}
	var seed drbg.Seed
	for i := range seed {
		seed[i] = 0x5C
	}
	tree, err := sharing.Split(enc, seed)
	if err != nil {
		t.Fatal(err)
	}
	var keys []drbg.NodeKey
	tree.Walk(func(key drbg.NodeKey, _ *sharing.Node) bool {
		keys = append(keys, key)
		return true
	})
	var points []*big.Int
	for _, tag := range []string{"t0", "t1", "t2", "t3"} {
		if v, ok := m.Value(tag); ok && len(points) < 2 {
			points = append(points, v)
		}
	}
	if len(points) < 2 {
		t.Fatal("fixture has too few points")
	}
	return tree, keys, points
}

func TestManifestOwnerLongestPrefix(t *testing.T) {
	man := &Manifest{Shards: 3, Entries: []Entry{
		{Prefix: drbg.NodeKey{}, Shard: 0},
		{Prefix: drbg.NodeKey{1}, Shard: 1},
		{Prefix: drbg.NodeKey{1, 2}, Shard: 2},
	}}
	if err := man.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		key  drbg.NodeKey
		want int
	}{
		{drbg.NodeKey{}, 0},
		{drbg.NodeKey{0}, 0},
		{drbg.NodeKey{1}, 1},
		{drbg.NodeKey{1, 0}, 1},
		{drbg.NodeKey{1, 2}, 2},
		{drbg.NodeKey{1, 2, 9, 9}, 2},
	}
	for _, c := range cases {
		if got := man.Owner(c.key); got != c.want {
			t.Errorf("Owner(%s) = %d, want %d", c.key, got, c.want)
		}
	}
}

func TestManifestValidate(t *testing.T) {
	bad := []*Manifest{
		nil,
		{Shards: 0, Entries: []Entry{{Prefix: drbg.NodeKey{}, Shard: 0}}},
		{Shards: 2, Entries: []Entry{{Prefix: drbg.NodeKey{0}, Shard: 0}}},                                    // no root entry
		{Shards: 2, Entries: []Entry{{Prefix: drbg.NodeKey{}, Shard: 2}}},                                     // owner out of range
		{Shards: 2, Entries: []Entry{{Prefix: drbg.NodeKey{}, Shard: 0}, {Prefix: drbg.NodeKey{}, Shard: 1}}}, // duplicate
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: invalid manifest accepted", i)
		}
	}
}

func TestManifestMarshalRoundTrip(t *testing.T) {
	man := &Manifest{Shards: 4, Entries: []Entry{
		{Prefix: drbg.NodeKey{}, Shard: 0},
		{Prefix: drbg.NodeKey{0}, Shard: 3},
		{Prefix: drbg.NodeKey{2, 1}, Shard: 1},
	}}
	b, err := man.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Manifest
	if err := got.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	if got.Shards != man.Shards || !reflect.DeepEqual(got.Entries, man.Entries) {
		t.Fatalf("round trip: got %+v, want %+v", got.Entries, man.Entries)
	}
	// Truncations must error, not panic.
	for i := 0; i < len(b); i++ {
		var m Manifest
		if err := m.UnmarshalBinary(b[:i]); err == nil {
			t.Fatalf("truncation at %d accepted", i)
		}
	}
	if err := got.UnmarshalBinary(append(b, 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestPlanDeterministicAndBalanced(t *testing.T) {
	tree, keys, _ := fixture(t, ring.MustFp(257), 200)
	for _, n := range []int{1, 2, 4, 7} {
		man, err := Plan(tree, n)
		if err != nil {
			t.Fatal(err)
		}
		if err := man.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		again, err := Plan(tree, n)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(man.Entries, again.Entries) {
			t.Fatalf("n=%d: plan is not deterministic", n)
		}
		// Every shard owns a non-trivial slice (the fixture is large
		// enough), and ownership covers all keys exactly once.
		counts := make([]int, n)
		for _, k := range keys {
			counts[man.Owner(k)]++
		}
		total := 0
		for s, c := range counts {
			total += c
			if n <= 4 && c == 0 {
				t.Errorf("n=%d: shard %d owns no nodes (counts %v)", n, s, counts)
			}
		}
		if total != len(keys) {
			t.Fatalf("n=%d: %d owned keys of %d", n, total, len(keys))
		}
		if n > 1 {
			max := 0
			for _, c := range counts {
				if c > max {
					max = c
				}
			}
			if max > (len(keys)*3)/n {
				t.Errorf("n=%d: poor balance, max shard holds %d of %d (%v)", n, max, len(keys), counts)
			}
		}
	}
	if _, err := Plan(tree, 0); err == nil {
		t.Error("Plan(0) accepted")
	}
}

func TestPartitionPreservesShapeAndShares(t *testing.T) {
	tree, keys, _ := fixture(t, ring.MustFp(257), 120)
	trees, man, err := Partition(tree, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) != 3 {
		t.Fatalf("%d shard trees", len(trees))
	}
	owned := 0
	for s, st := range trees {
		if st.Count() != tree.Count() {
			t.Fatalf("shard %d shape: %d nodes, want %d", s, st.Count(), tree.Count())
		}
		owned += OwnedNodes(tree, man, s)
		for _, k := range keys {
			orig, err := tree.Lookup(k)
			if err != nil {
				t.Fatal(err)
			}
			copy, err := st.Lookup(k)
			if err != nil {
				t.Fatalf("shard %d: %v", s, err)
			}
			if len(copy.Children) != len(orig.Children) {
				t.Fatalf("shard %d %s: child count %d, want %d", s, k, len(copy.Children), len(orig.Children))
			}
			if man.Owner(k) == s {
				if !copy.Polynomial().Equal(orig.Polynomial()) {
					t.Fatalf("shard %d owns %s but polynomial differs", s, k)
				}
			} else if copy.Polynomial().Len() != 0 {
				t.Fatalf("shard %d does not own %s but carries a polynomial", s, k)
			}
		}
	}
	if owned != tree.Count() {
		t.Fatalf("OwnedNodes sums to %d, want %d", owned, tree.Count())
	}
}

// routedFixture assembles a Router over guarded in-process Locals plus
// the unsharded reference Local.
func routedFixture(t *testing.T, r ring.Ring, shards int) (*Router, *server.Local, []drbg.NodeKey, []*big.Int) {
	t.Helper()
	tree, keys, points := fixture(t, r, 150)
	ref, err := server.NewLocal(r, tree)
	if err != nil {
		t.Fatal(err)
	}
	trees, man, err := Partition(tree, shards)
	if err != nil {
		t.Fatal(err)
	}
	backends := make([]core.ServerAPI, len(trees))
	for s, st := range trees {
		local, err := server.NewLocal(r, st)
		if err != nil {
			t.Fatal(err)
		}
		g, err := NewGuard(r, local, man, s)
		if err != nil {
			t.Fatal(err)
		}
		backends[s] = g
	}
	router, err := NewRouter(man, backends)
	if err != nil {
		t.Fatal(err)
	}
	return router, ref, keys, points
}

func TestRouterMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		ring ring.Ring
	}{
		{"Fp", ring.MustFp(257)},
		{"Z", ring.MustIntQuotient(1, 0, 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			router, ref, keys, points := routedFixture(t, tc.ring, 4)
			want, err := ref.EvalNodes(keys, points)
			if err != nil {
				t.Fatal(err)
			}
			got, err := router.EvalNodes(keys, points)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i].Key.String() != want[i].Key.String() || got[i].NumChildren != want[i].NumChildren {
					t.Fatalf("answer %d misrouted: %+v vs %+v", i, got[i], want[i])
				}
				for j := range want[i].Values() {
					if got[i].Values()[j].Cmp(want[i].Values()[j]) != 0 {
						t.Fatalf("%s point %d: %v, want %v", want[i].Key, j, got[i].Values()[j], want[i].Values()[j])
					}
				}
			}
			wantP, err := ref.FetchPolys(keys)
			if err != nil {
				t.Fatal(err)
			}
			gotP, err := router.FetchPolys(keys)
			if err != nil {
				t.Fatal(err)
			}
			for i := range wantP {
				if !gotP[i].Polynomial().Equal(wantP[i].Polynomial()) {
					t.Fatalf("%s: fetched polynomial differs", wantP[i].Key)
				}
			}
			if err := router.Prune(keys[:3]); err != nil {
				t.Fatalf("prune: %v", err)
			}
			snap := router.Counters().Snapshot()
			if snap.Batches == 0 || snap.Fanout < snap.Batches {
				t.Errorf("implausible routing counters: %+v", snap)
			}
		})
	}
}

func TestRouterEmptyAndErrorPaths(t *testing.T) {
	router, _, keys, points := routedFixture(t, ring.MustFp(257), 2)
	out, err := router.EvalNodes(nil, points)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty batch: %v, %d answers", err, len(out))
	}
	if router.Counters().Snapshot().Batches != 0 {
		t.Error("empty batch was recorded")
	}
	// An unknown key routes to its range owner and must surface that
	// shard's error without wedging later calls.
	unknown := drbg.NodeKey{1 << 30, 9}
	if _, err := router.EvalNodes([]drbg.NodeKey{unknown, keys[0]}, points); err == nil {
		t.Fatal("unknown key accepted")
	}
	if _, err := router.EvalNodes(keys, points); err != nil {
		t.Fatalf("call after error failed: %v", err)
	}
	if _, err := NewRouter(&Manifest{Shards: 2, Entries: []Entry{{Prefix: drbg.NodeKey{}, Shard: 0}}}, make([]core.ServerAPI, 1)); err == nil {
		t.Error("backend/shard count mismatch accepted")
	}
}

func TestGuardRejectsForeignKeys(t *testing.T) {
	r := ring.MustFp(257)
	tree, keys, points := fixture(t, r, 100)
	trees, man, err := Partition(tree, 2)
	if err != nil {
		t.Fatal(err)
	}
	local, err := server.NewLocal(r, trees[1])
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGuard(r, local, man, 1)
	if err != nil {
		t.Fatal(err)
	}
	var mine, foreign []drbg.NodeKey
	for _, k := range keys {
		if man.Owner(k) == 1 {
			mine = append(mine, k)
		} else {
			foreign = append(foreign, k)
		}
	}
	if len(mine) == 0 || len(foreign) == 0 {
		t.Fatal("fixture did not split ownership")
	}
	if _, err := g.EvalNodes(mine[:1], points); err != nil {
		t.Fatalf("owned eval rejected: %v", err)
	}
	if _, err := g.EvalNodes(foreign[:1], points); !errors.Is(err, ErrNotOwned) {
		t.Fatalf("foreign eval error = %v, want ErrNotOwned", err)
	}
	if _, err := g.FetchPolys(foreign[:1]); !errors.Is(err, ErrNotOwned) {
		t.Fatalf("foreign fetch error = %v, want ErrNotOwned", err)
	}
	// Prune is advisory: foreign keys are dropped, not rejected.
	if err := g.Prune(append(append([]drbg.NodeKey{}, foreign[:2]...), mine[:1]...)); err != nil {
		t.Fatalf("mixed prune rejected: %v", err)
	}
	if _, err := NewGuard(r, local, man, 5); err == nil {
		t.Error("out-of-range shard id accepted")
	}
}

// TestManifestOwnerRootFallback pins the root-entry fallback: with the
// catch-all on a NON-zero shard, the root key and unmatched keys must
// route there (a regression test — the root renders as "/", not "").
func TestManifestOwnerRootFallback(t *testing.T) {
	man := &Manifest{Shards: 3, Entries: []Entry{
		{Prefix: drbg.NodeKey{}, Shard: 1},
		{Prefix: drbg.NodeKey{2}, Shard: 2},
	}}
	if err := man.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := man.Owner(drbg.NodeKey{}); got != 1 {
		t.Errorf("Owner(root) = %d, want 1", got)
	}
	if got := man.Owner(drbg.NodeKey{0, 5, 5}); got != 1 {
		t.Errorf("Owner(unmatched deep key) = %d, want 1", got)
	}
	if got := man.Owner(drbg.NodeKey{2, 9}); got != 2 {
		t.Errorf("Owner(/2/9) = %d, want 2", got)
	}
	// Round-tripping must preserve the non-zero root owner.
	b, err := man.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var rt Manifest
	if err := rt.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	if got := rt.Owner(drbg.NodeKey{}); got != 1 {
		t.Errorf("unmarshalled Owner(root) = %d, want 1", got)
	}
}

func TestManifestSubtreeShards(t *testing.T) {
	man := &Manifest{Shards: 4, Entries: []Entry{
		{Prefix: drbg.NodeKey{}, Shard: 0},
		{Prefix: drbg.NodeKey{1}, Shard: 1},
		{Prefix: drbg.NodeKey{1, 0}, Shard: 2},
		{Prefix: drbg.NodeKey{3}, Shard: 3},
	}}
	cases := []struct {
		key  drbg.NodeKey
		want []int
	}{
		{drbg.NodeKey{}, []int{0, 1, 2, 3}}, // root subtree touches everything
		{drbg.NodeKey{1}, []int{1, 2}},      // /1 has /1/0 carved out to shard 2
		{drbg.NodeKey{1, 0}, []int{2}},      // leaf range
		{drbg.NodeKey{0}, []int{0}},         // spine-only subtree
		{drbg.NodeKey{3, 4, 5}, []int{3}},   // below a leaf range
	}
	for _, c := range cases {
		got := man.SubtreeShards(c.key)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("SubtreeShards(%s) = %v, want %v", c.key, got, c.want)
		}
	}
}

// pruneRecorder is a ServerAPI stub that records Prune batches.
type pruneRecorder struct {
	mu     sync.Mutex
	pruned []drbg.NodeKey
}

func (p *pruneRecorder) EvalNodes([]drbg.NodeKey, []*big.Int) ([]core.NodeEval, error) {
	return nil, errors.New("unused")
}
func (p *pruneRecorder) FetchPolys([]drbg.NodeKey) ([]core.NodePoly, error) {
	return nil, errors.New("unused")
}
func (p *pruneRecorder) Prune(keys []drbg.NodeKey) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.pruned = append(p.pruned, keys...)
	return nil
}

// TestRouterPruneBroadcast: pruning a spine subtree must reach every
// shard whose ranges are nested inside it, not only the subtree root's
// owner — those shards hold dead nodes of the pruned subtree too.
func TestRouterPruneBroadcast(t *testing.T) {
	man := &Manifest{Shards: 3, Entries: []Entry{
		{Prefix: drbg.NodeKey{}, Shard: 0},
		{Prefix: drbg.NodeKey{1}, Shard: 1},
		{Prefix: drbg.NodeKey{1, 0}, Shard: 2},
	}}
	recorders := []*pruneRecorder{{}, {}, {}}
	router, err := NewRouter(man, []core.ServerAPI{recorders[0], recorders[1], recorders[2]})
	if err != nil {
		t.Fatal(err)
	}
	// /1 is owned by shard 1 but contains shard 2's /1/0 range.
	if err := router.Prune([]drbg.NodeKey{{1}}); err != nil {
		t.Fatal(err)
	}
	if len(recorders[0].pruned) != 0 {
		t.Errorf("shard 0 heard an unrelated prune: %v", recorders[0].pruned)
	}
	for _, s := range []int{1, 2} {
		if len(recorders[s].pruned) != 1 || recorders[s].pruned[0].String() != "/1" {
			t.Errorf("shard %d pruned = %v, want [/1]", s, recorders[s].pruned)
		}
	}
	// The guard keeps broadcast keys whose subtree intersects its ranges.
	g, err := NewGuard(ring.MustFp(257), recorders[2], man, 2)
	if err != nil {
		t.Fatal(err)
	}
	recorders[2].pruned = nil
	if err := g.Prune([]drbg.NodeKey{{1}, {0}}); err != nil {
		t.Fatal(err)
	}
	if len(recorders[2].pruned) != 1 || recorders[2].pruned[0].String() != "/1" {
		t.Errorf("guard forwarded %v, want [/1]", recorders[2].pruned)
	}
}

// brokenAPI fails every call with a fixed error — a replica whose
// transport (or client-side retry stack) has given up.
type brokenAPI struct{ err error }

func (b brokenAPI) EvalNodes([]drbg.NodeKey, []*big.Int) ([]core.NodeEval, error) {
	return nil, b.err
}
func (b brokenAPI) FetchPolys([]drbg.NodeKey) ([]core.NodePoly, error) { return nil, b.err }
func (b brokenAPI) Prune([]drbg.NodeKey) error                         { return b.err }

// replicatedFixture assembles a Router with nReplicas guarded Locals per
// shard, where replica 0 of every shard is broken with brokenErr (nil =
// healthy), plus the unsharded reference.
func replicatedFixture(t *testing.T, r ring.Ring, shards int, brokenErr error) (*Router, *server.Local, []drbg.NodeKey, []*big.Int) {
	t.Helper()
	tree, keys, points := fixture(t, r, 120)
	ref, err := server.NewLocal(r, tree)
	if err != nil {
		t.Fatal(err)
	}
	trees, man, err := Partition(tree, shards)
	if err != nil {
		t.Fatal(err)
	}
	groups := make([][]core.ServerAPI, len(trees))
	for s, st := range trees {
		local, err := server.NewLocal(r, st)
		if err != nil {
			t.Fatal(err)
		}
		g, err := NewGuard(r, local, man, s)
		if err != nil {
			t.Fatal(err)
		}
		if brokenErr != nil {
			groups[s] = []core.ServerAPI{brokenAPI{err: brokenErr}, g}
		} else {
			groups[s] = []core.ServerAPI{g}
		}
	}
	router, err := NewReplicatedRouter(man, groups)
	if err != nil {
		t.Fatal(err)
	}
	return router, ref, keys, points
}

// TestReplicatedRouterFailsOver: with the first replica of every shard
// broken, every sub-batch must fail over to the second replica and the
// gathered answers must match the unsharded reference exactly.
func TestReplicatedRouterFailsOver(t *testing.T) {
	r := ring.MustFp(257)
	router, ref, keys, points := replicatedFixture(t, r, 3, errors.New("replica transport down"))
	got, err := router.EvalNodes(keys, points)
	if err != nil {
		t.Fatalf("EvalNodes with broken first replicas: %v", err)
	}
	want, err := ref.EvalNodes(keys, points)
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		for j := range points {
			if got[i].Values()[j].Cmp(want[i].Values()[j]) != 0 {
				t.Fatalf("key %s point %d diverged after failover", keys[i], j)
			}
		}
	}
	gotP, err := router.FetchPolys(keys[:5])
	if err != nil {
		t.Fatalf("FetchPolys with broken first replicas: %v", err)
	}
	wantP, err := ref.FetchPolys(keys[:5])
	if err != nil {
		t.Fatal(err)
	}
	for i := range gotP {
		if !gotP[i].Polynomial().Equal(wantP[i].Polynomial()) {
			t.Fatalf("poly %s diverged after failover", keys[i])
		}
	}
	if err := router.Prune(keys[:1]); err != nil {
		t.Fatalf("Prune with broken first replicas: %v", err)
	}
	if snap := router.Counters().Snapshot(); snap.Retries < 1 {
		t.Errorf("retries = %d, want >= 1", snap.Retries)
	}
}

// TestReplicatedRouterSemanticErrorsAreTerminal: a semantic answer (the
// guard's ErrNotOwned, or a server ErrorMsg) must NOT fail over — the
// replica would answer identically.
func TestReplicatedRouterSemanticErrorsAreTerminal(t *testing.T) {
	r := ring.MustFp(257)
	router, _, _, points := replicatedFixture(t, r, 2, nil)
	// Rebuild with a first replica that answers semantically.
	man := router.Manifest()
	groups := make([][]core.ServerAPI, man.Shards)
	for s := 0; s < man.Shards; s++ {
		groups[s] = []core.ServerAPI{
			brokenAPI{err: ErrNotOwned},
			brokenAPI{err: errors.New("second replica must never be consulted")},
		}
	}
	rr, err := NewReplicatedRouter(man, groups)
	if err != nil {
		t.Fatal(err)
	}
	_, err = rr.EvalNodes([]drbg.NodeKey{{0}}, points)
	if !errors.Is(err, ErrNotOwned) {
		t.Fatalf("err = %v, want ErrNotOwned surfaced without failover", err)
	}
	if snap := rr.Counters().Snapshot(); snap.Retries != 0 {
		t.Errorf("retries = %d, want 0 for a terminal semantic error", snap.Retries)
	}
}

// TestReplicatedRouterAllReplicasDown: exhausting a replica group
// surfaces the last transport error.
func TestReplicatedRouterAllReplicasDown(t *testing.T) {
	r := ring.MustFp(257)
	router, _, _, points := replicatedFixture(t, r, 2, nil)
	man := router.Manifest()
	down := errors.New("every replica down")
	groups := make([][]core.ServerAPI, man.Shards)
	for s := 0; s < man.Shards; s++ {
		groups[s] = []core.ServerAPI{brokenAPI{err: down}, brokenAPI{err: down}}
	}
	rr, err := NewReplicatedRouter(man, groups)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rr.EvalNodes([]drbg.NodeKey{{0}}, points); !errors.Is(err, down) {
		t.Fatalf("err = %v, want the replicas' error", err)
	}
}
