package core_test

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sssearch/internal/core"
	"sssearch/internal/drbg"
	"sssearch/internal/mapping"
	"sssearch/internal/metrics"
	"sssearch/internal/polyenc"
	"sssearch/internal/ring"
	"sssearch/internal/server"
	"sssearch/internal/sharing"
	"sssearch/internal/workload"
)

// multiStack builds a k-of-n deployment and a single-server reference over
// the same document, seed and mapping.
type multiStack struct {
	ring    *ring.FpCyclotomic
	m       *mapping.Map
	seed    drbg.Seed
	members []core.MultiMember
	single  *server.Local
}

func buildMultiStack(t testing.TB, k, n, nodes int) *multiStack {
	t.Helper()
	fp := ring.MustFp(257)
	doc := workload.RandomTree(workload.TreeConfig{Nodes: nodes, MaxFanout: 4, Vocab: 10, Seed: 42})
	m, err := mapping.New(fp.MaxTag(), []byte("multi-test"))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := polyenc.Encode(fp, doc, m)
	if err != nil {
		t.Fatal(err)
	}
	seed := testSeed(9)
	singleTree, err := sharing.Split(enc, seed)
	if err != nil {
		t.Fatal(err)
	}
	single, err := server.NewLocal(fp, singleTree)
	if err != nil {
		t.Fatal(err)
	}
	shares, err := sharing.MultiSplit(enc, seed, k, n, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	members := make([]core.MultiMember, n)
	for i, s := range shares {
		srv, err := server.NewLocal(fp, s.Tree)
		if err != nil {
			t.Fatal(err)
		}
		members[i] = core.MultiMember{X: s.X, API: srv}
	}
	return &multiStack{ring: fp, m: m, seed: seed, members: members, single: single}
}

// failingAPI simulates a down member server.
type failingAPI struct{}

var errDown = errors.New("member down")

func (failingAPI) EvalNodes([]drbg.NodeKey, []*big.Int) ([]core.NodeEval, error) {
	return nil, errDown
}
func (failingAPI) FetchPolys([]drbg.NodeKey) ([]core.NodePoly, error) { return nil, errDown }
func (failingAPI) Prune([]drbg.NodeKey) error                         { return errDown }

// TestMultiServerEveryKSubsetReconstructs: any k of the n members, through
// MultiServer's Lagrange combine, answer every node at every point with
// the single server's summand — what the client adds its own share to.
func TestMultiServerEveryKSubsetReconstructs(t *testing.T) {
	s := buildMultiStack(t, 2, 3, 60)
	var keys []drbg.NodeKey
	s.single.Tree().Walk(func(key drbg.NodeKey, _ *sharing.Node) bool {
		keys = append(keys, key)
		return true
	})
	points := []*big.Int{big.NewInt(2), big.NewInt(5)}
	want, err := s.single.EvalNodes(keys, points)
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range [][]int{{0, 1}, {0, 2}, {1, 2}} {
		ms, err := core.NewMultiServer(s.ring, 2, []core.MultiMember{s.members[sub[0]], s.members[sub[1]]})
		if err != nil {
			t.Fatal(err)
		}
		got, err := ms.EvalNodes(keys, points)
		if err != nil {
			t.Fatalf("members %v: %v", sub, err)
		}
		for i := range want {
			for j, v := range want[i].Values() {
				if g := got[i].Values()[j]; g.Cmp(v) != 0 {
					t.Fatalf("members %v: %s at %s = %s, the single server's %s", sub, keys[i], points[j], g, v)
				}
			}
		}
	}
}

// TestMultiServerMatchesSingleServer: the Lagrange-combined summands must
// be indistinguishable from a single-server deployment, end to end, at
// every verification level (VerifyFull exercises FetchPolys combining).
func TestMultiServerMatchesSingleServer(t *testing.T) {
	s := buildMultiStack(t, 2, 3, 60)
	ms, err := core.NewMultiServer(s.ring, 2, s.members)
	if err != nil {
		t.Fatal(err)
	}
	ref := core.NewEngine(s.ring, s.seed, s.m, s.single, nil)
	eng := core.NewEngine(s.ring, s.seed, s.m, ms, nil)
	for _, verify := range []core.VerifyLevel{core.VerifyNone, core.VerifyResolve, core.VerifyFull} {
		for _, tag := range []string{"t0", "t3", "t7"} {
			want, err := ref.Lookup(tag, core.Opts{Verify: verify})
			if err != nil {
				t.Fatalf("%s/%s: reference: %v", verify, tag, err)
			}
			got, err := eng.Lookup(tag, core.Opts{Verify: verify})
			if err != nil {
				t.Fatalf("%s/%s: multi-server: %v", verify, tag, err)
			}
			if len(got.Matches) != len(want.Matches) {
				t.Fatalf("%s/%s: %d matches, want %d", verify, tag, len(got.Matches), len(want.Matches))
			}
			for i := range got.Matches {
				if got.Matches[i].String() != want.Matches[i].String() {
					t.Fatalf("%s/%s: match %d = %s, want %s", verify, tag, i, got.Matches[i], want.Matches[i])
				}
			}
		}
	}
}

// TestMultiServerToleratesDownMembers: with threshold k, up to n-k member
// failures are invisible; one more is an error.
func TestMultiServerToleratesDownMembers(t *testing.T) {
	s := buildMultiStack(t, 2, 3, 40)
	// One member down: still answerable.
	members := append([]core.MultiMember(nil), s.members...)
	members[1] = core.MultiMember{X: members[1].X, API: failingAPI{}}
	ms, err := core.NewMultiServer(s.ring, 2, members)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(s.ring, s.seed, s.m, ms, nil)
	ref := core.NewEngine(s.ring, s.seed, s.m, s.single, nil)
	want, err := ref.Lookup("t2", core.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Lookup("t2", core.Opts{})
	if err != nil {
		t.Fatalf("query with one down member: %v", err)
	}
	if len(got.Matches) != len(want.Matches) {
		t.Fatalf("%d matches, want %d", len(got.Matches), len(want.Matches))
	}
	// Two members down: below threshold.
	members[2] = core.MultiMember{X: members[2].X, API: failingAPI{}}
	ms2, err := core.NewMultiServer(s.ring, 2, members)
	if err != nil {
		t.Fatal(err)
	}
	eng2 := core.NewEngine(s.ring, s.seed, s.m, ms2, nil)
	if _, err := eng2.Lookup("t2", core.Opts{}); err == nil {
		t.Fatal("query with two of three members down should fail at threshold 2")
	}
}

// hangingAPI simulates a member whose connection black-holes: calls block
// until release is closed.
type hangingAPI struct{ release chan struct{} }

func (h hangingAPI) EvalNodes([]drbg.NodeKey, []*big.Int) ([]core.NodeEval, error) {
	<-h.release
	return nil, errDown
}
func (h hangingAPI) FetchPolys([]drbg.NodeKey) ([]core.NodePoly, error) {
	<-h.release
	return nil, errDown
}
func (h hangingAPI) Prune([]drbg.NodeKey) error {
	<-h.release
	return errDown
}

// TestMultiServerUnblockedByHungMember: with threshold k, a member that
// hangs (rather than erroring) must not stall the query — the fan-out
// returns as soon as k members answer.
func TestMultiServerUnblockedByHungMember(t *testing.T) {
	s := buildMultiStack(t, 2, 3, 30)
	release := make(chan struct{})
	defer close(release) // unblock straggler goroutines at test end
	members := append([]core.MultiMember(nil), s.members...)
	members[0] = core.MultiMember{X: members[0].X, API: hangingAPI{release: release}}
	ms, err := core.NewMultiServer(s.ring, 2, members)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(s.ring, s.seed, s.m, ms, nil)
	done := make(chan error, 1)
	go func() {
		_, err := eng.Lookup("t2", core.Opts{Verify: core.VerifyResolve})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("query with one hung member failed: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("query blocked on a hung member despite k=2 of 3 answering")
	}
}

// TestNewMultiServerValidation rejects bad thresholds and share points.
func TestNewMultiServerValidation(t *testing.T) {
	fp := ring.MustFp(257)
	api := failingAPI{}
	if _, err := core.NewMultiServer(fp, 2, []core.MultiMember{{X: 1, API: api}}); err == nil {
		t.Error("threshold above member count accepted")
	}
	if _, err := core.NewMultiServer(fp, 0, nil); err == nil {
		t.Error("zero threshold accepted")
	}
	if _, err := core.NewMultiServer(fp, 1, []core.MultiMember{{X: 0, API: api}}); err == nil {
		t.Error("x=0 member accepted")
	}
	if _, err := core.NewMultiServer(fp, 2, []core.MultiMember{{X: 1, API: api}, {X: 1, API: api}}); err == nil {
		t.Error("duplicate member points accepted")
	}
	if _, err := core.NewMultiServer(fp, 1, []core.MultiMember{{X: 1, API: nil}}); err == nil {
		t.Error("nil member API accepted")
	}
}

// TestMultiServerCombineDifferential pins the fastfield Lagrange combiner
// to the big.Int interpolation ablation (BigCombine): identical EvalNodes
// values and FetchPolys polynomials over the whole tree.
func TestMultiServerCombineDifferential(t *testing.T) {
	for _, tc := range []struct{ k, n int }{{1, 1}, {2, 3}, {3, 4}, {4, 4}} {
		s := buildMultiStack(t, tc.k, tc.n, 50)
		fast, err := core.NewMultiServer(s.ring, tc.k, s.members)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := core.NewMultiServer(s.ring, tc.k, s.members)
		if err != nil {
			t.Fatal(err)
		}
		slow.BigCombine = true

		var keys []drbg.NodeKey
		s.single.Tree().Walk(func(key drbg.NodeKey, _ *sharing.Node) bool {
			keys = append(keys, key)
			return true
		})
		points := []*big.Int{big.NewInt(2), big.NewInt(3), big.NewInt(17)}

		fe, err := fast.EvalNodes(keys, points)
		if err != nil {
			t.Fatalf("k=%d n=%d: fast EvalNodes: %v", tc.k, tc.n, err)
		}
		se, err := slow.EvalNodes(keys, points)
		if err != nil {
			t.Fatalf("k=%d n=%d: big EvalNodes: %v", tc.k, tc.n, err)
		}
		for i := range keys {
			for pi := range points {
				if fe[i].Values()[pi].Cmp(se[i].Values()[pi]) != 0 {
					t.Fatalf("k=%d n=%d key %s point %d: fast %v, big %v",
						tc.k, tc.n, keys[i], pi, fe[i].Values()[pi], se[i].Values()[pi])
				}
			}
		}

		fp, err := fast.FetchPolys(keys)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := slow.FetchPolys(keys)
		if err != nil {
			t.Fatal(err)
		}
		for i := range keys {
			if !fp[i].Polynomial().Equal(sp[i].Polynomial()) {
				t.Fatalf("k=%d n=%d key %s: fast/big FetchPolys polynomials differ", tc.k, tc.n, keys[i])
			}
		}
	}
}

// TestMultiServerCombineFallsBackWithoutFastPath: without the word-sized
// fast path the combiner must transparently run on shamir interpolation
// and still agree with the single-server reference. The whole stack is
// built over a dedicated SetFast(false) ring — the toggle is not safe
// concurrently with straggler member goroutines, so the test never flips
// a live ring.
func TestMultiServerCombineFallsBackWithoutFastPath(t *testing.T) {
	fp := ring.MustFp(257)
	fp.SetFast(false)
	doc := workload.RandomTree(workload.TreeConfig{Nodes: 30, MaxFanout: 4, Vocab: 10, Seed: 42})
	m, err := mapping.New(fp.MaxTag(), []byte("slow-combine"))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := polyenc.Encode(fp, doc, m)
	if err != nil {
		t.Fatal(err)
	}
	seed := testSeed(9)
	singleTree, err := sharing.Split(enc, seed)
	if err != nil {
		t.Fatal(err)
	}
	single, err := server.NewLocal(fp, singleTree)
	if err != nil {
		t.Fatal(err)
	}
	shares, err := sharing.MultiSplit(enc, seed, 2, 3, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	members := make([]core.MultiMember, len(shares))
	for i, sh := range shares {
		srv, err := server.NewLocal(fp, sh.Tree)
		if err != nil {
			t.Fatal(err)
		}
		members[i] = core.MultiMember{X: sh.X, API: srv}
	}
	ms, err := core.NewMultiServer(fp, 2, members)
	if err != nil {
		t.Fatal(err)
	}
	var keys []drbg.NodeKey
	singleTree.Walk(func(key drbg.NodeKey, _ *sharing.Node) bool {
		keys = append(keys, key)
		return true
	})
	points := []*big.Int{big.NewInt(5)}
	got, err := ms.EvalNodes(keys, points)
	if err != nil {
		t.Fatal(err)
	}
	want, err := single.EvalNodes(keys, points)
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if got[i].Values()[0].Cmp(want[i].Values()[0]) != 0 {
			t.Fatalf("key %s: fallback combine %v, single-server %v", keys[i], got[i].Values()[0], want[i].Values()[0])
		}
	}
}

// slowAPI delays every call by a fixed amount — the straggler member
// hedged requests exist for.
type slowAPI struct {
	inner core.ServerAPI
	delay time.Duration
}

func (s slowAPI) EvalNodes(keys []drbg.NodeKey, points []*big.Int) ([]core.NodeEval, error) {
	time.Sleep(s.delay)
	return s.inner.EvalNodes(keys, points)
}
func (s slowAPI) FetchPolys(keys []drbg.NodeKey) ([]core.NodePoly, error) {
	time.Sleep(s.delay)
	return s.inner.FetchPolys(keys)
}
func (s slowAPI) Prune(keys []drbg.NodeKey) error {
	time.Sleep(s.delay)
	return s.inner.Prune(keys)
}

// TestMultiServerHedgedMatchesSingle: with one artificially slow member
// among the first k, hedging must fire a spare, the spare's answer must
// be used, and the reconstructed results must still match the
// single-server reference exactly.
func TestMultiServerHedgedMatchesSingle(t *testing.T) {
	s := buildMultiStack(t, 2, 4, 40)
	members := append([]core.MultiMember(nil), s.members...)
	members[0] = core.MultiMember{X: members[0].X, API: slowAPI{inner: members[0].API, delay: 200 * time.Millisecond}}
	ms, err := core.NewMultiServer(s.ring, 2, members)
	if err != nil {
		t.Fatal(err)
	}
	ms.HedgeDelay = 2 * time.Millisecond
	ms.Counters = &metrics.Counters{}
	ref := core.NewEngine(s.ring, s.seed, s.m, s.single, nil)
	eng := core.NewEngine(s.ring, s.seed, s.m, ms, nil)
	for _, tag := range []string{"t1", "t4"} {
		want, err := ref.Lookup(tag, core.Opts{Verify: core.VerifyFull})
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.Lookup(tag, core.Opts{Verify: core.VerifyFull})
		if err != nil {
			t.Fatalf("%s: hedged lookup: %v", tag, err)
		}
		if len(got.Matches) != len(want.Matches) {
			t.Fatalf("%s: %d matches, want %d", tag, len(got.Matches), len(want.Matches))
		}
		for i := range got.Matches {
			if got.Matches[i].String() != want.Matches[i].String() {
				t.Fatalf("%s: match %d = %s, want %s", tag, i, got.Matches[i], want.Matches[i])
			}
		}
	}
	snap := ms.Counters.Snapshot()
	if snap.HedgesFired < 1 {
		t.Errorf("hedgesFired = %d, want >= 1 with a 200ms-slow member and 2ms delay", snap.HedgesFired)
	}
	if snap.HedgesWon < 1 {
		t.Errorf("hedgesWon = %d, want >= 1 (spares should beat the slow member)", snap.HedgesWon)
	}
}

// TestMultiServerHedgedFailoverImmediate: a member that fails outright
// must trigger an immediate spare launch, not wait out the hedge delay —
// the query completes even with an effectively infinite delay.
func TestMultiServerHedgedFailoverImmediate(t *testing.T) {
	s := buildMultiStack(t, 2, 3, 30)
	members := append([]core.MultiMember(nil), s.members...)
	members[0] = core.MultiMember{X: members[0].X, API: failingAPI{}}
	ms, err := core.NewMultiServer(s.ring, 2, members)
	if err != nil {
		t.Fatal(err)
	}
	ms.HedgeDelay = time.Hour // failover must not depend on the timer
	eng := core.NewEngine(s.ring, s.seed, s.m, ms, nil)
	done := make(chan error, 1)
	go func() {
		_, err := eng.Lookup("t2", core.Opts{Verify: core.VerifyResolve})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("hedged query with one failed member: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("hedged fan-out waited for the hedge delay instead of failing over")
	}
}

// TestMultiServerHedgedBelowThreshold: hedging must preserve the failure
// contract — more than n-k failed members is an error, promptly.
func TestMultiServerHedgedBelowThreshold(t *testing.T) {
	s := buildMultiStack(t, 2, 3, 30)
	members := append([]core.MultiMember(nil), s.members...)
	members[0] = core.MultiMember{X: members[0].X, API: failingAPI{}}
	members[2] = core.MultiMember{X: members[2].X, API: failingAPI{}}
	ms, err := core.NewMultiServer(s.ring, 2, members)
	if err != nil {
		t.Fatal(err)
	}
	ms.HedgeDelay = time.Millisecond
	eng := core.NewEngine(s.ring, s.seed, s.m, ms, nil)
	if _, err := eng.Lookup("t2", core.Opts{}); err == nil {
		t.Fatal("query with two of three members down should fail at threshold 2")
	}
}

// swappingMember is a member that lies by position: it answers every key it
// is asked about, with the first two answers of a call exchanged. The
// fire-all fan-out may return while it is still answering, so its tally is
// atomic.
type swappingMember struct {
	core.ServerAPI
	swapped atomic.Int64
}

func (s *swappingMember) EvalNodes(keys []drbg.NodeKey, points []*big.Int) ([]core.NodeEval, error) {
	out, err := s.ServerAPI.EvalNodes(keys, points)
	if err == nil && len(out) >= 2 {
		out[0], out[1] = out[1], out[0]
		s.swapped.Add(1)
	}
	return out, err
}

func (s *swappingMember) FetchPolys(keys []drbg.NodeKey) ([]core.NodePoly, error) {
	out, err := s.ServerAPI.FetchPolys(keys)
	if err == nil && len(out) >= 2 {
		out[0], out[1] = out[1], out[0]
		s.swapped.Add(1)
	}
	return out, err
}

// TestMultiServerNamesTheMisaddressingMember: member answers are combined
// by position, so a member that reorders its answers would be summed into
// values the engine's key-by-key check cannot tell from honest ones — a
// live branch pruned, matches gone without an error. The fan-out checks
// each member's answers against the keys it asked and counts a liar among
// the failed: with a spare member the query is answered from the honest
// ones, without one the error names the member.
func TestMultiServerNamesTheMisaddressingMember(t *testing.T) {
	s := buildMultiStack(t, 2, 3, 60)
	ref := core.NewEngine(s.ring, s.seed, s.m, s.single, nil)
	// Two leaves: nothing but their values tells their answers apart.
	var keys []drbg.NodeKey
	s.single.Tree().Walk(func(key drbg.NodeKey, n *sharing.Node) bool {
		if len(n.Children) == 0 && len(keys) < 2 {
			keys = append(keys, key)
		}
		return true
	})
	keys = append(keys, drbg.NodeKey{})
	point, _ := s.m.Value("t0")
	for _, verify := range []core.VerifyLevel{core.VerifyResolve, core.VerifyFull} {
		liar := &swappingMember{ServerAPI: s.members[0].API}
		members := append([]core.MultiMember{{X: s.members[0].X, API: liar}}, s.members[1:]...)

		// 2-of-2 with the liar: no honest pair, and the error says who.
		strict, err := core.NewMultiServer(s.ring, 2, members[:2])
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("member %d answered for %s where %s was asked", s.members[0].X, keys[1], keys[0])
		if _, err := strict.EvalNodes(keys, []*big.Int{point}); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: EvalNodes through the swapping member returned %v, want an error holding %q", verify, err, want)
		}
		if _, err := strict.FetchPolys(keys); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: FetchPolys through the swapping member returned %v, want an error holding %q", verify, err, want)
		}
		if _, err := core.NewEngine(s.ring, s.seed, s.m, strict, nil).Lookup("t0", core.Opts{Verify: verify}); err == nil {
			t.Fatalf("%s: a query through the swapping member of a 2-of-2 deployment succeeded", verify)
		}

		// 2-of-3: the two honest members answer, exactly as a single server.
		spare, err := core.NewMultiServer(s.ring, 2, members)
		if err != nil {
			t.Fatal(err)
		}
		liar.swapped.Store(0) // fire-all asks the liar too, on every call
		for _, tag := range []string{"t0", "t3", "t7"} {
			wantRes, err := ref.Lookup(tag, core.Opts{Verify: verify})
			if err != nil {
				t.Fatal(err)
			}
			got, err := core.NewEngine(s.ring, s.seed, s.m, spare, nil).Lookup(tag, core.Opts{Verify: verify})
			if err != nil {
				t.Fatalf("%s/%s: %v", verify, tag, err)
			}
			if keyStrings(got.Matches) != keyStrings(wantRes.Matches) {
				t.Fatalf("%s/%s: matches %s, single server %s", verify, tag, keyStrings(got.Matches), keyStrings(wantRes.Matches))
			}
		}
		if liar.swapped.Load() == 0 {
			t.Fatalf("%s: the swapping member was never asked about two keys", verify)
		}
	}
}
