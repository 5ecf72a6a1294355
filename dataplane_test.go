// The scalar data plane: a value is a machine word from the server's Horner
// pass to the client's zero test on every word-sized F_p ring, and the
// big.Int form is the same traversal over the other value form. These
// suites hold the word path to its oracles through every topology, pin
// value-interned points, and gate the allocations a node may cost.
package sssearch

import (
	"fmt"
	"math/big"
	"reflect"
	"sync/atomic"
	"testing"

	"sssearch/internal/apitest"
	"sssearch/internal/core"
	"sssearch/internal/drbg"
	"sssearch/internal/metrics"
	"sssearch/internal/ring"
	"sssearch/internal/sharing"
	"sssearch/internal/workload"
	"sssearch/internal/xmltree"
	"sssearch/internal/xpath"
)

// boxedOnly hides everything of a share source but the boxed multi-point
// seam (embedding the interface drops the word and packed methods): what
// benchmark's share tap offers the engine.
type boxedOnly struct{ sharing.MultiPointSource }

// protocolStats is the part of a query's Stats the protocol decides — the
// cache tallies depend on the share source and on what earlier queries
// left behind, and a polynomial's bytes on the members' random masks.
func protocolStats(s metrics.Snapshot) string {
	return fmt.Sprintf("rounds %d visited %d pruned %d evaluated %d values %d tags %d polys %d failures %d",
		s.Rounds, s.NodesVisited, s.NodesPruned, s.NodesEvaluated, s.ValuesMoved, s.TagsRecovered, s.PolysFetched, s.VerifyFailures)
}

// TestDataPlaneDifferentialTopologies: through every topology the
// conformance suite registers, at every verify level, sequential and split
// into four batches, a query's Result — matches, unresolved set and
// protocol counts — is the same whether the engine sums words (the default
// on a word-sized F_p), words it converted from a share source that offers only the
// boxed seam, words against servers that answer in big.Int (a SetFast(false)
// deployment behind a fast client), or big.Int end to end (SetFast(false)
// everywhere: the reference), and equals the plaintext answer.
func TestDataPlaneDifferentialTopologies(t *testing.T) {
	doc := nestedDoc(t, 6)
	queries := []string{"//a", "//b/a//a", "//a/*", "//a//a"}
	for _, topo := range queryTopologies() {
		topo := topo
		t.Run(topo.name, func(t *testing.T) {
			fast := apitest.NewFixtureOver(t, ring.MustFp(101), doc)
			slowRing := ring.MustFp(101)
			slowRing.SetFast(false)
			slow := apitest.NewFixtureOver(t, slowRing, doc)
			fastAPI, slowAPI := topo.mk(t, fast), topo.mk(t, slow)
			engines := []struct {
				name string
				eng  *core.Engine
			}{
				{"words", core.NewEngine(fast.Ring, fast.Seed, fast.Mapping, fastAPI, nil)},
				{"boxedSourceOnly", core.NewEngineWithShares(fast.Ring, boxedOnly{sharing.NewSeedClient(fast.Ring, fast.Seed)}, fast.Mapping, fastAPI, nil)},
				{"wordsOverBigServers", core.NewEngine(fast.Ring, slow.Seed, slow.Mapping, slowAPI, nil)},
				{"bigInt", core.NewEngine(slow.Ring, slow.Seed, slow.Mapping, slowAPI, nil)},
			}
			for _, qs := range queries {
				q := xpath.MustParse(qs)
				var want []NodeKey
				for _, n := range q.Evaluate(doc) {
					want = append(want, n.Key())
				}
				for _, level := range []core.VerifyLevel{core.VerifyNone, core.VerifyResolve, core.VerifyFull} {
					var ref *core.Result
					for _, e := range engines {
						id := fmt.Sprintf("%s %s, %s", qs, level, e.name)
						res, err := e.eng.Query(q, core.Opts{Verify: level})
						if err != nil {
							t.Fatalf("%s: %v", id, err)
						}
						if level != core.VerifyNone && (fmt.Sprint(res.Matches) != fmt.Sprint(want) || len(res.Unresolved) != 0) {
							t.Fatalf("%s: matches %v (unresolved %v), plaintext %v", id, res.Matches, res.Unresolved, want)
						}
						if ref == nil {
							ref = res
							continue
						}
						if !reflect.DeepEqual(res.Matches, ref.Matches) || !reflect.DeepEqual(res.Unresolved, ref.Unresolved) {
							t.Fatalf("%s: matches %v unresolved %v, the word engine's %v and %v", id, res.Matches, res.Unresolved, ref.Matches, ref.Unresolved)
						}
						if got, want := protocolStats(res.Stats), protocolStats(ref.Stats); got != want {
							t.Fatalf("%s: %s\nthe word engine: %s", id, got, want)
						}
					}
				}
			}
		})
	}
}

// pointTap counts, at the engine's ServerAPI seam, what an evaluation wave
// ships, and notes a wave that ships one point twice.
type pointTap struct {
	core.ServerAPI
	values    atomic.Int64
	duplicate atomic.Bool
}

func (p *pointTap) EvalNodes(keys []drbg.NodeKey, points []*big.Int) ([]core.NodeEval, error) {
	for i, a := range points {
		for _, b := range points[:i] {
			if a.Cmp(b) == 0 {
				p.duplicate.Store(true)
			}
		}
	}
	p.values.Add(int64(len(keys) * len(points)))
	return p.ServerAPI.EvalNodes(keys, points)
}

// TestRepeatedTagIsOnePoint: a query naming one tag in two steps evaluates
// at one point for it, not two — the points are interned by value, where
// the mapping hands out a fresh big.Int per step. Its answers are the
// plaintext's, no wave ships a point twice, Stats.ValuesMoved is what the
// waves shipped, and for //a//a — one point in all — every node reached
// cost exactly one value (two at the parent commit, in the first step's
// waves).
func TestRepeatedTagIsOnePoint(t *testing.T) {
	doc, err := xmltree.ParseString("<a><a><b/><a><b/><c/></a></a><c><a><b/></a><b/></c><a/></a>")
	if err != nil {
		t.Fatal(err)
	}
	for _, fast := range []bool{true, false} {
		r := ring.MustFp(257)
		r.SetFast(fast)
		f := apitest.NewFixtureOver(t, r, doc)
		for _, qs := range []string{"//a//a", "/a//a/b", "//a/a//a", "//a//b//a"} {
			for _, level := range []core.VerifyLevel{core.VerifyNone, core.VerifyResolve, core.VerifyFull} {
				tap := &pointTap{ServerAPI: f.Reference}
				res, err := core.NewEngine(f.Ring, f.Seed, f.Mapping, tap, nil).Query(xpath.MustParse(qs), core.Opts{Verify: level})
				if err != nil {
					t.Fatalf("%s %s: %v", qs, level, err)
				}
				var want []NodeKey
				for _, n := range xpath.MustParse(qs).Evaluate(doc) {
					want = append(want, n.Key())
				}
				if level != core.VerifyNone && fmt.Sprint(res.Matches) != fmt.Sprint(want) {
					t.Fatalf("%s %s fast=%v: matches %v, plaintext %v", qs, level, fast, res.Matches, want)
				}
				if tap.duplicate.Load() {
					t.Fatalf("%s %s fast=%v: a wave shipped one point twice", qs, level, fast)
				}
				if res.Stats.ValuesMoved != tap.values.Load() {
					t.Fatalf("%s %s fast=%v: Stats.ValuesMoved %d, the waves shipped %d", qs, level, fast, res.Stats.ValuesMoved, tap.values.Load())
				}
				if qs == "//a//a" && level == core.VerifyNone && res.Stats.ValuesMoved != res.Stats.NodesVisited {
					t.Fatalf("//a//a fast=%v: %d values moved for %d nodes visited, want one each", fast, res.Stats.ValuesMoved, res.Stats.NodesVisited)
				}
			}
		}
	}
}

// TestHotQueryAllocationsPerNode gates the data plane's allocation debt: a
// warmed in-process query (shared client cache on, every LRU hitting)
// allocates a bounded number of objects per node it evaluates — the boxed
// scalars and rendered keys it replaced cost about 45.
func TestHotQueryAllocationsPerNode(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	doc := workload.Auction(workload.AuctionConfig{Items: 400, People: 300, Auctions: 250, Seed: 5})
	bundle, err := Outsource(doc, Config{Kind: RingFp, P: 257})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := bundle.Key.ConnectLocal(bundle.Server)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for _, qs := range []string{"//person/watches/watch", "//open_auction/bidder", "//item"} {
		var nodes int64
		search := func() {
			res, err := sess.Search(qs)
			if err != nil {
				t.Fatal(err)
			}
			nodes = res.Stats.NodesVisited
		}
		search() // warm: first-use keys and pooled buffers
		allocs := testing.AllocsPerRun(5, search)
		if nodes < 500 {
			t.Fatalf("%s visited %d nodes: too small a query to measure", qs, nodes)
		}
		if per := allocs / float64(nodes); per > 2 {
			t.Fatalf("%s: %.0f allocations for %d nodes visited, %.1f a node (bound 2)", qs, allocs, nodes, per)
		} else {
			t.Logf("%s: %.0f allocations for %d nodes visited, %.2f a node", qs, allocs, nodes, per)
		}
	}
}
