// Tag resolution from evaluations (VerifyResolve on F_p) against the
// polynomial path (VerifyFull) and the plaintext evaluator, through every
// topology the conformance suite registers, and across a client key's
// save and reload.
package sssearch

import (
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sssearch/internal/apitest"
	"sssearch/internal/client"
	"sssearch/internal/coalesce"
	"sssearch/internal/core"
	"sssearch/internal/ring"
	"sssearch/internal/xmltree"
	"sssearch/internal/xpath"
)

// nestedDoc is a document whose few tags nest deeply, so that most zero
// nodes of a descendant query are ambiguous: width subtrees under the
// root, each a chain <a><b><a>… of growing depth with a side leaf at
// every level.
func nestedDoc(t testing.TB, width int) *xmltree.Node {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < width; i++ {
		depth := 2 + i%5
		for d := 0; d < depth; d++ {
			sb.WriteString([]string{"<a><c/>", "<b><a/>", "<a><b/>"}[(i+d)%3])
		}
		for d := depth - 1; d >= 0; d-- {
			sb.WriteString([]string{"</a>", "</b>", "</a>"}[(i+d)%3])
		}
	}
	sb.WriteString("</r>")
	doc, err := xmltree.ParseString(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// queryTopology is one way to put a ServerAPI between an engine and the
// fixture's share trees.
type queryTopology struct {
	name string
	mk   apitest.Maker
}

// queryTopologies are the topologies the conformance suite registers, as
// whole-query suites run through them: a socket, a pool, a shard router, a
// 2-of-3 Lagrange combine, both, the coalescer, and a socket into a
// coalescing daemon ("batched", named for the client-side micro-batcher
// that once sat in front of that socket).
func queryTopologies() []queryTopology {
	return []queryTopology{
		{"local", func(t *testing.T, f *apitest.Fixture) core.ServerAPI { return f.Reference }},
		{"remote", func(t *testing.T, f *apitest.Fixture) core.ServerAPI {
			r, err := client.Dial(startFixtureDaemon(t, f), nil)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { r.Close() })
			return r
		}},
		{"pool", func(t *testing.T, f *apitest.Fixture) core.ServerAPI {
			p, err := client.DialPool(startFixtureDaemon(t, f), 3, nil)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { p.Close() })
			return p
		}},
		{"sharded", func(t *testing.T, f *apitest.Fixture) core.ServerAPI { return newShardRouter(t, f, 2) }},
		{"2of3", multiServerMaker(2, 3, false)},
		{"2of3BigCombine", multiServerMaker(2, 3, true)},
		{"sharded2of3", shardMultiServerMaker},
		{"coalesced", func(t *testing.T, f *apitest.Fixture) core.ServerAPI { return coalesce.New(f.Reference, nil) }},
		{"coalescedOverSharded", func(t *testing.T, f *apitest.Fixture) core.ServerAPI {
			return coalesce.New(newShardRouter(t, f, 2), nil)
		}},
		{"batched", func(t *testing.T, f *apitest.Fixture) core.ServerAPI {
			r, err := client.Dial(startDaemon(t, coalesce.New(f.Reference, nil)), nil)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { r.Close() })
			return r
		}},
	}
}

// TestResolveDifferentialTopologies: whatever sits between the engine and
// the share trees — a socket, a pool, a shard router, a 2-of-3 Lagrange
// combine, both, the coalescer, a coalescing daemon — a resolve wave is an
// ordinary evaluation wave at two more points, and VerifyResolve answers
// as VerifyFull and the plaintext evaluator do, with no polynomial
// fetched and the same tags recovered, also when waves are split into
// concurrent batches.
func TestResolveDifferentialTopologies(t *testing.T) {
	doc := nestedDoc(t, 12)
	queries := []string{"//a", "//b", "//a//b", "//a/b", "//b/a//a", "/r/a//a", "//a/*", "//*/b"}
	for _, topo := range queryTopologies() {
		topo := topo
		t.Run(topo.name, func(t *testing.T) {
			f := apitest.NewFixtureOver(t, ring.MustFp(257), doc)
			eng := core.NewEngine(f.Ring, f.Seed, f.Mapping, topo.mk(t, f), nil)
			resolved := int64(0)
			for _, qs := range queries {
				q := xpath.MustParse(qs)
				var want []NodeKey
				for _, n := range q.Evaluate(doc) {
					want = append(want, n.Key())
				}
				atPoints, err := eng.Query(q, core.Opts{Verify: core.VerifyResolve})
				if err != nil {
					t.Fatalf("%s: point path: %v", qs, err)
				}
				fromPolys, err := eng.Query(q, core.Opts{Verify: core.VerifyFull})
				if err != nil {
					t.Fatalf("%s: polynomial path: %v", qs, err)
				}
				if fmt.Sprint(atPoints.Matches) != fmt.Sprint(want) || len(atPoints.Unresolved) != 0 {
					t.Fatalf("%s: point path matches %v (unresolved %v), plaintext %v", qs, atPoints.Matches, atPoints.Unresolved, want)
				}
				if !reflect.DeepEqual(fromPolys.Matches, atPoints.Matches) {
					t.Fatalf("%s: polynomial path matches %v, point path %v", qs, fromPolys.Matches, atPoints.Matches)
				}
				if atPoints.Stats.PolysFetched != 0 || atPoints.Stats.PolyBytesMoved != 0 {
					t.Fatalf("%s: the point path fetched %d polynomials", qs, atPoints.Stats.PolysFetched)
				}
				if got, want := atPoints.Stats.TagsRecovered, fromPolys.Stats.TagsRecovered-int64(len(fromPolys.Matches)); got != want {
					t.Fatalf("%s: point path recovered %d tags, polynomial path %d before its re-check", qs, got, want)
				}
				resolved += atPoints.Stats.TagsRecovered
			}
			if resolved == 0 {
				t.Fatal("no query had an ambiguous candidate")
			}
		})
	}
}

// TestResolvePointsSurviveKeyReload: a default-configured key (the mapping
// keyed by the seed) resolves at the same two points before and after
// Save / LoadClientKey — its queries cost the same values and bytes, to
// the count — and a reloaded key never draws its free value under the
// empty key.
func TestResolvePointsSurviveKeyReload(t *testing.T) {
	doc := nestedDoc(t, 8)
	bundle, err := Outsource(doc, Config{Kind: RingFp, P: 257})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "client.key")
	if err := bundle.Key.Save(path); err != nil {
		t.Fatal(err)
	}
	reloaded, err := LoadClientKey(path)
	if err != nil {
		t.Fatal(err)
	}
	before, ok := bundle.Key.state.Mapping.FreeValue()
	after, ok2 := reloaded.state.Mapping.FreeValue()
	if !ok || !ok2 || before.Cmp(after) != 0 {
		t.Fatalf("free value %v before the reload, %v after it", before, after)
	}
	search := func(k *ClientKey) *SearchResult {
		t.Helper()
		sess, err := k.ConnectLocal(bundle.Server)
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		res, err := sess.Search("//a")
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := search(bundle.Key), search(reloaded)
	if a.Stats.TagsRecovered == 0 || a.Stats.PolysFetched != 0 {
		t.Fatalf("//a recovered %d tags and fetched %d polynomials, want a resolve wave and no fetch", a.Stats.TagsRecovered, a.Stats.PolysFetched)
	}
	if !reflect.DeepEqual(a.Matches, b.Matches) || a.Stats.ValuesMoved != b.Stats.ValuesMoved || a.Stats.Rounds != b.Stats.Rounds {
		t.Fatalf("reloaded key: %d matches, %d values, %d rounds; original %d, %d, %d",
			len(b.Matches), b.Stats.ValuesMoved, b.Stats.Rounds, len(a.Matches), a.Stats.ValuesMoved, a.Stats.Rounds)
	}
}
