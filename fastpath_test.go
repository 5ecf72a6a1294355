package sssearch

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"sssearch/internal/core"
	"sssearch/internal/drbg"
	"sssearch/internal/mapping"
	"sssearch/internal/paperdata"
	"sssearch/internal/polyenc"
	"sssearch/internal/ring"
	"sssearch/internal/server"
	"sssearch/internal/sharing"
	"sssearch/internal/store"
	"sssearch/internal/workload"
	"sssearch/internal/xmltree"
	"sssearch/internal/xpath"
)

// buildFpEngine assembles a full stack over doc in F_p. fast=false builds
// the big.Int reference: the whole pipeline (encode, split, seed client,
// server) runs on one ring instance with the fast path off.
func buildFpEngine(t *testing.T, doc *xmltree.Node, p uint64, fast bool, cacheEntries int) (*core.Engine, *server.Local) {
	t.Helper()
	r := ring.MustFp(p)
	r.SetFast(fast)
	m, err := mapping.New(r.MaxTag(), []byte("fastpath-diff"))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := polyenc.Encode(r, doc, m)
	if err != nil {
		t.Fatal(err)
	}
	seed := drbg.Seed(sha256.Sum256([]byte("fastpath-diff")))
	tree, err := sharing.Split(enc, seed)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.NewLocal(r, tree)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetEvalCacheEntries(cacheEntries)
	return core.NewEngine(r, seed, m, srv, nil), srv
}

func keysToStrings(keys []drbg.NodeKey) []string {
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = k.String()
	}
	return out
}

// TestFastPathQueryDifferential runs identical query workloads through
// the fast engine (packed arithmetic, eval cache, multi-point shares) and
// the big.Int reference engine (SetFast(false), cache off): every match
// set, unresolved set and verification outcome must agree, across verify
// levels, repeated queries (cache warm), and multi-step paths.
func TestFastPathQueryDifferential(t *testing.T) {
	doc := workload.Auction(workload.AuctionConfig{Items: 25, People: 20, Auctions: 15, Seed: 13})
	queries := []string{
		"//person", "//watch", "//person/watches/watch", "//item/description",
		"//zz-missing", "//*/watches", "//open_auction/bidder/increase",
		"//*", // pure wildcard: no evaluation points, shape-only traversal
	}
	for _, p := range []uint64{257, 1009} {
		levels := []core.VerifyLevel{core.VerifyNone, core.VerifyResolve, core.VerifyFull}
		qset := queries
		if p == 1009 {
			// The big.Int reference engine is slow with 1008-coefficient
			// polynomials; one level and a query subset keep the suite fast.
			levels = levels[1:2]
			qset = queries[:3]
		}
		fastEng, _ := buildFpEngine(t, doc, p, true, server.DefaultEvalCacheEntries)
		refEng, _ := buildFpEngine(t, doc, p, false, 0)
		for _, lvl := range levels {
			for _, qs := range qset {
				q, err := xpath.Parse(qs)
				if err != nil {
					t.Fatal(err)
				}
				for pass := 0; pass < 2; pass++ { // pass 1: caches warm
					got, gerr := fastEng.Query(q, core.Opts{Verify: lvl})
					want, werr := refEng.Query(q, core.Opts{Verify: lvl})
					if (gerr == nil) != (werr == nil) {
						t.Fatalf("p=%d %s lvl=%s: error mismatch %v vs %v", p, qs, lvl, gerr, werr)
					}
					if gerr != nil {
						continue
					}
					gm := fmt.Sprint(keysToStrings(got.Matches))
					wm := fmt.Sprint(keysToStrings(want.Matches))
					if gm != wm {
						t.Fatalf("p=%d %s lvl=%s pass=%d: fast matches %s, ref %s", p, qs, lvl, pass, gm, wm)
					}
					gu := fmt.Sprint(keysToStrings(got.Unresolved))
					wu := fmt.Sprint(keysToStrings(want.Unresolved))
					if gu != wu {
						t.Fatalf("p=%d %s lvl=%s pass=%d: fast unresolved %s, ref %s", p, qs, lvl, pass, gu, wu)
					}
				}
			}
		}
	}
}

// TestFastPathPaperFigures replays the paper's published //client query
// (figures 3 and 5) through the fast path with the figure share values in
// a StaticSource, pinning the protocol to the published answer set.
func TestFastPathPaperFigures(t *testing.T) {
	// The paper document: customers → (client → name) ×2.
	doc := paperdata.Document()
	r := paperdata.FpRing()
	if r.Fast() == nil {
		t.Fatal("F_5 lost the fast path")
	}
	m := paperdata.MappingFp()
	enc, err := polyenc.EncodeWithOpts(r, doc, m, polyenc.Opts{AllowTagOverflow: true})
	if err != nil {
		t.Fatal(err)
	}
	seed := drbg.Seed(sha256.Sum256([]byte("paper-fig")))
	tree, err := sharing.Split(enc, seed)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.NewLocal(r, tree)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(r, seed, m, srv, nil)
	res, err := eng.Lookup("client", core.Opts{Verify: core.VerifyFull})
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(keysToStrings(res.Matches)); got != "[/0 /1]" {
		t.Fatalf("//client matches = %s, want [/0 /1]", got)
	}
	// Both dead branches (the two name leaves) must have been pruned, and
	// the warm server cache must answer a repeat query identically.
	res2, err := eng.Lookup("client", core.Opts{Verify: core.VerifyFull})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(keysToStrings(res2.Matches)) != "[/0 /1]" {
		t.Fatal("warm-cache repeat query changed the answer")
	}
	if hits := srv.Counters().Snapshot().EvalCacheHits; hits == 0 {
		t.Fatal("repeat query never hit the server eval cache")
	}
}

// TestOutsourcePipelineRoundTripDifferential is the full-stack anchor for
// the packed parallel outsourcing pipeline: a bundle produced by the
// default Outsource (PackedOnly encode + packed parallel split) must be
// byte-identical to one built through the sequential big.Int-boundary
// reference (generic encode + SplitSequential), and queries against both
// must agree with each other and the plaintext oracle at every
// verification level.
func TestOutsourcePipelineRoundTripDifferential(t *testing.T) {
	doc := workload.RandomTree(workload.TreeConfig{Nodes: 240, MaxFanout: 4, Vocab: 10, Seed: 314})
	seed := drbg.Seed(sha256.Sum256([]byte("roundtrip-diff")))
	secret := []byte("roundtrip-diff")

	// Packed parallel pipeline, exactly as Outsource runs it.
	bundle, err := Outsource(doc, Config{Kind: RingFp, P: 257, Seed: seed, Secret: secret, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}

	// Sequential big.Int-boundary reference pipeline.
	r := ring.MustFp(257)
	m, err := mapping.New(r.MaxTag(), secret)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := polyenc.Encode(r, doc, m)
	if err != nil {
		t.Fatal(err)
	}
	refTree, err := sharing.SplitSequential(enc, seed)
	if err != nil {
		t.Fatal(err)
	}

	fastBytes, err := bundle.Server.tree.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	refBytes, err := refTree.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if string(fastBytes) != string(refBytes) {
		t.Fatal("packed parallel Outsource tree differs from sequential big.Int reference")
	}

	refSrv, err := server.NewLocal(r, refTree)
	if err != nil {
		t.Fatal(err)
	}
	refEng := core.NewEngine(r, seed, m, refSrv, nil)

	sess, err := bundle.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	for _, expr := range []string{"//t0", "//t3", "/t1//t2", "//t4/t5"} {
		oracle, err := EvaluatePlaintext(doc, expr)
		if err != nil {
			t.Fatal(err)
		}
		for _, verify := range []VerifyLevel{VerifyNone, VerifyResolve, VerifyFull} {
			got, err := sess.Search(expr, WithVerify(verify))
			if err != nil {
				t.Fatalf("%s/%v: %v", expr, verify, err)
			}
			q, err := xpath.Parse(expr)
			if err != nil {
				t.Fatal(err)
			}
			want, err := refEng.Query(q, core.Opts{Verify: verify})
			if err != nil {
				t.Fatalf("%s/%v reference: %v", expr, verify, err)
			}
			if len(got.Matches) != len(want.Matches) {
				t.Fatalf("%s/%v: %d matches, reference %d", expr, verify, len(got.Matches), len(want.Matches))
			}
			for i := range got.Matches {
				if got.Matches[i].String() != want.Matches[i].String() {
					t.Fatalf("%s/%v: match %d differs", expr, verify, i)
				}
			}
			if verify != VerifyNone && len(got.Matches) != len(oracle) {
				t.Fatalf("%s/%v: %d matches, oracle %d", expr, verify, len(got.Matches), len(oracle))
			}
		}
	}
}

// TestFastSplitQueriedOnReferencePath: a store split on the fast path and
// saved is queried by a client whose ring has the fast path off — every pad
// regenerated one big.Int coefficient at a time by field.Rand. The share
// stream does not depend on how it is read and both samplers apply one
// rule, so the pads cancel and the answers are the plaintext ones.
func TestFastSplitQueriedOnReferencePath(t *testing.T) {
	doc := workload.RandomTree(workload.TreeConfig{Nodes: 160, MaxFanout: 4, Vocab: 8, Seed: 2718})
	seed := drbg.Seed(sha256.Sum256([]byte("fast-split-ref-query")))
	bundle, err := Outsource(doc, Config{Kind: RingFp, P: 257, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	if err := store.WriteServer(&file, bundle.Server.ring, bundle.Server.tree); err != nil {
		t.Fatal(err)
	}
	loadedRing, tree, err := store.ReadServer(file.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.NewLocal(loadedRing, tree)
	if err != nil {
		t.Fatal(err)
	}

	ref := ring.MustFp(257)
	ref.SetFast(false)
	eng := core.NewEngine(ref, seed, bundle.Key.state.Mapping, srv, nil)
	for _, expr := range []string{"//t0", "//t3", "/t1//t2", "//t4/t5", "//*/t6"} {
		q, err := xpath.Parse(expr)
		if err != nil {
			t.Fatal(err)
		}
		var want []string // what EvaluatePlaintext runs, by node key
		for _, n := range q.Evaluate(doc) {
			want = append(want, n.Key().String())
		}
		for _, verify := range []core.VerifyLevel{core.VerifyResolve, core.VerifyFull} {
			res, err := eng.Query(q, core.Opts{Verify: verify})
			if err != nil {
				t.Fatalf("%s/%v: %v", expr, verify, err)
			}
			if got := keysToStrings(res.Matches); fmt.Sprint(got) != fmt.Sprint(want) || len(res.Unresolved) != 0 {
				t.Fatalf("%s/%v: reference-path client got %v (unresolved %v), plaintext %v", expr, verify, got, res.Unresolved, want)
			}
		}
	}
}
