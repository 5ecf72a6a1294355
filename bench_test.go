// Top-level benchmark harness: one testing.B benchmark per paper figure
// and per measured claim (experiment index in DESIGN.md §4). Each bench
// drives the same code path as cmd/sss-bench; figure benches re-validate
// the golden values on every iteration.
//
//	go test -bench=. -benchmem
package sssearch

import (
	"crypto/rand"
	"crypto/sha256"
	"io"
	"math/big"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"sssearch/internal/client"

	"sssearch/internal/core"
	"sssearch/internal/drbg"
	"sssearch/internal/experiments"
	"sssearch/internal/field"
	"sssearch/internal/mapping"
	"sssearch/internal/naive"
	"sssearch/internal/polyenc"
	"sssearch/internal/ring"
	"sssearch/internal/server"
	"sssearch/internal/shamir"
	"sssearch/internal/sharing"
	"sssearch/internal/swp"
	"sssearch/internal/workload"
	"sssearch/internal/xmltree"
	"sssearch/internal/xpath"
)

// runExperiment executes a registered experiment with output discarded.
func runExperiment(b *testing.B, id string, quick bool) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	cfg := experiments.Config{Quick: quick}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E1-E6: the paper's figures (golden-checked every iteration) -----------

func BenchmarkFig1_EncodeZx(b *testing.B) { runExperiment(b, "fig1", true) }
func BenchmarkFig2_Reduce(b *testing.B)   { runExperiment(b, "fig2", true) }
func BenchmarkFig3_ShareFp(b *testing.B)  { runExperiment(b, "fig3", true) }
func BenchmarkFig4_ShareZ(b *testing.B)   { runExperiment(b, "fig4", true) }
func BenchmarkFig5_QueryFp(b *testing.B)  { runExperiment(b, "fig5", true) }
func BenchmarkFig6_QueryZ(b *testing.B)   { runExperiment(b, "fig6", true) }

// --- E7-E16: measured claims ------------------------------------------------

func BenchmarkStorageOverhead(b *testing.B)  { runExperiment(b, "storage", true) }
func BenchmarkPruningFraction(b *testing.B)  { runExperiment(b, "pruning", true) }
func BenchmarkSchemeComparison(b *testing.B) { runExperiment(b, "compare", true) }
func BenchmarkTrustedMode(b *testing.B)      { runExperiment(b, "trusted", true) }
func BenchmarkSeedOnlyClient(b *testing.B)   { runExperiment(b, "seedonly", true) }
func BenchmarkMultiServer(b *testing.B)      { runExperiment(b, "multiserver", true) }
func BenchmarkCoeffGrowth(b *testing.B)      { runExperiment(b, "coeffgrowth", true) }
func BenchmarkAdvancedQuery(b *testing.B)    { runExperiment(b, "advanced", true) }
func BenchmarkVerification(b *testing.B)     { runExperiment(b, "verify", true) }
func BenchmarkVoting(b *testing.B)           { runExperiment(b, "voting", true) }
func BenchmarkConcurrentEngine(b *testing.B) { runExperiment(b, "concurrent", true) }

// --- micro-benchmarks of the protocol's hot paths ---------------------------

type benchStack struct {
	doc    *xmltree.Node
	ring   ring.Ring
	m      *mapping.Map
	seed   drbg.Seed
	engine *core.Engine
}

func buildStack(b *testing.B, r ring.Ring, nodes int) *benchStack {
	b.Helper()
	doc := workload.RandomTree(workload.TreeConfig{Nodes: nodes, MaxFanout: 4, Vocab: 20, Seed: 1234})
	m, err := mapping.New(r.MaxTag(), []byte("bench"))
	if err != nil {
		b.Fatal(err)
	}
	enc, err := polyenc.Encode(r, doc, m)
	if err != nil {
		b.Fatal(err)
	}
	seed := drbg.Seed(sha256.Sum256([]byte("bench-seed")))
	tree, err := sharing.Split(enc, seed)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := server.NewLocal(r, tree)
	if err != nil {
		b.Fatal(err)
	}
	return &benchStack{
		doc:    doc,
		ring:   r,
		m:      m,
		seed:   seed,
		engine: core.NewEngine(r, seed, m, srv, nil),
	}
}

func benchmarkLookup(b *testing.B, r ring.Ring, nodes int, tag string) {
	s := buildStack(b, r, nodes)
	if _, ok := s.m.Value(tag); !ok {
		if _, err := s.m.Assign(tag); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.engine.Lookup(tag, core.Opts{Verify: core.VerifyResolve}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLookupZ1000Hit(b *testing.B) {
	benchmarkLookup(b, ring.MustIntQuotient(1, 0, 1), 1000, "t3")
}

func BenchmarkLookupZ1000Miss(b *testing.B) {
	benchmarkLookup(b, ring.MustIntQuotient(1, 0, 1), 1000, "zz-ghost")
}

func BenchmarkLookupFp1000Hit(b *testing.B) {
	benchmarkLookup(b, ring.MustFp(257), 1000, "t3")
}

// BenchmarkResolveDeepChain is the worst case for tag resolution: //a over
// 200 nested <a> in F_257 makes every node but the innermost ambiguous.
// VerifyResolve solves them from two evaluations a node, VerifyFull from
// their polynomials (and re-derives the 200 matches): the two paths of
// eq. (2) side by side, values and polynomial bytes a query reported.
func BenchmarkResolveDeepChain(b *testing.B) {
	const depth = 200
	doc, err := xmltree.ParseString(strings.Repeat("<a>", depth) + "<b/>" + strings.Repeat("</a>", depth))
	if err != nil {
		b.Fatal(err)
	}
	bundle, err := Outsource(doc, Config{Kind: RingFp, P: 257, Seed: drbg.Seed(sha256.Sum256([]byte("bench-chain")))})
	if err != nil {
		b.Fatal(err)
	}
	sess, err := bundle.Connect()
	if err != nil {
		b.Fatal(err)
	}
	defer sess.Close()
	for _, level := range []VerifyLevel{VerifyResolve, VerifyFull} {
		b.Run(level.String(), func(b *testing.B) {
			var res *SearchResult
			for i := 0; i < b.N; i++ {
				if res, err = sess.Search("//a", WithVerify(level)); err != nil {
					b.Fatal(err)
				}
			}
			if len(res.Matches) != depth || res.Stats.TagsRecovered < depth-1 {
				b.Fatalf("%d matches, %d recoveries over a chain of %d", len(res.Matches), res.Stats.TagsRecovered, depth)
			}
			b.ReportMetric(float64(res.Stats.ValuesMoved), "values/op")
			b.ReportMetric(float64(res.Stats.PolyBytesMoved), "polyB/op")
		})
	}
}

func BenchmarkPathQueryAuction(b *testing.B) {
	doc := workload.Auction(workload.AuctionConfig{Items: 100, People: 80, Auctions: 60, Seed: 7})
	r := ring.MustIntQuotient(1, 0, 1)
	m, _ := mapping.New(r.MaxTag(), []byte("bench-path"))
	enc, err := polyenc.Encode(r, doc, m)
	if err != nil {
		b.Fatal(err)
	}
	seed := drbg.Seed(sha256.Sum256([]byte("bench-path")))
	tree, _ := sharing.Split(enc, seed)
	srv, _ := server.NewLocal(r, tree)
	eng := core.NewEngine(r, seed, m, srv, nil)
	q := xpath.MustParse("//person/watches/watch")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Query(q, core.Opts{Verify: core.VerifyResolve}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeAuctionZ(b *testing.B) {
	doc := workload.Auction(workload.AuctionConfig{Items: 100, People: 80, Auctions: 60, Seed: 7})
	r := ring.MustIntQuotient(1, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, _ := mapping.New(r.MaxTag(), []byte("enc"))
		if _, err := polyenc.Encode(r, doc, m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSplitAuctionZ(b *testing.B) {
	doc := workload.Auction(workload.AuctionConfig{Items: 100, People: 80, Auctions: 60, Seed: 7})
	r := ring.MustIntQuotient(1, 0, 1)
	m, _ := mapping.New(r.MaxTag(), []byte("split"))
	enc, err := polyenc.Encode(r, doc, m)
	if err != nil {
		b.Fatal(err)
	}
	seed := drbg.Seed(sha256.Sum256([]byte("split")))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sharing.Split(enc, seed); err != nil {
			b.Fatal(err)
		}
	}
}

// --- baseline micro-benchmarks (same workload as BenchmarkLookupZ1000Hit) ---

func BenchmarkBaselineSWPScan1000(b *testing.B) {
	doc := workload.RandomTree(workload.TreeConfig{Nodes: 1000, MaxFanout: 4, Vocab: 20, Seed: 1234})
	c := swp.NewClient([]byte("bench"))
	idx, err := c.BuildIndex(doc)
	if err != nil {
		b.Fatal(err)
	}
	td := c.Trapdoor("t3")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.Search(td)
	}
}

func BenchmarkBaselineDownloadAll1000(b *testing.B) {
	doc := workload.RandomTree(workload.TreeConfig{Nodes: 1000, MaxFanout: 4, Vocab: 20, Seed: 1234})
	key := []byte("bench")
	st, err := naive.Encrypt(key, doc)
	if err != nil {
		b.Fatal(err)
	}
	q := xpath.MustParse("//t3")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := naive.Query(key, st, q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBaselinePlaintext1000(b *testing.B) {
	doc := workload.RandomTree(workload.TreeConfig{Nodes: 1000, MaxFanout: 4, Vocab: 20, Seed: 1234})
	q := xpath.MustParse("//t3")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Evaluate(doc)
	}
}

// --- MPC benchmarks -----------------------------------------------------

func BenchmarkMajorityVote9(b *testing.B) {
	f := field.MustNew(10007)
	s, err := shamir.NewScheme(f, 4, 9)
	if err != nil {
		b.Fatal(err)
	}
	votes := make([]*big.Int, 9)
	for i := range votes {
		votes[i] = big.NewInt(int64(i % 2))
	}
	openers := []int{0, 2, 4, 6}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := shamir.MajorityVote(s, votes, openers, rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
}

// --- concurrent multi-server fan-out benchmarks -----------------------------
//
// The paper's §4.2 k-of-n extension puts one share server per party; the
// question is whether adding servers adds latency (sequential fan-out: the
// sum of k round trips per protocol round) or throughput (concurrent
// fan-out: the slowest of k round trips). Each member is wrapped in a
// fixed simulated RTT so the benchmark measures the fan-out schedule, not
// this machine's core count.

// latencyAPI models a share server one network round trip away.
type latencyAPI struct {
	inner core.ServerAPI
	rtt   time.Duration
}

func (l latencyAPI) EvalNodes(keys []drbg.NodeKey, points []*big.Int) ([]core.NodeEval, error) {
	time.Sleep(l.rtt)
	return l.inner.EvalNodes(keys, points)
}

func (l latencyAPI) FetchPolys(keys []drbg.NodeKey) ([]core.NodePoly, error) {
	time.Sleep(l.rtt)
	return l.inner.FetchPolys(keys)
}

func (l latencyAPI) Prune(keys []drbg.NodeKey) error {
	time.Sleep(l.rtt)
	return l.inner.Prune(keys)
}

// buildMultiEngine splits a document across n share servers (threshold k),
// each behind a simulated RTT, and returns an engine over the fan-out.
func buildMultiEngine(b *testing.B, k, n int, sequential bool, rtt time.Duration) *core.Engine {
	b.Helper()
	// F_17 keeps share polynomials short (16 coefficients) so the simulated
	// network RTT — the thing the fan-out schedule controls — dominates the
	// local big-integer arithmetic, which a 1-core host cannot parallelise.
	fp := ring.MustFp(17)
	doc := workload.RandomTree(workload.TreeConfig{Nodes: 300, MaxFanout: 4, Vocab: 12, Seed: 77})
	m, err := mapping.New(fp.MaxTag(), []byte("bench-multi"))
	if err != nil {
		b.Fatal(err)
	}
	enc, err := polyenc.Encode(fp, doc, m)
	if err != nil {
		b.Fatal(err)
	}
	seed := drbg.Seed(sha256.Sum256([]byte("bench-multi")))
	shares, err := sharing.MultiSplit(enc, seed, k, n, rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	members := make([]core.MultiMember, n)
	for i, s := range shares {
		srv, err := server.NewLocal(fp, s.Tree)
		if err != nil {
			b.Fatal(err)
		}
		members[i] = core.MultiMember{X: s.X, API: latencyAPI{inner: srv, rtt: rtt}}
	}
	ms, err := core.NewMultiServer(fp, k, members)
	if err != nil {
		b.Fatal(err)
	}
	ms.Sequential = sequential
	return core.NewEngine(fp, seed, m, ms, nil)
}

func benchmarkMultiLookup(b *testing.B, sequential bool) {
	eng := buildMultiEngine(b, 4, 4, sequential, 2*time.Millisecond)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Lookup("t3", core.Opts{Verify: core.VerifyResolve}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultiServer4Sequential is the seed behavior: 4 share servers
// queried one after another — every added server adds latency.
func BenchmarkMultiServer4Sequential(b *testing.B) { benchmarkMultiLookup(b, true) }

// BenchmarkMultiServer4Concurrent is the new fan-out: 4 share servers
// queried in parallel — the round costs one RTT, not four.
func BenchmarkMultiServer4Concurrent(b *testing.B) { benchmarkMultiLookup(b, false) }

// --- pipelined wire protocol benchmarks --------------------------------------

// benchmarkRemoteEval measures many independent EvalNodes calls through
// one TCP connection, strict v1 (each call waits its turn on the wire)
// versus pipelined v2 (calls overlap in flight).
func benchmarkRemoteEval(b *testing.B, version uint32, concurrency int) {
	fp := ring.MustFp(257)
	doc := workload.RandomTree(workload.TreeConfig{Nodes: 200, MaxFanout: 4, Vocab: 12, Seed: 78})
	m, err := mapping.New(fp.MaxTag(), []byte("bench-wire"))
	if err != nil {
		b.Fatal(err)
	}
	enc, err := polyenc.Encode(fp, doc, m)
	if err != nil {
		b.Fatal(err)
	}
	seed := drbg.Seed(sha256.Sum256([]byte("bench-wire")))
	tree, err := sharing.Split(enc, seed)
	if err != nil {
		b.Fatal(err)
	}
	local, err := server.NewLocal(fp, tree)
	if err != nil {
		b.Fatal(err)
	}
	var keys []drbg.NodeKey
	enc.Walk(func(key drbg.NodeKey, _ *polyenc.Node) bool {
		keys = append(keys, key)
		return true
	})
	d := server.NewDaemon(local, nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = d.Serve(l)
	}()
	defer func() {
		d.Close()
		<-done
	}()
	r, err := client.DialVersion(l.Addr().String(), version, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	points := []*big.Int{big.NewInt(2)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		errs := make([]error, concurrency)
		for c := 0; c < concurrency; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				_, errs[c] = r.EvalNodes(keys[(i+c)%len(keys):(i+c)%len(keys)+1], points)
			}(c)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkRemoteEvalStrictV1(b *testing.B)    { benchmarkRemoteEval(b, 1, 16) }
func BenchmarkRemoteEvalPipelinedV2(b *testing.B) { benchmarkRemoteEval(b, 2, 16) }

// BenchmarkColdStartToFirstAnswer measures the full pipeline latency a new
// user experiences: parse → outsource → connect → first query.
func BenchmarkColdStartToFirstAnswer(b *testing.B) {
	xml := workload.Library(workload.LibraryConfig{Books: 40, Articles: 40, Seed: 3}).String()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		doc, err := ParseXML(xml)
		if err != nil {
			b.Fatal(err)
		}
		bundle, err := Outsource(doc, Config{})
		if err != nil {
			b.Fatal(err)
		}
		sess, err := bundle.Connect()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sess.Search("//book"); err != nil {
			b.Fatal(err)
		}
		sess.Close()
		_ = start
	}
}

// --- outsourcing pipeline benchmarks -----------------------------------------

func benchmarkOutsourceFp(b *testing.B, sequential bool) {
	doc := experiments.OutsourceFpDoc()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := experiments.OutsourceFpOnce(doc, sequential); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOutsourceFp1000 is the packed parallel outsourcing pipeline —
// the sss-bench `outsourceFp` target.
func BenchmarkOutsourceFp1000(b *testing.B) { benchmarkOutsourceFp(b, false) }

// BenchmarkOutsourceFp1000Sequential is the retained reference pipeline
// (boundary-crossing encode + SplitSequential) — the in-tree ablation for
// the packed parallel path.
func BenchmarkOutsourceFp1000Sequential(b *testing.B) { benchmarkOutsourceFp(b, true) }

// --- k-of-n combine benchmarks -----------------------------------------------

func benchmarkMultiCombine(b *testing.B, bigCombine bool) {
	w, err := experiments.NewMultiCombineWorkload(bigCombine)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultiCombine measures the fastfield Lagrange combiner on a
// 3-of-4 deployment (member evals cache-hot: the combine dominates) —
// the sss-bench `multiCombine` target.
func BenchmarkMultiCombine(b *testing.B) { benchmarkMultiCombine(b, false) }

// BenchmarkMultiCombineBigInt is the per-point big.Int interpolation
// ablation (the pre-fastfield combiner).
func BenchmarkMultiCombineBigInt(b *testing.B) { benchmarkMultiCombine(b, true) }

// --- sharded deployment benchmarks -------------------------------------------

// BenchmarkShardQuery4 routes the lookupFp1000Hit workload across a
// 4-shard partitioned deployment of guarded in-process Locals — the
// sss-bench `shardQuery` target. Compare with BenchmarkLookupFp1000Hit
// to read off the scatter/gather overhead.
func BenchmarkShardQuery4(b *testing.B) {
	w, err := experiments.NewShardQueryWorkload(4)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardOutsource4 is the sharded write path (encode → split →
// partition into 4 shard trees) — the sss-bench `shardOutsource` target.
func BenchmarkShardOutsource4(b *testing.B) {
	doc := experiments.OutsourceFpDoc()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := experiments.ShardOutsourceOnce(doc, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardExperiment smoke-runs the `shard` experiment table.
func BenchmarkShardExperiment(b *testing.B) { runExperiment(b, "shard", true) }

// --- capacity-scale benchmarks -----------------------------------------------

// BenchmarkOutsourceFp100k is the capacity-scale write path — the full
// packed parallel outsourcing pipeline over a 100k-node F_257 document —
// the sss-bench `outsourceFp100k` target. Seconds per iteration; CI runs
// it at -benchtime 1x.
func BenchmarkOutsourceFp100k(b *testing.B) {
	doc := experiments.OutsourceFpScaleDoc()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := experiments.OutsourceFpScaleOnce(doc, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOutsourceFp100kSchoolbook is the big.Int reference pipeline
// (schoolbook products + sequential split) over the same document — the
// opt-in `outsourceFp100kSchoolbook` baseline (sss-bench -baselines).
// Minutes per iteration: run it deliberately, with -benchtime 1x.
func BenchmarkOutsourceFp100kSchoolbook(b *testing.B) {
	doc := experiments.OutsourceFpScaleDoc()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := experiments.OutsourceFpScaleOnce(doc, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardOutsource100k is the sharded capacity-scale write path
// (100k-node encode → split → partition into 4 shard trees) — the
// sss-bench `shardOutsource100k` target.
func BenchmarkShardOutsource100k(b *testing.B) {
	doc := experiments.OutsourceFpScaleDoc()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := experiments.ShardOutsourceOnce(doc, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultiSplit300 is 3-of-4 Shamir share-tree generation over a
// 300-node document on the packed vectorized parallel walk — the
// sss-bench `multiSplit` target.
func BenchmarkMultiSplit300(b *testing.B) {
	w, err := experiments.NewMultiSplitWorkload()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultiSplit300Sequential is the retained sequential big.Int
// reference walk — the `multiSplitSequential` ablation.
func BenchmarkMultiSplit300Sequential(b *testing.B) {
	w, err := experiments.NewMultiSplitWorkload()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.RunSequential(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoalesceQuery16 is the sss-bench `coalesceQuery` target: one
// iteration runs 16 concurrent seed-only sessions, all chasing the same
// rotating hot key, through ONE coalescing store with a cross-session
// shared pad cache — the production cross-session aggregate-throughput
// hot path. Compare with BenchmarkCoalesceQuery16Private (coalesced
// server, private per-session pad caches — the PR 5 stack) and
// BenchmarkCoalesceQuery16Uncoalesced (the PR 4 stack) to split the win
// between the server-side and client-side halves.
func BenchmarkCoalesceQuery16(b *testing.B) {
	benchmarkCoalesceQuery(b, experiments.QueryShared)
}

// BenchmarkCoalesceQuery16Private is the coalesced store with private
// per-session pad caches — isolates the shared-client-cache effect.
func BenchmarkCoalesceQuery16Private(b *testing.B) {
	benchmarkCoalesceQuery(b, experiments.QueryCoalesced)
}

// BenchmarkCoalesceQuery16Uncoalesced is the same 16-session workload
// against the bare shared Local — the uncoalesced baseline.
func BenchmarkCoalesceQuery16Uncoalesced(b *testing.B) {
	benchmarkCoalesceQuery(b, experiments.QueryBaseline)
}

func benchmarkCoalesceQuery(b *testing.B, mode experiments.QueryMode) {
	w, err := experiments.NewCoalesceQueryWorkload(16, mode)
	if err != nil {
		b.Fatal(err)
	}
	if err := w.Run(); err != nil { // warm caches
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSharedPad16 is the sss-bench `sharedPad` target: 16 seed-only
// clients of one seed concurrently evaluating their client share on
// every tree node at the rotating hot point through one SharedPadCache —
// the isolated client-side share arithmetic one hot 16-session wave
// costs. BenchmarkSharedPad16Private is the pre-shared-cache ablation
// (each client its own pad cache, 16× the DRBG + Horner work).
func BenchmarkSharedPad16(b *testing.B) { benchmarkSharedPad(b, true) }

// BenchmarkSharedPad16Private is the private per-client cache ablation.
func BenchmarkSharedPad16Private(b *testing.B) { benchmarkSharedPad(b, false) }

func benchmarkSharedPad(b *testing.B, shared bool) {
	w, err := experiments.NewSharedPadWorkload(16, shared)
	if err != nil {
		b.Fatal(err)
	}
	if err := w.Run(); err != nil { // warm caches
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoalesceServe16 measures the serving path at 16 sessions
// through a real loopback daemon with the full batched+coalesced stack
// (client.Batcher over a pooled connection, coalesce.Server behind the
// daemon); BenchmarkCoalesceServe16Baseline is the same wave workload on
// the PR 4 path (16 independent connections, bare store). One iteration
// is one 16-session hot evaluation wave round.
func BenchmarkCoalesceServe16(b *testing.B) {
	benchmarkCoalesceServe(b, experiments.ServeBatched)
}

func BenchmarkCoalesceServe16Baseline(b *testing.B) {
	benchmarkCoalesceServe(b, experiments.ServeBaseline)
}

func benchmarkCoalesceServe(b *testing.B, mode experiments.ServeMode) {
	w, err := experiments.NewCoalesceServeWorkload(16, mode)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	if err := w.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- hedged fan-out benchmarks -----------------------------------------------

// BenchmarkHedgedTail is the sss-bench `hedgedTail` target: a 2-of-3
// MultiServer whose first primary is a deterministic 10 ms straggler,
// with a 1 ms hedge delay — the spare launched after the delay covers
// the straggler, so per-call latency collapses from the straggler's
// delay to roughly the hedge delay. Compare with BenchmarkUnhedgedTail.
func BenchmarkHedgedTail(b *testing.B) {
	benchmarkHedge(b, 10*time.Millisecond, time.Millisecond)
}

// BenchmarkUnhedgedTail is the same straggler deployment with the hedge
// timer armed far beyond the straggler delay, so no spare ever fires —
// every call eats the full 10 ms tail. The sss-bench `unhedgedTail`
// target.
func BenchmarkUnhedgedTail(b *testing.B) {
	benchmarkHedge(b, 10*time.Millisecond, time.Hour)
}

// BenchmarkHedgedFastPath has no straggler but keeps hedging armed — the
// fault-free overhead of the hedged call path. The sss-bench
// `hedgedFastPath` target.
func BenchmarkHedgedFastPath(b *testing.B) {
	benchmarkHedge(b, 0, time.Millisecond)
}

func benchmarkHedge(b *testing.B, slowDelay, hedgeDelay time.Duration) {
	w, err := experiments.NewHedgeWorkload(slowDelay, hedgeDelay)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
