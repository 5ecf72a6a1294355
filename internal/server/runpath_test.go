package server_test

import (
	"crypto/sha256"
	"fmt"
	"math/big"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"sssearch/internal/core"
	"sssearch/internal/drbg"
	"sssearch/internal/mapping"
	"sssearch/internal/paperdata"
	"sssearch/internal/polyenc"
	"sssearch/internal/ring"
	"sssearch/internal/server"
	"sssearch/internal/shard"
	"sssearch/internal/sharing"
	"sssearch/internal/wire"
	"sssearch/internal/workload"
	"sssearch/internal/xmltree"
	"sssearch/internal/xpath"
)

// keyedStore holds a store behind the Store interface, which has no run
// path: a daemon serving it answers through the keyed adapter.
type keyedStore struct{ server.Store }

// wave is one evaluation call of a query: its keys and points.
type wave struct {
	keys   []drbg.NodeKey
	points []*big.Int
}

// waveRecorder is a Local that keeps every evaluation call it answers.
type waveRecorder struct {
	*server.Local
	mu    sync.Mutex
	waves []wave
}

func (w *waveRecorder) EvalNodes(keys []drbg.NodeKey, points []*big.Int) ([]core.NodeEval, error) {
	w.mu.Lock()
	w.waves = append(w.waves, wave{keys, points})
	w.mu.Unlock()
	return w.Local.EvalNodes(keys, points)
}

// fpLocal outsources doc on F_257 and serves it from a Local, returning
// the pieces a client engine needs.
func fpLocal(tb testing.TB, doc *xmltree.Node) (*server.Local, *mapping.Map, drbg.Seed) {
	tb.Helper()
	r := ring.MustFp(257)
	m, err := mapping.New(r.MaxTag(), []byte("run-path"))
	if err != nil {
		tb.Fatal(err)
	}
	enc, err := polyenc.Encode(r, doc, m)
	if err != nil {
		tb.Fatal(err)
	}
	seed := drbg.Seed(sha256.Sum256([]byte("run-path")))
	tree, err := sharing.Split(enc, seed)
	if err != nil {
		tb.Fatal(err)
	}
	local, err := server.NewLocal(r, tree)
	if err != nil {
		tb.Fatal(err)
	}
	return local, m, seed
}

// auctionWaves outsources an auction document on F_257 and records the
// evaluation waves that queries over it send.
func auctionWaves(tb testing.TB, cfg workload.AuctionConfig, queries ...string) (*server.Local, []wave) {
	tb.Helper()
	local, m, seed := fpLocal(tb, workload.Auction(cfg))
	rec := &waveRecorder{Local: local}
	eng := core.NewEngine(local.Ring(), seed, m, rec, nil)
	for _, q := range queries {
		if _, err := eng.Query(xpath.MustParse(q), core.Opts{Verify: core.VerifyResolve}); err != nil {
			tb.Fatalf("%s: %v", q, err)
		}
	}
	return local, rec.waves
}

// evalFrame is what a daemon serving store answers to the eval request
// payload: the response payload, or the message of the error it sends.
func evalFrame(tb testing.TB, store server.Store, payload []byte) ([]byte, string) {
	tb.Helper()
	typ, out, _, err := server.Dispatch(server.NewDaemon(store, nil), wire.MsgEval, payload, time.Now(), 0)
	if err != nil {
		tb.Fatalf("request refused as undecodable: %v", err)
	}
	if typ == wire.MsgError {
		em, err := wire.DecodeError(out)
		if err != nil {
			tb.Fatal(err)
		}
		return nil, em.Message
	}
	return out, ""
}

// referenceFrame is the keyed answer to keys at points, encoded the way
// the daemon has always encoded it: the frame of EvalNodes' answers, or
// EvalNodes' error.
func referenceFrame(local *server.Local, id uint64, keys []drbg.NodeKey, points []*big.Int, digest uint64) ([]byte, string) {
	answers, err := local.EvalNodes(keys, points)
	if err != nil {
		return nil, err.Error()
	}
	return wire.AppendEvalRespFor(nil, wire.EvalResp{ID: id, Answers: answers}, digest), ""
}

// checkBothPaths sends keys at points to a daemon over a bare Local (the
// run path) and over the same Local behind keyedStore (the keyed path),
// and fails t unless both answer what EvalNodes answers, byte for byte, or
// refuse with its error.
func checkBothPaths(t *testing.T, name string, local *server.Local, keys []drbg.NodeKey, points []*big.Int) {
	t.Helper()
	payload, digest := wire.AppendEvalReq(nil, wire.EvalReq{ID: 9, Keys: keys, Points: points})
	want, wantErr := referenceFrame(local, 9, keys, points, digest)
	for _, path := range []struct {
		name  string
		store server.Store
	}{{"run", local}, {"keyed", keyedStore{local}}} {
		got, gotErr := evalFrame(t, path.store, payload)
		if gotErr != wantErr || !slices.Equal(got, want) {
			t.Errorf("%s, %s path: frame %x error %q, want frame %x error %q", name, path.name, got, gotErr, want, wantErr)
		}
	}
}

// TestRunPathMatchesKeyedPath: on real query waves over an auction
// document and on hand-made edge cases, the daemon's run path answers a
// value-form Local byte for byte as the keyed path and AppendEvalRespFor
// of EvalNodes do, and refuses what they refuse with their error.
func TestRunPathMatchesKeyedPath(t *testing.T) {
	local, waves := auctionWaves(t, workload.AuctionConfig{Items: 60, People: 40, Auctions: 30, Seed: 3},
		"//item", "//person/watches/watch", "/site/regions/*/item", "//open_auction//increase", "//*")
	if len(waves) < 10 {
		t.Fatalf("recorded %d waves, want a query's worth", len(waves))
	}
	for i, w := range waves {
		checkBothPaths(t, fmt.Sprintf("wave %d", i), local, w.keys, w.points)
	}

	tree := local.Tree()
	var deepest drbg.NodeKey
	tree.Walk(func(k drbg.NodeKey, n *sharing.Node) bool {
		if len(n.Children) > 0 && len(k) >= len(deepest) {
			deepest = k
		}
		return true
	})
	deep, err := tree.Lookup(deepest)
	if err != nil {
		t.Fatal(err)
	}
	children := func(parent drbg.NodeKey, from, to int) []drbg.NodeKey {
		var out []drbg.NodeKey
		for c := from; c < to; c++ {
			out = append(out, append(slices.Clone(parent), uint32(c)))
		}
		return out
	}
	nRoot, nDeep := len(tree.Root.Children), len(deep.Children)
	pts := []*big.Int{big.NewInt(2), big.NewInt(200)}
	for _, c := range []struct {
		name   string
		keys   []drbg.NodeKey
		points []*big.Int
	}{
		{"the root alone", []drbg.NodeKey{{}}, pts},
		{"a run at depth 1", children(nil, 0, nRoot), pts},
		{"a run at the deepest level", children(deepest, 0, nDeep), pts},
		{"a run and its last child's children", append(children(nil, 0, nRoot), children(drbg.NodeKey{uint32(nRoot - 1)}, 0, 2)...), pts},
		{"a wave with no points", children(nil, 0, nRoot), nil},
		{"a repeated point", children(deepest, 0, nDeep), []*big.Int{big.NewInt(7), big.NewInt(7), big.NewInt(256)}},
		{"no keys", nil, pts},
		{"the root twice", []drbg.NodeKey{{}, {}}, pts},
		{"a run one past the last child", children(nil, 0, nRoot+1), pts},
		{"a deep run one past the last child", children(deepest, 1, nDeep+1), pts},
		{"a run that starts past the last child", children(nil, nRoot, nRoot+2), pts},
		{"a missing prefix", children(append(slices.Clone(deepest), 0, 0), 0, 3), pts},
		{"a missing key after good runs", append(children(nil, 0, nRoot), drbg.NodeKey{0, 99999}), pts},
		{"a point outside the field", children(nil, 0, 1), []*big.Int{big.NewInt(257)}},
		{"a point outside the field and a missing key", []drbg.NodeKey{{99999}}, []*big.Int{big.NewInt(0)}},
	} {
		checkBothPaths(t, c.name, local, c.keys, c.points)
	}
}

// TestEmbeddedLocalAnsweredThroughOverride: a wrapper that embeds a Local
// has the Local's run path promoted to it, but a daemon serving it answers
// through the wrapper's own EvalNodes.
func TestEmbeddedLocalAnsweredThroughOverride(t *testing.T) {
	local, _, _ := fpLocal(t, paperdata.Document())
	rec := &waveRecorder{Local: local}
	keys, pts := childKeys(2), []*big.Int{big.NewInt(3)}
	payload, digest := wire.AppendEvalReq(nil, wire.EvalReq{ID: 9, Keys: keys, Points: pts})
	want, _ := referenceFrame(local, 9, keys, pts, digest)
	if got, msg := evalFrame(t, rec, payload); msg != "" || !slices.Equal(got, want) {
		t.Fatalf("frame %x error %q, want frame %x", got, msg, want)
	}
	if len(rec.waves) != 1 {
		t.Fatalf("the wrapper's EvalNodes answered %d calls, want 1", len(rec.waves))
	}
}

// shardGuards splits local's tree two ways and fences each shard's Local
// behind a guard.
func shardGuards(tb testing.TB, local *server.Local) ([]*shard.Guard, *shard.Manifest) {
	tb.Helper()
	trees, man, err := shard.Partition(local.Tree(), 2)
	if err != nil {
		tb.Fatal(err)
	}
	guards := make([]*shard.Guard, len(trees))
	for i, tree := range trees {
		inner, err := server.NewLocal(local.Ring(), tree)
		if err != nil {
			tb.Fatal(err)
		}
		if guards[i], err = shard.NewGuard(local.Ring(), inner, man, i); err != nil {
			tb.Fatal(err)
		}
	}
	return guards, man
}

// byOwner splits keys by the shard that owns them, keeping their order, as
// the client's Router splits a wave.
func byOwner(man *shard.Manifest, keys []drbg.NodeKey) [][]drbg.NodeKey {
	out := make([][]drbg.NodeKey, man.Shards)
	for _, k := range keys {
		s := man.Owner(k)
		out[s] = append(out[s], k)
	}
	return out
}

// checkGuard sends keys at points to a daemon over g (the fenced run path)
// and over g behind keyedStore (the keyed adapter, asking g's EvalNodes),
// fails t unless both give the same frame or the same error, and returns
// that error.
func checkGuard(t *testing.T, name string, g *shard.Guard, keys []drbg.NodeKey, points []*big.Int) string {
	t.Helper()
	payload, _ := wire.AppendEvalReq(nil, wire.EvalReq{ID: 9, Keys: keys, Points: points})
	want, wantErr := evalFrame(t, keyedStore{g}, payload)
	got, gotErr := evalFrame(t, g, payload)
	if gotErr != wantErr || !slices.Equal(got, want) {
		t.Errorf("%s, shard %d: run path frame %x error %q, keyed path frame %x error %q", name, g.ID(), got, gotErr, want, wantErr)
	}
	return gotErr
}

// TestGuardRunPathMatchesKeyedPath: a daemon over a shard guard answers
// each shard's part of every recorded wave of a two-shard auction document
// byte for byte as it answers the same guard through the keyed adapter,
// and refuses what the adapter refuses with its error: a run that
// straddles a manifest boundary or is wholly foreign, a foreign key after
// a missing one and the other way round, and the root asked of a shard
// that does not own it.
func TestGuardRunPathMatchesKeyedPath(t *testing.T) {
	local, waves := auctionWaves(t, workload.AuctionConfig{Items: 60, People: 40, Auctions: 30, Seed: 3},
		"//item", "//person/watches/watch", "/site/regions/*/item", "//open_auction//increase", "//*")
	guards, man := shardGuards(t, local)
	for i, w := range waves {
		for s, keys := range byOwner(man, w.keys) {
			if msg := checkGuard(t, fmt.Sprintf("wave %d", i), guards[s], keys, w.points); msg != "" {
				t.Errorf("wave %d, shard %d: its own keys refused: %s", i, s, msg)
			}
		}
	}

	// A parent whose children are owned by both shards, and one with two
	// children or more all owned by one.
	var straddle, whole drbg.NodeKey
	local.Tree().Walk(func(k drbg.NodeKey, n *sharing.Node) bool {
		owners := map[int]bool{}
		for c := range n.Children {
			owners[man.Owner(k.Child(uint32(c)))] = true
		}
		switch {
		case straddle == nil && len(owners) == 2:
			straddle = slices.Clone(k)
		case whole == nil && len(owners) == 1 && len(n.Children) > 1:
			whole = slices.Clone(k)
		}
		return straddle == nil || whole == nil
	})
	if straddle == nil || whole == nil {
		t.Fatalf("no straddling run (%v) or whole run (%v) in the split", straddle, whole)
	}
	run := func(parent drbg.NodeKey) []drbg.NodeKey {
		n, err := local.Tree().Lookup(parent)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]drbg.NodeKey, len(n.Children))
		for c := range out {
			out[c] = parent.Child(uint32(c))
		}
		return out
	}
	missing := drbg.NodeKey{uint32(len(local.Tree().Root.Children) + 5)}
	home := man.Owner(missing)
	foreign := byOwner(man, run(straddle))[1-home][0]
	pts := []*big.Int{big.NewInt(2), big.NewInt(200)}
	for _, c := range []struct {
		name  string
		shard int
		keys  []drbg.NodeKey
		want  string
	}{
		{"a straddling run, shard 0", 0, run(straddle), "not owned by this shard"},
		{"a straddling run, shard 1", 1, run(straddle), "not owned by this shard"},
		{"a wholly foreign run", 1 - man.Owner(whole.Child(0)), run(whole), "not owned by this shard"},
		{"a missing key of the shard", home, []drbg.NodeKey{missing}, "server: sharing: key"},
		{"a foreign key after a missing one", home, []drbg.NodeKey{missing, foreign}, "not owned by this shard"},
		{"a missing key after a foreign one", home, []drbg.NodeKey{foreign, missing}, "not owned by this shard"},
		{"the root of a shard that does not own it", 1 - man.Owner(drbg.NodeKey{}), []drbg.NodeKey{{}}, "not owned by this shard"},
	} {
		if msg := checkGuard(t, c.name, guards[c.shard], c.keys, pts); !strings.Contains(msg, c.want) {
			t.Errorf("%s: error %q, want one containing %q", c.name, msg, c.want)
		}
	}
}

// zLocal serves the paper document on the Z ring, in the coefficient form.
func zLocal(tb testing.TB) *server.Local {
	tb.Helper()
	r := paperdata.ZRing()
	enc, err := polyenc.Encode(r, paperdata.Document(), paperdata.Mapping(nil))
	if err != nil {
		tb.Fatal(err)
	}
	tree, err := sharing.Split(enc, drbg.Seed(sha256.Sum256([]byte("z ring"))))
	if err != nil {
		tb.Fatal(err)
	}
	local, err := server.NewLocal(r, tree)
	if err != nil {
		tb.Fatal(err)
	}
	return local
}

// TestEvalRequestAllocationBounded: a request of a few KB for keys that do
// not exist at many points is refused, on every path, with the keyed
// path's error and before anything proportional to keys × points is
// allocated (8.8 and 34.1 MB before the fix); one for existing keys whose
// answer cannot fit a frame at the values' width is refused, naming the
// bound, with as little allocated (184.4 MB on a shard guard before it
// answered runs); one whose answer fits allocates little beyond its frame
// on the run paths (19.8 MB on a shard guard before).
func TestEvalRequestAllocationBounded(t *testing.T) {
	local, _, _ := fpLocal(t, paperdata.Document())
	if n := len(local.Tree().Root.Children); n != 2 {
		t.Fatalf("the paper document's root has %d children, want 2", n)
	}
	guards, man := shardGuards(t, local)
	guard, z := guards[man.Owner(drbg.NodeKey{})], zLocal(t)
	points := func(m int) []*big.Int {
		out := make([]*big.Int, m)
		for j := range out {
			out[j] = big.NewInt(int64(1 + j%256))
		}
		return out
	}
	roots := func(n int) []drbg.NodeKey { return make([]drbg.NodeKey, n) }
	type path struct {
		name  string
		store server.Store
	}
	var (
		locals = []path{{"Local run", local}, {"Local keyed", keyedStore{local}}}
		fenced = []path{{"guard run", guard}, {"guard keyed", keyedStore{guard}}}
		every  = append(slices.Clone(locals), fenced...)
	)
	const budget = 512 << 10
	for _, c := range []struct {
		name    string
		keys    []drbg.NodeKey
		m       int
		paths   []path
		wantErr string // "" for an answer
	}{
		{"4,096 missing keys at 256 points", childKeys(4096), 256, locals, "server: sharing: key /2 invalid at depth 0"},
		{"4,096 missing keys at 256 points", childKeys(4096), 256, fenced, "shard: node key not owned by this shard: /0 belongs to shard 1, this is shard 0"},
		{"4,096 missing keys at 1,024 points", childKeys(4096), 1024, locals, "server: sharing: key /2 invalid at depth 0"},
		{"4,096 missing keys at 1,024 points", childKeys(4096), 1024, fenced, "shard: node key not owned by this shard: /0 belongs to shard 1, this is shard 0"},
		{"65,536 roots at 2,048 points", roots(65536), 2048, every, "16777216-byte frame bound"},
		// Fits at one bit a value but not at the values' width: the run
		// paths refuse it once they have their width, before writing one,
		// and the keyed adapter before it asks the store.
		{"65,536 roots at 300 points", roots(65536), 300, every, "16777216-byte frame bound"},
		{"65,536 roots at 300 points on the Z ring", roots(65536), 300, []path{{"Local", z}, {"Local keyed", keyedStore{z}}}, "16777216-byte frame bound"},
		{"8,192 roots at 256 points", roots(8192), 256, []path{{"Local run", local}, {"guard run", guard}}, ""},
	} {
		payload, _ := wire.AppendEvalReq(nil, wire.EvalReq{ID: 1, Keys: c.keys, Points: points(c.m)})
		for _, p := range c.paths {
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			frame, msg := evalFrame(t, p.store, payload)
			runtime.ReadMemStats(&after)
			got := after.TotalAlloc - before.TotalAlloc
			t.Logf("%s (%d-byte request), %s: %d bytes allocated for a %d-byte frame, %q", c.name, len(payload), p.name, got, len(frame), msg)
			if c.wantErr == "" && msg != "" || !strings.Contains(msg, c.wantErr) {
				t.Errorf("%s, %s: error %q, want one containing %q", c.name, p.name, msg, c.wantErr)
			}
			if c.wantErr == "" && server.RaceEnabled {
				continue // the race build allocates the frame's growth twice
			}
			if got > uint64(len(frame))+budget {
				t.Errorf("%s, %s: %d bytes allocated for a %d-byte frame, budget %d beyond it", c.name, p.name, got, len(frame), budget)
			}
		}
	}
}

// childKeys is the root's children /0 … /n−1: one run.
func childKeys(n int) []drbg.NodeKey {
	out := make([]drbg.NodeKey, n)
	for i := range out {
		out[i] = drbg.NodeKey{uint32(i)}
	}
	return out
}

// benchWave outsources an auction document of about the size
// query_fp_tcp serves (21k nodes against its 19,995), records the waves of
// four queries over it, and returns its Local with the wave nearest 1,000
// keys among those at two points or more.
func benchWave(tb testing.TB) (*server.Local, wave) {
	tb.Helper()
	local, waves := auctionWaves(tb, workload.AuctionConfig{Items: 2000, People: 1500, Auctions: 1250, Seed: 5},
		"//person/watches/watch", "//open_auction/bidder", "//item", "/site/*/*/item")
	var best wave
	for _, w := range waves {
		if len(w.points) >= 2 && (best.keys == nil || abs(len(w.keys)-1000) < abs(len(best.keys)-1000)) {
			best = w
		}
	}
	return local, best
}

func abs(x int) int { return max(x, -x) }

// wavePath is a store a daemon answers a recorded wave from, with the
// request it is sent: its keys and sibling runs.
type wavePath struct {
	name       string
	store      server.Store
	payload    []byte
	keys, runs int
	runPath    bool
}

// wavePaths are the paths BenchmarkDaemonEvalWave times: the run path (a
// bare value-form Local) and the keyed path (the same Local behind a
// pass-through Store) on the whole wave, then the same two over a guard
// for each shard of a two-way split, asked its part of the wave split by
// owner.
func wavePaths(tb testing.TB, local *server.Local, w wave) []wavePath {
	tb.Helper()
	path := func(name string, store server.Store, keys []drbg.NodeKey) []wavePath {
		payload, _ := wire.AppendEvalReq(nil, wire.EvalReq{ID: 1, Keys: keys, Points: w.points})
		req, err := wire.DecodeEvalReq(payload)
		if err != nil {
			tb.Fatal(err)
		}
		runs := 0
		req.Runs.Each(func(drbg.NodeKey, int) error { runs++; return nil })
		return []wavePath{
			{name + "/run", store, payload, len(keys), runs, true},
			{name + "/keyed", keyedStore{store}, payload, len(keys), runs, false},
		}
	}
	out := path("local", local, w.keys)
	guards, man := shardGuards(tb, local)
	for s, keys := range byOwner(man, w.keys) {
		out = append(out, path(fmt.Sprintf("guard%d", s), guards[s], keys)...)
	}
	return out
}

// dispatchWave has d answer payload n times, as its serve loop does:
// decode, evaluate, encode, and the response buffer back to the pool.
func dispatchWave(tb testing.TB, d *server.Daemon, payload []byte, n int) {
	for i := 0; i < n; i++ {
		typ, out, _, err := server.Dispatch(d, wire.MsgEval, payload, time.Now(), 0)
		if err != nil || typ != wire.MsgEvalResp {
			tb.Fatalf("wave answered %v, %v", typ, err)
		}
		wire.PutBuf(out)
	}
}

// BenchmarkDaemonEvalWave times the daemon's answer to one recorded wave
// of about 1,000 keys, from request bytes to response bytes, on each of
// wavePaths, and reports ns and bytes per key and the request's runs.
func BenchmarkDaemonEvalWave(b *testing.B) {
	local, w := benchWave(b)
	for _, p := range wavePaths(b, local, w) {
		b.Run(p.name, func(b *testing.B) {
			d := server.NewDaemon(p.store, nil)
			dispatchWave(b, d, p.payload, 1) // warm the buffer pool
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			dispatchWave(b, d, p.payload, b.N)
			b.StopTimer()
			runtime.ReadMemStats(&after)
			per := float64(b.N) * float64(p.keys)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/per, "ns/key")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/per, "B/key")
			b.ReportMetric(float64(p.runs), "runs/req")
		})
	}
}

// runPathBytesPerKey bounds what the run paths allocate a key of a
// recorded wave, the response frame aside (pooled): the request's points
// and their value indices, two run walks' key scratch and, behind a guard,
// the fence's. Measured 0.22 on a bare Local's 1,250-key wave, 0.52 and
// 0.62 on the guards' parts of it (679 keys in 400 runs, 571 in 401).
const runPathBytesPerKey = 1.0

// TestDaemonEvalWaveAllocationsPerKey gates the run paths' garbage: the
// daemon's answer to a ~1,000-key wave, or to a shard's part of it behind
// a guard, allocates under runPathBytesPerKey bytes a key, where the keyed
// path allocates its keys, answers and values.
func TestDaemonEvalWaveAllocationsPerKey(t *testing.T) {
	if server.RaceEnabled {
		t.Skip("the race detector allocates and drops pooled buffers")
	}
	local, w := benchWave(t)
	for _, p := range wavePaths(t, local, w) {
		if !p.runPath {
			continue
		}
		d := server.NewDaemon(p.store, nil)
		dispatchWave(t, d, p.payload, 1)
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		dispatchWave(t, d, p.payload, runs)
		runtime.ReadMemStats(&after)
		per := float64(after.TotalAlloc-before.TotalAlloc) / (runs * float64(p.keys))
		t.Logf("%s: %.2f bytes a key of a %d-key request in %d runs", p.name, per, p.keys, p.runs)
		if per > runPathBytesPerKey {
			t.Errorf("%s allocated %.2f bytes a key of a %d-key request, bound %.2f", p.name, per, p.keys, runPathBytesPerKey)
		}
	}
}
