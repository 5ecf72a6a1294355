package server

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
	"sssearch/internal/sharing"
	"sssearch/internal/wire"
	"sssearch/internal/workload"
	"sssearch/internal/xmltree"
	"sssearch/internal/xpath"
)

// keyedStore hides a Local behind the Store interface: a daemon serving it
// takes the keyed path, as it does for every store but a bare value-form
// Local.
type keyedStore struct{ *Local }

// wave is one evaluation call of a query: its keys and points.
type wave struct {
	keys   []drbg.NodeKey
	points []*big.Int
}

// waveRecorder is a Local that keeps every evaluation call it answers.
type waveRecorder struct {
	*Local
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
func fpLocal(tb testing.TB, doc *xmltree.Node) (*Local, *mapping.Map, drbg.Seed) {
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
	local, err := NewLocal(r, tree)
	if err != nil {
		tb.Fatal(err)
	}
	return local, m, seed
}

// auctionWaves outsources an auction document on F_257 and records the
// evaluation waves that queries over it send.
func auctionWaves(tb testing.TB, cfg workload.AuctionConfig, queries ...string) (*Local, []wave) {
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
func evalFrame(tb testing.TB, store Store, payload []byte) ([]byte, string) {
	tb.Helper()
	typ, out, _, err := NewDaemon(store, nil).dispatch(wire.MsgEval, payload, time.Now(), 0)
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
func referenceFrame(local *Local, id uint64, keys []drbg.NodeKey, points []*big.Int, digest uint64) ([]byte, string) {
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
func checkBothPaths(t *testing.T, name string, local *Local, keys []drbg.NodeKey, points []*big.Int) {
	t.Helper()
	payload, digest := wire.AppendEvalReq(nil, wire.EvalReq{ID: 9, Keys: keys, Points: points})
	want, wantErr := referenceFrame(local, 9, keys, points, digest)
	for _, path := range []struct {
		name  string
		store Store
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

// TestEvalRequestAllocationBounded: a request of a few KB for keys that do
// not exist at many points is refused, on both paths, with the keyed
// path's error and before anything proportional to keys × points is
// allocated (8.8 and 34.1 MB before the fix); one for existing keys whose
// answer cannot fit a frame is refused, naming the bound, before any store
// is asked.
func TestEvalRequestAllocationBounded(t *testing.T) {
	local, _, _ := fpLocal(t, paperdata.Document())
	if n := len(local.Tree().Root.Children); n != 2 {
		t.Fatalf("the paper document's root has %d children, want 2", n)
	}
	points := func(m int) []*big.Int {
		out := make([]*big.Int, m)
		for j := range out {
			out[j] = big.NewInt(int64(1 + j%256))
		}
		return out
	}
	roots := func(n int) []drbg.NodeKey { return make([]drbg.NodeKey, n) }
	const budget = 512 << 10
	for _, c := range []struct {
		name    string
		keys    []drbg.NodeKey
		m       int
		paths   []Store
		wantErr string
	}{
		{"4,096 missing keys at 256 points", childKeys(4096), 256, []Store{local, keyedStore{local}}, "server: sharing: key /2 invalid at depth 0"},
		{"4,096 missing keys at 1,024 points", childKeys(4096), 1024, []Store{local, keyedStore{local}}, "server: sharing: key /2 invalid at depth 0"},
		{"65,536 roots at 2,048 points", roots(65536), 2048, []Store{local, keyedStore{local}}, "16777216-byte frame bound"},
		// Fits at one bit a value but not at the values' width: the run
		// path refuses it once it has their width, before writing one.
		{"65,536 roots at 300 points", roots(65536), 300, []Store{local}, "16777216-byte frame bound"},
	} {
		payload, _ := wire.AppendEvalReq(nil, wire.EvalReq{ID: 1, Keys: c.keys, Points: points(c.m)})
		for _, store := range c.paths {
			_, isLocal := store.(*Local)
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, msg := evalFrame(t, store, payload)
			runtime.ReadMemStats(&after)
			got := after.TotalAlloc - before.TotalAlloc
			t.Logf("%s (%d-byte frame), run path %v: %d bytes allocated, %q", c.name, len(payload), isLocal, got, msg)
			if !strings.Contains(msg, c.wantErr) {
				t.Errorf("%s, run path %v: error %q, want one containing %q", c.name, isLocal, msg, c.wantErr)
			}
			if got > budget {
				t.Errorf("%s, run path %v: %d bytes allocated, budget %d", c.name, isLocal, got, budget)
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
// four queries over it, and returns its Local with the encoded request of
// the wave nearest 1,000 keys among those at two points or more, and that
// wave's key count.
func benchWave(tb testing.TB) (*Local, []byte, int) {
	tb.Helper()
	local, waves := auctionWaves(tb, workload.AuctionConfig{Items: 2000, People: 1500, Auctions: 1250, Seed: 5},
		"//person/watches/watch", "//open_auction/bidder", "//item", "/site/*/*/item")
	var best wave
	for _, w := range waves {
		if len(w.points) >= 2 && (best.keys == nil || abs(len(w.keys)-1000) < abs(len(best.keys)-1000)) {
			best = w
		}
	}
	payload, _ := wire.AppendEvalReq(nil, wire.EvalReq{ID: 1, Keys: best.keys, Points: best.points})
	return local, payload, len(best.keys)
}

func abs(x int) int { return max(x, -x) }

// dispatchWave has d answer payload n times, as its serve loop does:
// decode, evaluate, encode, and the response buffer back to the pool.
func dispatchWave(tb testing.TB, d *Daemon, payload []byte, n int) {
	for i := 0; i < n; i++ {
		typ, out, _, err := d.dispatch(wire.MsgEval, payload, time.Now(), 0)
		if err != nil || typ != wire.MsgEvalResp {
			tb.Fatalf("wave answered %v, %v", typ, err)
		}
		wire.PutBuf(out)
	}
}

// BenchmarkDaemonEvalWave times the daemon's answer to one recorded wave
// of about 1,000 keys, from request bytes to response bytes, on the run
// path (a bare value-form Local) and on the keyed path (the same Local
// behind a pass-through Store), and reports ns and bytes per key.
func BenchmarkDaemonEvalWave(b *testing.B) {
	local, payload, keys := benchWave(b)
	for _, path := range []struct {
		name  string
		store Store
	}{{"run", local}, {"keyed", keyedStore{local}}} {
		b.Run(path.name, func(b *testing.B) {
			d := NewDaemon(path.store, nil)
			dispatchWave(b, d, payload, 1) // warm the buffer pool
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			dispatchWave(b, d, payload, b.N)
			b.StopTimer()
			runtime.ReadMemStats(&after)
			per := float64(b.N) * float64(keys)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/per, "ns/key")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/per, "B/key")
		})
	}
}

// runPathBytesPerKey bounds what the run path allocates a key of a
// recorded wave, the response frame aside (pooled): the request's points
// and their value indices, and two run walks' key scratch. Measured 0.22.
const runPathBytesPerKey = 1.0

// TestDaemonEvalWaveAllocationsPerKey gates the run path's garbage: the
// daemon's answer to a ~1,000-key wave allocates under runPathBytesPerKey
// bytes a key, where the keyed path allocates its keys, answers and
// values.
func TestDaemonEvalWaveAllocationsPerKey(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates and drops pooled buffers")
	}
	local, payload, keys := benchWave(t)
	d := NewDaemon(local, nil)
	dispatchWave(t, d, payload, 1)
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	dispatchWave(t, d, payload, runs)
	runtime.ReadMemStats(&after)
	if per := float64(after.TotalAlloc-before.TotalAlloc) / (runs * float64(keys)); per > runPathBytesPerKey {
		t.Fatalf("the run path allocated %.2f bytes a key of a %d-key wave, bound %.2f", per, keys, runPathBytesPerKey)
	}
}
