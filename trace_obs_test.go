package sssearch

import (
	"context"
	crand "crypto/rand"
	"crypto/sha256"
	"errors"
	"math/big"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sssearch/internal/apitest"
	"sssearch/internal/client"
	"sssearch/internal/coalesce"
	"sssearch/internal/core"
	"sssearch/internal/drbg"
	"sssearch/internal/metrics"
	"sssearch/internal/obs"
	"sssearch/internal/resilience"
	"sssearch/internal/ring"
	"sssearch/internal/server"
	"sssearch/internal/sharing"
	"sssearch/internal/wire"
)

// serveTraced starts a daemon over st with a private Observer, so each
// test inspects exactly the spans its own daemon recorded.
func serveTraced(t *testing.T, st server.Store) (string, *obs.Observer) {
	t.Helper()
	ob := &obs.Observer{}
	d := server.NewDaemon(st, nil)
	d.Obs = ob
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = d.Serve(l) }()
	t.Cleanup(func() { d.Close() })
	return l.Addr().String(), ob
}

// slowCount counts slow-log entries carrying trace id.
func slowCount(ob *obs.Observer, id uint64) int {
	n := 0
	for _, e := range ob.Slow.Entries() {
		if e.TraceID == id {
			n++
		}
	}
	return n
}

// waitFor polls cond until it holds or the deadline passes. Server spans
// finish asynchronously (when the response hits the socket), so tests
// wait for the slow log instead of asserting immediately.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// sampledCtx returns a context carrying a sampled span with a fixed
// trace id — a client-side trace origin under test control.
func sampledCtx(id uint64) (context.Context, *obs.Span) {
	sp := obs.StartSpan("test", obs.Trace{ID: id, Sampled: true})
	return obs.WithSpan(context.Background(), sp), sp
}

// flakyAPI delegates to the wrapped API, then fails the first call after
// the fact — the server did the work and answered, but the client-side
// leg looks like a transport fault, so the retry layer runs the request
// again. Both legs hit the daemon, which must see the same trace id.
type flakyAPI struct {
	core.ServerAPI
	calls atomic.Int32
}

func (f *flakyAPI) EvalNodesCtx(ctx context.Context, keys []drbg.NodeKey, points []*big.Int) ([]core.NodeEval, error) {
	res, err := core.EvalNodesWithCtx(ctx, f.ServerAPI, keys, points)
	if f.calls.Add(1) == 1 {
		return nil, errors.New("injected transient fault")
	}
	return res, err
}

// TestTraceOneIDAcrossRetriedLegs proves the trace id survives the retry
// wrapper and the wire: a sampled request whose first leg fails
// client-side is retried, and the daemon's slow log records BOTH legs
// under the one id.
func TestTraceOneIDAcrossRetriedLegs(t *testing.T) {
	f := apitest.NewFixture(t, ring.MustFp(257))
	addr, ob := serveTraced(t, f.Reference)
	remote, err := client.Dial(addr, &metrics.Counters{})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	api := &resilience.API{
		Inner: &flakyAPI{ServerAPI: remote},
		Policy: resilience.Policy{
			MaxAttempts: 3,
			BaseBackoff: time.Millisecond,
			MaxBackoff:  5 * time.Millisecond,
			Retryable:   func(error) bool { return true },
		},
	}

	const traceID = 0x5e7_1d_0001
	ctx, _ := sampledCtx(traceID)
	got, err := api.EvalNodesCtx(ctx, f.Keys, f.Points)
	if err != nil {
		t.Fatal(err)
	}
	want, err := f.Reference.EvalNodes(f.Keys, f.Points)
	if err != nil {
		t.Fatal(err)
	}
	if err := apitest.CompareEvals(got, want); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "both retried legs in the daemon slow log", func() bool {
		return slowCount(ob, traceID) >= 2
	})
}

// laggedAPI delays every eval before forwarding — a deterministic
// straggler primary that forces the hedge spare to fire.
type laggedAPI struct {
	core.ServerAPI
	delay time.Duration
}

func (s *laggedAPI) EvalNodesCtx(ctx context.Context, keys []drbg.NodeKey, points []*big.Int) ([]core.NodeEval, error) {
	time.Sleep(s.delay)
	return core.EvalNodesWithCtx(ctx, s.ServerAPI, keys, points)
}

// TestTraceOneIDAcrossHedgedLegs proves the trace id rides both legs of
// a hedged fan-out: a 1-of-2 MultiServer whose primary straggles hedges
// to the spare, and BOTH member daemons slow-log the one id.
func TestTraceOneIDAcrossHedgedLegs(t *testing.T) {
	fp := ring.MustFp(257)
	f := apitest.NewFixture(t, fp)
	seed := drbg.Seed(sha256.Sum256([]byte("trace-hedge")))
	shares, err := sharing.MultiSplit(f.Encoded, seed, 1, 2, crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	members := make([]core.MultiMember, len(shares))
	obsv := make([]*obs.Observer, len(shares))
	for i, s := range shares {
		local, err := server.NewLocal(fp, s.Tree)
		if err != nil {
			t.Fatal(err)
		}
		addr, ob := serveTraced(t, local)
		remote, err := client.Dial(addr, &metrics.Counters{})
		if err != nil {
			t.Fatal(err)
		}
		defer remote.Close()
		obsv[i] = ob
		var api core.ServerAPI = remote
		if i == 0 {
			api = &laggedAPI{ServerAPI: remote, delay: 50 * time.Millisecond}
		}
		members[i] = core.MultiMember{X: s.X, API: api}
	}
	ms, err := core.NewMultiServer(fp, 1, members)
	if err != nil {
		t.Fatal(err)
	}
	ms.HedgeDelay = 2 * time.Millisecond

	const traceID = 0x5e7_1d_0002
	ctx, _ := sampledCtx(traceID)
	if _, err := ms.EvalNodesCtx(ctx, f.Keys[:4], f.Points[:2]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the hedge spare's daemon to log the trace", func() bool {
		return slowCount(obsv[1], traceID) >= 1
	})
	waitFor(t, "the straggler primary's daemon to log the same trace", func() bool {
		return slowCount(obsv[0], traceID) >= 1
	})
}

// tracePass records the span id and deduplicated key count of each
// inner evaluation pass, and blocks the first pass until released so
// followers pile up behind it (the deterministic-merge gate from the
// coalesce tests).
type traceGate struct {
	core.ServerAPI
	once    sync.Once
	release chan struct{}
	entered chan struct{}

	mu     sync.Mutex
	passes []tracePass
}

type tracePass struct {
	id   uint64
	keys int
}

func (g *traceGate) EvalNodesCtx(ctx context.Context, keys []drbg.NodeKey, points []*big.Int) ([]core.NodeEval, error) {
	var id uint64
	if sp := obs.SpanFrom(ctx); sp != nil {
		id = sp.Trace.ID
	}
	g.mu.Lock()
	g.passes = append(g.passes, tracePass{id: id, keys: len(keys)})
	g.mu.Unlock()
	g.once.Do(func() {
		close(g.entered)
		<-g.release
	})
	return g.ServerAPI.EvalNodes(keys, points)
}

// TestTraceCoalescedLegsShareID proves span adoption through the
// coalescer: two sampled requests merged into one shared evaluation
// pass hand the pass exactly one of their trace ids — the inner store
// sees a single span for the merged leg, not a trace per requester.
func TestTraceCoalescedLegsShareID(t *testing.T) {
	f := apitest.NewFixture(t, ring.MustFp(257))
	g := &traceGate{ServerAPI: f.Reference, release: make(chan struct{}), entered: make(chan struct{})}
	s := coalesce.New(g, nil)
	s.SetObserver(&obs.Observer{}) // keep the process-default observer clean

	const leaderID, followerB, followerC = 0x5e7_1d_000a, 0x5e7_1d_000b, 0x5e7_1d_000c

	// Leader occupies the drain; its pass is blocked inside the gate. It
	// asks at the followers' point vector: the coalescer queues per point
	// signature, so only then is the drain the followers wait behind busy.
	leadErr := make(chan error, 1)
	go func() {
		ctx, _ := sampledCtx(leaderID)
		_, err := s.EvalNodesCtx(ctx, f.Keys[:1], f.Points)
		leadErr <- err
	}()
	<-g.entered

	// Followers queue identical batches behind the busy drain.
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for _, id := range []uint64{followerB, followerC} {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			ctx, _ := sampledCtx(id)
			got, err := s.EvalNodesCtx(ctx, f.Keys, f.Points)
			if err == nil {
				var want []core.NodeEval
				want, err = f.Reference.EvalNodes(f.Keys, f.Points)
				if err == nil {
					err = apitest.CompareEvals(got, want)
				}
			}
			if err != nil {
				errs <- err
			}
		}(id)
	}
	waitFor(t, "both followers to queue behind the leader's pass", func() bool { return s.Queued() == 2 })
	close(g.release)
	wg.Wait()
	if err := <-leadErr; err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	g.mu.Lock()
	passes := append([]tracePass(nil), g.passes...)
	g.mu.Unlock()
	if len(passes) != 2 {
		t.Fatalf("inner saw %d passes, want 2 (leader + merged followers): %+v", len(passes), passes)
	}
	if passes[0].id != leaderID {
		t.Fatalf("leader pass carried trace %#x, want %#x", passes[0].id, leaderID)
	}
	if passes[1].id != followerB && passes[1].id != followerC {
		t.Fatalf("merged pass carried trace %#x, want one of the followers' (%#x or %#x)",
			passes[1].id, followerB, followerC)
	}
	if passes[1].keys != len(f.Keys) {
		t.Fatalf("merged pass evaluated %d keys, want %d deduplicated", passes[1].keys, len(f.Keys))
	}
}

// TestTraceFetchLegCarriesQueryID proves the fetch leg keeps the query's
// context: it runs sampled engine queries (VerifyFull re-derives every
// match, so they fetch polynomials) until one makes the engine send a fetch
// frame and requires that frame to reach the daemon under the query's own
// trace id, not as an untraced request.
func TestTraceFetchLegCarriesQueryID(t *testing.T) {
	prev := obs.SampleEvery()
	obs.SetSampleEvery(1)
	defer obs.SetSampleEvery(prev)

	f := apitest.NewFixture(t, ring.MustFp(257))
	addr, daemonObs := serveTraced(t, f.Reference)
	remote, err := client.Dial(addr, &metrics.Counters{})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	eng := core.NewEngine(f.Ring, f.Seed, f.Mapping, remote, nil)
	clientObs := &obs.Observer{}
	eng.SetObserver(clientObs)

	for _, tag := range []string{"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"} {
		clientObs.Slow.Reset()
		res, err := eng.Lookup(tag, core.Opts{Verify: core.VerifyFull})
		if errors.Is(err, core.ErrUnknownTag) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.PolysFetched == 0 {
			continue
		}
		queries := clientObs.Slow.Entries()
		if len(queries) != 1 || queries[0].Op != "query" {
			t.Fatalf("client slow log after one sampled query: %+v", queries)
		}
		id := queries[0].TraceID
		waitFor(t, "the daemon to log a fetch span under the query's trace id", func() bool {
			for _, e := range daemonObs.Slow.Entries() {
				if e.TraceID == id && e.Op == "fetch" {
					return true
				}
			}
			return false
		})
		return
	}
	t.Fatal("no fixture tag made the engine send a fetch frame")
}

// TestTraceV2DowngradeStripsTrace proves v2 interop with sampling on: a
// v2 session never puts trace bytes on the wire, the daemon parses its
// frames exactly as before and answers correctly, and no server span
// appears for the v2 request — while a v3 session against the same
// daemon does get its trace through.
func TestTraceV2DowngradeStripsTrace(t *testing.T) {
	prev := obs.SampleEvery()
	obs.SetSampleEvery(1)
	defer obs.SetSampleEvery(prev)

	f := apitest.NewFixture(t, ring.MustFp(257))
	addr, ob := serveTraced(t, f.Reference)

	r2, err := client.DialVersion(addr, wire.Version2, &metrics.Counters{})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	const v2ID = 0x5e7_1d_0020
	ctx2, _ := sampledCtx(v2ID)
	got, err := r2.EvalNodesCtx(ctx2, f.Keys, f.Points)
	if err != nil {
		t.Fatal(err)
	}
	want, err := f.Reference.EvalNodes(f.Keys, f.Points)
	if err != nil {
		t.Fatal(err)
	}
	if err := apitest.CompareEvals(got, want); err != nil {
		t.Fatalf("v2 session answer under sampling: %v", err)
	}

	// A v3 request is the sentinel that the daemon has caught up on
	// span recording: once ITS id is logged, the v2 request has long
	// been answered — and must have left no trace.
	r3, err := client.Dial(addr, &metrics.Counters{})
	if err != nil {
		t.Fatal(err)
	}
	defer r3.Close()
	const v3ID = 0x5e7_1d_0021
	ctx3, _ := sampledCtx(v3ID)
	if _, err := r3.EvalNodesCtx(ctx3, f.Keys[:1], f.Points[:1]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the v3 sentinel trace in the slow log", func() bool {
		return slowCount(ob, v3ID) >= 1
	})
	if n := slowCount(ob, v2ID); n != 0 {
		t.Fatalf("v2 session leaked %d server span(s); the downgrade must strip the trace", n)
	}
}

// dawdlingStore stretches every eval — a store slow enough that the
// daemon's stage breakdown must attribute nearly all of the request's
// wall time to store_eval.
type dawdlingStore struct {
	server.Store
	delay time.Duration
}

func (s *dawdlingStore) EvalNodes(keys []drbg.NodeKey, points []*big.Int) ([]core.NodeEval, error) {
	time.Sleep(s.delay)
	return s.Store.EvalNodes(keys, points)
}

// TestTraceStagesAccountForWallTime pins the accounting quality of a
// server span: against a slow store, the slow-log entry's summed stage
// durations must cover at least 90% of its end-to-end total — the
// breakdown explains the latency rather than hand-waving at it.
func TestTraceStagesAccountForWallTime(t *testing.T) {
	f := apitest.NewFixture(t, ring.MustFp(257))
	addr, ob := serveTraced(t, &dawdlingStore{Store: f.Reference, delay: 15 * time.Millisecond})
	remote, err := client.Dial(addr, &metrics.Counters{})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	const traceID = 0x5e7_1d_0030
	ctx, _ := sampledCtx(traceID)
	if _, err := remote.EvalNodesCtx(ctx, f.Keys, f.Points); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the slow query's server span", func() bool {
		return slowCount(ob, traceID) >= 1
	})
	var entry obs.SlowEntry
	for _, e := range ob.Slow.Entries() {
		if e.TraceID == traceID {
			entry = e
			break
		}
	}
	if entry.Total < 15*time.Millisecond {
		t.Fatalf("span total %v, want >= the store's 15ms dawdle", entry.Total)
	}
	var sum time.Duration
	for _, d := range entry.Stages {
		sum += d
	}
	if sum < entry.Total*9/10 {
		t.Fatalf("stages account for %v of %v total (%.0f%%), want >= 90%%: %v",
			sum, entry.Total, 100*float64(sum)/float64(entry.Total), entry.StageMap())
	}
	if entry.Stages[obs.StageStoreEval] < 10*time.Millisecond {
		t.Fatalf("store_eval stage %v, want >= 10ms of the dawdle attributed", entry.Stages[obs.StageStoreEval])
	}
}
