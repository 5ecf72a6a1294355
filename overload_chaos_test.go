// Overload and live-operations conformance: every resilient serving
// topology — reliable session (a retry policy over a one-connection
// Pool), health-tracked Pool, hedged k-of-n MultiServer, the replicated
// shard fabric (Router → per-shard 2-of-3 MultiServer → one-connection
// pools) and a session into a coalescing daemon — is driven (a) at
// several times a tiny admission cap, so the daemons
// are actively shedding with typed retryable errors the whole run, and
// (b) through continuous mid-wave hot swaps of the served store. The
// contract in both suites is the usual one: byte-identical answers to
// the fault-free reference, preserved semantics, zero failed calls.
package sssearch

import (
	"crypto/rand"
	"math/big"
	"net"
	"testing"
	"time"

	"sssearch/internal/apitest"
	"sssearch/internal/client"
	"sssearch/internal/coalesce"
	"sssearch/internal/core"
	"sssearch/internal/drbg"
	"sssearch/internal/metrics"
	"sssearch/internal/resilience"
	"sssearch/internal/ring"
	"sssearch/internal/server"
	"sssearch/internal/sharing"
)

// startDaemonCfg serves a store with a daemon configuration hook and
// returns the daemon for counter/epoch assertions.
func startDaemonCfg(t *testing.T, store server.Store, configure func(*server.Daemon)) (*server.Daemon, string) {
	t.Helper()
	d := server.NewDaemon(store, nil)
	if configure != nil {
		configure(d)
	}
	addr := serveDaemon(t, d)
	return d, addr
}

// overloadCap is the daemon-wide admission bound the overload suites use:
// far below the offered concurrency, so shedding is continuous.
func overloadCap(d *server.Daemon) { d.MaxInflight = 2 }

// slowStore holds each store call for a beat before answering. The tiny
// test fixtures dispatch in microseconds — too fast for admission slots
// to ever be contended — so the overload suites stretch the slot-hold
// time to make shedding continuous at the offered concurrency.
type slowStore struct {
	server.Store
	delay time.Duration
}

func (s slowStore) EvalNodes(keys []drbg.NodeKey, points []*big.Int) ([]core.NodeEval, error) {
	time.Sleep(s.delay)
	return s.Store.EvalNodes(keys, points)
}

func (s slowStore) FetchPolys(keys []drbg.NodeKey) ([]core.NodePoly, error) {
	time.Sleep(s.delay)
	return s.Store.FetchPolys(keys)
}

// slow wraps a store with the standard overload-suite delay.
func slow(st server.Store) server.Store { return slowStore{Store: st, delay: 2 * time.Millisecond} }

// overloadPolicy gives the resilient wrappers enough retry budget to ride
// out continuous shedding: generous attempts, short backoff (the shed
// hint stretches sleeps as needed), and a breaker with a test-speed
// cooldown so tripping costs milliseconds, not the default probe window.
func overloadPolicy() resilience.Policy {
	return resilience.Policy{
		MaxAttempts:       40,
		PerAttemptTimeout: 5 * time.Second,
		BaseBackoff:       time.Millisecond,
		MaxBackoff:        10 * time.Millisecond,
		Breaker:           &resilience.Breaker{Cooldown: 3 * time.Millisecond},
	}
}

// requireSheds fails the run unless the daemons actually shed — an
// overload suite that never hit the admission cap proves nothing.
func requireSheds(t *testing.T, daemons ...*server.Daemon) {
	t.Helper()
	var total int64
	for _, d := range daemons {
		total += d.Counters().Snapshot().RequestsShed
	}
	if total < 1 {
		t.Error("no request was ever shed; the overload run exercised nothing")
	}
}

// requireSwaps fails the run unless every daemon's store was actually
// replaced at least once mid-wave.
func requireSwaps(t *testing.T, daemons ...*server.Daemon) {
	t.Helper()
	for i, d := range daemons {
		if d.StoreEpoch() < 1 {
			t.Errorf("daemon %d: store epoch %d, want >= 1 swap", i, d.StoreEpoch())
		}
	}
}

// alternatingSwap returns a swap() that toggles every daemon between its
// two equivalent stores — each call lands a real store replacement on
// every daemon, concurrent with live traffic.
func alternatingSwap(daemons []*server.Daemon, stores [][2]server.Store) func() error {
	i := 0
	return func() error {
		i++
		for j, d := range daemons {
			if _, err := d.SwapStore(stores[j][i%2]); err != nil {
				return err
			}
		}
		return nil
	}
}

// dialer dials addr with the given counters (nil allowed).
func dialer(addr string, counters *metrics.Counters) func() (*client.Remote, error) {
	return func() (*client.Remote, error) { return client.Dial(addr, counters) }
}

// TestOverloadReliable: one retrying session against a shedding daemon.
func TestOverloadReliable(t *testing.T) {
	f := apitest.NewFixture(t, ring.MustFp(257))
	d, addr := startDaemonCfg(t, slow(f.Reference), overloadCap)
	counters := &metrics.Counters{}
	rc := reliableSession(t, dialer(addr, counters), overloadPolicy(), counters)

	apitest.ChaosOverload(t, f, rc, 8, 5)
	requireSheds(t, d)
}

// TestOverloadPool: pooled connections all target the same shedding
// daemon; the retrying API wrapper and its breaker must mask every shed,
// and the pool must not fail over into the same full queue.
func TestOverloadPool(t *testing.T) {
	f := apitest.NewFixture(t, ring.MustFp(257))
	d, addr := startDaemonCfg(t, slow(f.Reference), overloadCap)
	counters := &metrics.Counters{}
	p, err := client.DialPool(addr, 3, counters)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	api := &resilience.API{Inner: p, Policy: overloadPolicy()}

	apitest.ChaosOverload(t, f, api, 8, 5)
	requireSheds(t, d)
}

// TestOverloadMultiServerHedged: a hedged 2-of-3 deployment where every
// member daemon sheds under its own tiny cap — member-level retries plus
// hedging and spares must still combine byte-identical answers.
func TestOverloadMultiServerHedged(t *testing.T) {
	f := apitest.NewFixture(t, ring.MustFp(257))
	fp := f.Ring.(*ring.FpCyclotomic)
	const k, n = 2, 3
	shares, err := sharing.MultiSplit(f.Encoded, f.Seed, k, n, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	counters := &metrics.Counters{}
	members := make([]core.MultiMember, n)
	daemons := make([]*server.Daemon, n)
	for i, s := range shares {
		local, err := server.NewLocal(fp, s.Tree)
		if err != nil {
			t.Fatal(err)
		}
		d, addr := startDaemonCfg(t, slow(local), overloadCap)
		daemons[i] = d
		members[i] = core.MultiMember{X: s.X, API: reliableSession(t, dialer(addr, counters), overloadPolicy(), counters)}
	}
	ms, err := core.NewMultiServer(fp, k, members)
	if err != nil {
		t.Fatal(err)
	}
	ms.HedgeDelay = 5 * time.Millisecond
	ms.Counters = counters

	apitest.ChaosOverload(t, f, ms, 6, 4)
	requireSheds(t, daemons...)
}

// TestOverloadReplicatedRouter: the replicated shard fabric with bare
// (non-retrying) one-connection pools as members, so a shed from one
// member daemon MUST fail over inside the shard's MultiServer to a spare
// member — a different daemon whose admission queue may have room — with
// a retrying wrapper around the whole scatter for the waves where too
// many members shed at once.
func TestOverloadReplicatedRouter(t *testing.T) {
	f := apitest.NewFixture(t, ring.MustFp(257))
	counters := &metrics.Counters{}
	var daemons []*server.Daemon
	router := replicatedFabric(t, f, func(_, _ int, newGuard func() server.Store) core.ServerAPI {
		d, addr := startDaemonCfg(t, slow(newGuard()), overloadCap)
		daemons = append(daemons, d)
		p, err := client.NewPoolDial(dialer(addr, counters), 1, counters)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		return p
	})
	api := &resilience.API{Inner: router, Policy: overloadPolicy()}

	apitest.ChaosOverload(t, f, api, 8, 5)
	requireSheds(t, daemons...)
}

// TestOverloadBatcherCoalesce (named for the client-side micro-batcher
// that once sat in front of the session): a retrying session against a
// shedding coalescing daemon — merged requests shed as a unit must be
// retried without mixing answers.
func TestOverloadBatcherCoalesce(t *testing.T) {
	f := apitest.NewFixture(t, ring.MustFp(257))
	d, addr := startDaemonCfg(t, coalesce.New(slow(f.Reference), nil), overloadCap)
	counters := &metrics.Counters{}
	rc := reliableSession(t, dialer(addr, counters), overloadPolicy(), counters)

	apitest.ChaosOverload(t, f, rc, 8, 5)
	requireSheds(t, d)
}

// TestHotSwapReliable: continuous SwapStore between two equivalent stores
// under live traffic on a retrying session — zero downtime, byte
// identity.
func TestHotSwapReliable(t *testing.T) {
	f := apitest.NewFixture(t, ring.MustFp(257))
	other, err := server.NewLocal(f.Ring, f.ServerTree)
	if err != nil {
		t.Fatal(err)
	}
	d, addr := startDaemonCfg(t, f.Reference, nil)
	counters := &metrics.Counters{}
	rc := reliableSession(t, dialer(addr, counters), overloadPolicy(), counters)

	swap := alternatingSwap([]*server.Daemon{d}, [][2]server.Store{{other, f.Reference}})
	apitest.ChaosHotSwap(t, f, rc, swap, 4, 6)
	requireSwaps(t, d)
}

// TestHotSwapPool: swaps landing while pooled connections carry
// concurrent pipelined waves.
func TestHotSwapPool(t *testing.T) {
	f := apitest.NewFixture(t, ring.MustFp(257))
	other, err := server.NewLocal(f.Ring, f.ServerTree)
	if err != nil {
		t.Fatal(err)
	}
	d, addr := startDaemonCfg(t, f.Reference, nil)
	p, err := client.DialPool(addr, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	swap := alternatingSwap([]*server.Daemon{d}, [][2]server.Store{{other, f.Reference}})
	apitest.ChaosHotSwap(t, f, p, swap, 4, 6)
	requireSwaps(t, d)
}

// TestHotSwapMultiServerHedged: every member daemon's share store swaps
// mid-wave; hedged combination across members must never see a torn
// store.
func TestHotSwapMultiServerHedged(t *testing.T) {
	f := apitest.NewFixture(t, ring.MustFp(257))
	fp := f.Ring.(*ring.FpCyclotomic)
	const k, n = 2, 3
	shares, err := sharing.MultiSplit(f.Encoded, f.Seed, k, n, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	counters := &metrics.Counters{}
	members := make([]core.MultiMember, n)
	daemons := make([]*server.Daemon, n)
	stores := make([][2]server.Store, n)
	for i, s := range shares {
		a, err := server.NewLocal(fp, s.Tree)
		if err != nil {
			t.Fatal(err)
		}
		b, err := server.NewLocal(fp, s.Tree)
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = [2]server.Store{b, a}
		d, addr := startDaemonCfg(t, a, nil)
		daemons[i] = d
		members[i] = core.MultiMember{X: s.X, API: reliableSession(t, dialer(addr, counters), overloadPolicy(), counters)}
	}
	ms, err := core.NewMultiServer(fp, k, members)
	if err != nil {
		t.Fatal(err)
	}
	ms.HedgeDelay = 5 * time.Millisecond
	ms.Counters = counters

	apitest.ChaosHotSwap(t, f, ms, alternatingSwap(daemons, stores), 4, 5)
	requireSwaps(t, daemons...)
}

// TestHotSwapReplicatedRouter: every member daemon of the replicated
// shard fabric swaps its guarded store under scatter/gather traffic, the
// members being retrying sessions over one-connection pools.
func TestHotSwapReplicatedRouter(t *testing.T) {
	f := apitest.NewFixture(t, ring.MustFp(257))
	counters := &metrics.Counters{}
	var daemons []*server.Daemon
	var stores [][2]server.Store
	router := replicatedFabric(t, f, func(_, _ int, newGuard func() server.Store) core.ServerAPI {
		a, b := newGuard(), newGuard()
		d, addr := startDaemonCfg(t, a, nil)
		daemons = append(daemons, d)
		stores = append(stores, [2]server.Store{b, a})
		return reliableSession(t, dialer(addr, counters), overloadPolicy(), counters)
	})

	apitest.ChaosHotSwap(t, f, router, alternatingSwap(daemons, stores), 4, 5)
	requireSwaps(t, daemons...)
}

// TestHotSwapBatcherCoalesce (named for the client-side micro-batcher
// that once sat in front of the session): the coalescing daemon's store
// swaps under a retrying session's waves.
func TestHotSwapBatcherCoalesce(t *testing.T) {
	f := apitest.NewFixture(t, ring.MustFp(257))
	a := coalesce.New(f.Reference, nil)
	b := coalesce.New(f.Reference, nil)
	d, addr := startDaemonCfg(t, a, nil)
	rc := reliableSession(t, dialer(addr, nil), overloadPolicy(), nil)

	swap := alternatingSwap([]*server.Daemon{d}, [][2]server.Store{{b, a}})
	apitest.ChaosHotSwap(t, f, rc, swap, 4, 6)
	requireSwaps(t, d)
}

// TestOverloadHotSwapCombined: shedding AND store swapping at once — the
// worst realistic minute of a deployment's life. Answers must still be
// byte-identical.
func TestOverloadHotSwapCombined(t *testing.T) {
	f := apitest.NewFixture(t, ring.MustFp(257))
	other, err := server.NewLocal(f.Ring, f.ServerTree)
	if err != nil {
		t.Fatal(err)
	}
	d, addr := startDaemonCfg(t, slow(f.Reference), overloadCap)
	counters := &metrics.Counters{}
	rc := reliableSession(t, dialer(addr, counters), overloadPolicy(), counters)

	swap := alternatingSwap([]*server.Daemon{d}, [][2]server.Store{{slow(other), slow(f.Reference)}})
	apitest.ChaosHotSwap(t, f, rc, swap, 6, 5)
	requireSheds(t, d)
	requireSwaps(t, d)
}

// serveDaemon runs a prepared daemon on a loopback listener, shut down in
// cleanup.
func serveDaemon(t *testing.T, d *server.Daemon) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = d.Serve(l)
	}()
	t.Cleanup(func() {
		d.Close()
		<-done
	})
	return l.Addr().String()
}
