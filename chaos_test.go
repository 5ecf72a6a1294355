// Chaos conformance: every fault-tolerant serving topology — the
// reliable session (a retry policy over a one-connection Pool), the
// health-tracked Pool, the hedged k-of-n MultiServer, the replicated
// shard fabric (Router → per-shard 2-of-3 MultiServer → one-connection
// pools) and a session into a coalescing daemon — is driven through
// deterministic fault injection (resets mid-frame, latency spikes, torn
// and silently dropped writes) and must return byte-identical answers to
// the fault-free reference. The harness itself lives in internal/apitest
// (Chaos).
package sssearch

import (
	"crypto/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sssearch/internal/apitest"
	"sssearch/internal/client"
	"sssearch/internal/coalesce"
	"sssearch/internal/core"
	"sssearch/internal/faultconn"
	"sssearch/internal/metrics"
	"sssearch/internal/resilience"
	"sssearch/internal/ring"
	"sssearch/internal/server"
	"sssearch/internal/sharing"
)

// chaosDialer dials a daemon through fault-injecting connection wrappers.
// Every dial draws a fresh seed so a connection that dies to an injected
// fault is not re-dialed into the identical fault at the identical
// offset, and each attempt's conn is retained so tests can assert the
// schedule really fired. The dial itself retries a few times: an injected
// reset can land inside the handshake, and a real dialer would just dial
// again.
type chaosDialer struct {
	addr string
	cfg  faultconn.Config
	seed atomic.Int64

	mu    sync.Mutex
	conns []*faultconn.Conn
}

func newChaosDialer(addr string, cfg faultconn.Config) *chaosDialer {
	return &chaosDialer{addr: addr, cfg: cfg}
}

func (d *chaosDialer) dial() (*client.Remote, error) {
	var lastErr error
	for attempt := 0; attempt < 8; attempt++ {
		conn, err := net.Dial("tcp", d.addr)
		if err != nil {
			lastErr = err
			continue
		}
		cfg := d.cfg
		cfg.Seed = d.cfg.Seed + d.seed.Add(1)*1000003
		fc := faultconn.New(conn, cfg)
		d.mu.Lock()
		d.conns = append(d.conns, fc)
		d.mu.Unlock()
		// Bound the handshake: a silently dropped Hello would otherwise
		// block the handshake read forever (session reads are bounded by
		// the caller's per-attempt timeouts instead).
		_ = conn.SetDeadline(time.Now().Add(time.Second))
		r, err := client.NewRemote(fc, nil)
		if err != nil {
			fc.Close()
			lastErr = err
			continue
		}
		_ = conn.SetDeadline(time.Time{})
		return r, nil
	}
	return nil, lastErr
}

// faults sums the injected faults across every connection this dialer
// produced — a chaos test whose schedule never fired proves nothing.
func (d *chaosDialer) faults() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	var total int64
	for _, c := range d.conns {
		total += c.Faults().Total()
	}
	return total
}

func requireFaults(t *testing.T, dialers ...*chaosDialer) {
	t.Helper()
	var total int64
	for _, d := range dialers {
		total += d.faults()
	}
	if total < 1 {
		t.Error("fault schedule never fired; the chaos run exercised nothing")
	}
}

// chaosFaultCfg is the standard fault mix: roughly one reset per 20
// operations, one torn write per 30, one 1 ms latency spike per 10 —
// aggressive enough that a multi-round run is guaranteed hits, mild
// enough that an 8-attempt policy fails with negligible probability.
func chaosFaultCfg(seed int64) faultconn.Config {
	return faultconn.Config{
		Seed:              seed,
		ResetEvery:        20,
		PartialWriteEvery: 30,
		LatencyEvery:      10,
		LatencySpike:      time.Millisecond,
	}
}

// chaosPolicy gives the resilient wrappers enough attempt budget to mask
// the schedule above, with backoff short enough for test time.
func chaosPolicy() resilience.Policy {
	return resilience.Policy{
		MaxAttempts:       8,
		PerAttemptTimeout: 5 * time.Second,
		BaseBackoff:       time.Millisecond,
		MaxBackoff:        25 * time.Millisecond,
	}
}

// reliableSession is a self-healing session: the retry policy over a
// one-connection pool that re-dials through dial. The pool is closed
// when the test ends.
func reliableSession(t *testing.T, dial func() (*client.Remote, error), pol resilience.Policy, counters *metrics.Counters) *resilience.API {
	t.Helper()
	p, err := client.NewPoolDial(dial, 1, counters)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return &resilience.API{Inner: p, Policy: pol}
}

// TestChaosReliable: one self-healing session over a fault-injected
// transport must serve byte-identical answers through resets, torn
// frames and latency spikes.
func TestChaosReliable(t *testing.T) {
	f := apitest.NewFixture(t, ring.MustFp(257))
	addr := startFixtureDaemon(t, f)
	d := newChaosDialer(addr, chaosFaultCfg(1))
	rc := reliableSession(t, d.dial, chaosPolicy(), &metrics.Counters{})

	apitest.Chaos(t, f, rc, 30)
	requireFaults(t, d)
}

// TestChaosReliableDroppedFrames: the silently-dropped-write fault is the
// one only per-attempt timeouts catch — the caller's write "succeeds",
// the server never answers. The session must time the attempt out,
// retry and still produce byte-identical answers.
func TestChaosReliableDroppedFrames(t *testing.T) {
	f := apitest.NewFixture(t, ring.MustIntQuotient(1, 0, 1))
	addr := startFixtureDaemon(t, f)
	d := newChaosDialer(addr, faultconn.Config{Seed: 2, DropEvery: 8})
	pol := chaosPolicy()
	// A dropped frame costs a full attempt timeout and can force a
	// re-dial that itself eats stalled handshakes, so the budget here is
	// deliberately generous — the race detector triples every cost.
	pol.MaxAttempts = 20
	pol.PerAttemptTimeout = 500 * time.Millisecond
	counters := &metrics.Counters{}
	rc := reliableSession(t, d.dial, pol, counters)

	apitest.Chaos(t, f, rc, 8)
	requireFaults(t, d)
	if retries := counters.Snapshot().Retries; retries < 1 {
		t.Errorf("retries = %d, want >= 1 (dropped frames must be timed out and retried)", retries)
	}
}

// TestChaosPool: a pool whose members keep dying to injected faults must
// eject, re-dial and fail over without changing a single answer. The
// resilience.API wrapper absorbs the window where every member is down at
// once (ErrNoHealthyMembers, transient, while the probes re-dial).
func TestChaosPool(t *testing.T) {
	f := apitest.NewFixture(t, ring.MustFp(257))
	addr := startFixtureDaemon(t, f)
	d := newChaosDialer(addr, chaosFaultCfg(3))
	counters := &metrics.Counters{}
	p, err := client.NewPoolDial(d.dial, 3, counters)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	pol := chaosPolicy()
	pol.MaxAttempts = 10
	api := &resilience.API{Inner: p, Policy: pol}

	apitest.Chaos(t, f, api, 24)
	requireFaults(t, d)
}

// TestChaosMultiServerHedged: a hedged 2-of-3 deployment where every
// member sits behind its own faulty transport — hedging, failover spares
// and per-member re-dials must compose into byte-identical combined
// answers.
func TestChaosMultiServerHedged(t *testing.T) {
	f := apitest.NewFixture(t, ring.MustFp(257))
	fp := f.Ring.(*ring.FpCyclotomic)
	const k, n = 2, 3
	shares, err := sharing.MultiSplit(f.Encoded, f.Seed, k, n, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	counters := &metrics.Counters{}
	members := make([]core.MultiMember, n)
	dialers := make([]*chaosDialer, n)
	for i, s := range shares {
		local, err := server.NewLocal(fp, s.Tree)
		if err != nil {
			t.Fatal(err)
		}
		addr := startDaemon(t, local)
		dialers[i] = newChaosDialer(addr, chaosFaultCfg(int64(10+i)))
		members[i] = core.MultiMember{X: s.X, API: reliableSession(t, dialers[i].dial, chaosPolicy(), counters)}
	}
	ms, err := core.NewMultiServer(fp, k, members)
	if err != nil {
		t.Fatal(err)
	}
	ms.HedgeDelay = 5 * time.Millisecond
	ms.Counters = counters

	apitest.Chaos(t, f, ms, 15)
	requireFaults(t, dialers...)
}

// TestChaosReplicatedRouter: the replicated shard fabric — 2 shards, each
// a 2-of-3 MultiServer whose members are self-healing sessions over their
// own faulty transports to guarded member daemons. Spare members inside
// each shard plus re-dials inside each member must keep scatter/gather
// answers byte-identical.
func TestChaosReplicatedRouter(t *testing.T) {
	f := apitest.NewFixture(t, ring.MustFp(257))
	counters := &metrics.Counters{}
	var dialers []*chaosDialer
	router := replicatedFabric(t, f, func(s, j int, newGuard func() server.Store) core.ServerAPI {
		d := newChaosDialer(startDaemon(t, newGuard()), chaosFaultCfg(int64(100+10*s+j)))
		dialers = append(dialers, d)
		return reliableSession(t, d.dial, chaosPolicy(), counters)
	})

	apitest.Chaos(t, f, router, 15)
	requireFaults(t, dialers...)
}

// TestChaosBatcherCoalesce (named for the client-side micro-batcher that
// once sat in front of the session): a self-healing session into a
// coalescing daemon under fault injection. Requests whose carrier call
// dies to an injected fault must be retried without mixing answers.
func TestChaosBatcherCoalesce(t *testing.T) {
	f := apitest.NewFixture(t, ring.MustFp(257))
	addr := startDaemon(t, coalesce.New(f.Reference, nil))
	d := newChaosDialer(addr, chaosFaultCfg(4))
	rc := reliableSession(t, d.dial, chaosPolicy(), &metrics.Counters{})

	apitest.Chaos(t, f, rc, 15)
	requireFaults(t, d)
}

// startDaemon serves any store on a loopback listener, shut down via
// t.Cleanup.
func startDaemon(t *testing.T, store server.Store) string {
	t.Helper()
	d := server.NewDaemon(store, nil)
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
