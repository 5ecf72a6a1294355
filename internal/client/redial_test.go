package client_test

import (
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"sssearch/internal/client"
	"sssearch/internal/drbg"
	"sssearch/internal/metrics"
	"sssearch/internal/resilience"
	"sssearch/internal/ring"
	"sssearch/internal/workload"
)

// chaosProxy is a TCP forwarder the tests can sabotage: kill every live
// connection (simulating a crashed peer or cut network) or refuse new
// ones (simulating a server that is down). It gives black-box control
// over connection lifetime that reaching into client internals would not.
type chaosProxy struct {
	l net.Listener

	mu      sync.Mutex
	backend string
	conns   []net.Conn
	refuse  bool
	closed  bool
}

func startChaosProxy(t *testing.T, backend string) *chaosProxy {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &chaosProxy{l: l, backend: backend}
	go p.acceptLoop()
	t.Cleanup(func() {
		p.mu.Lock()
		p.closed = true
		p.mu.Unlock()
		l.Close()
		p.killAll()
	})
	return p
}

func (p *chaosProxy) addr() string { return p.l.Addr().String() }

func (p *chaosProxy) acceptLoop() {
	for {
		c, err := p.l.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		refuse, backend := p.refuse, p.backend
		p.mu.Unlock()
		if refuse {
			c.Close()
			continue
		}
		b, err := net.Dial("tcp", backend)
		if err != nil {
			c.Close()
			continue
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			c.Close()
			b.Close()
			return
		}
		p.conns = append(p.conns, c, b)
		p.mu.Unlock()
		go func() { io.Copy(b, c); b.Close(); c.Close() }()
		go func() { io.Copy(c, b); c.Close(); b.Close() }()
	}
}

// killAll hard-closes every proxied connection, both directions.
func (p *chaosProxy) killAll() {
	p.mu.Lock()
	conns := p.conns
	p.conns = nil
	p.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

func (p *chaosProxy) setRefuse(v bool) {
	p.mu.Lock()
	p.refuse = v
	p.mu.Unlock()
}

func (p *chaosProxy) setBackend(addr string) {
	p.mu.Lock()
	p.backend = addr
	p.mu.Unlock()
}

// testPolicy is generous enough for a 1-vCPU -race run: the point of
// these tests is state-machine behaviour, not tight timing.
func testPolicy() resilience.Policy {
	return resilience.Policy{
		MaxAttempts:       8,
		PerAttemptTimeout: 2 * time.Second,
		BaseBackoff:       2 * time.Millisecond,
		MaxBackoff:        50 * time.Millisecond,
	}
}

// reliableSession is a self-healing session to addr: the retry policy
// over a one-connection pool. It is closed when the test ends.
func reliableSession(t *testing.T, addr string, counters *metrics.Counters) (*resilience.API, *client.Pool) {
	t.Helper()
	pool, err := client.NewPoolDial(func() (*client.Remote, error) { return client.Dial(addr, counters) }, 1, counters)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pool.Close() })
	return &resilience.API{Inner: pool, Policy: testPolicy()}, pool
}

// TestReliableRedialMidSessionByteIdentity kills every connection midway
// through a query stream; the one-connection pool must re-dial in the
// background, the policy above it must retry the calls that fail
// meanwhile, and every answer — before, across, and after the break —
// must match the local reference exactly.
func TestReliableRedialMidSessionByteIdentity(t *testing.T) {
	w := buildWorld(t, workload.RandomTree(workload.TreeConfig{Nodes: 40, MaxFanout: 3, Vocab: 8, Seed: 29}))
	p := startChaosProxy(t, w.addr)
	var counters metrics.Counters
	rc, _ := reliableSession(t, p.addr(), &counters)

	points := pts(3)
	const calls = 30
	for i := 0; i < calls; i++ {
		if i == calls/2 {
			p.killAll() // the mid-session break
		}
		key := w.keys[i%len(w.keys)]
		got, err := rc.EvalNodes([]drbg.NodeKey{key}, points)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		want, err := w.local.EvalNodes([]drbg.NodeKey{key}, points)
		if err != nil {
			t.Fatal(err)
		}
		if got[0].Len() != want[0].Len() {
			t.Fatalf("call %d: %d values, want %d", i, got[0].Len(), want[0].Len())
		}
		for j := range want[0].Values() {
			if got[0].Values()[j].Cmp(want[0].Values()[j]) != 0 {
				t.Fatalf("call %d: value %d diverged across re-dial", i, j)
			}
		}
	}
	got := counters.Snapshot()
	if got.MembersEjected < 1 {
		t.Errorf("membersEjected = %d, want >= 1 after a killed connection", got.MembersEjected)
	}
	if got.Redials < 1 {
		t.Errorf("redials = %d, want >= 1", got.Redials)
	}
}

// TestReliableRejectsChangedServer: if a re-dial reaches a server with
// different ring parameters, resuming would silently change answer
// semantics — the pool must fail permanently instead, with an error no
// retry policy retries.
func TestReliableRejectsChangedServer(t *testing.T) {
	doc := workload.RandomTree(workload.TreeConfig{Nodes: 20, MaxFanout: 3, Vocab: 6, Seed: 31})
	w1 := buildWorldRing(t, doc, ring.MustIntQuotient(1, 0, 1))
	w2 := buildWorldRing(t, doc, ring.MustFp(257))
	p := startChaosProxy(t, w1.addr)

	rc, pool := reliableSession(t, p.addr(), nil)
	if _, err := rc.EvalNodes(w1.keys[:1], pts(2)); err != nil {
		t.Fatalf("healthy call failed: %v", err)
	}

	p.setBackend(w2.addr) // the address now serves a different store
	p.killAll()

	deadline := time.Now().Add(5 * time.Second)
	var err error
	for {
		_, err = rc.EvalNodes(w1.keys[:1], pts(2))
		if (err != nil && !resilience.Retryable(err)) || time.Now().After(deadline) {
			break
		}
	}
	if err == nil || resilience.Retryable(err) {
		t.Fatalf("calls against a server with different parameters ended with %v, want a permanent error", err)
	}
	if !strings.Contains(err.Error(), "different ring parameters") {
		t.Errorf("error %q does not name the parameter change", err)
	}
	// The failure must be permanent: an immediate second call fails the
	// same way without spinning through dial attempts, and the member is
	// never readmitted.
	start := time.Now()
	if _, err := rc.EvalNodes(w1.keys[:1], pts(2)); err == nil {
		t.Fatal("call succeeded after a parameter mismatch")
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("post-mismatch call took %v, want fast terminal failure", d)
	}
	if pool.Healthy() != 0 {
		t.Errorf("healthy = %d, want the changed server's session never readmitted", pool.Healthy())
	}
}

// TestPoolEjectsAndReadmits: killing every pooled connection must not
// take the pool down for good — members are ejected, background re-dials
// probe the server, and the pool heals back to full strength.
func TestPoolEjectsAndReadmits(t *testing.T) {
	w := buildWorld(t, workload.RandomTree(workload.TreeConfig{Nodes: 30, MaxFanout: 3, Vocab: 8, Seed: 37}))
	p := startChaosProxy(t, w.addr)
	var counters metrics.Counters
	pool, err := client.DialPool(p.addr(), 3, &counters)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	points := pts(2)
	if _, err := pool.EvalNodes(w.keys[:1], points); err != nil {
		t.Fatalf("healthy pool call failed: %v", err)
	}

	p.killAll()

	// The pool must keep serving (after at most a short healing window)
	// and eventually return to full strength.
	deadline := time.Now().Add(10 * time.Second)
	served := false
	for time.Now().Before(deadline) {
		got, err := pool.EvalNodes(w.keys[:1], points)
		if err == nil {
			served = true
			want, werr := w.local.EvalNodes(w.keys[:1], points)
			if werr != nil {
				t.Fatal(werr)
			}
			for j := range want[0].Values() {
				if got[0].Values()[j].Cmp(want[0].Values()[j]) != 0 {
					t.Fatal("post-failover answer diverged from reference")
				}
			}
			if pool.Healthy() == pool.Size() {
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !served {
		t.Fatal("pool never served again after connections were killed")
	}
	if pool.Healthy() != pool.Size() {
		t.Errorf("healthy = %d, want %d after readmission", pool.Healthy(), pool.Size())
	}
	snap := counters.Snapshot()
	if snap.MembersEjected < 1 {
		t.Errorf("membersEjected = %d, want >= 1", snap.MembersEjected)
	}
	if snap.Redials < 1 {
		t.Errorf("redials = %d, want >= 1", snap.Redials)
	}
}

// TestPoolAllDownReturnsErrNoHealthyMembers: with the server unreachable
// the pool must fail with the typed, retryable error instead of spinning,
// and must readmit members once the server is back.
func TestPoolAllDownReturnsErrNoHealthyMembers(t *testing.T) {
	w := buildWorld(t, workload.RandomTree(workload.TreeConfig{Nodes: 20, MaxFanout: 3, Vocab: 6, Seed: 41}))
	p := startChaosProxy(t, w.addr)
	pool, err := client.DialPool(p.addr(), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	p.setRefuse(true)
	p.killAll()

	deadline := time.Now().Add(5 * time.Second)
	var lastErr error
	for time.Now().Before(deadline) {
		_, lastErr = pool.EvalNodes(w.keys[:1], pts(2))
		if errors.Is(lastErr, client.ErrNoHealthyMembers) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !errors.Is(lastErr, client.ErrNoHealthyMembers) {
		t.Fatalf("fully-down pool error = %v, want ErrNoHealthyMembers", lastErr)
	}
	if !resilience.Retryable(lastErr) {
		t.Errorf("ErrNoHealthyMembers is not retryable: a policy above the pool would give up mid-re-dial")
	}

	p.setRefuse(false) // server back: probes must readmit members
	deadline = time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := pool.EvalNodes(w.keys[:1], pts(2)); err == nil {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("pool never recovered after the server came back")
}
