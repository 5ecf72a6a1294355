package client

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"sync"
	"sync/atomic"
	"time"

	"sssearch/internal/core"
	"sssearch/internal/drbg"
	"sssearch/internal/metrics"
	"sssearch/internal/resilience"
	"sssearch/internal/ring"
)

// ErrNoHealthyMembers is returned when every pooled connection has been
// ejected and none has been readmitted yet. Callers distinguish "the pool
// is down" (back off, re-resolve, alert) from a single call failing.
var ErrNoHealthyMembers = errors.New("client: no healthy pool members")

// poolFailThreshold is how many consecutive transport failures eject a
// member. One flaky frame should not take a connection out of rotation;
// a connection that fails repeatedly is not coming back on its own.
const poolFailThreshold = 3

// poolMember is one pooled connection plus its health record.
type poolMember struct {
	mu        sync.Mutex
	r         *Remote
	fails     int  // consecutive transport failures
	dead      bool // ejected from rotation
	redialing bool // background probe/re-dial in flight
}

// Pool is a fixed-size pool of Remote sessions to one share server,
// spreading calls round-robin so concurrent queries are not serialised
// behind a single connection (even a pipelined one: separate connections
// sidestep head-of-line blocking in the kernel send queue). It implements
// core.ServerAPI and the same context/async call surface as Remote.
//
// Each member carries a health record: consecutive transport failures (or
// an observed broken session) eject it from rotation, a background probe
// re-dials it with capped backoff and readmits it on success, and a call
// that finds its member down fails over to the next healthy one. When
// every member is down calls fail with ErrNoHealthyMembers instead of
// spinning over dead connections. Pools built with NewPool (no dialer)
// still eject, but ejection is permanent — a Remote never heals itself.
type Pool struct {
	members []*poolMember
	next    atomic.Uint64

	dial     func() (*Remote, error) // nil: no re-dial/readmit (NewPool)
	counters *metrics.Counters
	params   ring.Params

	// breaker is shared across the whole pool: every member dials the
	// same daemon, so consecutive overload sheds — regardless of which
	// connection carried them — trip one circuit and calls fail fast
	// until the cooldown probe finds the daemon accepting again.
	breaker *resilience.Breaker

	mu     sync.Mutex
	closed bool
	done   chan struct{} // closed by Close: stops probe goroutines
}

// DialPool opens size connections to addr (all sharing counters, which
// may be nil). size < 1 is treated as 1. Members that later fail are
// re-dialed and readmitted automatically.
func DialPool(addr string, size int, counters *metrics.Counters) (*Pool, error) {
	if counters == nil {
		counters = &metrics.Counters{}
	}
	c := counters
	return NewPoolDial(func() (*Remote, error) { return Dial(addr, c) }, size, counters)
}

// NewPoolDial opens size connections via dial and keeps using it to
// re-dial and readmit members that fail later — the hook for custom
// transports (TLS wrappers, fault injection in tests). size < 1 is
// treated as 1; counters may be nil.
func NewPoolDial(dial func() (*Remote, error), size int, counters *metrics.Counters) (*Pool, error) {
	if size < 1 {
		size = 1
	}
	if counters == nil {
		counters = &metrics.Counters{}
	}
	p := &Pool{
		members:  make([]*poolMember, 0, size),
		dial:     dial,
		counters: counters,
		done:     make(chan struct{}),
	}
	p.breaker = &resilience.Breaker{OnTrip: func() { p.counters.AddBreakerTrips(1) }}
	for i := 0; i < size; i++ {
		r, err := dial()
		if err != nil {
			p.Close()
			return nil, fmt.Errorf("client: pool connection %d: %w", i, err)
		}
		p.members = append(p.members, &poolMember{r: r})
	}
	p.params = p.members[0].r.Params()
	return p, nil
}

// NewPool wraps existing sessions (at least one, all non-nil) as a pool.
// Without a dial function, ejected members cannot be readmitted.
func NewPool(remotes []*Remote) (*Pool, error) {
	if len(remotes) == 0 {
		return nil, errors.New("client: empty pool")
	}
	p := &Pool{
		members:  make([]*poolMember, 0, len(remotes)),
		counters: &metrics.Counters{},
		done:     make(chan struct{}),
	}
	p.breaker = &resilience.Breaker{OnTrip: func() { p.counters.AddBreakerTrips(1) }}
	for i, r := range remotes {
		if r == nil {
			return nil, fmt.Errorf("client: nil remote at pool slot %d", i)
		}
		p.members = append(p.members, &poolMember{r: r})
	}
	p.params = remotes[0].Params()
	return p, nil
}

// Size returns the number of pooled connections.
func (p *Pool) Size() int { return len(p.members) }

// Healthy returns how many members are currently in rotation.
func (p *Pool) Healthy() int {
	n := 0
	for _, m := range p.members {
		m.mu.Lock()
		if !m.dead {
			n++
		}
		m.mu.Unlock()
	}
	return n
}

// Params returns the ring parameters announced by the server.
func (p *Pool) Params() ring.Params { return p.params }

// Breaker exposes the pool-wide circuit breaker (for health inspection
// and tests).
func (p *Pool) Breaker() *resilience.Breaker { return p.breaker }

// Ring reconstructs the ring from the announced parameters.
func (p *Pool) Ring() (ring.Ring, error) { return ring.FromParams(p.params) }

// Close closes every pooled connection, returning the first error.
func (p *Pool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	close(p.done)
	p.mu.Unlock()
	var first error
	for _, m := range p.members {
		m.mu.Lock()
		r := m.r
		m.mu.Unlock()
		if r == nil {
			continue
		}
		if err := r.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// pick returns the next healthy member round-robin, lazily ejecting
// members whose session broke since their last use. The modulo runs in
// uint64 before any int conversion: converting the raw counter first
// would go negative once it exceeds MaxInt, indexing out of range.
func (p *Pool) pick() (*poolMember, error) {
	n := uint64(len(p.members))
	start := p.next.Add(1) - 1
	for i := uint64(0); i < n; i++ {
		m := p.members[(start+i)%n]
		m.mu.Lock()
		if m.dead {
			m.mu.Unlock()
			continue
		}
		if m.r.Broken() {
			p.ejectLocked(m)
			m.mu.Unlock()
			continue
		}
		m.mu.Unlock()
		return m, nil
	}
	return nil, ErrNoHealthyMembers
}

// ejectLocked (m.mu held) takes a member out of rotation and, when the
// pool can dial, starts the background probe/re-dial that will readmit it.
func (p *Pool) ejectLocked(m *poolMember) {
	m.dead = true
	p.counters.AddMembersEjected(1)
	r := m.r
	go r.Close()
	if p.dial != nil && !m.redialing {
		m.redialing = true
		go p.redialMember(m)
	}
}

// recordFailure notes a transport failure; the threshold (or an already
// broken session) ejects the member.
func (p *Pool) recordFailure(m *poolMember) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dead {
		return
	}
	m.fails++
	if m.fails >= poolFailThreshold || m.r.Broken() {
		p.ejectLocked(m)
	}
}

func (p *Pool) recordSuccess(m *poolMember) {
	m.mu.Lock()
	m.fails = 0
	m.mu.Unlock()
}

// redialMember probes the server with capped backoff until a fresh
// session succeeds, then readmits the member. Runs once per ejection.
func (p *Pool) redialMember(m *poolMember) {
	var pol resilience.Policy // zero value: default backoff curve
	for attempt := 1; ; attempt++ {
		select {
		case <-p.done:
			return
		case <-time.After(pol.Backoff(attempt)):
		}
		r, err := p.dial()
		if err != nil {
			continue
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			r.Close()
			return
		}
		p.mu.Unlock()
		m.mu.Lock()
		m.r = r
		m.fails = 0
		m.dead = false
		m.redialing = false
		m.mu.Unlock()
		p.counters.AddRedials(1)
		return
	}
}

// poolCall runs one call with member failover: a transport-class failure
// records against the member and the call moves to the next healthy one;
// a semantic error (the server's answer) returns immediately. An
// overload shed also returns immediately — every member targets the same
// daemon, so failing over to a sibling connection would only hit the
// same full admission queue — without ejecting the member (the
// connection is healthy; the daemon is busy). Consecutive sheds trip the
// pool-wide breaker and subsequent calls fail fast until the cooldown
// probe. Visiting every member without success surfaces the last
// transport error, marked resilience.ErrTransient: every error on that
// path passed transportFault, which accepts faults (ErrClosed, a checksum
// or magic mismatch) that resilience.Retryable alone does not know, so the
// exhaustion must stay retryable for a policy above the pool.
func poolCall[T any](p *Pool, call func(r *Remote) (T, error)) (T, error) {
	var zero T
	if !p.breaker.Allow() {
		return zero, resilience.ErrBreakerOpen
	}
	var lastErr error
	for attempt := 0; attempt < len(p.members); attempt++ {
		m, err := p.pick()
		if err != nil {
			p.breaker.Record(err)
			if lastErr != nil {
				return zero, fmt.Errorf("%w (last transport error: %v)", err, lastErr)
			}
			return zero, err
		}
		m.mu.Lock()
		r := m.r
		m.mu.Unlock()
		v, err := call(r)
		if err == nil {
			p.recordSuccess(m)
			p.breaker.Record(nil)
			return v, nil
		}
		if resilience.Overloaded(err) {
			p.breaker.Record(err)
			return zero, err
		}
		if !transportFault(err) {
			p.breaker.Record(err)
			return zero, err
		}
		p.recordFailure(m)
		lastErr = err
		p.counters.AddRetries(1)
	}
	p.breaker.Record(lastErr)
	return zero, fmt.Errorf("client: pool members exhausted: %w (%w)", lastErr, resilience.ErrTransient)
}

// EvalNodesCtx is EvalNodes with context cancellation.
func (p *Pool) EvalNodesCtx(ctx context.Context, keys []drbg.NodeKey, points []*big.Int) ([]core.NodeEval, error) {
	return poolCall(p, func(r *Remote) ([]core.NodeEval, error) {
		return r.EvalNodesCtx(ctx, keys, points)
	})
}

// FetchPolysCtx is FetchPolys with context cancellation.
func (p *Pool) FetchPolysCtx(ctx context.Context, keys []drbg.NodeKey) ([]core.NodePoly, error) {
	return poolCall(p, func(r *Remote) ([]core.NodePoly, error) {
		return r.FetchPolysCtx(ctx, keys)
	})
}

// PruneCtx is Prune with context cancellation.
func (p *Pool) PruneCtx(ctx context.Context, keys []drbg.NodeKey) error {
	_, err := poolCall(p, func(r *Remote) (struct{}, error) {
		return struct{}{}, r.PruneCtx(ctx, keys)
	})
	return err
}

// EvalNodes implements core.ServerAPI.
func (p *Pool) EvalNodes(keys []drbg.NodeKey, points []*big.Int) ([]core.NodeEval, error) {
	return p.EvalNodesCtx(context.Background(), keys, points)
}

// FetchPolys implements core.ServerAPI.
func (p *Pool) FetchPolys(keys []drbg.NodeKey) ([]core.NodePoly, error) {
	return p.FetchPolysCtx(context.Background(), keys)
}

// Prune implements core.ServerAPI.
func (p *Pool) Prune(keys []drbg.NodeKey) error {
	return p.PruneCtx(context.Background(), keys)
}

// EvalNodesAsync issues an EvalNodes request without waiting; failover
// applies as in the synchronous calls.
func (p *Pool) EvalNodesAsync(ctx context.Context, keys []drbg.NodeKey, points []*big.Int) <-chan EvalResult {
	ch := make(chan EvalResult, 1)
	go func() {
		answers, err := p.EvalNodesCtx(ctx, keys, points)
		ch <- EvalResult{Answers: answers, Err: err}
	}()
	return ch
}

var _ core.ServerAPI = (*Pool)(nil)
