package client

import (
	"bytes"
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
	"sssearch/internal/wire"
)

// ErrNoHealthyMembers is returned when every pooled connection has been
// ejected and none has been readmitted yet. Callers distinguish "the pool
// is down" (back off, re-resolve, alert) from a single call failing. It
// wraps resilience.ErrTransient: the background re-dials are healing the
// pool, and a one-connection pool is in this state for the whole of every
// re-dial, so a retry policy above the pool retries it.
var ErrNoHealthyMembers = fmt.Errorf("client: no healthy pool members: %w", resilience.ErrTransient)

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
// re-dials it at once and then with capped backoff, and readmits it on
// success, and a call that finds its member down fails over to the next
// healthy one. A call that finds every member down waits for the end of
// one re-dial attempt, then fails with ErrNoHealthyMembers if that did
// not heal the pool, instead of spinning over dead connections. Pools
// built with NewPool (no dialer) still eject, but ejection is permanent —
// a Remote never heals itself.
//
// An overload shed passes straight through: every member targets the
// same daemon, so failing over would only hit the same full admission
// queue. Backing off, and a circuit breaker, are the retry policy's job.
//
// A self-healing session is a one-connection pool under a retry policy,
// &resilience.API{Inner: pool, Policy: pol}: the pool re-dials a broken
// connection and the policy retries the calls that failed meanwhile.
// Retrying is answer-preserving because every request is an idempotent
// read of an immutable share tree.
//
// A re-dialed session must announce the ring parameters the pool pinned
// at its first handshake. One that announces others is never readmitted:
// the address now serves a different store, and resuming would silently
// change answer semantics, so from then on every call fails with a
// permanent error that no retry policy retries.
type Pool struct {
	members []*poolMember
	next    atomic.Uint64

	dial     func() (*Remote, error) // nil: no re-dial/readmit (NewPool)
	counters *metrics.Counters
	params   ring.Params // pinned at the first handshake

	// changed, once set, is the permanent error of a re-dial that reached
	// a server announcing other ring parameters.
	changed atomic.Pointer[error]

	mu     sync.Mutex
	closed bool
	done   chan struct{} // closed by Close: stops probe goroutines
	round  chan struct{} // closed, and replaced, as each re-dial attempt ends
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
		round:    make(chan struct{}),
	}
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

// sameParams reports whether r announced the pool's pinned parameters,
// byte for byte.
func (p *Pool) sameParams(r *Remote) bool {
	want, err1 := p.params.MarshalBinary()
	got, err2 := r.Params().MarshalBinary()
	return err1 == nil && err2 == nil && bytes.Equal(got, want)
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

// redialMember dials at once and then with capped backoff until a fresh
// session succeeds, then readmits the member. Runs once per ejection. A
// session announcing other ring parameters is closed and the member
// stays out for good: the pool fails permanently instead. Every attempt
// ends a round, waking the calls that wait for a member.
func (p *Pool) redialMember(m *poolMember) {
	var pol resilience.Policy // zero value: default backoff curve
	for attempt := 1; ; attempt++ {
		r, err := p.dial()
		// The new session is installed under p.mu: a Close after the
		// closed check would otherwise close the member's old Remote and
		// never this one. Lock order p.mu → m.mu; nothing holds m.mu and
		// then takes p.mu.
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			if err == nil {
				r.Close()
			}
			return
		}
		healed := err == nil && p.sameParams(r)
		if healed {
			m.mu.Lock()
			m.r, m.fails, m.dead, m.redialing = r, 0, false, false
			m.mu.Unlock()
		} else if err == nil {
			perm := fmt.Errorf("client: re-dialed server announces different ring parameters (have %v)", p.params)
			p.changed.Store(&perm)
		}
		close(p.round)
		p.round = make(chan struct{})
		p.mu.Unlock()
		if healed {
			p.counters.AddRedials(1)
			return
		}
		if err == nil {
			r.Close()
			return
		}
		select {
		case <-p.done:
			return
		case <-time.After(pol.Backoff(attempt)):
		}
	}
}

// await picks a member for a call that found none: when a re-dial is
// under way it waits, under ctx, for the end of one attempt and picks
// again. A one-connection pool is without a member for the whole of
// every re-dial, and a call that waits it out spends no retry attempt.
func (p *Pool) await(ctx context.Context) (*poolMember, error) {
	p.mu.Lock()
	round := p.round
	p.mu.Unlock()
	// Picking after taking the round cannot miss the attempt that heals.
	if m, err := p.pick(); err == nil || p.dial == nil {
		return m, err
	}
	select {
	case <-round:
	case <-ctx.Done():
		return nil, fmt.Errorf("%w (%w)", ErrNoHealthyMembers, ctx.Err())
	case <-p.done:
		return nil, ErrClosed
	}
	if perm := p.changed.Load(); perm != nil {
		return nil, *perm
	}
	return p.pick()
}

// transportFault classifies call failures for member failover: a
// RemoteError is the server's answer (terminal), while a closed,
// corrupted, reset or stalled session is transport-class — the request
// never produced an answer, so replaying it on another connection cannot
// change semantics. Checksum and magic mismatches count as transport
// faults because the byte stream is no longer trustworthy and only a
// fresh connection can resynchronise it.
func transportFault(err error) bool {
	var re *wire.RemoteError
	if errors.As(err, &re) {
		return false
	}
	if errors.Is(err, ErrClosed) {
		return true
	}
	if errors.Is(err, wire.ErrChecksum) || errors.Is(err, wire.ErrBadMagic) {
		return true
	}
	return resilience.Retryable(err)
}

// poolCall runs one call with member failover: a transport-class failure
// records against the member and the call moves to the next healthy one;
// a semantic error (the server's answer) returns immediately, and so
// does an overload shed, without ejecting the member (the connection is
// healthy; the daemon is busy). A call that starts with every member
// down waits for one re-dial attempt (await). Visiting every member
// without success surfaces the last transport error, marked
// resilience.ErrTransient: every error on that path passed
// transportFault, which accepts faults (ErrClosed, a checksum or magic
// mismatch) that resilience.Retryable alone does not know, so the
// exhaustion must stay retryable for a policy above the pool.
func poolCall[T any](ctx context.Context, p *Pool, call func(r *Remote) (T, error)) (T, error) {
	var zero T
	if perm := p.changed.Load(); perm != nil {
		return zero, *perm
	}
	var lastErr error
	for attempt := 0; attempt < len(p.members); attempt++ {
		m, err := p.pick()
		if err != nil && lastErr == nil {
			m, err = p.await(ctx)
		}
		if err != nil {
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
			return v, nil
		}
		if resilience.Overloaded(err) || !transportFault(err) {
			return zero, err
		}
		p.recordFailure(m)
		lastErr = err
		p.counters.AddRetries(1)
	}
	return zero, fmt.Errorf("client: pool members exhausted: %w (%w)", lastErr, resilience.ErrTransient)
}

// EvalNodesCtx is EvalNodes with context cancellation.
func (p *Pool) EvalNodesCtx(ctx context.Context, keys []drbg.NodeKey, points []*big.Int) ([]core.NodeEval, error) {
	return poolCall(ctx, p, func(r *Remote) ([]core.NodeEval, error) {
		return r.EvalNodesCtx(ctx, keys, points)
	})
}

// FetchPolysCtx is FetchPolys with context cancellation.
func (p *Pool) FetchPolysCtx(ctx context.Context, keys []drbg.NodeKey) ([]core.NodePoly, error) {
	return poolCall(ctx, p, func(r *Remote) ([]core.NodePoly, error) {
		return r.FetchPolysCtx(ctx, keys)
	})
}

// EvalNodes implements core.ServerAPI.
func (p *Pool) EvalNodes(keys []drbg.NodeKey, points []*big.Int) ([]core.NodeEval, error) {
	return p.EvalNodesCtx(context.Background(), keys, points)
}

// FetchPolys implements core.ServerAPI.
func (p *Pool) FetchPolys(keys []drbg.NodeKey) ([]core.NodePoly, error) {
	return p.FetchPolysCtx(context.Background(), keys)
}

// Prune implements core.ServerAPI; kept only until the benchmark's tap
// stops forwarding it.
func (p *Pool) Prune([]drbg.NodeKey) error { return nil }

var _ core.ServerAPI = (*Pool)(nil)
