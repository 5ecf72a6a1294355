package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/big"
	"sync"
	"time"

	"sssearch/internal/core"
	"sssearch/internal/drbg"
	"sssearch/internal/metrics"
	"sssearch/internal/resilience"
	"sssearch/internal/ring"
	"sssearch/internal/wire"
)

// Reliable is a self-healing protocol session: it wraps a dial function
// and the current *Remote behind a broken-connection state machine. When
// the session breaks — reset, stall past the per-attempt timeout, server
// GOAWAY — the failed call is retried under the resilience Policy while a
// single background goroutine re-dials (with capped backoff) and resumes
// the session; concurrent calls piggyback on the one re-dial. Semantic
// errors (server ErrorMsg replies: unknown keys, foreign shard keys)
// never trigger a retry or a re-dial.
//
// Retrying is answer-preserving because every ServerAPI request is
// idempotent: EvalNodes and FetchPolys read an immutable share tree, so
// replaying a request that may or may not have executed cannot change any
// answer.
//
// Session resume: the handshake carries only the protocol version and
// the public ring parameters, so a re-dialed session verifies the
// announced parameters are byte-identical to the original's and is then
// a perfect substitute. A parameter mismatch (the address now serves a
// different store) is a permanent failure, not a retry loop.
//
// Safe for concurrent use; calls in flight across a break fail over to
// the re-dialed session transparently.
type Reliable struct {
	dial     func() (*Remote, error)
	policy   resilience.Policy
	counters *metrics.Counters

	mu        sync.Mutex
	cur       *Remote
	gen       uint64 // bumps on every successful re-dial
	dialing   bool
	dialCh    chan struct{} // closed at the end of each dial round
	lastDial  error         // outcome of the last failed dial round
	permErr   error         // terminal state (parameter mismatch)
	closed    bool
	params    ring.Params
	paramsBin []byte

	done chan struct{} // closed by Close: stops the re-dial loop and waiters
}

// DialReliable connects to addr with automatic re-dial under the policy.
// counters may be nil.
func DialReliable(addr string, policy resilience.Policy, counters *metrics.Counters) (*Reliable, error) {
	if counters == nil {
		counters = &metrics.Counters{}
	}
	c := counters
	return NewReliable(func() (*Remote, error) { return Dial(addr, c) }, policy, counters)
}

// NewReliable wraps a dial function (which must produce a fresh handshaken
// session per call) with the retry/re-dial state machine. The initial dial
// runs synchronously so construction fails fast and the ring parameters
// are known. counters may be nil.
func NewReliable(dial func() (*Remote, error), policy resilience.Policy, counters *metrics.Counters) (*Reliable, error) {
	if dial == nil {
		return nil, errors.New("client: nil dial function")
	}
	if counters == nil {
		counters = &metrics.Counters{}
	}
	rc := &Reliable{dial: dial, counters: counters, done: make(chan struct{})}
	policy.Retryable = rc.retryable
	userOnRetry := policy.OnRetry
	policy.OnRetry = func(attempt int, err error) {
		counters.AddRetries(1)
		if userOnRetry != nil {
			userOnRetry(attempt, err)
		}
	}
	// Per-target circuit breaker: consecutive overload sheds from this
	// server trip it open, and while open calls fail fast instead of
	// hammering a daemon that is already drowning. Transport faults and
	// semantic errors never feed it, so it is inert unless the server
	// actually sheds.
	if policy.Breaker == nil {
		policy.Breaker = &resilience.Breaker{}
	}
	userOnTrip := policy.Breaker.OnTrip
	policy.Breaker.OnTrip = func() {
		counters.AddBreakerTrips(1)
		if userOnTrip != nil {
			userOnTrip()
		}
	}
	rc.policy = policy
	r, err := dial()
	if err != nil {
		return nil, err
	}
	pb, err := r.Params().MarshalBinary()
	if err != nil {
		r.Close()
		return nil, fmt.Errorf("client: pinning session parameters: %w", err)
	}
	rc.cur, rc.gen = r, 1
	rc.params, rc.paramsBin = r.Params(), pb
	return rc, nil
}

// Params returns the ring parameters pinned at the first handshake.
func (rc *Reliable) Params() ring.Params { return rc.params }

// Ring reconstructs the ring from the pinned parameters.
func (rc *Reliable) Ring() (ring.Ring, error) { return ring.FromParams(rc.params) }

// Generation returns the current connection generation: 1 after the
// initial dial, incremented by every successful re-dial.
func (rc *Reliable) Generation() uint64 {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.gen
}

// Close tears the session down; in-flight and future calls fail with
// ErrClosed and the background re-dial (if any) stops.
func (rc *Reliable) Close() error {
	rc.mu.Lock()
	if rc.closed {
		rc.mu.Unlock()
		return nil
	}
	rc.closed = true
	cur := rc.cur
	rc.cur = nil
	close(rc.done)
	rc.mu.Unlock()
	if cur != nil {
		return cur.Close()
	}
	return nil
}

// transportFault classifies call failures for retry and failover: a
// RemoteError is the server's answer (terminal), while a closed,
// corrupted, reset or stalled session is transport-class — the request
// never produced an answer, so replaying it on a fresh connection cannot
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

// retryable classifies for the retry policy: transport faults are
// retryable on a fresh connection, and so is an overload shed — the
// server did no work and said so — though a shed must never trigger a
// re-dial (the session is healthy; it is the daemon that is busy).
func (rc *Reliable) retryable(err error) bool {
	return transportFault(err) || resilience.Overloaded(err)
}

// Breaker exposes the per-target circuit breaker (for health inspection
// and tests).
func (rc *Reliable) Breaker() *resilience.Breaker { return rc.policy.Breaker }

// session returns a healthy Remote, waiting (under ctx) for at most one
// re-dial round when the session is down. A failed dial round surfaces
// its error so the caller's retry policy owns the backoff between rounds.
func (rc *Reliable) session(ctx context.Context) (*Remote, uint64, error) {
	rc.mu.Lock()
	if rc.closed {
		rc.mu.Unlock()
		return nil, 0, ErrClosed
	}
	if rc.permErr != nil {
		err := rc.permErr
		rc.mu.Unlock()
		return nil, 0, err
	}
	if rc.cur != nil && !rc.cur.Broken() {
		r, gen := rc.cur, rc.gen
		rc.mu.Unlock()
		return r, gen, nil
	}
	if rc.cur != nil {
		old := rc.cur
		rc.cur = nil
		go old.Close()
	}
	if !rc.dialing {
		rc.dialing = true
		rc.dialCh = make(chan struct{})
		go rc.redial()
	}
	ch := rc.dialCh
	rc.mu.Unlock()

	select {
	case <-ctx.Done():
		return nil, 0, ctx.Err()
	case <-rc.done:
		return nil, 0, ErrClosed
	case <-ch:
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	switch {
	case rc.closed:
		return nil, 0, ErrClosed
	case rc.permErr != nil:
		return nil, 0, rc.permErr
	case rc.cur != nil && !rc.cur.Broken():
		return rc.cur, rc.gen, nil
	case rc.lastDial != nil:
		return nil, 0, fmt.Errorf("client: redial: %w", rc.lastDial)
	default:
		return nil, 0, fmt.Errorf("client: redial in flight: %w", resilience.ErrTransient)
	}
}

// redial is the single background reconnection loop: it keeps dialing
// with the policy's capped backoff until it succeeds, the session is
// closed, or the server's identity changed. After each failed round the
// current waiters are released (with the error recorded) and a fresh
// round begins, so the session heals on its own even with no calls
// outstanding.
func (rc *Reliable) redial() {
	for attempt := 1; ; attempt++ {
		r, err := rc.dial()
		rc.mu.Lock()
		if rc.closed {
			rc.mu.Unlock()
			if err == nil {
				r.Close()
			}
			return
		}
		if err == nil {
			pb, merr := r.Params().MarshalBinary()
			if merr != nil || !bytes.Equal(pb, rc.paramsBin) {
				// The address answers with a different store: resuming
				// would silently change answer semantics. Fail permanently.
				rc.permErr = fmt.Errorf("client: re-dialed server announces different ring parameters (have %v)", rc.params)
				rc.dialing = false
				close(rc.dialCh)
				rc.mu.Unlock()
				r.Close()
				return
			}
			rc.cur = r
			rc.gen++
			rc.dialing = false
			rc.lastDial = nil
			rc.counters.AddRedials(1)
			close(rc.dialCh)
			rc.mu.Unlock()
			return
		}
		rc.lastDial = err
		ch := rc.dialCh
		rc.dialCh = make(chan struct{})
		rc.mu.Unlock()
		close(ch) // release this round's waiters with the error recorded
		select {
		case <-rc.done:
			return
		case <-time.After(rc.policy.Backoff(attempt)):
		}
	}
}

// invalidate drops the session of generation gen (if still current) and
// kicks off the background re-dial. Later generations are left alone — a
// stale failure must not kill the fresh connection.
func (rc *Reliable) invalidate(gen uint64) {
	rc.mu.Lock()
	if rc.closed || rc.gen != gen || rc.cur == nil {
		rc.mu.Unlock()
		return
	}
	old := rc.cur
	rc.cur = nil
	if !rc.dialing {
		rc.dialing = true
		rc.dialCh = make(chan struct{})
		go rc.redial()
	}
	rc.mu.Unlock()
	old.Close()
}

// reliableCall runs one logical request under the retry policy: each
// attempt acquires the current session, and a transport-class failure
// invalidates that session (triggering the background re-dial) before the
// next attempt.
func reliableCall[T any](rc *Reliable, ctx context.Context, fn func(ctx context.Context, r *Remote) (T, error)) (T, error) {
	return resilience.Do(ctx, rc.policy, func(actx context.Context) (T, error) {
		r, gen, err := rc.session(actx)
		if err != nil {
			var zero T
			return zero, err
		}
		v, err := fn(actx, r)
		// Only transport faults invalidate the session: an overload shed
		// arrived over a perfectly healthy connection, and re-dialing
		// would hit the shedding daemon with handshake work it is trying
		// to get rid of.
		if err != nil && transportFault(err) {
			rc.invalidate(gen)
		}
		return v, err
	})
}

// EvalNodesCtx is EvalNodes with context cancellation.
func (rc *Reliable) EvalNodesCtx(ctx context.Context, keys []drbg.NodeKey, points []*big.Int) ([]core.NodeEval, error) {
	return reliableCall(rc, ctx, func(actx context.Context, r *Remote) ([]core.NodeEval, error) {
		return r.EvalNodesCtx(actx, keys, points)
	})
}

// FetchPolysCtx is FetchPolys with context cancellation.
func (rc *Reliable) FetchPolysCtx(ctx context.Context, keys []drbg.NodeKey) ([]core.NodePoly, error) {
	return reliableCall(rc, ctx, func(actx context.Context, r *Remote) ([]core.NodePoly, error) {
		return r.FetchPolysCtx(actx, keys)
	})
}

// EvalNodes implements core.ServerAPI.
func (rc *Reliable) EvalNodes(keys []drbg.NodeKey, points []*big.Int) ([]core.NodeEval, error) {
	return rc.EvalNodesCtx(context.Background(), keys, points)
}

// FetchPolys implements core.ServerAPI.
func (rc *Reliable) FetchPolys(keys []drbg.NodeKey) ([]core.NodePoly, error) {
	return rc.FetchPolysCtx(context.Background(), keys)
}

// Prune implements core.ServerAPI; kept only until the benchmark's tap
// stops forwarding it.
func (rc *Reliable) Prune([]drbg.NodeKey) error { return nil }

var _ core.ServerAPI = (*Reliable)(nil)
