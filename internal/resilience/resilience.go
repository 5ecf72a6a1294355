// Package resilience is the shared fault-tolerance layer of the serving
// fabric: a retry Policy (per-attempt timeouts, bounded retries with
// exponential backoff and deterministic jitter), and an error
// classifier separating retryable transport faults (resets, timeouts,
// short reads, closed connections) from terminal semantic errors
// (server-side answers such as unknown keys or foreign shard keys,
// payload decode failures).
//
// The classifier is what keeps retries answer-preserving: EvalNodes and
// FetchPolys are pure reads over an immutable share tree, so re-issuing
// a request after a TRANSPORT fault can only reproduce the
// byte-identical answer — while a SEMANTIC error is
// the answer, and retrying it against the same or another honest server
// would only repeat it. Unknown errors default to terminal, so a retry
// can never paper over a real failure.
package resilience

import (
	"context"
	"errors"
	"io"
	"net"
	"os"
	"syscall"
	"time"
)

// ErrTransient marks an error as a retryable transport fault when wrapped
// with %w: packages whose failures the classifier cannot recognise
// structurally (injected faults, pool exhaustion while members re-dial)
// tag them instead of teaching this package their types.
var ErrTransient = errors.New("resilience: transient fault")

// Defaults for Policy zero fields.
const (
	DefaultMaxAttempts = 3
	DefaultBaseBackoff = 5 * time.Millisecond
	DefaultMaxBackoff  = 500 * time.Millisecond
)

// Policy bounds one logical operation's fault handling. The zero value is
// usable: 3 attempts, 5 ms base backoff doubling to a 500 ms cap, no
// per-attempt timeout.
type Policy struct {
	// MaxAttempts is the total number of tries including the first.
	// Zero selects DefaultMaxAttempts; 1 disables retries.
	MaxAttempts int

	// PerAttemptTimeout bounds each individual try (a child context
	// deadline). Zero leaves attempts bounded only by the caller's
	// context. A stalled server — dropped frame, hung daemon — is
	// indistinguishable from a slow one without this.
	PerAttemptTimeout time.Duration

	// BaseBackoff and MaxBackoff shape the exponential backoff between
	// attempts: sleep ~ min(MaxBackoff, BaseBackoff << attempt), scaled
	// by deterministic jitter in [0.5, 1.0]. Zeroes select the defaults.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration

	// Seed makes the jitter sequence deterministic; two Policies with
	// equal Seed back off identically. Zero is a valid seed.
	Seed int64

	// Retryable overrides the error classifier for Do. Nil selects
	// the package Retryable.
	Retryable func(error) bool

	// Breaker, when non-nil, is consulted before every attempt: while it
	// is open, Do fails fast with ErrBreakerOpen (still subject to the
	// retry budget, so a short open window can heal mid-operation), and
	// every attempt's outcome is recorded so consecutive overload sheds
	// trip it. Share one Breaker per target, not per call.
	Breaker *Breaker

	// OnRetry, when non-nil, is invoked before each re-attempt with the
	// upcoming attempt number (1-based) and the error being retried —
	// the metrics hook.
	OnRetry func(attempt int, err error)
}

// Retryable reports whether err is a transport-class fault that a retry
// (on a fresh connection or another replica) may cure without changing
// answer semantics. Unknown errors are terminal.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	// Caller cancellation is never retried; an expired attempt deadline is
	// (the parent context is checked separately by Do).
	if errors.Is(err, context.Canceled) {
		return false
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, os.ErrDeadlineExceeded) {
		return true
	}
	if errors.Is(err, ErrTransient) {
		return true
	}
	// Connection lifecycle faults: peer reset or vanished, local close,
	// mid-stream cut (EOF surfaced from a read that expected more).
	switch {
	case errors.Is(err, io.EOF),
		errors.Is(err, io.ErrUnexpectedEOF),
		errors.Is(err, io.ErrClosedPipe),
		errors.Is(err, net.ErrClosed),
		errors.Is(err, syscall.ECONNRESET),
		errors.Is(err, syscall.ECONNREFUSED),
		errors.Is(err, syscall.ECONNABORTED),
		errors.Is(err, syscall.EPIPE):
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) {
		// Any socket-layer error is transport-class; semantic failures
		// never arrive as net.Error.
		return true
	}
	// An error may carry its own verdict (wire.RemoteError with
	// CodeOverloaded: the server sheds before doing any work, so a retry
	// is explicitly answer-preserving). The hint can only widen the
	// retryable set for errors the structural rules above call terminal.
	var rh interface{ RetryableHint() bool }
	if errors.As(err, &rh) && rh.RetryableHint() {
		return true
	}
	// A fast-fail from an open breaker heals after the cooldown probe.
	if errors.Is(err, ErrBreakerOpen) {
		return true
	}
	return false
}

// RetryAfter extracts a server-provided back-off hint from err (a shed
// response's retry-after field). ok is false when err carries none.
func RetryAfter(err error) (time.Duration, bool) {
	var h interface{ RetryAfterHint() (time.Duration, bool) }
	if errors.As(err, &h) {
		return h.RetryAfterHint()
	}
	return 0, false
}

// Overloaded reports whether err is a load-shed answer from a server at
// capacity — the signal the circuit breaker counts.
func Overloaded(err error) bool {
	var o interface{ Overloaded() bool }
	if errors.As(err, &o) {
		return o.Overloaded()
	}
	return false
}

// Backoff returns the sleep before 1-based retry attempt n: exponential
// from BaseBackoff, capped at MaxBackoff, scaled by a deterministic
// jitter factor in [0.5, 1.0) derived from Seed and n.
func (p Policy) Backoff(n int) time.Duration {
	base := p.BaseBackoff
	if base <= 0 {
		base = DefaultBaseBackoff
	}
	maxB := p.MaxBackoff
	if maxB <= 0 {
		maxB = DefaultMaxBackoff
	}
	d := base
	for i := 1; i < n && d < maxB; i++ {
		// Clamp before doubling can overflow: once d reaches half the cap
		// the next doubling would meet or exceed it anyway, so jump to the
		// cap. Without this, an effectively-unbounded MaxBackoff lets
		// d*2 wrap negative near attempt 63.
		if d >= maxB>>1 {
			d = maxB
			break
		}
		d *= 2
	}
	if d > maxB {
		d = maxB
	}
	// splitmix64 of (seed, attempt): full-period, stateless, so concurrent
	// Do loops over one Policy need no locked rng.
	x := uint64(p.Seed) + uint64(n)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	frac := float64(x>>11) / (1 << 53) // [0, 1)
	return time.Duration(float64(d) * (0.5 + frac/2))
}

func (p Policy) attempts() int {
	if p.MaxAttempts <= 0 {
		return DefaultMaxAttempts
	}
	return p.MaxAttempts
}

func (p Policy) retryable(err error) bool {
	if p.Retryable != nil {
		return p.Retryable(err)
	}
	return Retryable(err)
}

// sleepFor is the pause before 1-based retry attempt n: the policy's
// jittered backoff, stretched to any server-provided retry-after hint
// carried by err (the server knows its own queue depth better than the
// client's exponential guess).
func (p Policy) sleepFor(n int, err error) time.Duration {
	d := p.Backoff(n)
	if hint, ok := RetryAfter(err); ok && hint > d {
		d = hint
	}
	return d
}

// Do runs op under the policy: each attempt gets a child context bounded
// by PerAttemptTimeout, retryable failures back off and re-run until the
// attempts or the caller's context run out, terminal failures return
// immediately. The zero-value T is returned alongside any error.
func Do[T any](ctx context.Context, p Policy, op func(ctx context.Context) (T, error)) (T, error) {
	var zero T
	attempts := p.attempts()
	var err error
	for attempt := 1; ; attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			if err != nil {
				return zero, err
			}
			return zero, cerr
		}
		if p.Breaker != nil && !p.Breaker.Allow() {
			err = ErrBreakerOpen
		} else {
			actx, cancel := ctx, context.CancelFunc(func() {})
			if p.PerAttemptTimeout > 0 {
				actx, cancel = context.WithTimeout(ctx, p.PerAttemptTimeout)
			}
			var v T
			v, err = op(actx)
			cancel()
			if p.Breaker != nil {
				p.Breaker.Record(err)
			}
			if err == nil {
				return v, nil
			}
		}
		// The caller's own context ending is always terminal, even when
		// the error it surfaced as would otherwise classify retryable.
		if ctx.Err() != nil || attempt >= attempts || !p.retryable(err) {
			return zero, err
		}
		if p.OnRetry != nil {
			p.OnRetry(attempt, err)
		}
		select {
		case <-time.After(p.sleepFor(attempt, err)):
		case <-ctx.Done():
			return zero, err
		}
	}
}
