package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"testing"
	"time"

	"sssearch/internal/apitest"
	"sssearch/internal/resilience"
	"sssearch/internal/ring"
	"sssearch/internal/server"
	"sssearch/internal/wire"
)

// TestPoolPickCounterOverflow: the round-robin index must stay in range
// when the uint64 counter wraps. Converting the counter to int before
// the modulo went negative past MaxInt (and panicked with an
// out-of-range index); the fix reduces in uint64 first. The counter is
// pre-seeded to the wrap boundary so the test crosses it immediately.
func TestPoolPickCounterOverflow(t *testing.T) {
	p, err := NewPool([]*Remote{{}, {}, {}})
	if err != nil {
		t.Fatal(err)
	}
	p.next.Store(math.MaxUint64 - 1)
	seen := make(map[*poolMember]int)
	for i := 0; i < 3*4; i++ {
		m, err := p.pick() // panics on the old int conversion
		if err != nil {
			t.Fatalf("pick failed: %v", err)
		}
		seen[m]++
	}
	// Round-robin must keep touching every slot across the wrap. The wrap
	// itself skews the distribution (2^64 is not a multiple of 3), so
	// assert coverage, not exact counts.
	for i, m := range p.members {
		if seen[m] == 0 {
			t.Errorf("slot %d never picked across the counter wrap", i)
		}
	}
}

// TestNewPoolRejectsNil: a nil session would crash on first pick; the
// constructor must reject it with the offending slot.
func TestNewPoolRejectsNil(t *testing.T) {
	if _, err := NewPool(nil); err == nil {
		t.Error("NewPool(nil) succeeded")
	}
	if _, err := NewPool([]*Remote{}); err == nil {
		t.Error("NewPool(empty) succeeded")
	}
	if _, err := NewPool([]*Remote{{}, nil, {}}); err == nil {
		t.Error("NewPool with a nil slot succeeded")
	}
	p, err := NewPool([]*Remote{{}, {}})
	if err != nil {
		t.Fatalf("NewPool rejected a valid slice: %v", err)
	}
	if p.Size() != 2 {
		t.Fatalf("Size = %d, want 2", p.Size())
	}
}

// TestPoolExhaustionIsRetryable: poolCall reaches "members exhausted" only
// over errors transportFault accepted, so whatever the last member failed
// with — including the faults resilience.Retryable does not know by itself
// — the exhaustion is transport-class for a retry policy above the pool,
// and still names its cause. A semantic error returns at once, unmarked.
func TestPoolExhaustionIsRetryable(t *testing.T) {
	semantic := &wire.RemoteError{Message: "unknown node"}
	cases := []struct {
		name      string
		cause     error
		exhausted bool
	}{
		{"sessionClosed", ErrClosed, true},
		{"wrappedSessionClosed", fmt.Errorf("client: eval: %w", ErrClosed), true},
		{"checksum", wire.ErrChecksum, true},
		{"badMagic", wire.ErrBadMagic, true},
		{"eof", io.EOF, true},
		{"serverAnswer", semantic, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := NewPool([]*Remote{{}, {}})
			if err != nil {
				t.Fatal(err)
			}
			calls := 0
			_, err = poolCall(context.Background(), p, func(*Remote) (struct{}, error) {
				calls++
				return struct{}{}, tc.cause
			})
			if !errors.Is(err, tc.cause) {
				t.Fatalf("error %q lost its cause %q", err, tc.cause)
			}
			if !tc.exhausted {
				if calls != 1 || resilience.Retryable(err) {
					t.Fatalf("semantic error: %d calls, retryable=%v; want one call, terminal", calls, resilience.Retryable(err))
				}
				return
			}
			if calls != p.Size() {
				t.Fatalf("%d calls over %d members", calls, p.Size())
			}
			if !resilience.Retryable(err) {
				t.Fatalf("exhaustion over %q is not retryable: %q", tc.cause, err)
			}
		})
	}
}

// TestPoolCloseDuringRedialLeaksNothing: a Close racing a member's
// re-dial must close the re-dialed session too. The test holds the pool
// lock while the re-dial, holding a fresh session, and then Close queue
// on it, and makes the lock pass from one to the other directly. When the
// re-dial installed its session only after releasing the lock, Close
// swept the member's old session in between and the new connection and
// its reader goroutine leaked. Every iteration's goroutines must be gone
// at the end.
func TestPoolCloseDuringRedialLeaksNothing(t *testing.T) {
	f := apitest.NewFixture(t, ring.MustFp(257))
	d := server.NewDaemon(f.Reference, nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = d.Serve(l)
	}()
	defer func() {
		// A leaked session would hold Close forever: drain, then cut.
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = d.Shutdown(ctx)
		<-served
	}()
	addr := l.Addr().String()

	baseline := runtime.NumGoroutine()
	for i := 0; i < 40; i++ {
		redialed := make(chan struct{})
		handOver := make(chan struct{})
		dials := 0
		pool, err := NewPoolDial(func() (*Remote, error) {
			dials++
			r, err := Dial(addr, nil)
			if dials > 1 {
				close(redialed)
				<-handOver
			}
			return r, err
		}, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		m := pool.members[0]
		m.mu.Lock()
		pool.ejectLocked(m) // closes the session and starts the re-dial
		m.mu.Unlock()

		<-redialed
		pool.mu.Lock()
		close(handOver)
		time.Sleep(time.Millisecond) // the re-dial queues on the pool lock
		closed := make(chan struct{})
		go func() {
			pool.Close()
			close(closed)
		}()
		time.Sleep(2 * time.Millisecond) // and Close behind it
		// Wake the re-dial and take the lock back before it runs: a waiter
		// that loses the lock after waiting 1 ms puts the mutex in
		// starvation mode, where each unlock hands it to the next waiter
		// and yields. So Close runs as soon as the re-dial has passed its
		// closed check and let go of the lock.
		pool.mu.Unlock()
		pool.mu.Lock()
		time.Sleep(time.Millisecond)
		pool.mu.Unlock()
		<-closed
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, baseline %d:\n%s", runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
