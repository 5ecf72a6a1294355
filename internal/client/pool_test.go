package client

import (
	"errors"
	"fmt"
	"io"
	"math"
	"testing"

	"sssearch/internal/resilience"
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
			_, err = poolCall(p, func(*Remote) (struct{}, error) {
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
