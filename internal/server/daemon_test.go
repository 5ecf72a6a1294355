package server

import (
	"context"
	"errors"
	"math/big"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sssearch/internal/client"
	"sssearch/internal/drbg"
	"sssearch/internal/paperdata"
	"sssearch/internal/polyenc"
	"sssearch/internal/resilience"
	"sssearch/internal/sharing"
)

// buildServedLocal builds a Local over the paper document, returns its
// node keys, and serves it on a fresh TCP listener via the given daemon
// configuration hook.
func buildServedLocal(t *testing.T, configure func(*Daemon)) (*Daemon, string, []drbg.NodeKey) {
	t.Helper()
	r := paperdata.ZRing()
	enc, err := polyenc.Encode(r, paperdata.Document(), paperdata.Mapping(nil))
	if err != nil {
		t.Fatal(err)
	}
	tree, err := sharing.Split(enc, testSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	local, err := NewLocal(r, tree)
	if err != nil {
		t.Fatal(err)
	}
	var keys []drbg.NodeKey
	tree.Walk(func(key drbg.NodeKey, _ *sharing.Node) bool {
		keys = append(keys, key)
		return true
	})
	d := NewDaemon(local, nil)
	if configure != nil {
		configure(d)
	}
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
	return d, l.Addr().String(), keys
}

// drainAcceptable reports whether an error seen by a client during a
// graceful drain is one the drain contract allows: a transport-class
// fault (the session was told to go away / closed under it), never a
// semantic error or a hang.
func drainAcceptable(err error) bool {
	return errors.Is(err, client.ErrClosed) || resilience.Retryable(err)
}

// TestDaemonGracefulDrainUnderLoad: Shutdown while concurrent clients
// are querying must (a) complete within the drain window, (b) leave
// every client call either fully answered or failed with a
// transport-class error — never a wrong or partial answer — and (c)
// tally the drained connections.
func TestDaemonGracefulDrainUnderLoad(t *testing.T) {
	d, addr, keys := buildServedLocal(t, nil)
	points := []*big.Int{big.NewInt(3), big.NewInt(5)}

	const clients = 4
	var wg sync.WaitGroup
	var badErr atomic.Value
	start := make(chan struct{})
	for c := 0; c < clients; c++ {
		r, err := client.Dial(addr, nil)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(c int, r *client.Remote) {
			defer wg.Done()
			defer r.Close()
			<-start
			for i := 0; ; i++ {
				key := keys[(c+i)%len(keys)]
				_, err := r.EvalNodes([]drbg.NodeKey{key}, points)
				if err != nil {
					if !drainAcceptable(err) {
						badErr.Store(err)
					}
					return
				}
			}
		}(c, r)
	}
	close(start)
	time.Sleep(50 * time.Millisecond) // let the load build up

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown did not drain within the window: %v", err)
	}
	wg.Wait()
	if err := badErr.Load(); err != nil {
		t.Fatalf("client saw a non-transport error during drain: %v", err)
	}
	if drained := d.Counters().Snapshot().ConnsDrained; drained < 1 {
		t.Errorf("connsDrained = %d, want >= 1", drained)
	}
}

// TestDaemonShutdownIdle: draining a daemon with connected but idle
// clients must not wait for them to speak — the past read deadline wakes
// the blocked reads, each connection gets its Bye, and Shutdown returns
// promptly.
func TestDaemonShutdownIdle(t *testing.T) {
	d, addr, _ := buildServedLocal(t, nil)
	r, err := client.Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Broken() {
		t.Fatal("fresh session reports broken")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	begin := time.Now()
	if err := d.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown with an idle connection: %v", err)
	}
	if d := time.Since(begin); d > 5*time.Second {
		t.Errorf("idle drain took %v, want prompt wake-up via read deadline", d)
	}
	// The client must observe the GOAWAY: its session turns broken, so
	// resilient wrappers know to re-dial.
	deadline := time.Now().Add(5 * time.Second)
	for !r.Broken() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if !r.Broken() {
		t.Error("client session never observed the drain Bye")
	}
}

// TestDaemonIdleTimeout: a connection silent between frames for longer
// than IdleTimeout is closed by the server; an active connection is not.
func TestDaemonIdleTimeout(t *testing.T) {
	_, addr, keys := buildServedLocal(t, func(d *Daemon) { d.IdleTimeout = 150 * time.Millisecond })
	points := []*big.Int{big.NewInt(3)}
	r, err := client.Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Active use well past the timeout window: each frame re-arms the
	// deadline, so steady traffic must not be cut.
	for i := 0; i < 10; i++ {
		if _, err := r.EvalNodes(keys[:1], points); err != nil {
			t.Fatalf("active call %d: %v", i, err)
		}
		time.Sleep(30 * time.Millisecond)
	}
	// Now go silent past the timeout; the server must hang up.
	time.Sleep(600 * time.Millisecond)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := r.EvalNodes(keys[:1], points); err != nil {
			return // connection was closed server-side, as required
		}
		time.Sleep(200 * time.Millisecond)
	}
	t.Fatal("idle connection was never closed by the server")
}

// countCloser counts Close calls — the double-Close regression fixture.
type countCloser struct {
	closes atomic.Int32
}

func (c *countCloser) Read(p []byte) (int, error)  { return 0, errors.New("not implemented") }
func (c *countCloser) Write(p []byte) (int, error) { return len(p), nil }
func (c *countCloser) Close() error {
	c.closes.Add(1)
	return nil
}

// TestDaemonConnCloseIdempotent: the serve path has two closers (the
// per-connection defer and the pipelined write-error path) plus
// Shutdown's force-close; the wrapper must collapse them into exactly
// one Close of the underlying connection, concurrency included.
func TestDaemonConnCloseIdempotent(t *testing.T) {
	cc := &countCloser{}
	conn := &daemonConn{ReadWriteCloser: cc}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = conn.Close()
		}()
	}
	wg.Wait()
	if got := cc.closes.Load(); got != 1 {
		t.Fatalf("underlying Close ran %d times, want 1", got)
	}
}

// TestDaemonCloseRacingAccept: a connection accepted while Close waits
// for the served ones must not be added to the wait group Close is
// waiting on — under -race that Add is a reported race — and Close and
// Serve must still return.
func TestDaemonCloseRacingAccept(t *testing.T) {
	local, _ := buildLocalStore(t)
	for i := 0; i < 1000; i++ {
		d := NewDaemon(local, nil)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		served := make(chan struct{})
		go func() {
			defer close(served)
			_ = d.Serve(l)
		}()
		// A handshake answered means Serve is accepting.
		r, err := client.Dial(l.Addr().String(), nil)
		if err != nil {
			t.Fatal(err)
		}
		r.Close()
		stop := make(chan struct{})
		dialing := make(chan struct{})
		go func() {
			defer close(dialing)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if c, err := net.Dial("tcp", l.Addr().String()); err == nil {
					c.Close()
				}
			}
		}()
		d.Close()
		close(stop)
		<-dialing
		<-served
	}
}
