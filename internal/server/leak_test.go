package server

import (
	"context"
	"errors"
	"math/big"
	"net"
	"runtime"
	"testing"
	"time"

	"sssearch/internal/client"
	"sssearch/internal/wire"
)

// settles fails t unless the goroutine count falls back to baseline
// before the deadline: whatever a lifecycle started, it must have ended.
func settles(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, baseline %d:\n%s", runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSessionLifecycleLeaksNoGoroutines: every session owns a reader
// goroutine and every connection a serve loop, a writer and handlers. A
// lifecycle that ends — the client closing first, the daemon draining
// first (Bye), or the daemon cutting a slow consumer — leaves none behind.
func TestSessionLifecycleLeaksNoGoroutines(t *testing.T) {
	local, keys := buildLocalStore(t)
	points := []*big.Int{big.NewInt(3)}

	// serve starts a daemon on a loopback listener and returns it with a
	// channel that closes when Serve has returned.
	serve := func() (*Daemon, string, chan struct{}) {
		d := NewDaemon(local, nil)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = d.Serve(l)
		}()
		return d, l.Addr().String(), done
	}
	query := func(r *client.Remote) {
		t.Helper()
		if _, err := r.EvalNodes(keys[:2], points); err != nil {
			t.Fatal(err)
		}
	}
	shutdown := func(d *Daemon, done chan struct{}) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := d.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		<-done
	}

	t.Run("ClientClosesFirst", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		d, addr, done := serve()
		r, err := client.Dial(addr, nil)
		if err != nil {
			t.Fatal(err)
		}
		query(r)
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		// The daemon ends the session on the client's Bye, before any
		// Shutdown could end it instead.
		deadline := time.Now().Add(5 * time.Second)
		for {
			d.mu.Lock()
			open := len(d.conns)
			d.mu.Unlock()
			if open == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("the daemon kept the session after its Bye")
			}
			time.Sleep(time.Millisecond)
		}
		shutdown(d, done)
		settles(t, baseline)
	})

	t.Run("DaemonDrainsFirst", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		d, addr, done := serve()
		r, err := client.Dial(addr, nil)
		if err != nil {
			t.Fatal(err)
		}
		query(r)
		shutdown(d, done)
		deadline := time.Now().Add(5 * time.Second)
		for !r.Broken() {
			if time.Now().After(deadline) {
				t.Fatal("the session never saw the drain's Bye")
			}
			time.Sleep(time.Millisecond)
		}
		r.Close()
		settles(t, baseline)
	})

	t.Run("SlowConsumerCut", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		d := NewDaemon(local, nil)
		d.Workers = 2
		d.WriteStall = 20 * time.Millisecond
		srv, cli := net.Pipe()
		served := make(chan error, 1)
		go func() { served <- d.HandleConn(srv) }()
		if ack := handshake(t, cli, wire.Version); ack.Type != wire.MsgHelloAck {
			t.Fatalf("handshake answered with %s", ack.Type)
		}
		flooded := make(chan struct{})
		go func() {
			defer close(flooded)
			for i := uint64(1); ; i++ {
				payload := wire.EncodeEvalReq(wire.EvalReq{ID: i, Keys: keys[:1], Points: points})
				if _, err := wire.WriteFramed(cli, wire.FramedFrame{Type: wire.MsgEval, ReqID: i, Payload: payload}); err != nil {
					return // cut
				}
			}
		}()
		if err := <-served; !errors.Is(err, errSlowConsumer) {
			t.Fatalf("HandleConn = %v, want errSlowConsumer", err)
		}
		<-flooded
		cli.Close()
		settles(t, baseline)
	})
}
