package server

import (
	"context"
	"encoding/binary"
	"errors"
	"math/big"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sssearch/internal/client"
	"sssearch/internal/core"
	"sssearch/internal/drbg"
	"sssearch/internal/paperdata"
	"sssearch/internal/polyenc"
	"sssearch/internal/resilience"
	"sssearch/internal/sharing"
	"sssearch/internal/wire"
)

// gatedStore wraps a Local so tests can hold EvalNodes mid-flight: each
// call signals entered, then parks until the gate closes. Deterministic
// occupancy for admission-control tests — no sleeps, no load guessing.
type gatedStore struct {
	*Local
	gate    chan struct{} // closed → parked EvalNodes calls proceed
	entered chan struct{} // one signal per EvalNodes call that reached the store
}

func (g *gatedStore) EvalNodes(keys []drbg.NodeKey, points []*big.Int) ([]core.NodeEval, error) {
	g.entered <- struct{}{}
	<-g.gate
	return g.Local.EvalNodes(keys, points)
}

// countingStore wraps a Store and counts the calls that reach it — proof
// of which store actually served after a swap.
type countingStore struct {
	Store
	calls atomic.Int64
}

func (c *countingStore) EvalNodes(keys []drbg.NodeKey, points []*big.Int) ([]core.NodeEval, error) {
	c.calls.Add(1)
	return c.Store.EvalNodes(keys, points)
}

// buildLocalStore builds the paper-document Local plus its node keys.
func buildLocalStore(t *testing.T) (*Local, []drbg.NodeKey) {
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
	return local, keys
}

// serveStore serves any store on a loopback listener via the configure
// hook, shut down in cleanup.
func serveStore(t *testing.T, store Store, configure func(*Daemon)) (*Daemon, string) {
	t.Helper()
	d := NewDaemon(store, nil)
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
	return d, l.Addr().String()
}

// TestDaemonShedsTypedError: with the sole admission slot held by a
// parked request, a session's next request must be shed immediately
// with the typed retryable error — code, retry-after hint and counter all
// present — and the parked request must still answer correctly.
func TestDaemonShedsTypedError(t *testing.T) {
	local, keys := buildLocalStore(t)
	gated := &gatedStore{Local: local, gate: make(chan struct{}), entered: make(chan struct{}, 16)}
	d, addr := serveStore(t, gated, func(d *Daemon) { d.MaxInflight = 1 })
	points := []*big.Int{big.NewInt(3), big.NewInt(5)}

	r, err := client.Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	type evalRes struct {
		answers []core.NodeEval
		err     error
	}
	parked := make(chan evalRes, 1)
	go func() {
		answers, err := r.EvalNodes(keys[:1], points)
		parked <- evalRes{answers, err}
	}()
	<-gated.entered // the parked call now holds the only admission slot

	_, err = r.EvalNodes(keys[1:2], points)
	if err == nil {
		t.Fatal("second request was admitted past MaxInflight=1")
	}
	if !resilience.Overloaded(err) || !resilience.Retryable(err) {
		t.Fatalf("shed error %v must classify overloaded and retryable", err)
	}
	var re *wire.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("shed error %v is not a RemoteError", err)
	}
	if re.Code != wire.CodeOverloaded {
		t.Fatalf("shed code = %d, want CodeOverloaded", re.Code)
	}
	if hint, ok := resilience.RetryAfter(err); !ok || hint <= 0 {
		t.Fatalf("shed retry-after hint = (%v, %v), want a positive hint", hint, ok)
	}
	if shed := d.Counters().Snapshot().RequestsShed; shed < 1 {
		t.Errorf("requestsShed = %d, want >= 1", shed)
	}

	close(gated.gate)
	res := <-parked
	if res.err != nil {
		t.Fatalf("parked request failed after gate release: %v", res.err)
	}
	want, err := local.EvalNodes(keys[:1], points)
	if err != nil {
		t.Fatal(err)
	}
	if res.answers[0].Values()[0].Cmp(want[0].Values()[0]) != 0 {
		t.Fatal("parked request's answer differs from reference")
	}
}

// handshake writes a framed Hello carrying version v on cli and returns
// the daemon's answer.
func handshake(t *testing.T, cli net.Conn, v uint64) wire.FramedFrame {
	t.Helper()
	hello := binary.AppendUvarint(nil, v)
	if _, err := wire.WriteFramed(cli, wire.FramedFrame{Type: wire.MsgHello, Payload: hello}); err != nil {
		t.Fatal(err)
	}
	f, _, err := wire.ReadAny(cli)
	if err != nil {
		t.Fatalf("reading the answer to a version-%d hello: %v", v, err)
	}
	return f
}

// TestDaemonRefusesRetiredProtocol: the daemon speaks one protocol. A
// Hello of version 1, 2 or 3 (the keyed eval and fetch frames) — or of
// 2^32+4, which a 32-bit read would take for 4 — is answered with an error
// naming the version and the session ends; a frame in the retired legacy layout (magic 0x5353) ends it with
// ErrBadMagic; and a request of the retired Prune type gets the
// unexpected-frame error while the session keeps serving.
func TestDaemonRefusesRetiredProtocol(t *testing.T) {
	local, keys := buildLocalStore(t)
	d := NewDaemon(local, nil)
	serve := func() (net.Conn, chan error) {
		srv, cli := net.Pipe()
		t.Cleanup(func() { cli.Close() })
		served := make(chan error, 1)
		go func() { served <- d.HandleConn(srv) }()
		return cli, served
	}

	for _, v := range []uint64{1, 2, 3, 1<<32 + 4} {
		cli, served := serve()
		f := handshake(t, cli, v)
		if f.Type != wire.MsgError {
			t.Fatalf("version-%d hello answered with %s, want Error", v, f.Type)
		}
		e, err := wire.DecodeError(f.Payload)
		if err != nil || !strings.Contains(e.Message, "unsupported protocol version") {
			t.Fatalf("version-%d hello refused with %+v (%v)", v, e, err)
		}
		if err := <-served; !errors.Is(err, wire.ErrVersion) {
			t.Fatalf("HandleConn after a version-%d hello = %v, want ErrVersion", v, err)
		}
	}

	// The v1 Hello in its own framing: magic, type, length, payload, CRC.
	cli, served := serve()
	legacy := []byte{0x53, 0x53, byte(wire.MsgHello), 0, 0, 0, 1, 1, 0, 0, 0, 0}
	go cli.Write(legacy)
	if err := <-served; !errors.Is(err, wire.ErrBadMagic) {
		t.Fatalf("HandleConn after a legacy frame = %v, want ErrBadMagic", err)
	}
	if _, _, err := wire.ReadAny(cli); err == nil {
		t.Fatal("the daemon answered a legacy frame")
	}

	cli, served = serve()
	if f := handshake(t, cli, wire.Version); f.Type != wire.MsgHelloAck {
		t.Fatalf("version-%d hello answered with %s", wire.Version, f.Type)
	}
	prune := wire.EncodeFetchReq(wire.FetchReq{ID: 5, Keys: keys[:1]}) // the retired layout: id, keys, tail
	if _, err := wire.WriteFramed(cli, wire.FramedFrame{Type: 7, ReqID: 5, Payload: prune}); err != nil {
		t.Fatal(err)
	}
	f, _, err := wire.ReadAny(cli)
	if err != nil || f.Type != wire.MsgError || f.ReqID != 5 {
		t.Fatalf("retired Prune frame answered with %+v (%v)", f, err)
	}
	if e, err := wire.DecodeError(f.Payload); err != nil || !strings.Contains(e.Message, "unexpected frame") {
		t.Fatalf("retired Prune frame refused with %+v (%v)", e, err)
	}
	eval := wire.EncodeEvalReq(wire.EvalReq{ID: 6, Keys: keys[:1], Points: []*big.Int{big.NewInt(3)}})
	if _, err := wire.WriteFramed(cli, wire.FramedFrame{Type: wire.MsgEval, ReqID: 6, Payload: eval}); err != nil {
		t.Fatal(err)
	}
	if f, _, err := wire.ReadAny(cli); err != nil || f.Type != wire.MsgEvalResp || f.ReqID != 6 {
		t.Fatalf("eval after the refused Prune answered with %+v (%v)", f, err)
	}
	if _, err := wire.WriteFramed(cli, wire.FramedFrame{Type: wire.MsgBye}); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatalf("HandleConn after Bye = %v", err)
	}
}

// TestSwapStoreLive: SwapStore behind live sessions must (a) refuse nil
// and param-mismatched stores, (b) bump the epoch, (c) route requests
// dispatched after the swap to the new store while a request in flight
// across the swap finishes on the old one.
func TestSwapStoreLive(t *testing.T) {
	local, keys := buildLocalStore(t)
	gated := &gatedStore{Local: local, gate: make(chan struct{}), entered: make(chan struct{}, 16)}
	d, addr := serveStore(t, gated, nil)
	points := []*big.Int{big.NewInt(3)}

	if _, err := d.SwapStore(nil); err == nil {
		t.Fatal("SwapStore(nil) accepted")
	}

	r, err := client.Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Park one request on the old store, then swap under it.
	parked := make(chan error, 1)
	go func() {
		_, err := r.EvalNodes(keys[:1], points)
		parked <- err
	}()
	<-gated.entered

	next := &countingStore{Store: local}
	epoch, err := d.SwapStore(next)
	if err != nil {
		t.Fatalf("SwapStore: %v", err)
	}
	if epoch != 1 || d.StoreEpoch() != 1 {
		t.Fatalf("epoch = %d / %d, want 1", epoch, d.StoreEpoch())
	}
	if swaps := d.Counters().Snapshot().StoreSwaps; swaps != 1 {
		t.Errorf("storeSwaps = %d, want 1", swaps)
	}

	// The in-flight request finishes on the store it dispatched against.
	close(gated.gate)
	if err := <-parked; err != nil {
		t.Fatalf("request in flight across the swap failed: %v", err)
	}
	if got := next.calls.Load(); got != 0 {
		t.Fatalf("in-flight request reached the new store (%d calls)", got)
	}

	// A request dispatched after the swap is served by the new store.
	if _, err := r.EvalNodes(keys[:1], points); err != nil {
		t.Fatalf("post-swap request: %v", err)
	}
	if got := next.calls.Load(); got != 1 {
		t.Fatalf("new store served %d calls, want 1", got)
	}
}

// TestShutdownDuringShedding: Shutdown racing active shedding must still
// drain — the global semaphore's holders always release (slots are never
// held across writes), every session gets its Bye, and no call ends with
// a wrong answer or a non-transport, non-retryable error.
func TestShutdownDuringShedding(t *testing.T) {
	local, keys := buildLocalStore(t)
	gated := &gatedStore{Local: local, gate: make(chan struct{}), entered: make(chan struct{}, 64)}
	d, addr := serveStore(t, gated, func(d *Daemon) { d.MaxInflight = 1 })
	points := []*big.Int{big.NewInt(3)}

	r, err := client.Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Occupy the sole slot so the hammer goroutines below are being shed
	// when Shutdown lands.
	parked := make(chan error, 1)
	go func() {
		_, err := r.EvalNodes(keys[:1], points)
		parked <- err
	}()
	<-gated.entered

	var badErr atomic.Value
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				_, err := r.EvalNodes(keys[(g+i)%len(keys):(g+i)%len(keys)+1], points)
				if err != nil {
					if !drainAcceptable(err) {
						badErr.Store(err)
					}
					if r.Broken() || errors.Is(err, client.ErrClosed) {
						return
					}
				}
			}
		}(g)
	}
	// Let sheds accumulate, then shut down with the slot still held, and
	// only afterwards release the gate — Shutdown must wait out the parked
	// handler without deadlocking on the admission semaphore.
	time.Sleep(20 * time.Millisecond)
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- d.Shutdown(ctx)
	}()
	time.Sleep(20 * time.Millisecond)
	close(gated.gate)

	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown during shedding: %v", err)
	}
	wg.Wait()
	if err := <-parked; err != nil && !drainAcceptable(err) {
		t.Fatalf("parked request: %v", err)
	}
	if err := badErr.Load(); err != nil {
		t.Fatalf("client saw a non-drain, non-shed error: %v", err)
	}
	if shed := d.Counters().Snapshot().RequestsShed; shed < 1 {
		t.Errorf("requestsShed = %d, want >= 1 (the race never exercised shedding)", shed)
	}
	// The session must have observed the drain Bye.
	deadline := time.Now().Add(5 * time.Second)
	for !r.Broken() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if !r.Broken() {
		t.Error("session never observed the drain Bye")
	}
}

// TestSlowConsumerDisconnected: a peer that sends requests but never
// drains responses must be cut once the bounded write queue stalls past
// WriteStall — tallied, connection closed, daemon capacity untouched.
func TestSlowConsumerDisconnected(t *testing.T) {
	local, keys := buildLocalStore(t)
	d := NewDaemon(local, nil)
	d.Workers = 2
	d.WriteStall = 50 * time.Millisecond

	srv, cli := net.Pipe()
	defer cli.Close()
	served := make(chan error, 1)
	go func() { served <- d.HandleConn(srv) }()

	// Handshake, then flood requests and never read a response.
	if ack := handshake(t, cli, wire.Version); ack.Type != wire.MsgHelloAck {
		t.Fatalf("handshake answered with %s", ack.Type)
	}
	points := []*big.Int{big.NewInt(3)}
	go func() {
		for i := uint64(1); i < 64; i++ {
			payload := wire.EncodeEvalReq(wire.EvalReq{ID: i, Keys: keys[:1], Points: points})
			if _, err := wire.WriteFramed(cli, wire.FramedFrame{Type: wire.MsgEval, ReqID: i, Payload: payload}); err != nil {
				return // connection cut, as expected
			}
		}
	}()

	select {
	case err := <-served:
		if !errors.Is(err, errSlowConsumer) {
			t.Fatalf("HandleConn = %v, want errSlowConsumer", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("slow consumer was never disconnected")
	}
	if cut := d.Counters().Snapshot().SlowConsumerCut; cut < 1 {
		t.Errorf("slowConsumerCut = %d, want >= 1", cut)
	}
}

// TestDispatchDeadlineSkip: a request whose propagated budget elapsed
// before dispatch is answered with CodeDeadlineExpired without touching
// the store; a live budget dispatches normally.
func TestDispatchDeadlineSkip(t *testing.T) {
	local, keys := buildLocalStore(t)
	counted := &countingStore{Store: local}
	d := NewDaemon(counted, nil)
	points := []*big.Int{big.NewInt(3)}
	payload := wire.EncodeEvalReq(wire.EvalReq{ID: 7, Keys: keys[:1], Points: points, TimeoutMillis: 10})

	// Budget elapsed: skip, typed error, counter, no store call.
	typ, resp, _, err := d.dispatch(wire.MsgEval, payload, time.Now().Add(-50*time.Millisecond), 0)
	if err != nil {
		t.Fatal(err)
	}
	if typ != wire.MsgError {
		t.Fatalf("expired dispatch returned %v, want MsgError", typ)
	}
	em, err := wire.DecodeError(resp)
	if err != nil {
		t.Fatal(err)
	}
	if em.ID != 7 || em.Code != wire.CodeDeadlineExpired {
		t.Fatalf("expired dispatch error = ID %d code %d, want ID 7 CodeDeadlineExpired", em.ID, em.Code)
	}
	if counted.calls.Load() != 0 {
		t.Fatal("expired request reached the store")
	}
	if skips := d.Counters().Snapshot().DeadlineSkips; skips != 1 {
		t.Errorf("deadlineSkips = %d, want 1", skips)
	}

	// Live budget: dispatches normally.
	typ, _, _, err = d.dispatch(wire.MsgEval, payload, time.Now(), 0)
	if err != nil || typ != wire.MsgEvalResp {
		t.Fatalf("live dispatch = %v, %v; want an EvalResp", typ, err)
	}
	if counted.calls.Load() != 1 {
		t.Fatalf("store calls = %d, want 1", counted.calls.Load())
	}
}
