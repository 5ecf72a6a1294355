package client_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"math/big"
	"sssearch/internal/client"
	"sssearch/internal/core"
	"sssearch/internal/drbg"
	"sssearch/internal/mapping"

	"sssearch/internal/paperdata"
	"sssearch/internal/polyenc"
	"sssearch/internal/ring"
	"sssearch/internal/server"
	"sssearch/internal/sharing"
	"sssearch/internal/wire"
	"sssearch/internal/workload"
	"sssearch/internal/xmltree"
)

// concurrencyWorld is a served share tree plus the reference local store
// it was built from.
type concurrencyWorld struct {
	addr  string
	local *server.Local
	ring  ring.Ring
	m     *mapping.Map
	seed  drbg.Seed
	keys  []drbg.NodeKey
}

func buildWorld(t *testing.T, doc *xmltree.Node) *concurrencyWorld {
	t.Helper()
	return buildWorldRing(t, doc, ring.MustIntQuotient(1, 0, 1))
}

func buildWorldRing(t *testing.T, doc *xmltree.Node, r ring.Ring) *concurrencyWorld {
	t.Helper()
	m, err := mapping.New(r.MaxTag(), []byte("conc-test"))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := polyenc.Encode(r, doc, m)
	if err != nil {
		t.Fatal(err)
	}
	seed := testSeed(21)
	tree, err := sharing.Split(enc, seed)
	if err != nil {
		t.Fatal(err)
	}
	local, err := server.NewLocal(r, tree)
	if err != nil {
		t.Fatal(err)
	}
	w := &concurrencyWorld{local: local, ring: r, m: m, seed: seed}
	enc.Walk(func(key drbg.NodeKey, _ *polyenc.Node) bool {
		w.keys = append(w.keys, key)
		return true
	})

	d := server.NewDaemon(local, nil)
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
	w.addr = l.Addr().String()
	return w
}

// pts returns n small evaluation points.
func pts(n int) []*big.Int {
	out := make([]*big.Int, n)
	for i := range out {
		out[i] = big.NewInt(int64(i + 2))
	}
	return out
}

// TestParallelEvalOnePipelinedConnection hammers a single connection
// with concurrent EvalNodes calls and checks every answer against the
// local reference — the in-flight requests must not cross wires.
func TestParallelEvalOnePipelinedConnection(t *testing.T) {
	w := buildWorld(t, workload.RandomTree(workload.TreeConfig{Nodes: 60, MaxFanout: 3, Vocab: 8, Seed: 17}))
	r, err := client.Dial(w.addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	points := pts(3)
	const goroutines = 16
	const callsEach = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for c := 0; c < callsEach; c++ {
				key := w.keys[(g*callsEach+c)%len(w.keys)]
				got, err := r.EvalNodes([]drbg.NodeKey{key}, points)
				if err != nil {
					errs <- err
					return
				}
				want, err := w.local.EvalNodes([]drbg.NodeKey{key}, points)
				if err != nil {
					errs <- err
					return
				}
				for i := range want[0].Values() {
					if got[0].Values()[i].Cmp(want[0].Values()[i]) != 0 {
						errs <- errors.New("pipelined answer does not match reference (crossed wires?)")
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestDaemonUnder100ConcurrentClients runs 100 clients against one
// daemon, each completing a real query through the engine.
func TestDaemonUnder100ConcurrentClients(t *testing.T) {
	w := buildWorld(t, paperdata.Document())
	const clients = 100
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := client.Dial(w.addr, nil)
			if err != nil {
				errs <- err
				return
			}
			defer r.Close()
			if _, err := r.EvalNodes([]drbg.NodeKey{{}}, pts(2)); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	failures := 0
	for err := range errs {
		failures++
		t.Logf("client error: %v", err)
	}
	if failures > 0 {
		t.Fatalf("%d of %d clients failed", failures, clients)
	}
}

// fakeServer speaks the handshake over an in-memory pipe and answers
// Eval requests only when released — deterministic mid-flight state for
// cancellation tests.
type fakeServer struct {
	conn    net.Conn
	release chan struct{} // closed → start answering held request
	held    chan uint64   // req IDs seen while holding
}

func startFakeServer(t *testing.T) (net.Conn, *fakeServer) {
	t.Helper()
	cli, srv := net.Pipe()
	fs := &fakeServer{conn: srv, release: make(chan struct{}), held: make(chan uint64, 16)}
	go fs.run()
	t.Cleanup(func() { srv.Close() })
	return cli, fs
}

func (fs *fakeServer) run() {
	f, _, err := wire.ReadAny(fs.conn)
	if err != nil || f.Type != wire.MsgHello {
		return
	}
	ack, err := wire.EncodeHelloAck(wire.HelloAck{Version: wire.Version, Params: ring.MustFp(257).Params()})
	if err != nil {
		return
	}
	if _, err := wire.WriteFramed(fs.conn, wire.FramedFrame{Type: wire.MsgHelloAck, Payload: ack}); err != nil {
		return
	}
	released := false
	for {
		af, _, err := wire.ReadAny(fs.conn)
		if err != nil {
			return
		}
		if af.Type == wire.MsgBye {
			return
		}
		if af.Type != wire.MsgEval {
			continue
		}
		req, err := wire.DecodeEvalReq(af.Payload)
		if err != nil {
			return
		}
		answer := func() {
			answers := make([]core.NodeEval, len(req.Keys))
			for i, k := range req.Keys {
				answers[i] = core.NodeEval{Key: k, Big: req.Points}
			}
			_, _ = wire.WriteFramed(fs.conn, wire.FramedFrame{
				Type:    wire.MsgEvalResp,
				ReqID:   af.ReqID,
				Payload: wire.EncodeEvalResp(wire.EvalResp{ID: req.ID, Answers: answers}),
			})
		}
		if released {
			answer()
			continue
		}
		select {
		case <-fs.release:
			released = true
			answer()
		default:
			fs.held <- req.ID
			go func() {
				<-fs.release
				answer()
			}()
		}
	}
}

// evalResult is the outcome of an EvalNodesCtx call run by evalAsync.
type evalResult struct {
	answers []core.NodeEval
	err     error
}

// evalAsync runs EvalNodesCtx on its own goroutine and delivers the
// outcome on a buffered channel.
func evalAsync(ctx context.Context, r *client.Remote, keys []drbg.NodeKey, points []*big.Int) <-chan evalResult {
	ch := make(chan evalResult, 1)
	go func() {
		answers, err := r.EvalNodesCtx(ctx, keys, points)
		ch <- evalResult{answers, err}
	}()
	return ch
}

// TestCancellationMidQuery cancels an in-flight pipelined request: the
// call must return promptly with the context error, the late response
// must be dropped, and the session must stay usable.
func TestCancellationMidQuery(t *testing.T) {
	conn, fs := startFakeServer(t)
	r, err := client.NewRemote(conn, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	ctx, cancel := context.WithCancel(context.Background())
	resCh := evalAsync(ctx, r, []drbg.NodeKey{{0}}, pts(1))
	// Wait until the server holds the request mid-flight, then cancel.
	select {
	case <-fs.held:
	case <-time.After(5 * time.Second):
		t.Fatal("request never reached the server")
	}
	cancel()
	select {
	case res := <-resCh:
		if !errors.Is(res.err, context.Canceled) {
			t.Fatalf("cancelled call returned %v, want context.Canceled", res.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled call did not return")
	}

	// Release the held response (now orphaned) and verify the session
	// still answers new calls correctly.
	close(fs.release)
	got, err := r.EvalNodes([]drbg.NodeKey{{1}}, pts(2))
	if err != nil {
		t.Fatalf("session unusable after cancellation: %v", err)
	}
	if len(got) != 1 || got[0].Len() != 2 {
		t.Fatalf("unexpected post-cancel answer shape: %+v", got)
	}
}

// TestOutOfOrderResponses verifies response routing by request ID: the
// fake server answers the second request before the first.
func TestOutOfOrderResponses(t *testing.T) {
	conn, fs := startFakeServer(t)
	r, err := client.NewRemote(conn, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	ctx := context.Background()
	first := evalAsync(ctx, r, []drbg.NodeKey{{0}}, pts(1))
	select {
	case <-fs.held:
	case <-time.After(5 * time.Second):
		t.Fatal("first request never held")
	}
	// Second request: answered immediately once released; release unblocks
	// both, but the held first response arrives via a separate goroutine —
	// order is not guaranteed, which is exactly the point: both must
	// resolve correctly regardless.
	close(fs.release)
	second, err := r.EvalNodes([]drbg.NodeKey{{1}, {2}}, pts(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(second) != 2 {
		t.Fatalf("second call: %d answers, want 2", len(second))
	}
	res := <-first
	if res.err != nil {
		t.Fatalf("first call: %v", res.err)
	}
	if len(res.answers) != 1 || res.answers[0].Key.String() != (drbg.NodeKey{0}).String() {
		t.Fatalf("first call answers misrouted: %+v", res.answers)
	}
}

// TestPoolConcurrentQueries drives full engine queries through a
// connection pool from many goroutines.
func TestPoolConcurrentQueries(t *testing.T) {
	w := buildWorld(t, paperdata.Document())
	pool, err := client.DialPool(w.addr, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if pool.Size() != 4 {
		t.Fatalf("pool size %d", pool.Size())
	}
	eng := core.NewEngine(w.ring, w.seed, w.m, pool, nil)
	const queries = 24
	var wg sync.WaitGroup
	errs := make(chan error, queries)
	for q := 0; q < queries; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			res, err := eng.Lookup("client", core.Opts{Verify: core.VerifyResolve, Parallelism: 2})
			if err != nil {
				errs <- err
				return
			}
			if len(res.Matches) != 2 {
				errs <- errors.New("wrong match count under concurrency")
			}
		}(q)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestClientRefusesRetiredProtocol: the client speaks one protocol. A
// HelloAck of version 1, 2 or 3 (the keyed eval and fetch frames) — or of
// 2^32+4, which a 32-bit read would take for 4 — fails the handshake with
// ErrVersion; a server answering in the
// retired legacy layout (magic 0x5353) fails it with ErrBadMagic; and a
// response of the retired Prune or Ack type fails its call with the
// unexpected-reply error while the session stays usable.
func TestClientRefusesRetiredProtocol(t *testing.T) {
	params, err := ring.MustFp(257).Params().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// handshakeAnswered runs a handshake against a peer that answers the
	// Hello with reply, and returns the handshake's error.
	handshakeAnswered := func(reply []byte) error {
		cli, srv := net.Pipe()
		defer cli.Close()
		go func() {
			if _, _, err := wire.ReadAny(srv); err == nil {
				_, _ = srv.Write(reply)
			}
		}()
		r, err := client.NewRemote(cli, nil)
		srv.Close()
		if err == nil {
			r.Close()
		}
		return err
	}
	for _, v := range []uint64{1, 2, 3, 1<<32 + 4} {
		var reply bytes.Buffer
		ack := append(binary.AppendUvarint(nil, v), params...)
		if _, err := wire.WriteFramed(&reply, wire.FramedFrame{Type: wire.MsgHelloAck, Payload: ack}); err != nil {
			t.Fatal(err)
		}
		if err := handshakeAnswered(reply.Bytes()); !errors.Is(err, wire.ErrVersion) {
			t.Fatalf("version-%d HelloAck: handshake error %v, want ErrVersion", v, err)
		}
	}
	// A version-1 HelloAck in its own framing: magic, type, length,
	// payload, CRC over type and payload.
	ack := append(binary.AppendUvarint(nil, 1), params...)
	legacy := binary.BigEndian.AppendUint16(nil, 0x5353)
	legacy = append(legacy, byte(wire.MsgHelloAck))
	legacy = binary.BigEndian.AppendUint32(legacy, uint32(len(ack)))
	legacy = append(legacy, ack...)
	legacy = binary.BigEndian.AppendUint32(legacy, crc32.ChecksumIEEE(append([]byte{byte(wire.MsgHelloAck)}, ack...)))
	if err := handshakeAnswered(legacy); !errors.Is(err, wire.ErrBadMagic) {
		t.Fatalf("legacy HelloAck: handshake error %v, want ErrBadMagic", err)
	}

	retired := []wire.MsgType{7, 8} // Prune and Ack
	cli, srv := net.Pipe()
	defer srv.Close()
	go func() {
		if _, _, err := wire.ReadAny(srv); err != nil {
			return
		}
		ack, _ := wire.EncodeHelloAck(wire.HelloAck{Version: wire.Version, Params: ring.MustFp(257).Params()})
		if _, err := wire.WriteFramed(srv, wire.FramedFrame{Type: wire.MsgHelloAck, Payload: ack}); err != nil {
			return
		}
		for _, typ := range retired {
			f, _, err := wire.ReadAny(srv)
			if err != nil {
				return
			}
			if _, err := wire.WriteFramed(srv, wire.FramedFrame{Type: typ, ReqID: f.ReqID, Payload: binary.AppendUvarint(nil, f.ReqID)}); err != nil {
				return
			}
		}
		_, _, _ = wire.ReadAny(srv) // the Bye
	}()
	r, err := client.NewRemote(cli, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, typ := range retired {
		if _, err := r.EvalNodes([]drbg.NodeKey{{0}}, pts(1)); err == nil || !strings.Contains(err.Error(), "unexpected reply") {
			t.Fatalf("a %s reply: error %v, want the unexpected-reply error", typ, err)
		}
	}
	if r.Broken() {
		t.Fatal("a refused reply broke the session")
	}
}
