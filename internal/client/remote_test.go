package client_test

import (
	"fmt"
	"math/big"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"sssearch/internal/client"
	"sssearch/internal/core"
	"sssearch/internal/drbg"
	"sssearch/internal/mapping"
	"sssearch/internal/metrics"
	"sssearch/internal/paperdata"
	"sssearch/internal/polyenc"
	"sssearch/internal/ring"
	"sssearch/internal/server"
	"sssearch/internal/sharing"
	"sssearch/internal/xmltree"
	"sssearch/internal/xpath"
)

func testSeed(b byte) drbg.Seed {
	var s drbg.Seed
	for i := range s {
		s[i] = b
	}
	return s
}

// startDaemon builds a share server for doc and serves it on a loopback
// listener, returning the address and a shutdown func.
func startDaemon(t *testing.T, r ring.Ring, doc *xmltree.Node, m *mapping.Map, seed drbg.Seed) (string, func()) {
	t.Helper()
	enc, err := polyenc.Encode(r, doc, m)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := sharing.Split(enc, seed)
	if err != nil {
		t.Fatal(err)
	}
	local, err := server.NewLocal(r, tree)
	if err != nil {
		t.Fatal(err)
	}
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
	return l.Addr().String(), func() {
		d.Close()
		<-done
	}
}

// TestEndToEndTCP runs the paper's query over a real TCP connection.
func TestEndToEndTCP(t *testing.T) {
	r := paperdata.ZRing()
	m := paperdata.Mapping(nil)
	seed := testSeed(11)
	addr, shutdown := startDaemon(t, r, paperdata.Document(), m, seed)
	defer shutdown()

	counters := &metrics.Counters{}
	remote, err := client.Dial(addr, counters)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	// The handshake announces usable ring params.
	rr, err := remote.Ring()
	if err != nil {
		t.Fatal(err)
	}
	if rr.Name() != r.Name() {
		t.Errorf("announced ring %s, want %s", rr.Name(), r.Name())
	}

	eng := core.NewEngine(r, seed, m, remote, counters)
	res, err := eng.Lookup("client", core.Opts{Verify: core.VerifyResolve})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 2 {
		t.Fatalf("matches = %v", res.Matches)
	}
	snap := counters.Snapshot()
	if snap.BytesSent == 0 || snap.BytesReceived == 0 {
		t.Error("no bytes counted on the wire")
	}
	if snap.MessagesSent < 3 {
		t.Errorf("only %d messages sent", snap.MessagesSent)
	}
}

// TestRemoteMatchesLocalOracle: remote and in-process servers must answer
// queries identically, byte for byte.
func TestRemoteMatchesLocalOracle(t *testing.T) {
	doc, err := xmltree.ParseString(
		`<lib><shelf><book><title/></book><book><title/></book></shelf><office><book><title/></book></office></lib>`)
	if err != nil {
		t.Fatal(err)
	}
	r := ring.MustFp(101)
	m, _ := mapping.New(r.MaxTag(), []byte("net"))
	seed := testSeed(12)
	addr, shutdown := startDaemon(t, r, doc, m, seed)
	defer shutdown()
	remote, err := client.Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	enc, _ := polyenc.Encode(r, doc, m)
	tree, _ := sharing.Split(enc, seed)
	local, _ := server.NewLocal(r, tree)

	engRemote := core.NewEngine(r, seed, m, remote, nil)
	engLocal := core.NewEngine(r, seed, m, local, nil)
	for _, qs := range []string{"//book", "//shelf/book", "/lib//title", "//office//book"} {
		q := xpath.MustParse(qs)
		a, err := engRemote.Query(q, core.Opts{Verify: core.VerifyResolve})
		if err != nil {
			t.Fatalf("remote %s: %v", qs, err)
		}
		b, err := engLocal.Query(q, core.Opts{Verify: core.VerifyResolve})
		if err != nil {
			t.Fatalf("local %s: %v", qs, err)
		}
		if fmt.Sprint(a.Matches) != fmt.Sprint(b.Matches) {
			t.Errorf("%s: remote %v != local %v", qs, a.Matches, b.Matches)
		}
	}
}

// TestServerErrorSurfaced: a bad key must come back as a RemoteError, and
// the session must remain usable.
func TestServerErrorSurfaced(t *testing.T) {
	r := paperdata.ZRing()
	m := paperdata.Mapping(nil)
	seed := testSeed(13)
	addr, shutdown := startDaemon(t, r, paperdata.Document(), m, seed)
	defer shutdown()
	remote, err := client.Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	_, err = remote.EvalNodes([]drbg.NodeKey{{99, 99}}, []*big.Int{big.NewInt(2)})
	if err == nil {
		t.Fatal("bad key accepted")
	}
	// Session still alive:
	answers, err := remote.EvalNodes([]drbg.NodeKey{{}}, []*big.Int{big.NewInt(2)})
	if err != nil {
		t.Fatalf("session died after error: %v", err)
	}
	if len(answers) != 1 || answers[0].NumChildren != 2 {
		t.Errorf("root answer = %+v", answers)
	}
}

// TestConcurrentRemoteQueries exercises the session mutex.
func TestConcurrentRemoteQueries(t *testing.T) {
	r := paperdata.ZRing()
	m := paperdata.Mapping(nil)
	seed := testSeed(14)
	addr, shutdown := startDaemon(t, r, paperdata.Document(), m, seed)
	defer shutdown()
	remote, err := client.Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	eng := core.NewEngine(r, seed, m, remote, nil)
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			res, err := eng.Lookup("client", core.Opts{Verify: core.VerifyResolve})
			if err == nil && len(res.Matches) != 2 {
				err = fmt.Errorf("got %d matches", len(res.Matches))
			}
			errs <- err
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestPipeTransport runs the daemon over an in-memory duplex pipe.
func TestPipeTransport(t *testing.T) {
	r := paperdata.ZRing()
	m := paperdata.Mapping(nil)
	seed := testSeed(15)
	enc, _ := polyenc.Encode(r, paperdata.Document(), m)
	tree, _ := sharing.Split(enc, seed)
	local, _ := server.NewLocal(r, tree)
	d := server.NewDaemon(local, nil)

	cliConn, srvConn := net.Pipe()
	go d.HandleConn(srvConn)
	remote, err := client.NewRemote(cliConn, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	eng := core.NewEngine(r, seed, m, remote, nil)
	res, err := eng.Lookup("name", core.Opts{Verify: core.VerifyResolve})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 2 {
		t.Errorf("//name over pipe: %v", res.Matches)
	}
}

// gatedConn is a connection whose writes wait for the gate once it is set.
type gatedConn struct {
	net.Conn
	gate atomic.Pointer[chan struct{}]
}

func (g *gatedConn) Write(p []byte) (int, error) {
	if gate := g.gate.Load(); gate != nil {
		<-*gate
	}
	return g.Conn.Write(p)
}

// TestQueuedRequestsCountAsSent: a request is counted, message and bytes,
// when it is queued on the connection — not when its write returns. A write
// the OS stalls holds the write lock for milliseconds with later requests
// queued behind it, and the reader counts responses on its own goroutine;
// counted after the write, a response could be counted before its request
// and MessagesSent == MessagesRcvd could hold with requests still unsent —
// the equality a caller waits on to read a settled byte count (the
// benchmark's wire_bytes_per_query does).
func TestQueuedRequestsCountAsSent(t *testing.T) {
	r := paperdata.ZRing()
	enc, _ := polyenc.Encode(r, paperdata.Document(), paperdata.Mapping(nil))
	tree, _ := sharing.Split(enc, testSeed(16))
	local, _ := server.NewLocal(r, tree)
	cliConn, srvConn := net.Pipe()
	go server.NewDaemon(local, nil).HandleConn(srvConn)
	conn := &gatedConn{Conn: cliConn}
	counters := &metrics.Counters{}
	remote, err := client.NewRemote(conn, counters)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	shaken := counters.Snapshot()
	if _, err := remote.FetchPolys([]drbg.NodeKey{{0}}); err != nil { // sizes one request frame
		t.Fatal(err)
	}
	idle := counters.Snapshot()
	frame := idle.BytesSent - shaken.BytesSent
	if idle.MessagesSent != idle.MessagesRcvd {
		t.Fatalf("idle session: %d sent, %d received", idle.MessagesSent, idle.MessagesRcvd)
	}
	// Stall the connection's writes and queue three requests behind them.
	gate := make(chan struct{})
	conn.gate.Store(&gate)
	const calls = 3
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		go func() {
			_, err := remote.FetchPolys([]drbg.NodeKey{{0}})
			errs <- err
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for counters.Snapshot().MessagesSent != idle.MessagesSent+calls {
		if time.Now().After(deadline) {
			t.Fatalf("with every write stalled, %d of %d queued requests count as sent", counters.Snapshot().MessagesSent-idle.MessagesSent, calls)
		}
		time.Sleep(time.Millisecond)
	}
	if s := counters.Snapshot(); s.MessagesRcvd != idle.MessagesRcvd || s.BytesSent != idle.BytesSent+calls*frame {
		t.Fatalf("queued: %d responses, %d request bytes counted; want none and %d frames of %d bytes", s.MessagesRcvd-idle.MessagesRcvd, s.BytesSent-idle.BytesSent, calls, frame)
	}
	close(gate)
	for i := 0; i < calls; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	done := counters.Snapshot()
	if done.MessagesSent != done.MessagesRcvd || done.MessagesSent != idle.MessagesSent+calls || done.BytesSent != idle.BytesSent+calls*frame {
		t.Fatalf("settled session: %d sent, %d received, want %d each; %d request bytes, want %d", done.MessagesSent, done.MessagesRcvd, idle.MessagesSent+calls, done.BytesSent-idle.BytesSent, calls*frame)
	}
}
