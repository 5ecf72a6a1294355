package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math/big"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"sssearch/internal/core"
	"sssearch/internal/metrics"
	"sssearch/internal/obs"
	"sssearch/internal/ring"
	"sssearch/internal/wire"
)

// Store is what a Daemon serves: the query API plus the public ring
// parameters announced in the handshake. Local implements it directly;
// wrappers (shard guards, tamper harnesses with a ring accessor) can
// stand in for it.
type Store interface {
	core.ServerAPI
	Ring() ring.Ring
}

// DefaultWorkers is the per-connection bound on concurrently executing
// requests. Handlers spend time in
// big-integer arithmetic and blocking writes, so a small multiple of the
// core count keeps the pipe full without unbounded goroutine growth.
const DefaultWorkers = 8

// DefaultRetryAfterHint is the back-off hint a shed response carries when
// the daemon has no better estimate: long enough to let a worker finish a
// typical request, short enough that a backing-off client re-probes while
// the burst is still draining.
const DefaultRetryAfterHint = 5 * time.Millisecond

// DefaultWriteStall bounds how long a handler will wait to enqueue a
// response for a connection whose peer is not draining its socket before
// the daemon declares the peer a slow consumer and disconnects it.
const DefaultWriteStall = 5 * time.Second

// Daemon serves the wire protocol over a listener, answering each
// connection from a Local share store. One goroutine per connection.
//
// Connections are pipelined: decoded requests are dispatched to a bounded
// worker pool and responses are written as they complete — serialised
// writes, out-of-order completion — so a single connection carries many
// in-flight requests.
type Daemon struct {
	logger   *log.Logger
	counters *metrics.Counters

	// store is the served share store behind an epoch, replaced atomically
	// by SwapStore. Every request captures one ref at dispatch, so
	// in-flight work finishes on the store it started on.
	store atomic.Pointer[storeRef]

	// Workers bounds concurrently executing requests per connection. Zero means DefaultWorkers. Set before Serve.
	Workers int

	// MaxInflight, when positive, bounds concurrently executing requests
	// across the whole daemon — C connections × Workers otherwise grows
	// without limit. When the bound is hit, excess requests are shed
	// immediately with a typed retryable error (CodeOverloaded plus a
	// retry-after hint). Zero disables the global bound. Set before Serve.
	MaxInflight int

	// RetryAfterHint is the back-off hint carried by shed responses.
	// Zero means DefaultRetryAfterHint. Set before Serve.
	RetryAfterHint time.Duration

	// WriteStall bounds how long a response may wait for space in a
	// connection's write queue before the peer is disconnected as a slow
	// consumer. Zero means DefaultWriteStall. Set before Serve.
	WriteStall time.Duration

	// Obs receives the daemon-side stage latencies (admission wait,
	// dispatch, store eval, writer-queue residency) and the server spans
	// of sampled requests. Nil means the process-wide obs.Default(). Set
	// before Serve.
	Obs *obs.Observer

	// IdleTimeout, when positive, bounds how long a connection may sit
	// between frames: each blocking read arms a deadline, and a
	// connection that stays silent past it is closed. Protects the
	// daemon from half-dead peers that hold sockets (and a handler
	// goroutine each) forever. Zero disables the timeout. Set before
	// Serve.
	IdleTimeout time.Duration

	// admit is the daemon-wide admission semaphore (nil = unbounded),
	// built from MaxInflight on first use. Slots are held across store
	// dispatch only — never across socket writes, so a slow consumer
	// cannot pin global capacity.
	admitOnce sync.Once
	admit     chan struct{}

	mu       sync.Mutex
	listener net.Listener
	closed   bool
	draining bool
	conns    map[*daemonConn]struct{}
	wg       sync.WaitGroup
}

// storeRef pairs the served store with its swap epoch so a single atomic
// pointer load gives a consistent view of both.
type storeRef struct {
	store Store
	epoch uint64
}

// daemonConn makes connection teardown idempotent and race-free: both the
// per-connection serve goroutine (deferred cleanup) and the response
// writer that hits a write error close the connection, and
// Shutdown may force-close it concurrently — only the first Close reaches
// the underlying connection.
type daemonConn struct {
	io.ReadWriteCloser
	closeOnce sync.Once
	closeErr  error
}

func (c *daemonConn) Close() error {
	c.closeOnce.Do(func() { c.closeErr = c.ReadWriteCloser.Close() })
	return c.closeErr
}

// readDeadliner is the deadline capability the idle timeout and drain
// wake-up use when the transport provides it (net.Conn does; in-process
// pipes need not).
type readDeadliner interface{ SetReadDeadline(time.Time) error }

// errDraining is the internal signal that a blocking read was aborted by
// Shutdown rather than by a peer fault.
var errDraining = errors.New("server: draining")

// NewDaemon wraps a store (a Local, or any guarded/wrapped Store) for
// network serving. logger may be nil (logging disabled).
func NewDaemon(local Store, logger *log.Logger) *Daemon {
	d := &Daemon{
		logger:   logger,
		counters: &metrics.Counters{},
		conns:    make(map[*daemonConn]struct{}),
	}
	d.store.Store(&storeRef{store: local})
	return d
}

// Counters exposes the daemon's serving tallies (drained connections;
// shared with any instrumentation the store layers on top).
func (d *Daemon) Counters() *metrics.Counters { return d.counters }

// Store returns the currently served store.
func (d *Daemon) Store() Store { return d.store.Load().store }

// Observer returns the observer recording this daemon's stage latencies
// and slow queries (the Obs field, or the process default).
func (d *Daemon) Observer() *obs.Observer {
	if d.Obs != nil {
		return d.Obs
	}
	return obs.Default()
}

// Draining reports whether the daemon is winding down (Shutdown has
// begun). The debug /healthz endpoint keys readiness off this.
func (d *Daemon) Draining() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.draining
}

// Inflight returns the number of requests currently holding a global
// admission slot. Zero when MaxInflight is unset (admission unbounded —
// nothing is counted).
func (d *Daemon) Inflight() int {
	if admit := d.admitCh(); admit != nil {
		return len(admit)
	}
	return 0
}

// StoreEpoch returns the swap epoch of the currently served store: 0 for
// the store the daemon was built with, incremented by every SwapStore.
func (d *Daemon) StoreEpoch() uint64 { return d.store.Load().epoch }

// SwapStore atomically replaces the served store — the zero-downtime
// deploy path. In-flight requests finish on the store they dispatched
// against; every request that arrives after the swap is answered from
// next. The new store's ring parameters must match the served ones
// byte-identically (sessions pinned the params at their handshake, and
// share trees from different rings would silently mis-answer), or the
// swap is refused. Returns the new epoch.
func (d *Daemon) SwapStore(next Store) (uint64, error) {
	if next == nil {
		return 0, errors.New("server: SwapStore: nil store")
	}
	nextBin, err := next.Ring().Params().MarshalBinary()
	if err != nil {
		return 0, fmt.Errorf("server: SwapStore: new store params: %w", err)
	}
	for {
		cur := d.store.Load()
		curBin, err := cur.store.Ring().Params().MarshalBinary()
		if err != nil {
			return 0, fmt.Errorf("server: SwapStore: current store params: %w", err)
		}
		if !bytes.Equal(curBin, nextBin) {
			return 0, errors.New("server: SwapStore refused: ring params differ from the served store")
		}
		ref := &storeRef{store: next, epoch: cur.epoch + 1}
		if d.store.CompareAndSwap(cur, ref) {
			d.counters.AddStoreSwaps(1)
			d.logf("store swapped: epoch %d", ref.epoch)
			return ref.epoch, nil
		}
	}
}

// admitCh lazily builds the global admission semaphore. nil means
// unbounded admission.
func (d *Daemon) admitCh() chan struct{} {
	d.admitOnce.Do(func() {
		if d.MaxInflight > 0 {
			d.admit = make(chan struct{}, d.MaxInflight)
		}
	})
	return d.admit
}

func (d *Daemon) retryAfterHint() time.Duration {
	if d.RetryAfterHint > 0 {
		return d.RetryAfterHint
	}
	return DefaultRetryAfterHint
}

func (d *Daemon) writeStall() time.Duration {
	if d.WriteStall > 0 {
		return d.WriteStall
	}
	return DefaultWriteStall
}

// Serve accepts connections until the listener is closed.
func (d *Daemon) Serve(l net.Listener) error {
	d.mu.Lock()
	d.listener = l
	d.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			d.mu.Lock()
			closed := d.closed
			d.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("server: accept: %w", err)
		}
		// Add under mu, after the closed check: Close and Shutdown set
		// closed under mu before they Wait, so no Add can race a Wait.
		d.mu.Lock()
		if d.closed {
			d.mu.Unlock()
			conn.Close()
			return nil
		}
		d.wg.Add(1)
		d.mu.Unlock()
		go func() {
			defer d.wg.Done()
			if err := d.HandleConn(conn); err != nil && !errors.Is(err, io.EOF) {
				d.logf("connection %s: %v", conn.RemoteAddr(), err)
			}
		}()
	}
}

// Close stops accepting and waits for in-flight connections.
func (d *Daemon) Close() error {
	d.mu.Lock()
	d.closed = true
	l := d.listener
	d.mu.Unlock()
	var err error
	if l != nil {
		err = l.Close()
	}
	d.wg.Wait()
	return err
}

// Shutdown drains the daemon gracefully: stop accepting, let every
// connection finish its in-flight frames, send each a Bye (the GOAWAY
// that tells clients to re-dial elsewhere), and close. Connections that
// have not finished by the context deadline are force-closed. Safe to
// call concurrently with Serve; after Shutdown the daemon is done.
func (d *Daemon) Shutdown(ctx context.Context) error {
	d.mu.Lock()
	d.closed = true
	d.draining = true
	l := d.listener
	// Wake connections blocked between frames: their armed read deadline
	// is replaced with one in the past, the read returns, and the serve
	// loop sees the draining flag. Taken under mu so a concurrent armRead
	// cannot re-arm a future deadline over this one.
	for c := range d.conns {
		if dc, ok := c.ReadWriteCloser.(readDeadliner); ok {
			_ = dc.SetReadDeadline(time.Now())
		}
	}
	d.mu.Unlock()
	var lerr error
	if l != nil {
		lerr = l.Close()
	}
	done := make(chan struct{})
	go func() {
		d.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return lerr
	case <-ctx.Done():
		d.mu.Lock()
		for c := range d.conns {
			_ = c.Close()
		}
		d.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// armRead prepares one blocking read: refuses when draining, and arms
// the idle-timeout deadline (or clears a stale one) when the transport
// supports deadlines. Runs under mu so the drain wake-up above cannot be
// overwritten by a racing re-arm.
func (d *Daemon) armRead(conn *daemonConn) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.draining {
		return errDraining
	}
	if dc, ok := conn.ReadWriteCloser.(readDeadliner); ok {
		if d.IdleTimeout > 0 {
			return dc.SetReadDeadline(time.Now().Add(d.IdleTimeout))
		}
		return dc.SetReadDeadline(time.Time{})
	}
	return nil
}

// classifyRead folds drain state into a failed blocking read: a read
// aborted because Shutdown set a past deadline is a drain, a deadline
// that expired on its own is an idle timeout, everything else is the
// peer's fault.
func (d *Daemon) classifyRead(err error) error {
	d.mu.Lock()
	draining := d.draining
	d.mu.Unlock()
	if draining {
		return errDraining
	}
	var ne net.Error
	if errors.Is(err, os.ErrDeadlineExceeded) || (errors.As(err, &ne) && ne.Timeout()) {
		return fmt.Errorf("server: idle timeout (%v between frames): %w", d.IdleTimeout, err)
	}
	return err
}

func (d *Daemon) logf(format string, args ...any) {
	if d.logger != nil {
		d.logger.Printf(format, args...)
	}
}

// HandleConn speaks the protocol on a single connection until Bye or EOF.
// Exported so tests and the in-process transport can drive it directly.
func (d *Daemon) HandleConn(rwc io.ReadWriteCloser) error {
	conn := &daemonConn{ReadWriteCloser: rwc}
	d.mu.Lock()
	if d.draining {
		// Too late: the daemon is winding down and will not start a session.
		d.mu.Unlock()
		return conn.Close()
	}
	if d.conns == nil {
		d.conns = make(map[*daemonConn]struct{})
	}
	d.conns[conn] = struct{}{}
	d.mu.Unlock()
	defer func() {
		d.mu.Lock()
		delete(d.conns, conn)
		d.mu.Unlock()
		conn.Close()
	}()
	if err := d.armRead(conn); err != nil {
		return nil // draining before the handshake: nothing to wind down
	}
	f, _, err := wire.ReadAny(conn)
	if err != nil {
		if errors.Is(d.classifyRead(err), errDraining) {
			return nil
		}
		return err
	}
	if f.Type != wire.MsgHello {
		return fmt.Errorf("server: expected Hello, got %s", f.Type)
	}
	if _, err := wire.DecodeHello(f.Payload); err != nil {
		_, _ = wire.WriteFramed(conn, wire.FramedFrame{
			Type:    wire.MsgError,
			Payload: wire.EncodeError(wire.ErrorMsg{Message: err.Error()}),
		})
		return fmt.Errorf("server: handshake: %w", err)
	}
	ackPayload, err := wire.EncodeHelloAck(wire.HelloAck{
		Version: wire.Version,
		Params:  d.Store().Ring().Params(),
	})
	if err != nil {
		return err
	}
	if _, err := wire.WriteFramed(conn, wire.FramedFrame{Type: wire.MsgHelloAck, Payload: ackPayload}); err != nil {
		return err
	}
	return d.serveConn(conn)
}

// errSlowConsumer marks a connection torn down because its peer stopped
// draining responses and the bounded write queue stayed full past the
// stall bound.
var errSlowConsumer = errors.New("server: slow consumer: write queue stalled")

// respFrame is one queued response plus its observability context: when it
// entered the write queue (zero for control frames, which are not a
// request's response) and the server span to finish once the response is
// on the socket.
type respFrame struct {
	frame wire.FramedFrame
	enq   time.Time
	span  *obs.Span
}

// serveConn is the request loop: decoded requests fan out to a
// bounded worker pool (the per-connection accept queue); completed
// responses flow through a bounded write queue drained by a dedicated
// writer goroutine, so slow requests do not block fast ones behind them
// and a peer that stops reading exerts backpressure on its own
// connection only — and is disconnected once the queue stalls past
// WriteStall. Under a MaxInflight bound, excess requests are shed with a
// typed retryable error instead of queueing.
func (d *Daemon) serveConn(conn *daemonConn) error {
	workers := d.Workers
	if workers <= 0 {
		workers = DefaultWorkers
	}
	obsv := d.Observer()
	var (
		handlers sync.WaitGroup
		sem      = make(chan struct{}, workers)

		// The bounded response queue: a slow consumer fills it and then
		// trips the enqueue stall instead of growing an unbounded buffer.
		queue      = make(chan respFrame, 2*workers)
		writerDone = make(chan struct{})

		errOnce sync.Once
		connErr error
	)
	fail := func(err error) {
		errOnce.Do(func() { connErr = err })
	}
	// The writer goroutine is the only socket writer. After a write error
	// it keeps consuming the queue (recycling buffers, never blocking the
	// handlers) until the serve loop closes it. It is also where a
	// request's server span ends: response written to the socket.
	go func() {
		defer close(writerDone)
		for r := range queue {
			_, werr := wire.WriteFramed(conn, r.frame)
			wire.PutBuf(r.frame.Payload)
			if !r.enq.IsZero() {
				res := time.Since(r.enq)
				obsv.Observe(obs.StageWriterQueue, res)
				r.span.Add(obs.StageWriterQueue, res)
			}
			obsv.FinishSpan(r.span)
			if werr != nil {
				// A failed (possibly partial) write leaves the stream
				// unframeable — tear the connection down rather than
				// appending frames the client can no longer parse.
				fail(werr)
				conn.Close()
				for r := range queue {
					wire.PutBuf(r.frame.Payload)
				}
				return
			}
		}
	}()
	// finish closes the write queue once every handler has enqueued (or
	// dropped) its response, then waits the writer out. Every return path
	// runs it exactly once.
	finish := func() {
		handlers.Wait()
		close(queue)
		<-writerDone
	}
	// enqueue hands one response to the writer, bounded by the stall
	// timeout: a peer that will not drain its socket gets disconnected,
	// not an unbounded (or permanently parked) buffer.
	enqueue := func(r respFrame) {
		stall := time.NewTimer(d.writeStall())
		defer stall.Stop()
		select {
		case queue <- r:
		case <-stall.C:
			wire.PutBuf(r.frame.Payload)
			d.counters.AddSlowConsumerCut(1)
			d.logf("disconnecting slow consumer (write queue stalled %v)", d.writeStall())
			fail(errSlowConsumer)
			conn.Close()
		}
	}
	admit := d.admitCh()
	for {
		if err := d.armRead(conn); err != nil {
			if !errors.Is(err, errDraining) {
				// Arming failed because the connection is already torn
				// down (e.g. a slow-consumer cut closed it) — that is a
				// connection error, not a graceful drain.
				finish()
				if connErr != nil {
					return connErr
				}
				return err
			}
			handlers.Wait()
			return d.drainConn(conn, func() error {
				enqueue(respFrame{frame: wire.FramedFrame{Type: wire.MsgBye}})
				finish()
				return connErr
			})
		}
		f, _, err := wire.ReadAny(conn)
		arrival := time.Now()
		if err != nil {
			err = d.classifyRead(err)
			if errors.Is(err, errDraining) {
				handlers.Wait()
				return d.drainConn(conn, func() error {
					enqueue(respFrame{frame: wire.FramedFrame{Type: wire.MsgBye}})
					finish()
					return connErr
				})
			}
			finish()
			if errors.Is(err, io.EOF) {
				return connErr
			}
			if connErr != nil {
				return connErr
			}
			return err
		}
		if f.Type == wire.MsgBye {
			finish()
			return connErr
		}
		sem <- struct{}{}
		handlers.Add(1)
		go func(f wire.FramedFrame) {
			defer handlers.Done()
			defer func() { <-sem }()
			typ, payload, sp := d.handleAdmitted(f, admit, arrival)
			enqueue(respFrame{
				frame: wire.FramedFrame{Type: typ, ReqID: f.ReqID, Payload: payload},
				enq:   time.Now(),
				span:  sp,
			})
		}(f)
	}
}

// handleAdmitted runs one request through admission control and
// dispatch, returning the response frame type and payload (on a pooled
// buffer) plus the request's server span (nil unless the request carried a
// sampled trace). The global admission slot, when bounded, is held across
// store dispatch only — never across the response enqueue/write, so a slow
// consumer cannot pin daemon-wide capacity.
func (d *Daemon) handleAdmitted(f wire.FramedFrame, admit chan struct{}, arrival time.Time) (wire.MsgType, []byte, *obs.Span) {
	// Time spent between frame read and handler start: the wait for a
	// per-connection worker slot.
	dispatchWait := time.Since(arrival)
	d.Observer().Observe(obs.StageDispatch, dispatchWait)
	if admit != nil {
		select {
		case admit <- struct{}{}:
		default:
			// At capacity: shed before doing any work. The typed code tells
			// the client the request is safe to retry, the hint tells it
			// when.
			d.counters.AddRequestsShed(1)
			wire.PutBuf(f.Payload)
			return wire.MsgError, wire.AppendError(wire.GetBuf(), wire.ErrorMsg{
				ID:               f.ReqID,
				Message:          "overloaded: shed by admission control",
				Code:             wire.CodeOverloaded,
				RetryAfterMillis: uint64(d.retryAfterHint() / time.Millisecond),
			}), nil
		}
		defer func() { <-admit }()
	}
	typ, payload, sp, err := d.dispatch(f.Type, f.Payload, arrival, dispatchWait)
	wire.PutBuf(f.Payload) // request fully decoded by dispatch
	if err != nil {
		// Malformed request: framing is length-prefixed so the
		// stream stays synchronised — answer with a correlated
		// error and keep serving.
		typ = wire.MsgError
		payload = wire.AppendError(wire.GetBuf(), wire.ErrorMsg{ID: f.ReqID, Message: err.Error()})
	}
	return typ, payload, sp
}

// drainConn finishes one connection's graceful drain: send the GOAWAY
// Bye (only read deadlines were armed, so the write is unaffected) and
// tally the drained connection. Write failures are logged, not returned
// — the peer may already be gone, which is a completed drain all the
// same.
func (d *Daemon) drainConn(conn *daemonConn, sendBye func() error) error {
	if err := sendBye(); err != nil {
		d.logf("drain: sending Bye: %v", err)
	}
	d.counters.AddConnsDrained(1)
	return nil
}

// dispatch handles one request, returning the response type and payload.
// Store errors become MsgError replies rather than connection teardown;
// undecodable requests are returned as errors. Response payloads are
// built on pooled buffers — the serve loops recycle them after writing.
//
// The store ref is captured once per request, so a concurrent SwapStore
// lets this request finish on the store it started on. arrival is when
// the request's frame was read: a request whose propagated deadline
// budget has already elapsed by dispatch time is skipped (the client has
// stopped waiting) and answered with CodeDeadlineExpired instead of
// burning worker time on an answer nobody will read.
//
// An eval request whose answer could not fit one frame even at one bit a
// value and one byte a child count (wire.CheckEvalRespSize) is refused
// before any store is asked; AppendEvalResp then answers it, and the
// store-eval stage times that call, encoding included.
//
// A request carrying a sampled trace gets a server span rooted at arrival,
// credited with the pre-measured dispatch wait, and — for Eval —
// propagated into the store via context so a coalescing or sharded store
// attributes its stages to the same trace. The span is returned for
// the caller (ultimately the response writer) to finish once the response
// is on the socket.
func (d *Daemon) dispatch(typ wire.MsgType, payload []byte, arrival time.Time, dispatchWait time.Duration) (wire.MsgType, []byte, *obs.Span, error) {
	store := d.Store()
	obsv := d.Observer()
	var sp *obs.Span
	startSpan := func(op string, traceID uint64, sampled bool) {
		if !sampled {
			// The request arrived untraced. The daemon is its own trace origin then: under
			// obs.SetSampleEvery (sss-server -trace-sample) it samples
			// arriving requests itself, so the server-side slow log
			// fills without requiring instrumented clients.
			tr := obs.NewTrace()
			if !tr.Sampled {
				return
			}
			traceID = tr.ID
		}
		sp = obs.StartSpanAt(op, obs.Trace{ID: traceID, Sampled: true}, arrival)
		sp.Add(obs.StageDispatch, dispatchWait)
	}
	fail := func(id uint64, err error) (wire.MsgType, []byte, *obs.Span, error) {
		return wire.MsgError, wire.AppendError(wire.GetBuf(), wire.ErrorMsg{ID: id, Message: err.Error()}), sp, nil
	}
	expired := func(id, timeoutMillis uint64) (wire.MsgType, []byte, bool) {
		if timeoutMillis == 0 ||
			time.Since(arrival) < time.Duration(timeoutMillis)*time.Millisecond {
			return 0, nil, false
		}
		d.counters.AddDeadlineSkips(1)
		return wire.MsgError, wire.AppendError(wire.GetBuf(), wire.ErrorMsg{
			ID:      id,
			Message: "deadline expired before dispatch; work skipped",
			Code:    wire.CodeDeadlineExpired,
		}), true
	}
	// observeEval times the store call as the store-eval stage: always into
	// the histogram, and into the span when the request is sampled.
	observeEval := func(start time.Time) {
		d := time.Since(start)
		obsv.Observe(obs.StageStoreEval, d)
		sp.Add(obs.StageStoreEval, d)
	}
	switch typ {
	case wire.MsgEval:
		req, err := wire.DecodeEvalReq(payload)
		if err != nil {
			return 0, nil, nil, err
		}
		startSpan("eval", req.TraceID, req.TraceSampled)
		if t, p, skip := expired(req.ID, req.TimeoutMillis); skip {
			return t, p, sp, nil
		}
		if err := wire.CheckEvalRespSize(req.Runs.Len(), len(req.Points), 1); err != nil {
			return fail(req.ID, fmt.Errorf("server: %w", err))
		}
		evalStart := time.Now()
		out, err := AppendEvalResp(obs.WithSpan(context.Background(), sp), store, store.Ring(), wire.GetBuf(), req)
		observeEval(evalStart)
		if err != nil {
			wire.PutBuf(out)
			return fail(req.ID, err)
		}
		return wire.MsgEvalResp, out, sp, nil
	case wire.MsgFetch:
		req, err := wire.DecodeFetchReq(payload)
		if err != nil {
			return 0, nil, nil, err
		}
		startSpan("fetch", req.TraceID, req.TraceSampled)
		if t, p, skip := expired(req.ID, req.TimeoutMillis); skip {
			return t, p, sp, nil
		}
		fetchStart := time.Now()
		answers, err := store.FetchPolys(req.Keys)
		observeEval(fetchStart)
		if err == nil {
			err = storeAnswered(core.CheckAnswered(req.Keys, answers))
		}
		if err != nil {
			return fail(req.ID, err)
		}
		out, err := wire.AppendFetchRespFor(wire.GetBuf(), wire.FetchResp{ID: req.ID, Answers: answers}, req.KeyDigest)
		if err != nil {
			return 0, nil, sp, err
		}
		return wire.MsgFetchResp, out, sp, nil
	default:
		return 0, nil, nil, fmt.Errorf("server: unexpected frame %s", typ)
	}
}

// RunStore is a store that answers an eval request's key runs itself,
// straight into the response frame: a Local, or a shard guard.
type RunStore interface {
	AppendEvalResp(ctx context.Context, dst []byte, req wire.EvalReq) ([]byte, error)
	// Self returns the receiver, so that a wrapper embedding a RunStore,
	// which has both methods promoted, is answered through its own EvalNodes.
	Self() core.ServerAPI
}

// AppendEvalResp appends to dst the frame answering req from store over r,
// the daemon's one eval path: a RunStore answers its runs, and any other
// store goes through the keyed adapter. Before the adapter asks store, it
// refuses a request whose answer could not fit one frame at the width of
// r's values at its points. It checks that store answered exactly the keys
// asked, in order, with a value at every point, and it refuses an encoded
// answer past wire.MaxFrameSize. dst holds the frame so far on error.
func AppendEvalResp(ctx context.Context, store core.ServerAPI, r ring.Ring, dst []byte, req wire.EvalReq) ([]byte, error) {
	if rs, ok := store.(RunStore); ok && rs.Self() == store {
		return rs.AppendEvalResp(ctx, dst, req)
	}
	return appendKeyed(ctx, store, r, dst, req)
}

// appendKeyed is AppendEvalResp's keyed adapter.
func appendKeyed(ctx context.Context, store core.ServerAPI, r ring.Ring, dst []byte, req wire.EvalReq) ([]byte, error) {
	w := 1 // the values' width: the bit length of the largest EvalModulus(a)−1
	for _, a := range req.Points {
		if m, err := r.EvalModulus(a); err == nil { // store refuses the others
			w = max(w, new(big.Int).Sub(m, big.NewInt(1)).BitLen())
		}
	}
	if err := wire.CheckEvalRespSize(req.Runs.Len(), len(req.Points), w); err != nil {
		return dst, fmt.Errorf("server: %w", err)
	}
	keys := req.Runs.Keys()
	answers, err := core.EvalNodesWithCtx(ctx, store, keys, req.Points)
	if err == nil {
		err = storeAnswered(core.CheckAnswered(keys, answers))
	}
	for i := 0; err == nil && i < len(answers); i++ {
		if n := answers[i].Len(); n != len(req.Points) {
			err = fmt.Errorf("server: store returned %d values for %d points", n, len(req.Points))
		}
	}
	if err != nil {
		return dst, err
	}
	out := wire.AppendEvalRespFor(dst, wire.EvalResp{ID: req.ID, Answers: answers}, req.KeyDigest)
	if err := wire.CheckEvalFrame(uint64(len(out))); err != nil {
		return out, fmt.Errorf("server: %w", err)
	}
	return out, nil
}

// storeAnswered words a core.CheckAnswered error as the store's. A store
// must answer exactly the keys asked, in order, before they go out in a
// positional frame that names none of them: the client can only check the
// keys it sent, so a store that answers for another key is refused here.
func storeAnswered(err error) error {
	if err != nil {
		return fmt.Errorf("server: store %w", err)
	}
	return nil
}
