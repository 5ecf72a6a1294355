// Package client provides the network-facing side of the query protocol:
// a core.ServerAPI implementation that speaks the wire protocol to a
// remote share server, so the query engine works identically in-process
// and across the network.
//
// Requests are written as framed (request-ID) frames and a single reader
// goroutine routes responses — possibly out of order — back to their
// callers, so one connection carries many in-flight requests.
package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/big"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sssearch/internal/core"
	"sssearch/internal/drbg"
	"sssearch/internal/metrics"
	"sssearch/internal/obs"
	"sssearch/internal/ring"
	"sssearch/internal/wire"
)

// ErrClosed is returned by calls on a closed session.
var ErrClosed = errors.New("client: session closed")

// Remote is a connected protocol session. It implements core.ServerAPI.
// Safe for concurrent use: concurrent calls are pipelined on the one
// connection.
type Remote struct {
	conn     io.ReadWriteCloser
	params   ring.Params
	counters *metrics.Counters
	obsv     *obs.Observer
	nextID   atomic.Uint64

	wmu sync.Mutex // serialises frame writes

	pmu     sync.Mutex
	pending map[uint64]chan callResult // in-flight requests by ID
	readErr error                      // terminal reader error
	closed  bool
	goaway  bool // server sent Bye (graceful drain): session is winding down

	readerDone chan struct{} // closed when the reader goroutine exits
}

// callResult is what the reader goroutine delivers to a waiting caller.
type callResult struct {
	typ     wire.MsgType
	payload []byte
	err     error
}

// Dial connects to a share server over TCP and performs the handshake.
// counters may be nil.
func Dial(addr string, counters *metrics.Counters) (*Remote, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	r, err := NewRemote(conn, counters)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return r, nil
}

// NewRemote performs the handshake over an existing connection and starts
// the session's reader goroutine.
func NewRemote(conn io.ReadWriteCloser, counters *metrics.Counters) (*Remote, error) {
	if counters == nil {
		counters = &metrics.Counters{}
	}
	r := &Remote{conn: conn, counters: counters, obsv: obs.Default()}
	n, err := wire.WriteFramed(conn, wire.FramedFrame{
		Type:    wire.MsgHello,
		Payload: wire.EncodeHello(wire.Hello{Version: wire.Version}),
	})
	counters.AddBytesSent(n)
	counters.AddMessageSent()
	if err != nil {
		return nil, err
	}
	f, rn, err := wire.ReadAny(conn)
	counters.AddBytesReceived(rn)
	counters.AddMessageReceived()
	if err != nil {
		return nil, err
	}
	switch f.Type {
	case wire.MsgHelloAck:
		ack, err := wire.DecodeHelloAck(f.Payload)
		if err != nil {
			return nil, err
		}
		r.params = ack.Params
		r.pending = make(map[uint64]chan callResult)
		r.readerDone = make(chan struct{})
		go r.readLoop()
		return r, nil
	case wire.MsgError:
		e, err := wire.DecodeError(f.Payload)
		if err != nil {
			return nil, err
		}
		return nil, remoteError(e)
	default:
		return nil, fmt.Errorf("client: unexpected handshake frame %s", f.Type)
	}
}

// remoteError surfaces a decoded server ErrorMsg, carrying the typed
// code and retry-after hint through to the resilience classifiers.
func remoteError(e wire.ErrorMsg) *wire.RemoteError {
	return &wire.RemoteError{
		ID:         e.ID,
		Message:    e.Message,
		Code:       e.Code,
		RetryAfter: time.Duration(e.RetryAfterMillis) * time.Millisecond,
	}
}

// Params returns the ring parameters announced by the server.
func (r *Remote) Params() ring.Params { return r.params }

// Broken reports whether the session can no longer carry requests: it was
// closed, its reader hit a terminal error, or the server announced a
// graceful shutdown (Bye). A broken session never heals — re-dial.
func (r *Remote) Broken() bool {
	r.pmu.Lock()
	defer r.pmu.Unlock()
	return r.closed || r.readErr != nil || r.goaway
}

// Ring reconstructs the ring from the announced parameters.
func (r *Remote) Ring() (ring.Ring, error) { return ring.FromParams(r.params) }

// Close sends Bye and closes the connection. In-flight calls fail with
// ErrClosed.
func (r *Remote) Close() error {
	r.pmu.Lock()
	if r.closed {
		r.pmu.Unlock()
		return nil
	}
	r.closed = true
	r.pmu.Unlock()
	r.wmu.Lock()
	_, _ = wire.WriteFramed(r.conn, wire.FramedFrame{Type: wire.MsgBye})
	r.wmu.Unlock()
	err := r.conn.Close()
	<-r.readerDone
	return err
}

// readLoop reads frames and routes each to the pending call with its
// request ID. On a terminal read error every pending and future call
// fails.
func (r *Remote) readLoop() {
	defer close(r.readerDone)
	for {
		f, n, err := wire.ReadAny(r.conn)
		if err != nil {
			r.pmu.Lock()
			r.readErr = err
			if r.closed || errors.Is(err, io.EOF) {
				r.readErr = ErrClosed
			}
			pending := r.pending
			r.pending = make(map[uint64]chan callResult)
			failErr := r.readErr
			r.pmu.Unlock()
			for _, ch := range pending {
				ch <- callResult{err: failErr}
			}
			return
		}
		r.counters.AddBytesReceived(n)
		r.counters.AddMessageReceived()
		if f.Type == wire.MsgBye {
			// Server-initiated GOAWAY (graceful drain): in-flight responses
			// have already been flushed before the Bye, so mark the session
			// broken — Pool health checks will re-dial — and
			// keep reading until the server closes the connection.
			r.pmu.Lock()
			r.goaway = true
			r.pmu.Unlock()
			if f.Payload != nil {
				wire.PutBuf(f.Payload)
			}
			continue
		}
		res := callResult{typ: f.Type, payload: f.Payload}
		if f.Type == wire.MsgError {
			e, derr := wire.DecodeError(f.Payload)
			if derr != nil {
				res = callResult{err: derr}
			} else {
				res = callResult{err: remoteError(e)}
			}
			wire.PutBuf(f.Payload) // decoded; res carries no payload
		}
		r.pmu.Lock()
		ch, ok := r.pending[f.ReqID]
		delete(r.pending, f.ReqID)
		r.pmu.Unlock()
		if ok {
			ch <- res // buffered: never blocks the reader
		} else if res.payload != nil {
			// Responses with no waiter (cancelled calls) are dropped.
			wire.PutBuf(res.payload)
		}
	}
}

// call sends one request and waits for its response, honouring ctx. The
// request is pipelined: other calls may be in flight on the connection.
// call takes ownership of the (possibly pooled) request payload and
// recycles it once written; the caller must not touch it afterwards.
func (r *Remote) call(ctx context.Context, typ wire.MsgType, id uint64, payload []byte) (wire.MsgType, []byte, error) {
	if err := ctx.Err(); err != nil {
		wire.PutBuf(payload)
		return 0, nil, err
	}
	ch := make(chan callResult, 1)
	r.pmu.Lock()
	if r.closed {
		r.pmu.Unlock()
		wire.PutBuf(payload)
		return 0, nil, ErrClosed
	}
	if r.readErr != nil {
		err := r.readErr
		r.pmu.Unlock()
		wire.PutBuf(payload)
		return 0, nil, err
	}
	r.pending[id] = ch
	r.pmu.Unlock()

	// A request counts as sent once it is queued on the connection, before
	// the write lock (which a write the OS stalls can hold for milliseconds
	// while later requests queue behind it): the reader, on its own
	// goroutine, then never counts a response before its request, so
	// MessagesSent ≥ MessagesRcvd at every instant and equality means every
	// request of the session has been answered and all its bytes counted. A
	// failed write gives back what it did not write.
	size := wire.FramedSize(len(payload))
	r.counters.AddBytesSent(size)
	r.counters.AddMessageSent()
	r.wmu.Lock()
	n, err := wire.WriteFramed(r.conn, wire.FramedFrame{Type: typ, ReqID: id, Payload: payload})
	r.wmu.Unlock()
	wire.PutBuf(payload) // written (or failed); either way done with it
	if err != nil {
		r.counters.AddBytesSent(n - size)
		r.pmu.Lock()
		delete(r.pending, id)
		r.pmu.Unlock()
		return 0, nil, err
	}
	select {
	case res := <-ch:
		return res.typ, res.payload, res.err
	case <-ctx.Done():
		// Abandon the request: deregister so the eventual response is
		// dropped by the reader. The server still does the work.
		r.pmu.Lock()
		delete(r.pending, id)
		r.pmu.Unlock()
		// A response may have been delivered while we were deregistering.
		select {
		case res := <-ch:
			return res.typ, res.payload, res.err
		default:
		}
		return 0, nil, ctx.Err()
	}
}

func (r *Remote) id() uint64 {
	return r.nextID.Add(1)
}

// deadlineBudget converts the caller's remaining context deadline into
// the per-request budget field: milliseconds, rounded up so a
// sub-millisecond remainder is never truncated to "no deadline". Zero —
// no deadline — when the context has none.
func deadlineBudget(ctx context.Context) uint64 {
	dl, ok := ctx.Deadline()
	if !ok {
		return 0
	}
	left := time.Until(dl)
	if left <= 0 {
		return 1 // expired; the server will skip it, ctx.Err() races it
	}
	return uint64((left + time.Millisecond - 1) / time.Millisecond)
}

// SetObserver replaces the observer recording this session's wire
// round-trip latencies (tests inject an isolated one). Call before use.
func (r *Remote) SetObserver(o *obs.Observer) { r.obsv = o }

// traceFields returns the wire trace fields for this request: the
// context's sampled span, if any.
func traceFields(ctx context.Context) (id uint64, sampled bool) {
	if sp := obs.SpanFrom(ctx); sp != nil && sp.Trace.Sampled {
		return sp.Trace.ID, true
	}
	return 0, false
}

// observeWire records one completed wire round trip into the stage
// histogram and, when the request is sampled, its span.
func (r *Remote) observeWire(ctx context.Context, start time.Time) {
	d := time.Since(start)
	r.obsv.Observe(obs.StageWire, d)
	obs.SpanFrom(ctx).Add(obs.StageWire, d)
}

// EvalNodesCtx is EvalNodes with context cancellation. The response is
// positional: unless it carries the digest of the key list sent, an answer
// per key and a value per point it is refused (wire.ErrMismatch), and
// answer i is given keys[i]. Keys a daemon would refuse as one request go
// in parts.
func (r *Remote) EvalNodesCtx(ctx context.Context, keys []drbg.NodeKey, points []*big.Int) ([]core.NodeEval, error) {
	if !wire.KeyListFits(keys) {
		return inParts(keys, func(part []drbg.NodeKey) ([]core.NodeEval, error) { return r.EvalNodesCtx(ctx, part, points) })
	}
	id := r.id()
	traceID, sampled := traceFields(ctx)
	start := time.Now()
	req, keyDigest := wire.AppendEvalReq(wire.GetBuf(), wire.EvalReq{ID: id, Keys: keys, Points: points, TimeoutMillis: deadlineBudget(ctx), TraceID: traceID, TraceSampled: sampled})
	typ, payload, err := r.call(ctx, wire.MsgEval, id, req)
	r.observeWire(ctx, start)
	if err != nil {
		return nil, err
	}
	defer wire.PutBuf(payload) // decoders copy everything out
	if typ != wire.MsgEvalResp {
		return nil, fmt.Errorf("client: unexpected reply %s to Eval", typ)
	}
	dec, err := wire.DecodeEvalRespFor(payload, keys, keyDigest, len(points))
	if err != nil {
		return nil, err
	}
	if dec.ID != id {
		return nil, fmt.Errorf("client: response id %d for request %d", dec.ID, id)
	}
	return dec.Answers, nil
}

// FetchPolysCtx is FetchPolys with context cancellation, its response
// checked and split as EvalNodesCtx's is.
func (r *Remote) FetchPolysCtx(ctx context.Context, keys []drbg.NodeKey) ([]core.NodePoly, error) {
	if !wire.KeyListFits(keys) {
		return inParts(keys, func(part []drbg.NodeKey) ([]core.NodePoly, error) { return r.FetchPolysCtx(ctx, part) })
	}
	id := r.id()
	traceID, sampled := traceFields(ctx)
	start := time.Now()
	req, keyDigest := wire.AppendFetchReq(wire.GetBuf(), wire.FetchReq{ID: id, Keys: keys, TimeoutMillis: deadlineBudget(ctx), TraceID: traceID, TraceSampled: sampled})
	typ, payload, err := r.call(ctx, wire.MsgFetch, id, req)
	r.observeWire(ctx, start)
	if err != nil {
		return nil, err
	}
	defer wire.PutBuf(payload)
	if typ != wire.MsgFetchResp {
		return nil, fmt.Errorf("client: unexpected reply %s to Fetch", typ)
	}
	dec, err := wire.DecodeFetchRespFor(payload, keys, keyDigest)
	if err != nil {
		return nil, err
	}
	if dec.ID != id {
		return nil, fmt.Errorf("client: response id %d for request %d", dec.ID, id)
	}
	return dec.Answers, nil
}

// inParts answers keys in two calls, each of half of them: a wave of many
// siblings deep in the tree asks for more keys than its few encoded bytes
// may (wire.KeyListFits), and each half is split again while it does.
func inParts[T any](keys []drbg.NodeKey, call func([]drbg.NodeKey) ([]T, error)) ([]T, error) {
	half := len(keys) / 2
	first, err := call(keys[:half])
	if err != nil {
		return nil, err
	}
	rest, err := call(keys[half:])
	if err != nil {
		return nil, err
	}
	return append(first, rest...), nil
}

// EvalNodes implements core.ServerAPI.
func (r *Remote) EvalNodes(keys []drbg.NodeKey, points []*big.Int) ([]core.NodeEval, error) {
	return r.EvalNodesCtx(context.Background(), keys, points)
}

// FetchPolys implements core.ServerAPI.
func (r *Remote) FetchPolys(keys []drbg.NodeKey) ([]core.NodePoly, error) {
	return r.FetchPolysCtx(context.Background(), keys)
}

// Prune implements core.ServerAPI; kept only until the benchmark's tap
// stops forwarding it.
func (r *Remote) Prune([]drbg.NodeKey) error { return nil }

var _ core.ServerAPI = (*Remote)(nil)
