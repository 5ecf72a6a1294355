// Package coalesce implements opportunistic cross-session request
// coalescing on the serving path. The paper's query protocol is
// embarrassingly batchable — every lookup is a set of independent
// (node, point) share-polynomial evaluations — so when N concurrent
// sessions walk the same hot subtree there is no reason for the store to
// run N full evaluation passes.
//
// Server wraps any core.ServerAPI (a plain server.Local, a shard.Guard,
// a shard.Router, a core.MultiServer …) and merges whatever EvalNodes
// calls are queued across all connections into shared inner passes:
//
//   - The first call for a given evaluation-point vector finds no drain
//     running and starts one; calls arriving while a pass is in flight
//     queue up and are merged into the next pass. A lone query therefore
//     never waits on a batching window — there are no timers, the flush
//     signal is the call itself. Distinct point vectors drain on
//     independent goroutines, so heterogeneous traffic keeps the full
//     concurrency of the unmerged path.
//   - Queued requests with the same point vector are merged into one
//     inner EvalNodes pass over the union of their keys, with identical
//     (node, point-set) pairs deduplicated singleflight-style: the
//     evaluation (and, below a server.Local, the eval-cache fill)
//     happens once and the resulting values are shared by every waiting
//     session. On the fast path that turns N concurrent pipelined frames
//     for a hot subtree into ONE packed fastfield.EvalMany pass per node.
//   - If a merged pass fails (for example one session asked for an
//     unknown key), the coalescer falls back to running each queued
//     request individually, so error semantics are exactly those of the
//     uncoalesced store: the offending request gets its error, innocent
//     requests merged with it still succeed. The failed shared pass is
//     wasted work, so a client that PERSISTENTLY sends bad keys drags
//     its merge group slightly below uncoalesced cost — inner errors
//     cannot be attributed to a key generically. A merged pass whose
//     target answers other keys than it was asked, or fewer, is not
//     replayed: every request it served fails. Deployments exposed to
//     adversarial clients should pair the coalescer with request
//     authentication (see the TLS+auth roadmap item); per-key error
//     attribution / negative caching is a possible follow-up.
//
// Results may alias across sessions: the same *big.Int values (and, for
// identical hot waves, the same Values slices) are handed to every
// request that asked for the pair. That is safe under the ServerAPI
// contract — answers are read-only (the engine combines them into fresh
// big.Ints, the daemon serialises them).
//
// FetchPolys passes through unbatched: the engine already asks for a
// whole step's polynomials in a few large deduplicated fetches (core's
// recoverNodeTags), so there is little left to merge across sessions.
//
// The merging engine itself (per-signature drains, dedup, distribution)
// lives in Merger and is shared with the client-side micro-batcher
// (client.Batcher).
package coalesce

import (
	"context"
	"math/big"

	"sssearch/internal/core"
	"sssearch/internal/drbg"
	"sssearch/internal/metrics"
	"sssearch/internal/obs"
	"sssearch/internal/ring"
)

// DefaultMaxBatchKeys bounds the distinct keys evaluated by one merged
// inner pass; a drain holding more work splits it into concurrent
// chunked passes. Keeps a pathological pile-up from building one giant
// batch (and one giant response) instead of pipelining.
const DefaultMaxBatchKeys = 8192

// Server is the coalescing wrapper. Safe for concurrent use (that is
// its entire point); construct with New.
type Server struct {
	inner    core.ServerAPI
	counters *metrics.Counters
	merger   *Merger

	// MaxBatchKeys bounds distinct keys per merged inner pass. Zero
	// means DefaultMaxBatchKeys. Set before serving.
	MaxBatchKeys int
}

// New wraps inner with a coalescer. counters may be nil (a fresh set is
// allocated); the coalescing tallies appear next to the eval-cache pair
// in the snapshot.
func New(inner core.ServerAPI, counters *metrics.Counters) *Server {
	if counters == nil {
		counters = &metrics.Counters{}
	}
	s := &Server{inner: inner, counters: counters}
	s.merger = NewMerger(
		// The ctx carries only observability context here (trace span of
		// the merged pass); in-process stores are not cancellable.
		func(ctx context.Context, keys []drbg.NodeKey, points []*big.Int) ([]core.NodeEval, error) {
			return core.EvalNodesWithCtx(ctx, inner, keys, points)
		},
		counters,
		func() int { return s.MaxBatchKeys },
	)
	s.merger.SetObserved(obs.Default(), obs.StageCoalesceWait)
	return s
}

// SetObserver replaces the observer recording coalesce-wait latencies
// (the daemon points it at its own observer so the debug surface sees
// one coherent view). Call before serving.
func (s *Server) SetObserver(o *obs.Observer) {
	s.merger.SetObserved(o, obs.StageCoalesceWait)
}

// Counters exposes the coalescing tallies (merged passes, absorbed
// requests, deduplicated evaluations).
func (s *Server) Counters() *metrics.Counters { return s.counters }

// Queued returns the coalescer's queue depth: requests waiting for a
// merged pass behind one in flight.
func (s *Server) Queued() int { return s.merger.Queued() }

// Inner returns the wrapped API.
func (s *Server) Inner() core.ServerAPI { return s.inner }

// Ring returns the inner store's public ring parameters, so a coalescing
// wrapper can stand in for any server.Store in front of a daemon. It
// returns nil if the inner API does not announce a ring.
func (s *Server) Ring() ring.Ring {
	if r, ok := s.inner.(interface{ Ring() ring.Ring }); ok {
		return r.Ring()
	}
	return nil
}

// EvalNodes implements core.ServerAPI. The call queues the request for
// its point vector's next merged pass and blocks until its own answers
// are ready.
func (s *Server) EvalNodes(keys []drbg.NodeKey, points []*big.Int) ([]core.NodeEval, error) {
	return s.merger.Eval(context.Background(), keys, points)
}

// EvalNodesCtx implements core.CtxEvaler: the caller's trace context
// rides into the merge queue (and on into the merged pass, see
// Merger.processGroup), so the daemon's per-request spans survive
// coalescing.
func (s *Server) EvalNodesCtx(ctx context.Context, keys []drbg.NodeKey, points []*big.Int) ([]core.NodeEval, error) {
	return s.merger.Eval(ctx, keys, points)
}

// FetchPolys implements core.ServerAPI (pass-through: the client batches
// a step's fetches itself, and a response is polynomial-sized).
func (s *Server) FetchPolys(keys []drbg.NodeKey) ([]core.NodePoly, error) {
	return s.inner.FetchPolys(keys)
}

// Prune implements core.ServerAPI; kept only until the benchmark's tap
// stops forwarding it.
func (s *Server) Prune([]drbg.NodeKey) error { return nil }

var _ core.ServerAPI = (*Server)(nil)
