package client

import (
	"context"
	"math/big"

	"sssearch/internal/coalesce"
	"sssearch/internal/core"
	"sssearch/internal/drbg"
	"sssearch/internal/metrics"
	"sssearch/internal/obs"
)

// BatchTarget is what a Batcher drives: the context-aware call surface
// shared by Remote and Pool.
type BatchTarget interface {
	EvalNodesCtx(ctx context.Context, keys []drbg.NodeKey, points []*big.Int) ([]core.NodeEval, error)
	FetchPolysCtx(ctx context.Context, keys []drbg.NodeKey) ([]core.NodePoly, error)
	PruneCtx(ctx context.Context, keys []drbg.NodeKey) error
}

// DefaultMaxBatchKeys bounds the distinct keys a single merged wire
// request carries; larger flushes split into concurrent chunked
// requests.
const DefaultMaxBatchKeys = 4096

// Batcher adds transparent client-side micro-batching in front of a
// Remote or Pool: concurrent EvalNodes calls — parallel engine batches,
// or many sessions sharing one pool — are merged into a single wire
// request with deduplicated keys, halving-or-better the frame count on
// fan-in workloads. It implements core.ServerAPI plus the same
// context-aware surface as Remote.
//
// Flushing is structural, never timed: the first call for a given point
// vector flushes immediately (a lone query pays no batching latency) and
// calls that arrive while its round trip is in flight merge into the
// next one — flush on size or first-await. Distinct point vectors flush
// on independent goroutines, so non-mergeable concurrent searches keep
// the pool's parallelism.
//
// The merged round trip is detached from any single caller's context:
// one session cancelling must not fail the others sharing the request
// (the abandoned caller gets its context error, the wire call
// completes). The merge engine is shared with the server-side
// coalesce.Server.
type Batcher struct {
	inner    BatchTarget
	counters *metrics.Counters
	obsv     *obs.Observer
	merger   *coalesce.Merger

	// MaxBatchKeys bounds distinct keys per merged request. Zero means
	// DefaultMaxBatchKeys. Set before use.
	MaxBatchKeys int
}

// NewBatcher wraps target. counters may be nil; the coalescing tallies
// land next to the wire counters of the session.
func NewBatcher(target BatchTarget, counters *metrics.Counters) *Batcher {
	if counters == nil {
		counters = &metrics.Counters{}
	}
	b := &Batcher{inner: target, counters: counters, obsv: obs.Default()}
	b.merger = coalesce.NewMerger(
		target.EvalNodesCtx,
		counters,
		func() int {
			if b.MaxBatchKeys > 0 {
				return b.MaxBatchKeys
			}
			return DefaultMaxBatchKeys
		},
	)
	b.merger.SetObserved(b.obsv, obs.StageBatchWait)
	return b
}

// Counters exposes the batching tallies (merged requests, deduplicated
// evaluations).
func (b *Batcher) Counters() *metrics.Counters { return b.counters }

// SetObserver replaces the observer recording batch-wait latencies.
// Call before use.
func (b *Batcher) SetObserver(o *obs.Observer) {
	b.obsv = o
	b.merger.SetObserved(o, obs.StageBatchWait)
}

// EvalNodesCtx queues the request for its point vector's next flush and
// waits for its answers, honouring ctx. A call arriving without trace
// context draws its own sampling decision — the Batcher is a trace
// origin for callers that use it directly, ahead of any Engine.
func (b *Batcher) EvalNodesCtx(ctx context.Context, keys []drbg.NodeKey, points []*big.Int) ([]core.NodeEval, error) {
	if obs.SpanFrom(ctx) == nil {
		if tr := obs.NewTrace(); tr.Sampled {
			sp := obs.StartSpan("batch_eval", tr)
			ctx = obs.WithSpan(ctx, sp)
			defer b.obsv.FinishSpan(sp)
		}
	}
	return b.merger.Eval(ctx, keys, points)
}

// FetchPolysCtx passes through: the engine batches a step's polynomial
// fetches itself.
func (b *Batcher) FetchPolysCtx(ctx context.Context, keys []drbg.NodeKey) ([]core.NodePoly, error) {
	return b.inner.FetchPolysCtx(ctx, keys)
}

// PruneCtx passes through.
func (b *Batcher) PruneCtx(ctx context.Context, keys []drbg.NodeKey) error {
	return b.inner.PruneCtx(ctx, keys)
}

// EvalNodes implements core.ServerAPI.
func (b *Batcher) EvalNodes(keys []drbg.NodeKey, points []*big.Int) ([]core.NodeEval, error) {
	return b.EvalNodesCtx(context.Background(), keys, points)
}

// FetchPolys implements core.ServerAPI.
func (b *Batcher) FetchPolys(keys []drbg.NodeKey) ([]core.NodePoly, error) {
	return b.inner.FetchPolysCtx(context.Background(), keys)
}

// Prune implements core.ServerAPI.
func (b *Batcher) Prune(keys []drbg.NodeKey) error {
	return b.inner.PruneCtx(context.Background(), keys)
}

var _ core.ServerAPI = (*Batcher)(nil)
var _ BatchTarget = (*Remote)(nil)
var _ BatchTarget = (*Pool)(nil)
