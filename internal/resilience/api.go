package resilience

import (
	"context"
	"math/big"

	"sssearch/internal/core"
	"sssearch/internal/drbg"
)

// API wraps any core.ServerAPI with the retry policy: every call runs
// under Do, so transient faults of the wrapped transport (a pool whose
// members are mid-re-dial, a router whose replicas flap) are absorbed up
// to the policy's attempt budget while semantic errors pass straight
// through. Safe for concurrent use if the inner API is.
type API struct {
	Inner  core.ServerAPI
	Policy Policy
}

// EvalNodes implements core.ServerAPI.
func (a *API) EvalNodes(keys []drbg.NodeKey, points []*big.Int) ([]core.NodeEval, error) {
	return a.EvalNodesCtx(context.Background(), keys, points)
}

// EvalNodesCtx implements core.CtxEvaler: the caller's ctx bounds the
// whole retry loop and flows into every attempt, so each retried leg of
// a sampled query carries the query's trace ID.
func (a *API) EvalNodesCtx(ctx context.Context, keys []drbg.NodeKey, points []*big.Int) ([]core.NodeEval, error) {
	return Do(ctx, a.Policy, func(ctx context.Context) ([]core.NodeEval, error) {
		return core.EvalNodesWithCtx(ctx, a.Inner, keys, points)
	})
}

// FetchPolys implements core.ServerAPI.
func (a *API) FetchPolys(keys []drbg.NodeKey) ([]core.NodePoly, error) {
	return a.FetchPolysCtx(context.Background(), keys)
}

// FetchPolysCtx implements core.CtxFetcher, retried like EvalNodesCtx.
func (a *API) FetchPolysCtx(ctx context.Context, keys []drbg.NodeKey) ([]core.NodePoly, error) {
	return Do(ctx, a.Policy, func(ctx context.Context) ([]core.NodePoly, error) {
		return core.FetchPolysWithCtx(ctx, a.Inner, keys)
	})
}

// Prune implements core.ServerAPI.
func (a *API) Prune(keys []drbg.NodeKey) error {
	return a.PruneCtx(context.Background(), keys)
}

// PruneCtx implements core.CtxPruner, retried like EvalNodesCtx.
func (a *API) PruneCtx(ctx context.Context, keys []drbg.NodeKey) error {
	_, err := Do(ctx, a.Policy, func(ctx context.Context) (struct{}, error) {
		return struct{}{}, core.PruneWithCtx(ctx, a.Inner, keys)
	})
	return err
}

var _ core.ServerAPI = (*API)(nil)
var _ core.CtxEvaler = (*API)(nil)
var _ core.CtxFetcher = (*API)(nil)
var _ core.CtxPruner = (*API)(nil)
