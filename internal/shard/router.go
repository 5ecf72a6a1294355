package shard

import (
	"context"
	"errors"
	"fmt"
	"math/big"

	"sssearch/internal/core"
	"sssearch/internal/drbg"
	"sssearch/internal/metrics"
)

// Router fans one logical core.ServerAPI out over a tree-partitioned
// deployment: each request batch is split by the manifest's ownership
// ranges, scattered to the owning shard backends concurrently, and the
// per-shard answers are gathered back into request order, so the query
// engine (and any wrapper such as a Shamir MultiServer around a shard
// group) is oblivious to the partitioning.
//
// Safe for concurrent use if the backend APIs are.
type Router struct {
	man      *Manifest
	backends []core.ServerAPI // backends[s] serves shard s
	counters *metrics.ShardCounters
}

// NewRouter wraps one backend per manifest shard. A backend may be any
// ServerAPI: an in-process Local, a remote connection or pool, or a
// k-of-n MultiServer replica group (the 2-D partition × replica
// deployment, where the MultiServer fails over to spare members).
func NewRouter(man *Manifest, backends []core.ServerAPI) (*Router, error) {
	if err := man.Validate(); err != nil {
		return nil, err
	}
	if len(backends) != man.Shards {
		return nil, fmt.Errorf("shard: %d backends for %d shards", len(backends), man.Shards)
	}
	for i, b := range backends {
		if b == nil {
			return nil, fmt.Errorf("shard: nil backend for shard %d", i)
		}
	}
	return &Router{
		man:      man,
		backends: append([]core.ServerAPI(nil), backends...),
		counters: metrics.NewShardCounters(man.Shards),
	}, nil
}

// Manifest returns the routing manifest.
func (r *Router) Manifest() *Manifest { return r.man }

// Counters exposes the routing tallies: per-shard backend calls and
// cross-shard fan-out per routed batch.
func (r *Router) Counters() *metrics.ShardCounters { return r.counters }

// split groups the key batch by owning shard, preserving each shard's
// request-order subsequence. shards lists the involved shard ids in
// first-appearance order; idx[j] and sub[j] are the original positions
// and keys routed to shards[j].
func (r *Router) split(keys []drbg.NodeKey) (shards []int, idx [][]int, sub [][]drbg.NodeKey) {
	slot := make(map[int]int, 4) // shard id → position in shards
	for i, k := range keys {
		s := r.man.Owner(k)
		j, ok := slot[s]
		if !ok {
			j = len(shards)
			slot[s] = j
			shards = append(shards, s)
			idx = append(idx, nil)
			sub = append(sub, nil)
		}
		idx[j] = append(idx[j], i)
		sub[j] = append(sub[j], k)
	}
	return shards, idx, sub
}

// scatter routes one keyed call: single-shard batches pass through on the
// caller's goroutine; multi-shard batches fan out concurrently and the
// answers are reassembled in request order. call must return one answer
// per key, in order.
func scatter[T any](r *Router, keys []drbg.NodeKey, call func(shard int, sub []drbg.NodeKey) ([]T, error)) ([]T, error) {
	if len(keys) == 0 {
		return []T{}, nil
	}
	shards, idx, sub := r.split(keys)
	r.counters.RecordBatch(shards)
	if len(shards) == 1 {
		res, err := call(shards[0], keys)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", shards[0], err)
		}
		if len(res) != len(keys) {
			return nil, fmt.Errorf("shard: shard %d returned %d answers for %d keys", shards[0], len(res), len(keys))
		}
		return res, nil
	}
	type shardResult struct {
		j   int
		res []T
		err error
	}
	ch := make(chan shardResult, len(shards))
	for j := range shards {
		go func(j int) {
			res, err := call(shards[j], sub[j])
			ch <- shardResult{j: j, res: res, err: err}
		}(j)
	}
	out := make([]T, len(keys))
	var firstErr error
	for range shards {
		sr := <-ch
		if sr.err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("shard %d: %w", shards[sr.j], sr.err)
			}
			continue
		}
		if len(sr.res) != len(sub[sr.j]) {
			if firstErr == nil {
				firstErr = fmt.Errorf("shard: shard %d returned %d answers for %d keys",
					shards[sr.j], len(sr.res), len(sub[sr.j]))
			}
			continue
		}
		for m, i := range idx[sr.j] {
			out[i] = sr.res[m]
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// EvalNodes implements core.ServerAPI: scatter the batch to the owning
// shards and gather the evaluations in request order.
func (r *Router) EvalNodes(keys []drbg.NodeKey, points []*big.Int) ([]core.NodeEval, error) {
	return r.EvalNodesCtx(context.Background(), keys, points)
}

// EvalNodesCtx implements core.CtxEvaler: every shard sub-batch runs
// under the caller's ctx, so all legs of a sampled query share its trace
// ID.
func (r *Router) EvalNodesCtx(ctx context.Context, keys []drbg.NodeKey, points []*big.Int) ([]core.NodeEval, error) {
	return scatter(r, keys, func(s int, sub []drbg.NodeKey) ([]core.NodeEval, error) {
		return core.EvalNodesWithCtx(ctx, r.backends[s], sub, points)
	})
}

// FetchPolys implements core.ServerAPI.
func (r *Router) FetchPolys(keys []drbg.NodeKey) ([]core.NodePoly, error) {
	return r.FetchPolysCtx(context.Background(), keys)
}

// FetchPolysCtx implements core.CtxFetcher, routed like EvalNodesCtx.
func (r *Router) FetchPolysCtx(ctx context.Context, keys []drbg.NodeKey) ([]core.NodePoly, error) {
	return scatter(r, keys, func(s int, sub []drbg.NodeKey) ([]core.NodePoly, error) {
		return core.FetchPolysWithCtx(ctx, r.backends[s], sub)
	})
}

// Prune implements core.ServerAPI; kept only until the benchmark's tap
// stops forwarding it.
func (r *Router) Prune([]drbg.NodeKey) error { return nil }

var _ core.ServerAPI = (*Router)(nil)

// ErrNotOwned reports a request for a node key outside a shard's ranges.
var ErrNotOwned = errors.New("shard: node key not owned by this shard")
