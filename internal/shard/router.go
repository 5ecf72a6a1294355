package shard

import (
	"context"
	"errors"
	"fmt"
	"math/big"

	"sssearch/internal/core"
	"sssearch/internal/drbg"
	"sssearch/internal/metrics"
	"sssearch/internal/resilience"
	"sssearch/internal/wire"
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
	backends [][]core.ServerAPI // backends[s] is shard s's replica group, tried in order
	counters *metrics.ShardCounters
}

// NewRouter wraps one backend per manifest shard. A backend may be any
// ServerAPI: an in-process Local, a remote connection or pool, or a
// k-of-n MultiServer replica group (the 2-D partition × replica
// deployment).
func NewRouter(man *Manifest, backends []core.ServerAPI) (*Router, error) {
	if err := man.Validate(); err != nil {
		return nil, err
	}
	if len(backends) != man.Shards {
		return nil, fmt.Errorf("shard: %d backends for %d shards", len(backends), man.Shards)
	}
	groups := make([][]core.ServerAPI, len(backends))
	for i, b := range backends {
		if b == nil {
			return nil, fmt.Errorf("shard: nil backend for shard %d", i)
		}
		groups[i] = []core.ServerAPI{b}
	}
	return &Router{
		man:      man,
		backends: groups,
		counters: metrics.NewShardCounters(man.Shards),
	}, nil
}

// NewReplicatedRouter wraps one replica GROUP per manifest shard: each
// shard's sub-batch goes to the group's first replica and fails over to
// the next on infrastructure faults, so losing a replica degrades latency
// (one failed call), not availability. Replicas of a shard must serve the
// same share tree — failover is answer-preserving only because every
// replica computes the same deterministic function.
func NewReplicatedRouter(man *Manifest, replicas [][]core.ServerAPI) (*Router, error) {
	if err := man.Validate(); err != nil {
		return nil, err
	}
	if len(replicas) != man.Shards {
		return nil, fmt.Errorf("shard: %d replica groups for %d shards", len(replicas), man.Shards)
	}
	groups := make([][]core.ServerAPI, len(replicas))
	for i, g := range replicas {
		if len(g) == 0 {
			return nil, fmt.Errorf("shard: empty replica group for shard %d", i)
		}
		for j, b := range g {
			if b == nil {
				return nil, fmt.Errorf("shard: nil replica %d for shard %d", j, i)
			}
		}
		groups[i] = append([]core.ServerAPI(nil), g...)
	}
	return &Router{
		man:      man,
		backends: groups,
		counters: metrics.NewShardCounters(man.Shards),
	}, nil
}

// Replicas returns the replica-group size of shard s.
func (r *Router) Replicas(s int) int { return len(r.backends[s]) }

// failoverSafe reports whether a failed sub-batch may be retried against
// another replica. A semantic answer from the server — a RemoteError
// (unknown key, decode failure) or ErrNotOwned — is terminal: the replica
// would answer identically, so retrying only wastes a round trip. An
// overload shed is the exception among RemoteErrors: the shedding
// replica did no work, and a sibling replica is a different daemon whose
// admission queue may have room — failing over is both answer-preserving
// and exactly what replicas are for. A breaker-open fast-fail from a
// wrapped client is failed over for the same reason. Everything else is
// treated as infrastructure (resets, closed sessions, timeouts,
// exhausted client-side retries); failing those over is
// answer-preserving because replicas serve the same immutable share tree
// and all requests are idempotent reads.
func failoverSafe(err error) bool {
	if errors.Is(err, ErrNotOwned) {
		return false
	}
	if resilience.Overloaded(err) || errors.Is(err, resilience.ErrBreakerOpen) {
		return true
	}
	var re *wire.RemoteError
	return !errors.As(err, &re)
}

// groupCall runs one sub-batch against shard s, failing over through the
// replica group. The error returned is the last replica's.
func groupCall[T any](r *Router, s int, fn func(api core.ServerAPI) (T, error)) (T, error) {
	group := r.backends[s]
	var zero T
	for i, api := range group {
		v, err := fn(api)
		if err == nil {
			return v, nil
		}
		if i == len(group)-1 || !failoverSafe(err) {
			return zero, err
		}
		r.counters.RecordRetry()
	}
	return zero, nil // unreachable: the loop always returns
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
// shards and gather in request order. A coalesce.Server wrapped over the
// Router merges concurrent session waves BEFORE the scatter, so each
// owning shard sees one deduplicated sub-batch per drain instead of one
// per session (conformance-pinned composition).
// shards, gather the evaluations in request order.
func (r *Router) EvalNodes(keys []drbg.NodeKey, points []*big.Int) ([]core.NodeEval, error) {
	return r.EvalNodesCtx(context.Background(), keys, points)
}

// EvalNodesCtx implements core.CtxEvaler: every shard sub-batch —
// including replica failovers — runs under the caller's ctx, so all
// legs of a sampled query share its trace ID.
func (r *Router) EvalNodesCtx(ctx context.Context, keys []drbg.NodeKey, points []*big.Int) ([]core.NodeEval, error) {
	return scatter(r, keys, func(s int, sub []drbg.NodeKey) ([]core.NodeEval, error) {
		return groupCall(r, s, func(api core.ServerAPI) ([]core.NodeEval, error) {
			return core.EvalNodesWithCtx(ctx, api, sub, points)
		})
	})
}

// FetchPolys implements core.ServerAPI.
func (r *Router) FetchPolys(keys []drbg.NodeKey) ([]core.NodePoly, error) {
	return r.FetchPolysCtx(context.Background(), keys)
}

// FetchPolysCtx implements core.CtxFetcher, routed like EvalNodesCtx.
func (r *Router) FetchPolysCtx(ctx context.Context, keys []drbg.NodeKey) ([]core.NodePoly, error) {
	return scatter(r, keys, func(s int, sub []drbg.NodeKey) ([]core.NodePoly, error) {
		return groupCall(r, s, func(api core.ServerAPI) ([]core.NodePoly, error) {
			return core.FetchPolysWithCtx(ctx, api, sub)
		})
	})
}

// Prune implements core.ServerAPI: every shard whose ranges intersect a
// pruned subtree is told about it (concurrently when several are
// involved) — a spine subtree's descendants may be carved out to other
// shards, and those shards hold dead nodes of the subtree too. Prune is
// advisory, but a shard that owns live keys of the query must still hear
// about its pruned ones, so errors are collected rather than
// first-ack-wins.
func (r *Router) Prune(keys []drbg.NodeKey) error {
	return r.PruneCtx(context.Background(), keys)
}

// PruneCtx implements core.CtxPruner, every shard's notice under the
// caller's ctx.
func (r *Router) PruneCtx(ctx context.Context, keys []drbg.NodeKey) error {
	if len(keys) == 0 {
		return nil
	}
	// Group by intersecting shard (a key may fan out to several shards,
	// unlike the eval/fetch split).
	var shards []int
	var sub [][]drbg.NodeKey
	slot := make(map[int]int, 4)
	for _, k := range keys {
		for _, s := range r.man.SubtreeShards(k) {
			j, ok := slot[s]
			if !ok {
				j = len(shards)
				slot[s] = j
				shards = append(shards, s)
				sub = append(sub, nil)
			}
			sub[j] = append(sub[j], k)
		}
	}
	r.counters.RecordBatch(shards)
	prune := func(s int, keys []drbg.NodeKey) error {
		_, err := groupCall(r, s, func(api core.ServerAPI) (struct{}, error) {
			return struct{}{}, core.PruneWithCtx(ctx, api, keys)
		})
		return err
	}
	if len(shards) == 1 {
		if err := prune(shards[0], sub[0]); err != nil {
			return fmt.Errorf("shard %d: %w", shards[0], err)
		}
		return nil
	}
	ch := make(chan error, len(shards))
	for j := range shards {
		go func(j int) {
			if err := prune(shards[j], sub[j]); err != nil {
				ch <- fmt.Errorf("shard %d: %w", shards[j], err)
				return
			}
			ch <- nil
		}(j)
	}
	var firstErr error
	for range shards {
		if err := <-ch; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

var _ core.ServerAPI = (*Router)(nil)

// ErrNotOwned reports a request for a node key outside a shard's ranges.
var ErrNotOwned = errors.New("shard: node key not owned by this shard")
