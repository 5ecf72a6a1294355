package shard

import (
	"context"
	"fmt"
	"math/big"

	"sssearch/internal/core"
	"sssearch/internal/drbg"
	"sssearch/internal/ring"
	"sssearch/internal/server"
	"sssearch/internal/wire"
)

// Guard is the server-side ownership fence of a sharded deployment. A
// shard's tree keeps the full document shape (so NodeKey navigation works
// unchanged), with foreign nodes holding zero polynomials — answering for
// one of those would silently corrupt a query, so the Guard rejects every
// evaluation or fetch of a key outside the shard's manifest ranges
// instead of letting the zero share leak out as a real value.
//
// It implements server.Store and server.RunStore over any inner API. Safe
// for concurrent use if the inner API is. A daemon in front of a Guard has
// it answer an eval request's key runs: the guard fences every key of every
// run before the inner store answers any, so it refuses what its EvalNodes
// refuses, in the same order. A coalesce.Server may still wrap the guard
// (only tests and the traced benchmark build one): merged passes then stay
// inside the ownership fence, since every merged key came from a request
// this guard would have checked anyway.
type Guard struct {
	inner core.ServerAPI
	ring  ring.Ring
	man   *Manifest
	id    int
}

// NewGuard fences inner behind the manifest ranges of shard id.
func NewGuard(r ring.Ring, inner core.ServerAPI, man *Manifest, id int) (*Guard, error) {
	if r == nil || inner == nil {
		return nil, fmt.Errorf("shard: nil ring or inner API")
	}
	if err := man.Validate(); err != nil {
		return nil, err
	}
	if id < 0 || id >= man.Shards {
		return nil, fmt.Errorf("shard: shard id %d out of range [0, %d)", id, man.Shards)
	}
	return &Guard{inner: inner, ring: r, man: man, id: id}, nil
}

// Ring returns the (public) ring parameters, for the daemon handshake.
func (g *Guard) Ring() ring.Ring { return g.ring }

// ID returns the guarded shard's id.
func (g *Guard) ID() int { return g.id }

// Manifest returns the deployment manifest the guard enforces.
func (g *Guard) Manifest() *Manifest { return g.man }

// check rejects any key outside the shard's ranges.
func (g *Guard) check(keys ...drbg.NodeKey) error {
	for _, k := range keys {
		if owner := g.man.Owner(k); owner != g.id {
			return fmt.Errorf("%w: %s belongs to shard %d, this is shard %d", ErrNotOwned, k, owner, g.id)
		}
	}
	return nil
}

// EvalNodes implements core.ServerAPI.
func (g *Guard) EvalNodes(keys []drbg.NodeKey, points []*big.Int) ([]core.NodeEval, error) {
	if err := g.check(keys...); err != nil {
		return nil, err
	}
	return g.inner.EvalNodes(keys, points)
}

// AppendEvalResp implements server.RunStore: every key of every run of req
// is checked before the inner store answers any.
func (g *Guard) AppendEvalResp(ctx context.Context, dst []byte, req wire.EvalReq) ([]byte, error) {
	var key drbg.NodeKey
	if err := req.Runs.Each(func(first drbg.NodeKey, r int) error {
		key = append(key[:0], first...)
		err := g.check(key)
		for i := 1; err == nil && i < r; i++ {
			key[len(key)-1]++
			err = g.check(key)
		}
		return err
	}); err != nil {
		return dst, err
	}
	return server.AppendEvalResp(ctx, g.inner, g.ring, dst, req)
}

// Self implements server.RunStore.
func (g *Guard) Self() core.ServerAPI { return g }

// FetchPolys implements core.ServerAPI.
func (g *Guard) FetchPolys(keys []drbg.NodeKey) ([]core.NodePoly, error) {
	if err := g.check(keys...); err != nil {
		return nil, err
	}
	return g.inner.FetchPolys(keys)
}

// Prune implements core.ServerAPI; kept only until the benchmark's tap
// stops forwarding it.
func (g *Guard) Prune([]drbg.NodeKey) error { return nil }

var _ server.RunStore = (*Guard)(nil)
