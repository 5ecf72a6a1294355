// Package server hosts the data-owner-facing server side of the scheme:
// an in-process share store that implements core.ServerAPI directly (used
// by tests, benchmarks and the network daemon), plus fault-injection
// wrappers for the verification experiments.
//
// The server holds ONLY its additive share tree and the public ring
// parameters. It never sees the original polynomials, the tag mapping, the
// client seed, or plaintext — evaluating its share at a query point reveals
// one uniformly-distributed summand.
package server

import (
	"errors"
	"fmt"
	"math/big"

	"sssearch/internal/core"
	"sssearch/internal/drbg"
	"sssearch/internal/lru"
	"sssearch/internal/metrics"
	"sssearch/internal/ring"
	"sssearch/internal/sharing"
)

// DefaultEvalCacheEntries bounds the per-server eval cache: the most
// recently used (node, point) evaluations are kept so hot subtrees — the
// root levels every query walks before pruning — are never re-evaluated.
// Each entry is one word of value plus map/list overhead (~100 B), so the
// default caps cache memory at roughly 6–7 MiB regardless of tree size.
const DefaultEvalCacheEntries = 1 << 16

// evalKey identifies one cached fast-path evaluation. Node identity is
// the share-tree node pointer (stable for the life of the server; no
// string rendering on the lookup path).
type evalKey struct {
	node *sharing.Node
	x    uint64
}

// bigEvalKey is the fallback-ring cache key: IntQuotient points are
// arbitrary big integers, rendered once per lookup.
type bigEvalKey struct {
	node *sharing.Node
	x    string
}

// Local is an in-process server over a materialized share tree. Safe for
// concurrent use (the tree is read-only after construction; the eval
// cache is internally locked).
type Local struct {
	ring ring.Ring
	tree *sharing.Tree

	// fp + packed are the word-sized fast path: every node polynomial is
	// packed once at construction, evaluations are uint64 Horner passes.
	fp     *ring.FpCyclotomic
	packed map[*sharing.Node][]uint64

	// cache (fast path) / bigCache (fallback rings) memoize per-point
	// evaluations of hot nodes across queries.
	cache    *lru.Cache[evalKey, uint64]
	bigCache *lru.Cache[bigEvalKey, *big.Int]

	counters *metrics.Counters
}

// NewLocal builds a Local server with the default eval-cache bound.
func NewLocal(r ring.Ring, tree *sharing.Tree) (*Local, error) {
	if r == nil || tree == nil || tree.Root == nil {
		return nil, errors.New("server: nil ring or tree")
	}
	s := &Local{ring: r, tree: tree, counters: &metrics.Counters{}}
	if fp, ok := r.(*ring.FpCyclotomic); ok && fp.Fast() != nil {
		s.fp = fp
		s.packed = make(map[*sharing.Node][]uint64)
		tree.Walk(func(_ drbg.NodeKey, n *sharing.Node) bool {
			// The packed split leaves a canonical word mirror on every
			// node; only trees loaded from disk or built through the
			// big.Int path still need packing here.
			if n.Packed != nil {
				s.packed[n] = n.Packed
			} else if vec, ok := fp.Pack(n.Poly); ok {
				s.packed[n] = vec
			}
			return true
		})
	}
	s.SetEvalCacheEntries(DefaultEvalCacheEntries)
	return s, nil
}

// SetEvalCacheEntries re-bounds the eval cache to at most n (node, point)
// values; 0 disables caching. Not safe to call concurrently with queries.
func (s *Local) SetEvalCacheEntries(n int) {
	if s.fp != nil {
		s.cache = lru.New[evalKey, uint64](n)
		s.bigCache = nil
		return
	}
	s.cache = nil
	s.bigCache = lru.New[bigEvalKey, *big.Int](n)
}

// Counters exposes the server-side metric counters (eval-cache hits and
// misses; the protocol counters live client-side on the engine).
func (s *Local) Counters() *metrics.Counters { return s.counters }

// Ring returns the server's (public) ring parameters.
func (s *Local) Ring() ring.Ring { return s.ring }

// Tree exposes the share tree (used by the store and the daemon).
func (s *Local) Tree() *sharing.Tree { return s.tree }

// EvalNodes implements core.ServerAPI. All points of one node are served
// by a single pass over its polynomial (multi-point Horner); cached
// (node, point) values skip the pass entirely. Answers carry words on the
// fast path and big.Int values on the reference path.
func (s *Local) EvalNodes(keys []drbg.NodeKey, points []*big.Int) ([]core.NodeEval, error) {
	// Re-check the live fast-path state: SetFast(false) after NewLocal (the
	// ablation toggle) must degrade to the big.Int path, not crash.
	if s.fp != nil && s.fp.Fast() != nil {
		return s.evalNodesFast(keys, points)
	}
	out := make([]core.NodeEval, len(keys))
	for i, k := range keys {
		node, err := s.tree.Lookup(k)
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		values := make([]*big.Int, len(points))
		np := node.Polynomial()
		for j, p := range points {
			bk := bigEvalKey{node: node, x: p.String()}
			if v, ok := s.bigCache.Get(bk); ok {
				s.counters.AddEvalCacheHits(1)
				values[j] = v
				continue
			}
			v, err := s.ring.Eval(np, p)
			if err != nil {
				return nil, fmt.Errorf("server: evaluating %s at %s: %w", k, p, err)
			}
			s.counters.AddEvalCacheMiss(1)
			s.bigCache.Add(bk, v)
			values[j] = v
		}
		out[i] = core.NodeEval{Key: k, Big: values, NumChildren: len(node.Children)}
	}
	return out, nil
}

// evalNodesFast is the packed fast path: points are converted to
// Montgomery residues once per call, each node with uncached points gets
// exactly one Horner pass over its packed polynomial, and the call's values
// are written as words into one slab the answers share — a warm call
// allocates its answers, not its values.
func (s *Local) evalNodesFast(keys []drbg.NodeKey, points []*big.Int) ([]core.NodeEval, error) {
	ff := s.fp.Fast()
	np := len(points)
	// One array: the points' residues, their Montgomery forms, and the
	// scratch for a node's missing-point subset.
	scratch := make([]uint64, 4*np)
	xs, xsMont := scratch[:np], scratch[np:2*np]
	missMont, missVal := scratch[2*np:2*np:3*np], scratch[3*np:]
	for j, p := range points {
		x, err := s.fp.PackPoint(p)
		if err != nil {
			return nil, fmt.Errorf("server: point %s: %w", p, err)
		}
		xs[j] = x
	}
	ff.MFormVec(xsMont, xs)
	missIdx := make([]int, 0, np)

	out := make([]core.NodeEval, len(keys))
	slab := make([]uint64, len(keys)*np)
	for i, k := range keys {
		node, err := s.tree.Lookup(k)
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		values := slab[i*np : (i+1)*np : (i+1)*np]
		missMont = missMont[:0]
		missIdx = missIdx[:0]
		for j := range xs {
			if v, ok := s.cache.Get(evalKey{node: node, x: xs[j]}); ok {
				s.counters.AddEvalCacheHits(1)
				values[j] = v
				continue
			}
			missMont = append(missMont, xsMont[j])
			missIdx = append(missIdx, j)
		}
		if len(missIdx) > 0 {
			s.counters.AddEvalCacheMiss(len(missIdx))
			if vec, ok := s.packed[node]; ok {
				ff.EvalMany(vec, missMont, missVal[:len(missIdx)])
			} else {
				// Node polynomial does not pack (foreign big coefficients):
				// evaluate through the ring — a residue mod p all the same —
				// still caching the results.
				q := node.Polynomial()
				for m, j := range missIdx {
					v, err := s.ring.Eval(q, points[j])
					if err != nil {
						return nil, fmt.Errorf("server: evaluating %s at %s: %w", k, points[j], err)
					}
					missVal[m] = ff.ReduceBig(v)
				}
			}
			for m, j := range missIdx {
				s.cache.Add(evalKey{node: node, x: xs[j]}, missVal[m])
				values[j] = missVal[m]
			}
		}
		out[i] = core.NodeEval{Key: k, Words: values, NumChildren: len(node.Children)}
	}
	return out, nil
}

// FetchPolys implements core.ServerAPI. A node that holds its share as
// words hands out that very vector (shared, read-only) — nothing is boxed
// or copied between the store file and the response frame.
func (s *Local) FetchPolys(keys []drbg.NodeKey) ([]core.NodePoly, error) {
	out := make([]core.NodePoly, len(keys))
	for i, k := range keys {
		node, err := s.tree.Lookup(k)
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		out[i] = core.NodePoly{Key: k, Words: node.Packed, NumChildren: len(node.Children)}
		if node.Packed == nil {
			out[i].Big = node.Poly
		}
	}
	return out, nil
}

// Prune implements core.ServerAPI. The in-process server holds no per-query
// state, so this is a no-op acknowledgement.
func (s *Local) Prune([]drbg.NodeKey) error { return nil }

var _ core.ServerAPI = (*Local)(nil)
