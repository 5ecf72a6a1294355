// Package server hosts the data-owner-facing server side of the scheme:
// an in-process share store that implements core.ServerAPI directly (used
// by tests, benchmarks and the network daemon), plus fault-injection
// wrappers for the verification experiments.
//
// The server holds ONLY its additive share tree and the public ring
// parameters. It never sees the original polynomials, the tag mapping, the
// client seed, or plaintext — evaluating its share at a query point reveals
// one uniformly-distributed summand. On F_p the share is stored as its
// values at every point, so that evaluation is a read.
package server

import (
	"errors"
	"fmt"
	"math/big"

	"sssearch/internal/core"
	"sssearch/internal/drbg"
	"sssearch/internal/metrics"
	"sssearch/internal/ring"
	"sssearch/internal/sharing"
)

// Local is an in-process server over a materialized share tree. Safe for
// concurrent use: the tree is read-only after construction.
type Local struct {
	ring ring.Ring
	tree *sharing.Tree
	// fp is non-nil on F_p, where the tree is in the value form and a
	// node's share at the point a is its value a−1.
	fp       *ring.FpCyclotomic
	counters *metrics.Counters
}

// NewLocal builds a Local server. An F_p tree in the coefficient form
// (hand-built fixtures) is taken into the value form once, here.
func NewLocal(r ring.Ring, tree *sharing.Tree) (*Local, error) {
	if r == nil || tree == nil || tree.Root == nil {
		return nil, errors.New("server: nil ring or tree")
	}
	s := &Local{ring: r, tree: tree, counters: &metrics.Counters{}}
	if fp, ok := r.(*ring.FpCyclotomic); ok {
		s.fp, s.tree = fp, sharing.ValueTree(fp, tree)
	}
	return s, nil
}

// Counters exposes the server-side metric counters. Nothing increments
// them: the protocol counters live client-side on the engine, and the set
// stays only for the benchmark's traced eval-cache tap.
func (s *Local) Counters() *metrics.Counters { return s.counters }

// Ring returns the server's (public) ring parameters.
func (s *Local) Ring() ring.Ring { return s.ring }

// Tree exposes the share tree (used by the store and the daemon).
func (s *Local) Tree() *sharing.Tree { return s.tree }

// EvalNodes implements core.ServerAPI. On F_p a node's value at each point
// is read from its vector, and the call's values are written as words into
// one slab the answers share; a coefficient-form store evaluates each
// (node, point) through the ring and answers in big.Int.
func (s *Local) EvalNodes(keys []drbg.NodeKey, points []*big.Int) ([]core.NodeEval, error) {
	if s.fp != nil {
		return s.evalValues(keys, points)
	}
	out := make([]core.NodeEval, len(keys))
	for i, k := range keys {
		node, err := s.tree.Lookup(k)
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		values := make([]*big.Int, len(points))
		for j, p := range points {
			v, err := s.ring.Eval(node.Poly, p)
			if err != nil {
				return nil, fmt.Errorf("server: evaluating %s at %s: %w", k, p, err)
			}
			values[j] = v
		}
		out[i] = core.NodeEval{Key: k, Big: values, NumChildren: len(node.Children)}
	}
	return out, nil
}

// evalValues is EvalNodes on a value-form store: the points become value
// indices once per call, and each (node, point) is one read.
func (s *Local) evalValues(keys []drbg.NodeKey, points []*big.Int) ([]core.NodeEval, error) {
	np := len(points)
	xs := make([]int, np)
	for j, p := range points {
		x, err := s.fp.PackPoint(p)
		if err != nil {
			return nil, fmt.Errorf("server: point %s: %w", p, err)
		}
		xs[j] = int(x - 1)
	}
	out := make([]core.NodeEval, len(keys))
	slab := make([]uint64, len(keys)*np)
	for i, k := range keys {
		node, err := s.tree.Lookup(k)
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		values := slab[i*np : (i+1)*np : (i+1)*np]
		for j, x := range xs {
			values[j] = s.tree.Value(node, x)
		}
		out[i] = core.NodeEval{Key: k, Words: values, NumChildren: len(node.Children)}
	}
	return out, nil
}

// FetchPolys implements core.ServerAPI: on F_p a node's value vector in
// words, elsewhere its polynomial.
func (s *Local) FetchPolys(keys []drbg.NodeKey) ([]core.NodePoly, error) {
	out := make([]core.NodePoly, len(keys))
	for i, k := range keys {
		node, err := s.tree.Lookup(k)
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		out[i] = core.NodePoly{Key: k, NumChildren: len(node.Children)}
		if s.fp != nil {
			out[i].Words = s.tree.Words(node)
		} else {
			out[i].Big = node.Poly
		}
	}
	return out, nil
}

// Prune implements core.ServerAPI; kept only until the benchmark's tap
// stops forwarding it.
func (s *Local) Prune([]drbg.NodeKey) error { return nil }

var _ core.ServerAPI = (*Local)(nil)
