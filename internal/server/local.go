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
	"context"
	"errors"
	"fmt"
	"math/big"
	"math/bits"
	"slices"

	"sssearch/internal/core"
	"sssearch/internal/drbg"
	"sssearch/internal/metrics"
	"sssearch/internal/ring"
	"sssearch/internal/sharing"
	"sssearch/internal/wire"
)

// Local is an in-process server over a materialized share tree. Safe for
// concurrent use: the tree is read-only after construction.
type Local struct {
	ring ring.Ring
	tree *sharing.Tree
	// fp is non-nil on F_p, where the tree is in the value form and a
	// node's share at the point a is its value a−1.
	fp *ring.FpCyclotomic
	// valueBits is the bit length of p−1, the widest value on F_p.
	valueBits int
	counters  *metrics.Counters
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
		s.valueBits = min(64, new(big.Int).Sub(fp.P(), big.NewInt(1)).BitLen())
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
// indices once per call, and each (node, point) is one read. Every key is
// looked up before the value slab is allocated, so a request for keys that
// do not exist is refused before it costs keys × points words.
func (s *Local) evalValues(keys []drbg.NodeKey, points []*big.Int) ([]core.NodeEval, error) {
	xs, err := s.valueIndices(points)
	if err != nil {
		return nil, err
	}
	nodes := make([]*sharing.Node, len(keys))
	for i, k := range keys {
		if nodes[i], err = s.tree.Lookup(k); err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
	}
	np := len(xs)
	out := make([]core.NodeEval, len(keys))
	slab := make([]uint64, len(keys)*np)
	for i, node := range nodes {
		values := slab[i*np : (i+1)*np : (i+1)*np]
		s.values(values, node, xs)
		out[i] = core.NodeEval{Key: keys[i], Words: values, NumChildren: len(node.Children)}
	}
	return out, nil
}

// valueIndices turns points into the indices of their values in a node's
// vector.
func (s *Local) valueIndices(points []*big.Int) ([]int, error) {
	xs := make([]int, len(points))
	for j, p := range points {
		x, err := s.fp.PackPoint(p)
		if err != nil {
			return nil, fmt.Errorf("server: point %s: %w", p, err)
		}
		xs[j] = int(x - 1)
	}
	return xs, nil
}

// values writes node's share at the value indices xs into dst: the one
// read both evaluation paths make of a value-form store.
func (s *Local) values(dst []uint64, node *sharing.Node, xs []int) {
	for j, x := range xs {
		dst[j] = s.tree.Value(node, x)
	}
}

// AppendEvalResp implements RunStore. On a value-form store it answers req
// straight into a response frame appended to dst, with no key expanded and
// no answer built. It resolves each sibling run with one lookup of its
// parent and takes the children by index. A first walk over the runs
// writes the child counts, and refuses a key that does not exist with the
// error EvalNodes gives it; a second reads each value once and packs it.
// Beyond the frame it allocates one word a point, and it refuses a frame
// that would pass wire.MaxFrameSize before writing a value. The Z ring's
// coefficient-form store answers through the keyed adapter.
func (s *Local) AppendEvalResp(ctx context.Context, dst []byte, req wire.EvalReq) ([]byte, error) {
	if s.fp == nil {
		return appendKeyed(ctx, s, s.ring, dst, req)
	}
	xs, err := s.valueIndices(req.Points)
	if err != nil {
		return dst, err
	}
	resp := wire.NewEvalRespWriter(dst, req.ID, req.Runs.Len(), len(xs), req.KeyDigest)
	if err := s.eachRun(req.Runs, func(nodes []*sharing.Node) {
		for _, node := range nodes {
			resp.Count(len(node.Children))
		}
	}); err != nil {
		return resp.Bytes(), err
	}
	row := make([]uint64, len(xs))
	put := func(nodes []*sharing.Node) {
		for _, node := range nodes {
			s.values(row, node, xs)
			resp.Put(row)
		}
	}
	var or uint64
	orValues := func(nodes []*sharing.Node) {
		for _, node := range nodes {
			s.values(row, node, xs)
			for _, v := range row {
				or |= v
			}
		}
	}
	// Packed at the width of p−1 as they are ORed, the values are the
	// frame's when one of them needs every bit, as one nearly always does
	// in a wave of more than a few keys. A frame too large at that width is
	// ORed first; narrower values are packed again at their own width.
	if resp.Values(s.valueBits) == nil {
		s.eachRun(req.Runs, func(nodes []*sharing.Node) {
			orValues(nodes)
			put(nodes)
		})
		if max(1, bits.Len64(or)) == s.valueBits {
			return resp.Bytes(), nil
		}
	} else {
		s.eachRun(req.Runs, orValues)
	}
	if err := resp.Values(max(1, bits.Len64(or))); err != nil {
		return resp.Bytes(), fmt.Errorf("server: %w", err)
	}
	s.eachRun(req.Runs, put)
	return resp.Bytes(), nil
}

// Self implements RunStore.
func (s *Local) Self() core.ServerAPI { return s }

// eachRun calls fn with the nodes of each sibling run of runs, in order:
// one lookup of a run's parent, then its children by index. A key that
// does not exist is refused with the error EvalNodes gives it.
func (s *Local) eachRun(runs wire.KeyRuns, fn func([]*sharing.Node)) error {
	return runs.Each(func(first drbg.NodeKey, r int) error {
		d := len(first)
		if d == 0 {
			fn([]*sharing.Node{s.tree.Root})
			return nil
		}
		parent, err := s.tree.Lookup(first[:d-1])
		if c := int(first[d-1]); err == nil && c+r <= len(parent.Children) {
			fn(parent.Children[c : c+r])
			return nil
		}
		// The run's first missing key, refused as EvalNodes refuses it.
		bad := slices.Clone(first)
		if err == nil {
			bad[d-1] = uint32(max(int(first[d-1]), len(parent.Children)))
		}
		_, err = s.tree.Lookup(bad)
		return fmt.Errorf("server: %w", err)
	})
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
