// Package sharing implements §4.2 of the paper: splitting an encoded
// polynomial tree into a client part and a server part such that
// client + server = original in the ring, with the client part generated
// from a seeded DRBG so the client stores nothing but the seed.
//
// It also implements the paper's multi-server extension: the server part
// can be Shamir-shared coefficient-wise across n servers with threshold k,
// and — because both Lagrange reconstruction and polynomial evaluation are
// linear — the client can recombine *evaluations* from any k servers
// directly, without ever reconstructing polynomials.
package sharing

import (
	"errors"
	"fmt"
	"math/big"
	"sync/atomic"

	"sssearch/internal/drbg"
	"sssearch/internal/lru"
	"sssearch/internal/metrics"
	"sssearch/internal/parwalk"
	"sssearch/internal/poly"
	"sssearch/internal/polyenc"
	"sssearch/internal/ring"
)

// ShareLabel is the domain-separation label for client share streams, and
// its version is the share-stream generation: a pad is what the sampler
// (fastfield.RandVec, or field.Rand on the reference path) draws from the
// node's drbg.Stream, so a change to either changes every pad and takes a
// new label — pads of two generations never cancel, and the label keeps
// them from silently mixing. v1 read an HMAC_DRBG per coefficient, v2 in
// bulk (that generator's bytes depended on the read sizes); v3 is the
// chunk-invariant AES-CTR stream under exact-uniform wide sampling, so the
// stream alone defines a pad. The store magics move with it (package
// store).
const ShareLabel = "sss/client-share/v3"

// Node is one node of a share tree. Exactly one of Poly and Packed is
// authoritative: trees built through the big.Int path (Materialize, the
// sequential reference walks, hand-rolled fixtures, files loaded for a
// ring without the word-sized fast path) carry Poly; trees from the
// packed split, the packed MultiSplit and files loaded for a fast F_p
// ring carry Packed. Readers that cannot know the tree's provenance must
// go through Polynomial().
type Node struct {
	// Poly is the big.Int boundary representation of the share
	// polynomial; the zero value on packed trees (see Polynomial).
	Poly poly.Poly
	// Packed, when non-nil, is the canonical word-sized share polynomial
	// ([]uint64 coefficients < p, ascending degree, at most the ring's
	// degree bound of them — full length from the split, trimmed from a
	// file). server.Local evaluates and serves it, and MarshalBinary
	// writes it, as it is: the serving path never boxes a coefficient.
	// Shared read-only.
	Packed   []uint64
	Children []*Node
}

// Polynomial returns the node's share polynomial in the big.Int boundary
// representation, boxing the packed form on every call — the reference
// seam (reconstruction, the sequential walks, tests); the serving path
// reads Packed.
func (n *Node) Polynomial() poly.Poly {
	if n.Packed == nil {
		return n.Poly
	}
	return poly.NewUint64(n.Packed)
}

// Tree is a share tree: one polynomial per document node, mirroring the
// document shape.
type Tree struct {
	Root *Node
}

// Walk visits the share tree in preorder with node keys. Returning false
// prunes the subtree.
func (t *Tree) Walk(fn func(key drbg.NodeKey, n *Node) bool) {
	if t.Root == nil {
		return
	}
	walkNode(t.Root, drbg.NodeKey{}, fn)
}

func walkNode(n *Node, key drbg.NodeKey, fn func(drbg.NodeKey, *Node) bool) {
	if !fn(key, n) {
		return
	}
	for i, c := range n.Children {
		walkNode(c, key.Child(uint32(i)), fn)
	}
}

// Count returns the number of nodes.
func (t *Tree) Count() int {
	total := 0
	t.Walk(func(drbg.NodeKey, *Node) bool { total++; return true })
	return total
}

// Lookup resolves a node key.
func (t *Tree) Lookup(key drbg.NodeKey) (*Node, error) {
	if t.Root == nil {
		return nil, errors.New("sharing: empty tree")
	}
	cur := t.Root
	for depth, idx := range key {
		if int(idx) >= len(cur.Children) {
			return nil, fmt.Errorf("sharing: key %v invalid at depth %d", key, depth)
		}
		cur = cur.Children[int(idx)]
	}
	return cur, nil
}

// SplitOpts tunes Split.
type SplitOpts struct {
	// Parallelism bounds the worker pool of the tree walk: 0 selects
	// runtime.GOMAXPROCS, 1 forces a sequential walk. The output tree is
	// byte-identical at every setting — each node's pad is derived from
	// its own path-keyed DRBG stream, so no schedule-dependent state
	// exists to leak into the result.
	Parallelism int
}

// Split derives the deterministic client share for every node of enc from
// seed and returns the server tree (original − client). The client needs to
// keep only the seed; SeedClient regenerates its shares on demand.
//
// On rings with the word-sized fast path the walk runs packed — pads are
// drawn straight into []uint64 vectors, the subtraction is one word pass,
// and Node.Packed carries the result so server.NewLocal never re-packs —
// and subtrees are split in parallel on a bounded pool. SplitSequential is
// the retained big.Int-boundary reference; both produce identical trees.
func Split(enc *polyenc.Tree, seed drbg.Seed) (*Tree, error) {
	return SplitWithOpts(enc, seed, SplitOpts{})
}

// SplitWithOpts is Split with an explicit parallelism bound.
func SplitWithOpts(enc *polyenc.Tree, seed drbg.Seed, o SplitOpts) (*Tree, error) {
	if enc == nil || enc.Root == nil {
		return nil, errors.New("sharing: nil encoded tree")
	}
	s := &splitter{
		r:    enc.Ring,
		d:    drbg.NewDeriver(seed, ShareLabel),
		pool: parwalk.New(o.Parallelism),
	}
	if fp, ok := enc.Ring.(*ring.FpCyclotomic); ok && fp.Fast() != nil {
		s.fp = fp
	}
	root := &Node{}
	s.walk(enc.Root, drbg.NodeKey{}, root)
	if err := s.pool.Wait(); err != nil {
		return nil, err
	}
	return &Tree{Root: root}, nil
}

// SplitSequential is the sequential big.Int-boundary reference
// implementation of Split (the pre-parallel behavior, one generic ring op
// per node). It is retained as the differential-test anchor and the
// before side of the outsourcing benchmarks; production callers use
// Split. Both derive identical pads — the per-node DRBG streams do not
// depend on the walk — so the trees match byte for byte.
func SplitSequential(enc *polyenc.Tree, seed drbg.Seed) (*Tree, error) {
	if enc == nil || enc.Root == nil {
		return nil, errors.New("sharing: nil encoded tree")
	}
	d := drbg.NewDeriver(seed, ShareLabel)
	root, err := splitNodeRef(enc.Ring, enc.Root, drbg.NodeKey{}, d)
	if err != nil {
		return nil, err
	}
	return &Tree{Root: root}, nil
}

func splitNodeRef(r ring.Ring, n *polyenc.Node, key drbg.NodeKey, d *drbg.Deriver) (*Node, error) {
	pad, err := r.Rand(d.ForNode(key))
	if err != nil {
		return nil, fmt.Errorf("sharing: node %s: %w", key, err)
	}
	out := &Node{Poly: r.Sub(n.Polynomial(), pad)}
	for i, c := range n.Children {
		sc, err := splitNodeRef(r, c, key.Child(uint32(i)), d)
		if err != nil {
			return nil, err
		}
		out.Children = append(out.Children, sc)
	}
	return out, nil
}

// splitter is one parallel packed split run.
type splitter struct {
	r    ring.Ring
	fp   *ring.FpCyclotomic // non-nil on the word-sized fast path
	d    *drbg.Deriver
	pool *parwalk.Pool
}

func (s *splitter) walk(n *polyenc.Node, key drbg.NodeKey, out *Node) {
	if s.pool.Failed() {
		return
	}
	if err := s.fill(n, key, out); err != nil {
		s.pool.Fail(fmt.Errorf("sharing: node %s: %w", key, err))
		return
	}
	if len(n.Children) == 0 {
		return
	}
	out.Children = make([]*Node, len(n.Children))
	for i, c := range n.Children {
		c, child := c, &Node{} // pre-1.22 loop-var capture
		ck := key.Child(uint32(i))
		out.Children[i] = child
		s.pool.Do(func() { s.walk(c, ck, child) })
	}
}

// fill computes one node's server share: enc − pad. The packed path draws
// the pad into a word vector and subtracts in place; nodes that do not
// pack (foreign coefficients) and non-fast rings take the generic ring
// ops, consuming the identical DRBG stream.
func (s *splitter) fill(n *polyenc.Node, key drbg.NodeKey, out *Node) error {
	if s.fp != nil {
		if encP, ok := s.packedOf(n); ok {
			vec := make([]uint64, s.fp.DegreeBound())
			if err := s.fp.RandPacked(s.d.ForNode(key), vec); err != nil {
				return err
			}
			ff := s.fp.Fast()
			for i := range vec {
				var e uint64
				if i < len(encP) {
					e = encP[i]
				}
				vec[i] = ff.Sub(e, vec[i])
			}
			out.Packed = vec
			return nil
		}
	}
	pad, err := s.r.Rand(s.d.ForNode(key))
	if err != nil {
		return err
	}
	// Polynomial() (not Poly) so a PackedOnly-encoded tree still splits
	// correctly when the ring's fast path is off at split time.
	out.Poly = s.r.Sub(n.Polynomial(), pad)
	return nil
}

// packedOf returns the node's canonical packed coefficients, preferring
// the mirror the packed encode left behind.
func (s *splitter) packedOf(n *polyenc.Node) ([]uint64, bool) {
	if n.Packed != nil {
		return n.Packed, true
	}
	vec, ok := s.fp.Pack(n.Poly)
	if !ok || len(vec) > s.fp.DegreeBound() {
		return nil, false
	}
	return vec, true
}

// DefaultShareCacheNodes bounds the seed-only client's packed-share LRU:
// the most recently touched node pads are kept in packed form so hot
// nodes (the root levels every query walks) are not re-derived from the
// DRBG on each visit. At the default, a F_257 deployment holds at most
// 4096 × 256 words ≈ 8 MiB — a mid-point of the §4.2 seed-vs-materialized
// trade-off that still leaves the durable client secret at 32 bytes.
const DefaultShareCacheNodes = 4096

// SeedClient regenerates client share polynomials from the seed alone —
// the §4.2 "store only the random seed" mode.
//
// On rings with the word-sized fast path, shares are regenerated directly
// into packed []uint64 vectors (no big.Int allocation) and the most
// recently used pads are kept in a bounded LRU cache; see
// DefaultShareCacheNodes. A client built through SharedPadCache.NewClient
// instead shares one pad and eval cache with every other session of the
// same seed. Safe for concurrent use, including concurrent SetCounters /
// SetShareCacheNodes while queries are in flight.
type SeedClient struct {
	r ring.Ring
	d *drbg.Deriver
	// fp is non-nil when r carries the word-sized fast path.
	fp *ring.FpCyclotomic
	// shared, when non-nil, is the cross-session cache this client
	// attaches to (set only by SharedPadCache.NewClient, before first
	// use); the private cache below is then bypassed.
	shared *SharedPadCache
	// cache maps node keys, in binary form (drbg.NodeKey.AppendBinary), to
	// packed share pads. Cached vectors are shared and must never be
	// mutated. Held through an atomic pointer: SetShareCacheNodes swaps it
	// while packedShare reads it from concurrent queries.
	cache atomic.Pointer[lru.Cache[string, []uint64]]
	// counters receives the pad-cache hit/miss tallies (the client-side
	// mirror of server.Local's eval-cache counters). Atomic for the same
	// reason as cache: SetCounters races in-flight queries by design.
	counters atomic.Pointer[metrics.Counters]
}

// NewSeedClient builds the seed-only client view.
func NewSeedClient(r ring.Ring, seed drbg.Seed) *SeedClient {
	c := &SeedClient{r: r, d: drbg.NewDeriver(seed, ShareLabel)}
	c.counters.Store(&metrics.Counters{})
	if fp, ok := r.(*ring.FpCyclotomic); ok && fp.Fast() != nil {
		c.fp = fp
		c.cache.Store(lru.New[string, []uint64](DefaultShareCacheNodes))
	}
	return c
}

// Counters exposes the client-side metric counters (pad-cache hits and
// misses).
func (c *SeedClient) Counters() *metrics.Counters { return c.counters.Load() }

// SetCounters redirects the pad-cache tallies into a shared counter set
// (the query engine passes its own so per-query snapshots include pad
// regeneration work). A nil argument is ignored. Safe to call while
// queries are in flight: the swap is atomic, in-flight operations finish
// tallying into whichever set they loaded.
func (c *SeedClient) SetCounters(m *metrics.Counters) {
	if m != nil {
		c.counters.Store(m)
	}
}

// SetShareCacheNodes re-bounds the packed-share cache to at most n node
// pads (0 disables caching). Only meaningful on fast-path rings, and a
// no-op on clients attached to a SharedPadCache (the shared bounds are
// set with SharedPadCache.SetBounds). Safe to call while queries are in
// flight: the swap is atomic, in-flight operations finish against the
// cache generation they loaded.
func (c *SeedClient) SetShareCacheNodes(n int) {
	if c.fp != nil {
		c.cache.Store(lru.New[string, []uint64](n))
	}
}

// Ring returns the client's ring.
func (c *SeedClient) Ring() ring.Ring { return c.r }

// packedShare returns the node's share pad in packed form, regenerating
// it from the seed on a cache miss. The returned slice is shared — read
// only.
func (c *SeedClient) packedShare(key drbg.NodeKey) ([]uint64, error) {
	var buf [nodeKeyBuf]byte
	kb := key.AppendBinary(buf[:0])
	if c.shared != nil {
		return c.shared.pad(key, kb, c.counters.Load())
	}
	counters := c.counters.Load()
	cache := c.cache.Load()
	if v, ok := cache.Get(string(kb)); ok {
		counters.AddPadCacheHits(1)
		return v, nil
	}
	counters.AddPadCacheMiss(1)
	vec := make([]uint64, c.fp.DegreeBound())
	if err := c.fp.RandPacked(c.d.ForNode(key), vec); err != nil {
		return nil, fmt.Errorf("sharing: node %s: %w", key, err)
	}
	cache.Add(string(kb), vec)
	return vec, nil
}

// nodeKeyBuf is the stack room for a node key's binary form (the key of the
// node-keyed LRUs): a deeper path than it holds spills to the heap.
const nodeKeyBuf = 64

// PackedShare implements PackedShareSource.
func (c *SeedClient) PackedShare(key drbg.NodeKey) ([]uint64, bool, error) {
	if c.fp == nil {
		return nil, false, nil
	}
	vec, err := c.packedShare(key)
	if err != nil {
		return nil, false, err
	}
	return vec, true, nil
}

// Share regenerates the client share polynomial of the given node.
func (c *SeedClient) Share(key drbg.NodeKey) (poly.Poly, error) {
	if c.fp != nil {
		vec, err := c.packedShare(key)
		if err != nil {
			return poly.Poly{}, err
		}
		return c.fp.Unpack(vec), nil
	}
	return c.r.Rand(c.d.ForNode(key))
}

// EvalShare regenerates the node share and evaluates it at point a
// (modulo the ring's evaluation modulus at a).
func (c *SeedClient) EvalShare(key drbg.NodeKey, a *big.Int) (*big.Int, error) {
	if c.fp != nil {
		vals, err := c.EvalShares(key, []*big.Int{a})
		if err != nil {
			return nil, err
		}
		return vals[0], nil
	}
	share, err := c.Share(key)
	if err != nil {
		return nil, err
	}
	return c.r.Eval(share, a)
}

// EvalShares implements MultiPointSource: EvalShareWords for one key,
// boxed — the reference seam; the engine's word path asks in words.
func (c *SeedClient) EvalShares(key drbg.NodeKey, points []*big.Int) ([]*big.Int, error) {
	if c.fp != nil {
		return boxedRow(c, key, points)
	}
	share, err := c.Share(key)
	if err != nil {
		return nil, err
	}
	return evalEach(c.r, share, points)
}

// EvalShareWords implements WordSource: the point vector is packed and
// Montgomery-formed once for the block, and each key's pad is regenerated
// (or fetched from the cache) once and evaluated at every point in a single
// multi-point Horner pass — the DRBG regeneration, not the arithmetic,
// dominates seed-only querying, so one pass per node is the difference
// between O(points) and O(1) regenerations. On clients attached to a
// SharedPadCache, repeated (node, point-set) requests — every session of
// one key chasing the same hot wave — skip the Horner pass entirely via the
// shared eval LRU.
func (c *SeedClient) EvalShareWords(dst []uint64, keys []drbg.NodeKey, points []*big.Int) (int, bool, error) {
	if c.fp == nil {
		return 0, false, nil
	}
	pv, err := packPoints(c.fp, points)
	if err != nil {
		return 0, true, err
	}
	if c.shared != nil {
		done, err := c.shared.evalShares(dst, keys, pv, c.counters.Load())
		return done, true, err
	}
	ff := c.fp.Fast()
	np := len(points)
	for i, key := range keys {
		vec, err := c.packedShare(key)
		if err != nil {
			return i, true, err
		}
		ff.EvalMany(vec, pv.mont, dst[i*np:(i+1)*np])
	}
	return len(keys), true, nil
}

// Materialize expands the client's full share tree for a given document
// shape (taken from the server tree). This trades client memory for speed —
// the `seedonly` experiment measures the trade.
func Materialize(r ring.Ring, seed drbg.Seed, shape *Tree) (*Tree, error) {
	if shape == nil || shape.Root == nil {
		return nil, errors.New("sharing: nil shape")
	}
	c := NewSeedClient(r, seed)
	var build func(n *Node, key drbg.NodeKey) (*Node, error)
	build = func(n *Node, key drbg.NodeKey) (*Node, error) {
		share, err := c.Share(key)
		if err != nil {
			return nil, err
		}
		out := &Node{Poly: share}
		for i, ch := range n.Children {
			bc, err := build(ch, key.Child(uint32(i)))
			if err != nil {
				return nil, err
			}
			out.Children = append(out.Children, bc)
		}
		return out, nil
	}
	root, err := build(shape.Root, drbg.NodeKey{})
	if err != nil {
		return nil, err
	}
	return &Tree{Root: root}, nil
}

// Reconstruct adds client and server trees back into the encoded tree.
// Shapes must match exactly.
func Reconstruct(r ring.Ring, client, server *Tree) (*polyenc.Tree, error) {
	if client == nil || server == nil || client.Root == nil || server.Root == nil {
		return nil, errors.New("sharing: nil share tree")
	}
	var merge func(c, s *Node, key drbg.NodeKey) (*polyenc.Node, error)
	merge = func(c, s *Node, key drbg.NodeKey) (*polyenc.Node, error) {
		if len(c.Children) != len(s.Children) {
			return nil, fmt.Errorf("sharing: shape mismatch at %s: %d vs %d children",
				key, len(c.Children), len(s.Children))
		}
		out := &polyenc.Node{Poly: r.Add(c.Polynomial(), s.Polynomial())}
		for i := range c.Children {
			mc, err := merge(c.Children[i], s.Children[i], key.Child(uint32(i)))
			if err != nil {
				return nil, err
			}
			out.Children = append(out.Children, mc)
		}
		return out, nil
	}
	root, err := merge(client.Root, server.Root, drbg.NodeKey{})
	if err != nil {
		return nil, err
	}
	return &polyenc.Tree{Ring: r, Root: root}, nil
}

// ReconstructFromSeed is Reconstruct with a seed-only client: the client
// tree is regenerated on the fly from the server tree's shape.
func ReconstructFromSeed(r ring.Ring, seed drbg.Seed, server *Tree) (*polyenc.Tree, error) {
	client, err := Materialize(r, seed, server)
	if err != nil {
		return nil, err
	}
	return Reconstruct(r, client, server)
}
