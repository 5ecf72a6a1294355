// Package sharing implements §4.2 of the paper: splitting an encoded
// polynomial tree into a client part and a server part such that
// client + server = original in the ring, with the client part derived
// from a seed so the client stores nothing but the seed.
//
// On an F_p ring a share lives in the evaluation domain. x^{p−1}−1 splits
// into distinct linear factors, so F_p[x]/(x^{p−1}−1) ≅ F_p^{p−1}: a node's
// element is its vector of values at a = 1 … p−1, and evaluating a share at
// a point — the only thing the protocol ever does with one — reads one
// value. A uniform value vector is a uniform ring element, so the server's
// view is what it was in the coefficient form, and the client's pad is a
// function of (node, point): one block cipher call a summand (see pads).
// Other rings keep the coefficient form.
//
// It also implements the paper's multi-server extension: the server part
// can be Shamir-shared value-wise across n servers with threshold k, and —
// because both Lagrange reconstruction and evaluation are linear — the
// client can recombine *evaluations* from any k servers directly, without
// ever reconstructing a share.
package sharing

import (
	"crypto/aes"
	"errors"
	"fmt"
	"math/big"

	"sssearch/internal/drbg"
	"sssearch/internal/fastfield"
	"sssearch/internal/metrics"
	"sssearch/internal/parwalk"
	"sssearch/internal/poly"
	"sssearch/internal/polyenc"
	"sssearch/internal/ring"
)

// Node is one node of a share tree.
type Node struct {
	// Poly is the share polynomial of a coefficient-form tree: rings other
	// than F_p, and hand-built F_p fixtures until ValueTree converts them.
	Poly poly.Poly
	// Vals is the share of a value-form tree: its value at a = 1 … p−1, in
	// order, Tree.Width bytes each, little-endian. Nil on a shard's foreign
	// nodes, which hold no share (and read as zero). A loaded store's vectors
	// are views into the file's one slab. Shared read-only.
	Vals     []byte
	Children []*Node
}

// Tree is a share tree: one share per document node, mirroring the
// document shape.
type Tree struct {
	Root *Node
	// Width is the byte width of one value of a value-form tree (see
	// ValueWidth), 0 for a coefficient-form tree.
	Width int
}

// MaxDepth bounds the depth of a share tree: the nodes on its longest
// root-to-leaf path. Outsource refuses a deeper document and the store
// decoder a deeper shape, so every store that can be written can be read,
// and the recursive walks (Walk, the encode and the split, shard
// partitioning, the query's node table) never recurse deeper than this —
// nor hold more than the MaxDepth²/2 path components a walk keeps live
// down a chain. Documents are far shallower: XML parsers that bound depth
// default to a few hundred levels.
const MaxDepth = 1 << 12

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

// ValueWidth is the byte width of one stored value over fp: ⌈log₂ p⌉ bits
// in whole bytes — 2 on F_257.
func ValueWidth(fp *ring.FpCyclotomic) int { return (fp.P().BitLen() + 7) / 8 }

// Value returns node n's share at the point a = i+1: zero for a node that
// holds none.
func (t *Tree) Value(n *Node, i int) uint64 {
	if n.Vals == nil {
		return 0
	}
	return getValue(n.Vals, t.Width, i)
}

// getValue reads value i of a vector at width w.
func getValue(b []byte, w, i int) uint64 {
	if w == 2 {
		return uint64(b[2*i]) | uint64(b[2*i+1])<<8
	}
	v := uint64(0)
	for j := i*w + w - 1; j >= i*w; j-- {
		v = v<<8 | uint64(b[j])
	}
	return v
}

// Words returns node n's value vector in words, nil for a node that holds
// none.
func (t *Tree) Words(n *Node) []uint64 {
	if n.Vals == nil {
		return nil
	}
	out := make([]uint64, len(n.Vals)/t.Width)
	for i := range out {
		out[i] = getValue(n.Vals, t.Width, i)
	}
	return out
}

// valueBytes encodes a value vector at width w.
func valueBytes(w int, vals []uint64) []byte {
	return putValues(make([]byte, len(vals)*w), w, vals)
}

// putValues writes a value vector at width w into b and returns b.
func putValues(b []byte, w int, vals []uint64) []byte {
	for i, v := range vals {
		putValue(b, w, i, v)
	}
	return b
}

// putValue writes value i of a vector at width w.
func putValue(b []byte, w, i int, v uint64) {
	if w == 2 {
		b[2*i], b[2*i+1] = byte(v), byte(v>>8)
		return
	}
	for j, at := 0, i*w; j < w; j++ {
		b[at+j] = byte(v >> (8 * j))
	}
}

// Eval evaluates node n's share at a: a value read on a value-form tree,
// r.Eval of its polynomial otherwise.
func (t *Tree) Eval(r ring.Ring, n *Node, a *big.Int) (*big.Int, error) {
	fp, ok := r.(*ring.FpCyclotomic)
	if !ok || t.Width == 0 {
		return r.Eval(n.Poly, a)
	}
	x, err := fp.PackPoint(a)
	if err != nil {
		return nil, err
	}
	return new(big.Int).SetUint64(t.Value(n, int(x-1))), nil
}

// ValueTree returns tree in the value form of fp: tree itself when it is
// in it, else a copy whose nodes hold their polynomials' values at every
// point — how hand-built trees (the paper's figure shares) enter the
// protocol. A zero polynomial stays an empty node.
func ValueTree(fp *ring.FpCyclotomic, tree *Tree) *Tree {
	w := ValueWidth(fp)
	if tree.Width == w {
		return tree
	}
	var conv func(n *Node) *Node
	conv = func(n *Node) *Node {
		out := &Node{}
		if !n.Poly.IsZero() {
			out.Vals = valueBytes(w, fp.Values(n.Poly))
		}
		for _, c := range n.Children {
			out.Children = append(out.Children, conv(c))
		}
		return out
	}
	return &Tree{Root: conv(tree.Root), Width: w}
}

// SplitOpts tunes Split.
type SplitOpts struct {
	// Parallelism bounds the worker pool of the tree walk: 0 selects
	// runtime.GOMAXPROCS, 1 forces a sequential walk. The output tree is
	// byte-identical at every setting — each node's pad is derived from
	// the node alone, so no schedule-dependent state exists to leak into
	// the result.
	Parallelism int
}

// Split derives the deterministic client share for every node of enc from
// seed and returns the server tree (original − client). The client needs to
// keep only the seed; SeedClient regenerates its shares on demand.
//
// On F_p the walk runs in the value form: a node's pad is drawn at every
// point through the word sampler and subtracted from its values (Packed,
// or the values of its polynomial on a hand-built tree) in one word pass,
// and subtrees are split in parallel on a bounded pool. SplitSequential is
// the retained big.Int reference; both produce identical trees.
func Split(enc *polyenc.Tree, seed drbg.Seed) (*Tree, error) {
	return SplitWithOpts(enc, seed, SplitOpts{})
}

// SplitWithOpts is Split with an explicit parallelism bound.
func SplitWithOpts(enc *polyenc.Tree, seed drbg.Seed, o SplitOpts) (*Tree, error) {
	if enc == nil || enc.Root == nil {
		return nil, errors.New("sharing: nil encoded tree")
	}
	return newSplitter(enc.Ring, seed, true).split(enc.Root, o.Parallelism)
}

// SplitSequential is the sequential big.Int reference of Split: on F_p
// every pad value is drawn by field.Rand reading its sample and fallback
// chain and subtracted in big.Int, on a plain recursive walk. It is the
// differential-test anchor; production callers use Split. Both derive
// identical pads — a pad depends on its node alone — so the trees match
// byte for byte.
func SplitSequential(enc *polyenc.Tree, seed drbg.Seed) (*Tree, error) {
	if enc == nil || enc.Root == nil {
		return nil, errors.New("sharing: nil encoded tree")
	}
	return newSplitter(enc.Ring, seed, false).sequential(enc.Root)
}

// splitter is one split run.
type splitter struct {
	r     ring.Ring
	d     *drbg.Deriver // coefficient pads
	fp    *ring.FpCyclotomic
	ff    *fastfield.Field // word arithmetic; nil: the big.Int reference
	pads  *pads
	width int
	pool  *parwalk.Pool
}

// newSplitter prepares a split over r; words selects the word path where
// the ring has it.
func newSplitter(r ring.Ring, seed drbg.Seed, words bool) *splitter {
	s := &splitter{r: r}
	fp, ok := r.(*ring.FpCyclotomic)
	if !ok {
		s.d = drbg.NewDeriver(seed, coeffShareLabel)
		return s
	}
	s.fp, s.pads, s.width = fp, newPads(fp, seed), ValueWidth(fp)
	if words {
		s.ff = fp.Fast()
	}
	return s
}

// split runs the parallel walk on a pool of par workers.
func (s *splitter) split(root *polyenc.Node, par int) (*Tree, error) {
	s.pool = parwalk.New(par)
	out := &Tree{Root: &Node{}, Width: s.width}
	s.walk(root, drbg.NodeKey{}, out.Root)
	if err := s.pool.Wait(); err != nil {
		return nil, err
	}
	return out, nil
}

// sequential runs the plain recursive walk.
func (s *splitter) sequential(root *polyenc.Node) (*Tree, error) {
	out, err := s.walkSequential(root, drbg.NodeKey{})
	if err != nil {
		return nil, err
	}
	return &Tree{Root: out, Width: s.width}, nil
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
		child := &Node{}
		ck := key.Child(uint32(i))
		out.Children[i] = child
		s.pool.Do(func() { s.walk(c, ck, child) })
	}
}

func (s *splitter) walkSequential(n *polyenc.Node, key drbg.NodeKey) (*Node, error) {
	out := &Node{}
	if err := s.fill(n, key, out); err != nil {
		return nil, fmt.Errorf("sharing: node %s: %w", key, err)
	}
	for i, c := range n.Children {
		sc, err := s.walkSequential(c, key.Child(uint32(i)))
		if err != nil {
			return nil, err
		}
		out.Children = append(out.Children, sc)
	}
	return out, nil
}

// fill computes one node's server share: encoded − pad.
func (s *splitter) fill(n *polyenc.Node, key drbg.NodeKey, out *Node) error {
	if s.fp == nil {
		pad, err := s.r.Rand(s.d.ForNode(key))
		if err != nil {
			return err
		}
		out.Poly = s.r.Sub(n.Poly, pad)
		return nil
	}
	vals := n.Packed
	if vals == nil {
		vals = s.fp.Values(n.Poly)
	}
	if len(vals) != s.fp.DegreeBound() {
		return fmt.Errorf("%d values on a ring of %d points", len(vals), s.fp.DegreeBound())
	}
	if s.ff != nil {
		out.Vals = make([]byte, len(vals)*s.width)
		s.pads.split(s.ff, out.Vals, vals, key)
		return nil
	}
	share := s.pads.refVector(key) // the pad, overwritten by the share
	f := s.fp.Field()
	for i, v := range vals {
		share[i] = f.Sub(new(big.Int).SetUint64(v), new(big.Int).SetUint64(share[i])).Uint64()
	}
	out.Vals = valueBytes(s.width, share)
	return nil
}

// SeedClient regenerates client shares from the seed alone — the §4.2
// "store only the random seed" mode. On F_p a summand is one block cipher
// call (see pads): there is nothing to cache, and the client keeps only
// its key schedule. Safe for concurrent use.
type SeedClient struct {
	r    ring.Ring
	fp   *ring.FpCyclotomic // non-nil on F_p: value-domain pads
	pads *pads
	d    *drbg.Deriver // coefficient pads, other rings
}

// NewSeedClient builds the seed-only client view.
func NewSeedClient(r ring.Ring, seed drbg.Seed) *SeedClient {
	c := &SeedClient{r: r}
	if fp, ok := r.(*ring.FpCyclotomic); ok {
		c.fp, c.pads = fp, newPads(fp, seed)
	} else {
		c.d = drbg.NewDeriver(seed, coeffShareLabel)
	}
	return c
}

// SetCounters is kept only until the benchmark stops calling it: the
// client keeps no cache and tallies nothing.
func (c *SeedClient) SetCounters(*metrics.Counters) {}

// SetShareCacheNodes is kept only until the benchmark stops calling it: a
// no-op.
func (c *SeedClient) SetShareCacheNodes(int) {}

// Ring returns the client's ring.
func (c *SeedClient) Ring() ring.Ring { return c.r }

// PackedShare implements PackedShareSource: on F_p the node's pad at every
// point — its client share in the value form — through the write kernel's
// word sampler, or the reference sampler with the fast path off;
// ok=false elsewhere.
func (c *SeedClient) PackedShare(key drbg.NodeKey) ([]uint64, bool, error) {
	if c.fp == nil {
		return nil, false, nil
	}
	ff := c.fp.Fast()
	if ff == nil {
		return c.pads.refVector(key), true, nil
	}
	out := make([]uint64, c.pads.n)
	c.pads.words(ff, out, key)
	return out, true, nil
}

// Share regenerates the client share of the given node: on F_p its value
// vector in the boxed form (the value at a = i+1 is coefficient i).
func (c *SeedClient) Share(key drbg.NodeKey) (poly.Poly, error) {
	if c.fp != nil {
		vec, _, _ := c.PackedShare(key)
		return poly.NewUint64(vec), nil
	}
	return c.r.Rand(c.d.ForNode(key))
}

// EvalShare evaluates the node's client share at point a (modulo the
// ring's evaluation modulus at a).
func (c *SeedClient) EvalShare(key drbg.NodeKey, a *big.Int) (*big.Int, error) {
	vals, err := c.EvalShares(key, []*big.Int{a})
	if err != nil {
		return nil, err
	}
	return vals[0], nil
}

// EvalShares implements MultiPointSource: EvalShareWords for one key,
// boxed, on the fast path; the reference sampler, one point at a time,
// with it off.
func (c *SeedClient) EvalShares(key drbg.NodeKey, points []*big.Int) ([]*big.Int, error) {
	if c.fp == nil {
		share, err := c.Share(key)
		if err != nil {
			return nil, err
		}
		return evalEach(c.r, share, points)
	}
	if c.fp.Fast() != nil {
		return boxedRow(c, key, points)
	}
	tag := new([aes.BlockSize]byte)
	c.pads.keys.Tag(tag, key)
	out := make([]*big.Int, len(points))
	for j, p := range points {
		x, err := c.fp.PackPoint(p)
		if err != nil {
			return nil, err
		}
		out[j] = c.pads.refPad(tag, x)
	}
	return out, nil
}

// EvalShareWords implements WordSource: where each point's sample sits is
// worked out once a call, and each key's summand at a point is then one
// block of its keystream — c_n(a) itself, the pad's value at a — or one
// block for every point whose sample it holds.
func (c *SeedClient) EvalShareWords(dst []uint64, keys []drbg.NodeKey, points []*big.Int) (int, bool, error) {
	if c.fp == nil || c.fp.Fast() == nil {
		return 0, false, nil
	}
	ff := c.fp.Fast()
	e, err := c.pads.evalPlan(c.fp, points)
	if err != nil {
		return 0, true, err
	}
	np := len(points)
	for i, key := range keys {
		c.pads.eval(ff, e, key, dst[i*np:(i+1)*np])
	}
	c.pads.evals.Put(e)
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
	out := &Tree{}
	if c.fp != nil {
		out.Width = ValueWidth(c.fp)
	}
	var build func(n *Node, key drbg.NodeKey) (*Node, error)
	build = func(n *Node, key drbg.NodeKey) (*Node, error) {
		node := &Node{}
		if c.fp != nil {
			vec, _, _ := c.PackedShare(key)
			node.Vals = valueBytes(out.Width, vec)
		} else {
			share, err := c.Share(key)
			if err != nil {
				return nil, err
			}
			node.Poly = share
		}
		for i, ch := range n.Children {
			bc, err := build(ch, key.Child(uint32(i)))
			if err != nil {
				return nil, err
			}
			node.Children = append(node.Children, bc)
		}
		return node, nil
	}
	root, err := build(shape.Root, drbg.NodeKey{})
	if err != nil {
		return nil, err
	}
	out.Root = root
	return out, nil
}

// Reconstruct adds client and server trees back into the encoded tree —
// Packed on F_p, Poly elsewhere. Shapes must match exactly.
func Reconstruct(r ring.Ring, client, server *Tree) (*polyenc.Tree, error) {
	if client == nil || server == nil || client.Root == nil || server.Root == nil {
		return nil, errors.New("sharing: nil share tree")
	}
	fp, _ := r.(*ring.FpCyclotomic)
	if fp != nil {
		client, server = ValueTree(fp, client), ValueTree(fp, server)
	}
	var merge func(c, s *Node, key drbg.NodeKey) (*polyenc.Node, error)
	merge = func(c, s *Node, key drbg.NodeKey) (*polyenc.Node, error) {
		if len(c.Children) != len(s.Children) {
			return nil, fmt.Errorf("sharing: shape mismatch at %s: %d vs %d children",
				key, len(c.Children), len(s.Children))
		}
		out := &polyenc.Node{}
		if fp != nil {
			p := fp.P().Uint64()
			out.Packed = make([]uint64, fp.DegreeBound())
			for i := range out.Packed {
				out.Packed[i] = (client.Value(c, i) + server.Value(s, i)) % p
			}
		} else {
			out.Poly = r.Add(c.Poly, s.Poly)
		}
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

// SharedPadCache is kept only until the benchmark stops calling it. The
// client work it cached — pad regenerations and their multi-point
// evaluations — is one block cipher call per (node, point) now, with
// nothing left to cache, so its clients are plain seed clients.
type SharedPadCache struct {
	r    ring.Ring
	seed drbg.Seed
}

// NewSharedPadCache is kept only until the benchmark stops calling it.
func NewSharedPadCache(r ring.Ring, seed drbg.Seed) *SharedPadCache {
	return &SharedPadCache{r: r, seed: seed}
}

// NewClient returns NewSeedClient of the cache's ring and seed.
func (s *SharedPadCache) NewClient() *SeedClient { return NewSeedClient(s.r, s.seed) }
