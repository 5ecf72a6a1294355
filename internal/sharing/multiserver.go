package sharing

import (
	"errors"
	"fmt"
	"io"
	"math/big"

	"sssearch/internal/drbg"
	"sssearch/internal/fastfield"
	"sssearch/internal/parwalk"
	"sssearch/internal/poly"
	"sssearch/internal/polyenc"
	"sssearch/internal/ring"
	"sssearch/internal/shamir"
)

// This file implements the paper's §4.2 extension: "this can easily be
// extended to a model with multiple servers, in which the client together
// with k out of n servers … can reconstruct the shared secret polynomial."
//
// Construction: split f = f_client + f_rest as usual, then Shamir-share
// every coefficient of f_rest with threshold k among n servers. Server j
// stores the polynomial whose coefficients are its Shamir shares. Because
// Lagrange reconstruction at 0 is a fixed linear combination Σ λ_j·y_j and
// evaluation-at-a is linear in the coefficients, the client recombines
// *scalar evaluations* from any k servers:
//
//	f_rest(a) = Σ_j λ_j · share_j(a)  (mod p)
//
// so the per-query protocol stays one scalar per node per server.
// Shamir needs a field, so multi-server mode requires the F_p ring.

// MultiShareLabel is the domain-separation label for the Shamir mask
// streams of MultiShare/MultiSplit.
//
// v1 marks the move off the shared-rng construction: instead of drawing
// every Shamir coefficient from one sequential rng stream (which forced a
// sequential tree walk — any reordering changed every share), MultiShare
// reads a single mask seed from its rng and derives an independent
// per-node stream from it, exactly the construction Split uses for client
// pads. Each node's k−1 mask vectors come from its own path-keyed stream
// via the bulk sampler, so the walk order — and hence the parwalk
// schedule — cannot leak into the output: MultiShare is byte-identical to
// MultiShareSequential at every Parallelism setting.
//
// v2 moves with ShareLabel v3: the masks draw through the same stream and
// the same sampler as the client pads.
const MultiShareLabel = "sss/shamir-share/v2"

// ServerShare is one server's share tree plus its Shamir evaluation point.
type ServerShare struct {
	X    uint32
	Tree *Tree
}

// MultiOpts tunes MultiSplit/MultiShare.
type MultiOpts struct {
	// Parallelism bounds the worker pool of the Shamir-sharing tree walk:
	// 0 selects runtime.GOMAXPROCS, 1 forces a sequential walk. The output
	// is byte-identical at every setting (see MultiShareLabel).
	Parallelism int
}

// MultiSplit produces the client seed share (implicit, from seed) and n
// server share trees with reconstruction threshold k. Only FpCyclotomic
// rings are supported (Shamir needs a field). rng supplies one 32-byte
// mask seed; all Shamir mask randomness derives from it per node.
func MultiSplit(enc *polyenc.Tree, seed drbg.Seed, k, n int, rng io.Reader) ([]ServerShare, error) {
	return MultiSplitWithOpts(enc, seed, k, n, rng, MultiOpts{})
}

// MultiSplitWithOpts is MultiSplit with an explicit parallelism bound,
// applied to both the additive split and the Shamir-sharing walk.
func MultiSplitWithOpts(enc *polyenc.Tree, seed drbg.Seed, k, n int, rng io.Reader, o MultiOpts) ([]ServerShare, error) {
	if enc == nil || enc.Root == nil {
		return nil, errors.New("sharing: nil encoded tree")
	}
	// Reject non-field rings before paying for the split.
	if _, ok := enc.Ring.(*ring.FpCyclotomic); !ok {
		return nil, fmt.Errorf("sharing: multi-server mode requires the F_p ring, got %s", enc.Ring.Name())
	}
	// First compute the single-server tree (client pad removed), then
	// Shamir-share it.
	rest, err := SplitWithOpts(enc, seed, SplitOpts{Parallelism: o.Parallelism})
	if err != nil {
		return nil, err
	}
	return MultiShareWithOpts(enc.Ring, rest, k, n, rng, o)
}

// MultiSplitSequential is the sequential reference implementation of
// MultiSplit: the same additive split and the same per-node mask streams,
// but a plain recursive walk computing each Shamir share coefficient-wise
// in big.Int field arithmetic. It is retained as the differential-test
// anchor — MultiSplit must match it byte for byte at every Parallelism —
// and the before side of the multiSplit benchmark target.
func MultiSplitSequential(enc *polyenc.Tree, seed drbg.Seed, k, n int, rng io.Reader) ([]ServerShare, error) {
	if enc == nil || enc.Root == nil {
		return nil, errors.New("sharing: nil encoded tree")
	}
	if _, ok := enc.Ring.(*ring.FpCyclotomic); !ok {
		return nil, fmt.Errorf("sharing: multi-server mode requires the F_p ring, got %s", enc.Ring.Name())
	}
	rest, err := SplitSequential(enc, seed)
	if err != nil {
		return nil, err
	}
	return MultiShareSequential(enc.Ring, rest, k, n, rng)
}

// MultiShare Shamir-shares an existing single-server share tree (the
// "rest" part left by Split) across n servers with threshold k — the
// second half of MultiSplit, usable when the encoded tree is gone and
// only the outsourced server store remains. Server j's share point is
// X = j+1 in the returned order.
//
// rng is read exactly once, for a 32-byte mask seed; every node's Shamir
// mask vectors then come from the node's own path-keyed stream
// (MultiShareLabel), drawn through the bulk sampler. On fast-path rings
// the share arithmetic is vectorized — share_j = rest + Σ_d mask_d·(j^d)
// in one fused scalar-multiply-add pass per mask — and subtrees are
// shared in parallel on a bounded pool; with the fast path off the
// sequential big.Int walk takes over and, like ring.Rand, draws the same
// masks from the same streams.
func MultiShare(r ring.Ring, rest *Tree, k, n int, rng io.Reader) ([]ServerShare, error) {
	return MultiShareWithOpts(r, rest, k, n, rng, MultiOpts{})
}

// MultiShareWithOpts is MultiShare with an explicit parallelism bound.
func MultiShareWithOpts(r ring.Ring, rest *Tree, k, n int, rng io.Reader, o MultiOpts) ([]ServerShare, error) {
	fpRing, d, err := multiShareSetup(r, rest, k, n, rng)
	if err != nil {
		return nil, err
	}
	if fpRing.Fast() == nil {
		return multiShareSequential(fpRing, d, rest, k, n)
	}
	m := &multiSharer{
		fp:   fpRing,
		ff:   fpRing.Fast(),
		d:    d,
		k:    k,
		n:    n,
		pool: parwalk.New(o.Parallelism),
		xPow: shamirPointPowers(fpRing.Fast(), k, n),
	}
	roots := make([]*Node, n)
	for j := range roots {
		roots[j] = &Node{}
	}
	m.walk(rest.Root, drbg.NodeKey{}, roots)
	if err := m.pool.Wait(); err != nil {
		return nil, err
	}
	return wrapServerShares(roots), nil
}

// MultiShareSequential is the sequential big.Int reference for MultiShare:
// identical mask streams (same label, same bulk draws on fast-path
// rings), but every share coefficient computed by an independent Horner
// evaluation in big.Int field arithmetic and a plain recursive walk.
// MultiShare at any Parallelism must reproduce its output byte for byte —
// the differential anchor for both the vectorized share arithmetic and
// the parallel schedule.
func MultiShareSequential(r ring.Ring, rest *Tree, k, n int, rng io.Reader) ([]ServerShare, error) {
	fpRing, d, err := multiShareSetup(r, rest, k, n, rng)
	if err != nil {
		return nil, err
	}
	return multiShareSequential(fpRing, d, rest, k, n)
}

// multiShareSetup validates the arguments and derives the mask-stream
// deriver from one 32-byte read of rng.
func multiShareSetup(r ring.Ring, rest *Tree, k, n int, rng io.Reader) (*ring.FpCyclotomic, *drbg.Deriver, error) {
	if rest == nil || rest.Root == nil {
		return nil, nil, errors.New("sharing: nil share tree")
	}
	fpRing, ok := r.(*ring.FpCyclotomic)
	if !ok {
		return nil, nil, fmt.Errorf("sharing: multi-server mode requires the F_p ring, got %s", r.Name())
	}
	// Bounds (1 <= k <= n, n < p) via the scheme constructor, for one
	// consistent set of error messages.
	if _, err := shamir.NewScheme(fpRing.Field(), k, n); err != nil {
		return nil, nil, err
	}
	var maskSeed drbg.Seed
	if _, err := io.ReadFull(rng, maskSeed[:]); err != nil {
		return nil, nil, fmt.Errorf("sharing: reading mask seed: %w", err)
	}
	return fpRing, drbg.NewDeriver(maskSeed, MultiShareLabel), nil
}

// shamirPointPowers precomputes the Montgomery form of (j+1)^d for every
// server j < n and mask degree 1 <= d < k — the scalars of the vectorized
// share evaluation.
func shamirPointPowers(ff *fastfield.Field, k, n int) [][]uint64 {
	out := make([][]uint64, n)
	for j := range out {
		out[j] = make([]uint64, k-1)
		x := ff.Reduce(uint64(j + 1))
		pw := x
		for d := 0; d < k-1; d++ {
			out[j][d] = ff.MForm(pw)
			pw = ff.Mul(pw, x)
		}
	}
	return out
}

func wrapServerShares(roots []*Node) []ServerShare {
	out := make([]ServerShare, len(roots))
	for j, root := range roots {
		out[j] = ServerShare{X: uint32(j + 1), Tree: &Tree{Root: root}}
	}
	return out
}

// multiSharer is one parallel packed Shamir-sharing run.
type multiSharer struct {
	fp   *ring.FpCyclotomic
	ff   *fastfield.Field
	d    *drbg.Deriver
	k, n int
	pool *parwalk.Pool
	xPow [][]uint64 // xPow[j][d-1] = MForm((j+1)^d)
}

func (m *multiSharer) walk(src *Node, key drbg.NodeKey, outs []*Node) {
	if m.pool.Failed() {
		return
	}
	if err := m.fill(src, key, outs); err != nil {
		m.pool.Fail(fmt.Errorf("sharing: node %s: %w", key, err))
		return
	}
	if len(src.Children) == 0 {
		return
	}
	for j := range outs {
		outs[j].Children = make([]*Node, len(src.Children))
	}
	for i, c := range src.Children {
		c := c // pre-1.22 loop-var capture
		ck := key.Child(uint32(i))
		childOuts := make([]*Node, m.n)
		for j := range childOuts {
			childOuts[j] = &Node{}
			outs[j].Children[i] = childOuts[j]
		}
		m.pool.Do(func() { m.walk(c, ck, childOuts) })
	}
}

// fill computes one node's n Shamir share polynomials: k−1 mask vectors
// from the node's own stream, then share_j = rest + Σ_d mask_d·(j+1)^d
// as fused scalar-multiply-add passes.
func (m *multiSharer) fill(src *Node, key drbg.NodeKey, outs []*Node) error {
	masks, err := drawMasks(m.fp, m.d, key, m.k)
	if err != nil {
		return err
	}
	rest := m.packedOf(src)
	bound := m.fp.DegreeBound()
	for j := 0; j < m.n; j++ {
		share := make([]uint64, bound)
		copy(share, rest)
		for d, mv := range masks {
			m.ff.ScalarMulAddVec(share, mv, m.xPow[j][d])
		}
		outs[j].Packed = share
	}
	return nil
}

// drawMasks draws the node's k−1 Shamir mask vectors from its path-keyed
// stream, in bulk, in ascending degree order — the consumption pattern
// both MultiShare and MultiShareSequential share.
func drawMasks(fp *ring.FpCyclotomic, d *drbg.Deriver, key drbg.NodeKey, k int) ([][]uint64, error) {
	stream := d.ForNode(key)
	masks := make([][]uint64, k-1)
	for i := range masks {
		masks[i] = make([]uint64, fp.DegreeBound())
		if err := fp.RandPacked(stream, masks[i]); err != nil {
			return nil, err
		}
	}
	return masks, nil
}

// packedOf returns the node's canonical packed coefficients (length ≤
// bound), re-canonicalizing through the ring when the tree was built off
// the packed path.
func (m *multiSharer) packedOf(src *Node) []uint64 {
	if src.Packed != nil {
		return src.Packed
	}
	if vec, ok := m.fp.Pack(src.Poly); ok && len(vec) <= m.fp.DegreeBound() {
		return vec
	}
	// Reduce folds into the canonical representative, which always packs
	// on a fast-path ring.
	vec, _ := m.fp.Pack(m.fp.Reduce(src.Poly))
	return vec
}

// multiShareSequential is the recursive big.Int walk behind
// MultiShareSequential and the fast-path-off fallback of MultiShare. On
// fast-path rings the masks come from the same bulk draws as the parallel
// walk; with the fast path off ring.Rand draws the same masks one
// coefficient at a time (see MultiShare).
func multiShareSequential(fp *ring.FpCyclotomic, d *drbg.Deriver, rest *Tree, k, n int) ([]ServerShare, error) {
	roots, err := multiShareNodeRef(fp, d, rest.Root, drbg.NodeKey{}, k, n)
	if err != nil {
		return nil, err
	}
	return wrapServerShares(roots), nil
}

// multiShareNodeRef returns the n per-server images of the subtree at src.
func multiShareNodeRef(fp *ring.FpCyclotomic, d *drbg.Deriver, src *Node, key drbg.NodeKey, k, n int) ([]*Node, error) {
	bound := fp.DegreeBound()
	f := fp.Field()
	// Mask coefficients as big.Ints: masks[deg][i].
	masks := make([][]*big.Int, k-1)
	if fp.Fast() != nil {
		vecs, err := drawMasks(fp, d, key, k)
		if err != nil {
			return nil, fmt.Errorf("sharing: node %s: %w", key, err)
		}
		for deg, vec := range vecs {
			masks[deg] = make([]*big.Int, bound)
			for i, v := range vec {
				masks[deg][i] = new(big.Int).SetUint64(v)
			}
		}
	} else {
		stream := d.ForNode(key)
		for deg := range masks {
			pad, err := fp.Rand(stream)
			if err != nil {
				return nil, fmt.Errorf("sharing: node %s: %w", key, err)
			}
			masks[deg] = make([]*big.Int, bound)
			for i := range masks[deg] {
				masks[deg][i] = pad.Coeff(i)
			}
		}
	}
	np := src.Polynomial()
	nodes := make([]*Node, n)
	for j := range nodes {
		x := f.FromInt64(int64(j + 1))
		coeffs := make([]*big.Int, bound)
		for i := 0; i < bound; i++ {
			// Horner over the degree-(k−1) Shamir polynomial of
			// coefficient i: g_i(x) = rest_i + Σ_d masks[d][i]·x^d.
			acc := f.Zero()
			for deg := k - 2; deg >= 0; deg-- {
				acc = f.Mul(f.Add(acc, masks[deg][i]), x)
			}
			coeffs[i] = f.Add(acc, f.Reduce(np.Coeff(i)))
		}
		nodes[j] = &Node{Poly: poly.New(coeffs...)}
	}
	for i, c := range src.Children {
		childNodes, err := multiShareNodeRef(fp, d, c, key.Child(uint32(i)), k, n)
		if err != nil {
			return nil, err
		}
		for j := range nodes {
			nodes[j].Children = append(nodes[j].Children, childNodes[j])
		}
	}
	return nodes, nil
}

// ServerEval is one server's scalar answer for a node.
type ServerEval struct {
	X     uint32
	Value *big.Int
}

// CombineServerEvals reconstructs f_rest(a) from >= k scalar server
// evaluations via Lagrange interpolation at zero. Fast-path rings combine
// on fastfield words; the big.Int interpolation remains the fallback for
// wide moduli (and the behavioral reference — both paths are
// differentially tested against each other).
func CombineServerEvals(r *ring.FpCyclotomic, evals []ServerEval, k int) (*big.Int, error) {
	if ff := r.Fast(); ff != nil && len(evals) >= k {
		xs := make([]uint64, len(evals))
		ys := make([]uint64, len(evals))
		for i, e := range evals {
			xs[i] = uint64(e.X)
			ys[i] = ff.ReduceBig(e.Value)
		}
		if lag, err := ff.LagrangeAtZero(xs); err == nil {
			return new(big.Int).SetUint64(lag.Combine(ys)), nil
		}
		// Degenerate point sets fall through to the big.Int path for its
		// established error reporting.
	}
	shares := make([]shamir.Share, len(evals))
	for i, e := range evals {
		shares[i] = shamir.Share{X: e.X, Y: e.Value}
	}
	return shamir.InterpolateAt(r.Field(), shares, big.NewInt(0), k)
}

// MultiReconstructEval computes the full f(a) from the client's seed share
// and >= k server evaluations.
func MultiReconstructEval(r *ring.FpCyclotomic, client *SeedClient, key drbg.NodeKey, a *big.Int, evals []ServerEval, k int) (*big.Int, error) {
	rest, err := CombineServerEvals(r, evals, k)
	if err != nil {
		return nil, err
	}
	cv, err := client.EvalShare(key, a)
	if err != nil {
		return nil, err
	}
	return r.Field().Add(cv, rest), nil
}
