package sharing

import (
	"fmt"
	"math/big"

	"sssearch/internal/drbg"
	"sssearch/internal/poly"
	"sssearch/internal/ring"
)

// ShareSource abstracts where the client's share polynomials come from:
// regenerated from a seed (SeedClient, the paper's §4.2 storage-optimal
// mode), held in a materialized tree (StaticSource), or — in tests — the
// paper's published figure values verbatim.
//
// Implementations must be safe for concurrent use, every method with every
// other: the query engine computes the client summands of a large
// evaluation wave, and the pads of a tag-recovery chunk, in blocks on every
// core while the server's call is in flight, and concurrent queries share
// one source.
// Results are read-only once returned.
type ShareSource interface {
	// Share returns the client share polynomial of the keyed node.
	Share(key drbg.NodeKey) (poly.Poly, error)
	// EvalShare evaluates the node's client share at point a, reduced
	// modulo the ring's evaluation modulus at a.
	EvalShare(key drbg.NodeKey, a *big.Int) (*big.Int, error)
}

// MultiPointSource is the multi-point extension of ShareSource: one share
// materialization (or DRBG regeneration) serves every active query point
// in a single polynomial pass. The query engine type-asserts for it and
// falls back to per-point EvalShare calls otherwise; results are
// identical either way. EvalShares is called from several goroutines at
// once, like every ShareSource method.
type MultiPointSource interface {
	ShareSource
	// EvalShares evaluates the node's client share at every point, in
	// order, reduced modulo the ring's evaluation modulus at each point.
	EvalShares(key drbg.NodeKey, points []*big.Int) ([]*big.Int, error)
}

// PackedShareSource exposes client shares in the packed word
// representation, letting the engine's tag-recovery path reconstruct
// polynomials without crossing the big.Int boundary. ok=false means the
// source has no packed form for that node (fast path off, or out-of-word
// coefficients); callers fall back to Share. Returned vectors are shared
// — read only — and PackedShare is called from several goroutines at once,
// like every ShareSource method.
type PackedShareSource interface {
	ShareSource
	PackedShare(key drbg.NodeKey) (vec []uint64, ok bool, err error)
}

var (
	_ MultiPointSource  = (*SeedClient)(nil)
	_ MultiPointSource  = (*StaticSource)(nil)
	_ PackedShareSource = (*SeedClient)(nil)
	_ PackedShareSource = (*StaticSource)(nil)
)

// StaticSource serves client shares from a materialized share tree — the
// memory-for-CPU end of the §4.2 trade-off, and the vehicle for running
// the protocol on externally supplied share values (e.g. the paper's
// figures 3 and 4). On fast-path rings every node polynomial is packed
// into its word representation once at construction, so per-query
// evaluations run allocation-free.
type StaticSource struct {
	r    ring.Ring
	tree *Tree
	// fp is non-nil when r carries the word-sized fast path; packed then
	// holds the word representation of every node that packs (nodes with
	// out-of-word coefficients fall back to the big.Int path).
	fp     *ring.FpCyclotomic
	packed map[*Node][]uint64
}

// NewStaticSource wraps a materialized client share tree.
func NewStaticSource(r ring.Ring, tree *Tree) (*StaticSource, error) {
	if r == nil || tree == nil || tree.Root == nil {
		return nil, fmt.Errorf("sharing: nil ring or tree")
	}
	s := &StaticSource{r: r, tree: tree}
	if fp, ok := r.(*ring.FpCyclotomic); ok && fp.Fast() != nil {
		s.fp = fp
		s.packed = make(map[*Node][]uint64)
		tree.Walk(func(_ drbg.NodeKey, n *Node) bool {
			if n.Packed != nil {
				s.packed[n] = n.Packed
			} else if vec, ok := fp.Pack(n.Poly); ok {
				s.packed[n] = vec
			}
			return true
		})
	}
	return s, nil
}

// Share implements ShareSource.
func (s *StaticSource) Share(key drbg.NodeKey) (poly.Poly, error) {
	n, err := s.tree.Lookup(key)
	if err != nil {
		return poly.Poly{}, err
	}
	return n.Polynomial(), nil
}

// EvalShare implements ShareSource.
func (s *StaticSource) EvalShare(key drbg.NodeKey, a *big.Int) (*big.Int, error) {
	vals, err := s.EvalShares(key, []*big.Int{a})
	if err != nil {
		return nil, err
	}
	return vals[0], nil
}

// PackedShare implements PackedShareSource.
func (s *StaticSource) PackedShare(key drbg.NodeKey) ([]uint64, bool, error) {
	if s.fp == nil {
		return nil, false, nil
	}
	n, err := s.tree.Lookup(key)
	if err != nil {
		return nil, false, err
	}
	vec, ok := s.packed[n]
	return vec, ok, nil
}

// EvalShares implements MultiPointSource: one pass over the stored
// polynomial serves all points.
func (s *StaticSource) EvalShares(key drbg.NodeKey, points []*big.Int) ([]*big.Int, error) {
	n, err := s.tree.Lookup(key)
	if err != nil {
		return nil, err
	}
	if vec, ok := s.packed[n]; ok {
		return evalPackedMany(s.fp, vec, points)
	}
	out := make([]*big.Int, len(points))
	np := n.Polynomial()
	for i, p := range points {
		if out[i], err = s.r.Eval(np, p); err != nil {
			return nil, err
		}
	}
	return out, nil
}
