package sharing

import (
	"fmt"
	"math/big"

	"sssearch/internal/drbg"
	"sssearch/internal/poly"
	"sssearch/internal/ring"
)

// ShareSource abstracts where the client's shares come from: regenerated
// from a seed (SeedClient, the paper's §4.2 storage-optimal mode), held in
// a materialized tree (StaticSource), or — in tests — the paper's
// published figure values verbatim. On F_p a share is a value vector (see
// the package comment), and the boxed form of one holds its value at
// a = i+1 as coefficient i.
//
// Implementations must be safe for concurrent use, every method with every
// other: the query engine computes the client summands of a large
// evaluation wave, and the pads of a tag-recovery chunk, in blocks on every
// core while the server's call is in flight, and concurrent queries share
// one source.
// Results are read-only once returned.
type ShareSource interface {
	// Share returns the client share of the keyed node in the boxed form.
	Share(key drbg.NodeKey) (poly.Poly, error)
	// EvalShare evaluates the node's client share at point a, reduced
	// modulo the ring's evaluation modulus at a.
	EvalShare(key drbg.NodeKey, a *big.Int) (*big.Int, error)
}

// MultiPointSource is the multi-point extension of ShareSource: one call
// serves every active query point. The query engine type-asserts for it
// and falls back to per-point EvalShare calls otherwise; results are
// identical either way. The engine's
// word path asks WordSource instead. EvalShares is called from several
// goroutines at once, like every ShareSource method.
type MultiPointSource interface {
	ShareSource
	// EvalShares evaluates the node's client share at every point, in
	// order, reduced modulo the ring's evaluation modulus at each point.
	EvalShares(key drbg.NodeKey, points []*big.Int) ([]*big.Int, error)
}

// WordSource is MultiPointSource in machine words, a block of keys at a
// time: what the engine's word path asks, so that a wave's client leg boxes
// no scalar and packs its point vector once per block, not once per key.
// The engine type-asserts for it and takes EvalShares (or EvalShare)
// otherwise, converting at the seam; results are identical either way.
// Called from several goroutines at once, like every ShareSource method.
type WordSource interface {
	ShareSource
	// EvalShareWords evaluates the client share of every key at every
	// point into dst, one row per key: dst[i*len(points)+j] is the share of
	// keys[i] at points[j], reduced. It stops at the first key that fails:
	// rows [0, done) are written, and err is that key's error (done =
	// len(keys) and nil on success). ok=false — the source's ring has no
	// word form — writes nothing and sends the caller to EvalShares.
	EvalShareWords(dst []uint64, keys []drbg.NodeKey, points []*big.Int) (done int, ok bool, err error)
}

// PackedShareSource exposes client shares in words — on F_p the value
// vector — letting the engine's tag recovery reconstruct without crossing
// the big.Int boundary. ok=false means the source has no word form for
// that node; callers fall back to Share. Returned vectors are read
// only, and PackedShare is called from several goroutines at once, like
// every ShareSource method.
type PackedShareSource interface {
	ShareSource
	PackedShare(key drbg.NodeKey) (vec []uint64, ok bool, err error)
}

var (
	_ MultiPointSource  = (*SeedClient)(nil)
	_ MultiPointSource  = (*StaticSource)(nil)
	_ WordSource        = (*SeedClient)(nil)
	_ WordSource        = (*StaticSource)(nil)
	_ PackedShareSource = (*SeedClient)(nil)
	_ PackedShareSource = (*StaticSource)(nil)
)

// StaticSource serves client shares from a materialized share tree — the
// memory-for-CPU end of the §4.2 trade-off, and the vehicle for running
// the protocol on externally supplied share values (e.g. the paper's
// figures 3 and 4). On F_p the tree is taken into the value form at
// construction (ValueTree: supplied polynomials are evaluated everywhere
// once), so a summand is a read.
type StaticSource struct {
	r    ring.Ring
	tree *Tree
	fp   *ring.FpCyclotomic // non-nil on F_p: tree is in the value form
}

// NewStaticSource wraps a materialized client share tree.
func NewStaticSource(r ring.Ring, tree *Tree) (*StaticSource, error) {
	if r == nil || tree == nil || tree.Root == nil {
		return nil, fmt.Errorf("sharing: nil ring or tree")
	}
	s := &StaticSource{r: r, tree: tree}
	if fp, ok := r.(*ring.FpCyclotomic); ok {
		s.fp, s.tree = fp, ValueTree(fp, tree)
	}
	return s, nil
}

// Share implements ShareSource: on F_p the node's value vector in the
// boxed form.
func (s *StaticSource) Share(key drbg.NodeKey) (poly.Poly, error) {
	n, err := s.tree.Lookup(key)
	if err != nil {
		return poly.Poly{}, err
	}
	if s.fp != nil {
		return poly.NewUint64(s.tree.Words(n)), nil
	}
	return n.Poly, nil
}

// EvalShare implements ShareSource.
func (s *StaticSource) EvalShare(key drbg.NodeKey, a *big.Int) (*big.Int, error) {
	vals, err := s.EvalShares(key, []*big.Int{a})
	if err != nil {
		return nil, err
	}
	return vals[0], nil
}

// PackedShare implements PackedShareSource: the node's value vector on F_p.
func (s *StaticSource) PackedShare(key drbg.NodeKey) ([]uint64, bool, error) {
	if s.fp == nil {
		return nil, false, nil
	}
	n, err := s.tree.Lookup(key)
	if err != nil {
		return nil, false, err
	}
	return s.tree.Words(n), true, nil
}

// EvalShares implements MultiPointSource.
func (s *StaticSource) EvalShares(key drbg.NodeKey, points []*big.Int) ([]*big.Int, error) {
	n, err := s.tree.Lookup(key)
	if err != nil {
		return nil, err
	}
	out := make([]*big.Int, len(points))
	for j, a := range points {
		if out[j], err = s.tree.Eval(s.r, n, a); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// EvalShareWords implements WordSource: one value read per (key, point).
func (s *StaticSource) EvalShareWords(dst []uint64, keys []drbg.NodeKey, points []*big.Int) (int, bool, error) {
	if s.fp == nil || s.fp.Fast() == nil {
		return 0, false, nil
	}
	xs := make([]int, len(points))
	for j, a := range points {
		x, err := s.fp.PackPoint(a)
		if err != nil {
			return 0, true, err
		}
		xs[j] = int(x - 1)
	}
	np := len(points)
	for i, key := range keys {
		n, err := s.tree.Lookup(key)
		if err != nil {
			return i, true, err
		}
		for j, x := range xs {
			dst[i*np+j] = s.tree.Value(n, x)
		}
	}
	return len(keys), true, nil
}

// evalEach evaluates one polynomial at every point through the ring: the
// big.Int reference evaluation.
func evalEach(r ring.Ring, p poly.Poly, points []*big.Int) ([]*big.Int, error) {
	out := make([]*big.Int, len(points))
	for i, a := range points {
		var err error
		if out[i], err = r.Eval(p, a); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// boxedRow is EvalShares over a word source: one key's row, lifted into the
// big.Int boundary representation — the thin boxed reference seam.
func boxedRow(src WordSource, key drbg.NodeKey, points []*big.Int) ([]*big.Int, error) {
	row := make([]uint64, len(points))
	if _, _, err := src.EvalShareWords(row, []drbg.NodeKey{key}, points); err != nil {
		return nil, err
	}
	out := make([]*big.Int, len(row))
	for i, v := range row {
		out[i] = new(big.Int).SetUint64(v)
	}
	return out, nil
}
