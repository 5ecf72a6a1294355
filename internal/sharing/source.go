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
	_ WordSource        = (*SeedClient)(nil)
	_ WordSource        = (*StaticSource)(nil)
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
	if s.fp != nil {
		return boxedRow(s, key, points)
	}
	n, err := s.tree.Lookup(key)
	if err != nil {
		return nil, err
	}
	return evalEach(s.r, n.Polynomial(), points)
}

// EvalShareWords implements WordSource. A node whose polynomial does not
// pack (foreign big coefficients) is evaluated through the ring; its values
// are residues mod p all the same.
func (s *StaticSource) EvalShareWords(dst []uint64, keys []drbg.NodeKey, points []*big.Int) (int, bool, error) {
	if s.fp == nil {
		return 0, false, nil
	}
	pv, err := packPoints(s.fp, points)
	if err != nil {
		return 0, true, err
	}
	ff := s.fp.Fast()
	np := len(points)
	for i, key := range keys {
		n, err := s.tree.Lookup(key)
		if err != nil {
			return i, true, err
		}
		row := dst[i*np : (i+1)*np]
		if vec, ok := s.packed[n]; ok {
			ff.EvalMany(vec, pv.mont, row)
			continue
		}
		vals, err := evalEach(s.r, n.Polynomial(), points)
		if err != nil {
			return i, true, err
		}
		for j, v := range vals {
			row[j] = ff.ReduceBig(v)
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

// pointVec is a point vector packed for a block of keys: the canonical word
// residues and their Montgomery forms.
type pointVec struct {
	xs, mont []uint64
}

// packPoints packs a point vector once for every key evaluated at it.
func packPoints(fp *ring.FpCyclotomic, points []*big.Int) (pointVec, error) {
	pv := pointVec{xs: make([]uint64, 2*len(points))}
	pv.xs, pv.mont = pv.xs[:len(points)], pv.xs[len(points):]
	for i, p := range points {
		x, err := fp.PackPoint(p)
		if err != nil {
			return pointVec{}, err
		}
		pv.xs[i] = x
	}
	fp.Fast().MFormVec(pv.mont, pv.xs)
	return pv, nil
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
