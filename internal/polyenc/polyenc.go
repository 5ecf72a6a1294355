// Package polyenc implements the paper's §4.1 data representation: the
// translation of an XML element tree into a tree of polynomials over a
// quotient ring, and the inverse — unique recovery of a node's tag value
// from its polynomial and its children's polynomials (Theorems 1 and 2).
//
// Construction (bottom-up): a leaf named n becomes (x − map(n)); an interior
// node is (x − map(node)) · ∏ children. Every node polynomial therefore has
// the tag values of its entire subtree among its roots, which is what lets
// the query protocol prune dead branches from a single evaluation.
package polyenc

import (
	"errors"
	"fmt"
	"math/big"
	"sync"

	"sssearch/internal/drbg"
	"sssearch/internal/fastfield"
	"sssearch/internal/mapping"
	"sssearch/internal/parwalk"
	"sssearch/internal/poly"
	"sssearch/internal/ring"
	"sssearch/internal/xmltree"
)

// Node is one element of an encoded tree.
type Node struct {
	// Poly is the node's polynomial, a canonical ring representative.
	Poly poly.Poly
	// Packed, when non-nil, is the word-sized mirror of Poly (canonical
	// []uint64 coefficients, ascending degree, trailing zeros trimmed).
	// The packed fast-path encode fills it so downstream consumers —
	// sharing.Split above all — never re-pack; trees built through the
	// big.Int path or by hand leave it nil. Shared read-only.
	Packed []uint64
	// Children mirror the XML element order.
	Children []*Node
}

// Polynomial returns the node's polynomial in the big.Int boundary
// representation, materializing it from the packed mirror when a
// PackedOnly encode skipped the boxing. Readers that may be handed a
// PackedOnly tree (sharing's big.Int split paths, tree-wide tag
// recovery) must use this instead of reading Poly directly.
func (n *Node) Polynomial() poly.Poly {
	if n.Poly.IsZero() && n.Packed != nil {
		return poly.NewUint64(n.Packed)
	}
	return n.Poly
}

// Tree is the polynomial image of an XML document.
type Tree struct {
	Ring ring.Ring
	Root *Node
}

var (
	// ErrInconsistent is returned by RecoverTag when the node/children
	// polynomials do not satisfy f ≡ (x−t)·∏qᵢ for any t — the signature of
	// a corrupted or dishonest server (§4.3: "we now have at least a way to
	// check the answer").
	ErrInconsistent = errors.New("polyenc: polynomials inconsistent — no tag value satisfies eq. (2)")
	// ErrNoEquation is returned when every coefficient equation is
	// indeterminate (∏qᵢ ≡ 0, ruled out by Lemma 3 for honest trees).
	ErrNoEquation = errors.New("polyenc: all coefficient equations degenerate")
)

// Opts tunes encoding behaviour.
type Opts struct {
	// AllowTagOverflow disables the Lemma 3 tag-domain check (values must
	// lie in [1, MaxTag] of the ring). The paper's own figure 1(b) example
	// maps name→4 = p−1 with p = 5 — violating the paper's Lemma 3
	// precondition — and still happens to work; this flag exists precisely
	// to reproduce that example. Production encodings must keep it false:
	// a tag equal to p−1 makes node polynomials able to vanish identically,
	// silently destroying Theorem 1's uniqueness.
	AllowTagOverflow bool
	// Parallelism bounds the worker pool of the packed fast-path encode
	// walk: 0 selects runtime.GOMAXPROCS, 1 forces a sequential walk.
	// The encoding is identical at every setting — tag values are
	// assigned in a deterministic sequential pre-pass and the product
	// arithmetic is exact — so this is purely a throughput knob. The
	// big.Int path (IntQuotient, SetFast(false)) ignores it.
	Parallelism int
	// PackedOnly makes the fast-path encode skip materializing Node.Poly
	// and carry Node.Packed alone — for pipelines (Outsource above all)
	// that hand the tree straight to sharing.Split and never read the
	// big.Int boundary representation. Readers that need Poly go through
	// Node.Polynomial(), which re-boxes on demand. Ignored on the
	// big.Int path, which always fills Poly.
	PackedOnly bool
}

// Encode translates doc into a polynomial tree over r, assigning mapping
// values for unseen tags as it goes. Tag values outside the ring's safe
// domain are rejected (Lemma 3).
func Encode(r ring.Ring, doc *xmltree.Node, m *mapping.Map) (*Tree, error) {
	return EncodeWithOpts(r, doc, m, Opts{})
}

// EncodeWithOpts is Encode with explicit options.
func EncodeWithOpts(r ring.Ring, doc *xmltree.Node, m *mapping.Map, o Opts) (*Tree, error) {
	if doc == nil {
		return nil, errors.New("polyenc: nil document")
	}
	if fp, ok := r.(*ring.FpCyclotomic); ok && fp.Fast() != nil {
		return encodePacked(fp, doc, m, o)
	}
	root, err := encodeNode(r, doc, m, o)
	if err != nil {
		return nil, err
	}
	return &Tree{Ring: r, Root: root}, nil
}

// encodePacked is the word-sized encode: node polynomials are built
// bottom-up as packed []uint64 products (one MulPacked per factor, no
// big.Int crossings inside the walk) and subtrees are encoded in parallel
// on a bounded pool. Two phases keep it byte-compatible with the
// sequential big.Int encode:
//
//  1. a sequential pre-pass assigns tag values in exactly the order the
//     recursive encode would (children before parent) — mapping.Assign
//     resolves draw collisions first-come-first-served, so the visit
//     order is part of the mapping's determinism contract;
//  2. a parallel product pass multiplies the packed factors. Ring
//     arithmetic is exact, so the result is schedule-independent.
func encodePacked(fp *ring.FpCyclotomic, doc *xmltree.Node, m *mapping.Map, o Opts) (*Tree, error) {
	e := &packedEncoder{
		fp:         fp,
		ff:         fp.Fast(),
		vals:       make(map[*xmltree.Node]uint64),
		pool:       parwalk.New(o.Parallelism),
		packedOnly: o.PackedOnly,
	}
	if err := e.assignTags(doc, m, o); err != nil {
		return nil, err
	}
	root := &Node{}
	e.walk(doc, root)
	e.pool.Wait() // infallible walk: only exact arithmetic after the pre-pass
	return &Tree{Ring: fp, Root: root}, nil
}

type packedEncoder struct {
	fp         *ring.FpCyclotomic
	ff         *fastfield.Field
	vals       map[*xmltree.Node]uint64 // read-only during the parallel pass
	pool       *parwalk.Pool
	packedOnly bool
}

// assignTags replays the sequential encode's postorder Assign calls.
func (e *packedEncoder) assignTags(n *xmltree.Node, m *mapping.Map, o Opts) error {
	for _, c := range n.Children {
		if err := e.assignTags(c, m, o); err != nil {
			return err
		}
	}
	tag, err := m.Assign(n.Tag)
	if err != nil {
		return fmt.Errorf("polyenc: encoding %q: %w", n.PathString(), err)
	}
	if maxTag := e.fp.MaxTag(); !o.AllowTagOverflow && maxTag != nil && tag.Cmp(maxTag) > 0 {
		return fmt.Errorf("polyenc: tag %q maps to %s, outside the ring's safe domain [1,%s] (Lemma 3)",
			n.Tag, tag, maxTag)
	}
	e.vals[n] = e.ff.ReduceBig(tag)
	return nil
}

func (e *packedEncoder) walk(x *xmltree.Node, out *Node) {
	linear := []uint64{e.ff.Neg(e.vals[x]), 1}
	if len(x.Children) == 0 {
		out.Packed = linear
		if !e.packedOnly {
			out.Poly = e.fp.Unpack(linear)
		}
		return
	}
	out.Children = make([]*Node, len(x.Children))
	var wg sync.WaitGroup
	for i, c := range x.Children {
		c, child := c, &Node{} // pre-1.22 loop-var capture
		out.Children[i] = child
		wg.Add(1)
		e.pool.Do(func() {
			defer wg.Done()
			e.walk(c, child)
		})
	}
	wg.Wait()
	// Multi-factor product: the tag factor and every child product go
	// through MulPackedProd, which on the NTT path transforms each factor
	// exactly once and runs a single inverse transform — instead of one
	// full pairwise multiply per child.
	factors := make([][]uint64, 0, len(out.Children)+1)
	factors = append(factors, linear)
	for _, c := range out.Children {
		factors = append(factors, c.Packed)
	}
	out.Packed = trimPacked(e.fp.MulPackedProd(factors...))
	if !e.packedOnly {
		out.Poly = e.fp.Unpack(out.Packed)
	}
}

// trimPacked drops trailing zero coefficients so subtree products carry
// their true degree into the next multiplication.
func trimPacked(v []uint64) []uint64 {
	n := len(v)
	for n > 0 && v[n-1] == 0 {
		n--
	}
	return v[:n:n]
}

func encodeNode(r ring.Ring, n *xmltree.Node, m *mapping.Map, o Opts) (*Node, error) {
	out := &Node{}
	prod := r.One()
	for _, c := range n.Children {
		ec, err := encodeNode(r, c, m, o)
		if err != nil {
			return nil, err
		}
		out.Children = append(out.Children, ec)
		prod = r.Mul(prod, ec.Poly)
	}
	tag, err := m.Assign(n.Tag)
	if err != nil {
		return nil, fmt.Errorf("polyenc: encoding %q: %w", n.PathString(), err)
	}
	if maxTag := r.MaxTag(); !o.AllowTagOverflow && maxTag != nil && tag.Cmp(maxTag) > 0 {
		return nil, fmt.Errorf("polyenc: tag %q maps to %s, outside the ring's safe domain [1,%s] (Lemma 3)",
			n.Tag, tag, maxTag)
	}
	out.Poly = r.Mul(r.Linear(tag), prod)
	return out, nil
}

// EncodeUnreduced builds the non-reduced Z[x] representation of figure 1(c):
// plain integer polynomials with no quotient reduction. Degrees equal
// subtree sizes; used by the `fig1` experiment and the figure printer.
func EncodeUnreduced(doc *xmltree.Node, m *mapping.Map) (*Node, error) {
	if doc == nil {
		return nil, errors.New("polyenc: nil document")
	}
	out := &Node{}
	prod := poly.One()
	for _, c := range doc.Children {
		ec, err := EncodeUnreduced(c, m)
		if err != nil {
			return nil, err
		}
		out.Children = append(out.Children, ec)
		prod = prod.Mul(ec.Poly)
	}
	tag, err := m.Assign(doc.Tag)
	if err != nil {
		return nil, err
	}
	out.Poly = poly.Linear(tag).Mul(prod)
	return out, nil
}

// Walk visits the encoded tree in preorder with each node's key.
func (t *Tree) Walk(fn func(key drbg.NodeKey, n *Node) bool) {
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

// Count returns the number of nodes in the encoded tree.
func (t *Tree) Count() int {
	total := 0
	t.Walk(func(drbg.NodeKey, *Node) bool { total++; return true })
	return total
}

// Lookup resolves a node key.
func (t *Tree) Lookup(key drbg.NodeKey) (*Node, error) {
	cur := t.Root
	for depth, idx := range key {
		if int(idx) >= len(cur.Children) {
			return nil, fmt.Errorf("polyenc: key %v invalid at depth %d", key, depth)
		}
		cur = cur.Children[int(idx)]
	}
	return cur, nil
}

// MaxCoeffBits returns the largest coefficient bit length over the whole
// tree — the §5 coefficient-growth metric (the `coeffgrowth` experiment).
func (t *Tree) MaxCoeffBits() int {
	maxBits := 0
	t.Walk(func(_ drbg.NodeKey, n *Node) bool {
		if b := n.Polynomial().MaxCoeffBitLen(); b > maxBits {
			maxBits = b
		}
		return true
	})
	return maxBits
}

// RecoverTag solves f ≡ (x − t)·∏qᵢ (mod ring) for the unique t
// (Theorem 1 for F_p[x]/(x^{p-1}−1), Theorem 2 for Z[x]/(r(x))).
//
// Method (eqs. (2)–(3) of the paper): let Q = ∏qᵢ. Then
// t·Q ≡ Q·x − f coefficient-wise; the first coordinate with an invertible
// (resp. exactly dividing) Q coefficient determines t, and the remaining
// coordinates — checked via a full ring identity — verify it, which is what
// catches a lying server.
func RecoverTag(r ring.Ring, f poly.Poly, children []poly.Poly) (*big.Int, error) {
	if fp, ok := r.(*ring.FpCyclotomic); ok && fp.Fast() != nil {
		if t, ok, err := recoverTagPacked(fp, f, children); ok {
			return t, err
		}
	}
	q := r.One()
	for _, c := range children {
		q = r.Mul(q, c)
	}
	qx := r.Mul(q, poly.X())
	d := r.Sub(qx, f) // d should equal t·Q in the ring

	bound := r.DegreeBound()
	var t *big.Int
	for i := 0; i < bound; i++ {
		qi := q.Coeff(i)
		if r.CoeffZero(qi) {
			// Indeterminate coordinate: needs d_i ≡ 0 too, verified by the
			// final identity check below.
			continue
		}
		cand, ok := r.SolveScalar(d.Coeff(i), qi)
		if !ok {
			return nil, fmt.Errorf("%w: coefficient %d not divisible", ErrInconsistent, i)
		}
		t = cand
		break
	}
	if t == nil {
		return nil, ErrNoEquation
	}
	// Full verification: all p-1 (resp. deg r) coefficient equations at once.
	if !r.Equal(r.Mul(r.Linear(t), q), f) {
		return nil, ErrInconsistent
	}
	return t, nil
}

// recoverTagPacked packs the polynomials and defers to RecoverTagPacked.
// ok=false (first return ignored) sends the caller to the generic path
// when any polynomial refuses to pack.
func recoverTagPacked(r *ring.FpCyclotomic, f poly.Poly, children []poly.Poly) (*big.Int, bool, error) {
	pf, ok := r.Pack(f)
	if !ok || len(pf) > r.DegreeBound() {
		return nil, false, nil
	}
	packed := make([][]uint64, len(children))
	for i, c := range children {
		pc, ok := r.Pack(c)
		if !ok || len(pc) > r.DegreeBound() {
			return nil, false, nil
		}
		packed[i] = pc
	}
	t, err := RecoverTagPacked(r, pf, packed)
	return t, true, err
}

// RecoverTagPacked is RecoverTag on the word-sized fast path: the product
// tree, the solved equation and the verification identity all run on packed
// []uint64 vectors (canonical, length <= DegreeBound), never crossing the
// big.Int boundary until the single recovered tag value. The engine's
// tag-recovery path feeds it reconstructed shares that were never unpacked.
func RecoverTagPacked(r *ring.FpCyclotomic, pf []uint64, children [][]uint64) (*big.Int, error) {
	return RecoverTagPackedScratch(r, make([]uint64, r.DegreeBound()), pf, children)
}

// RecoverTagPackedScratch is RecoverTagPacked over the caller's scratch q
// (length DegreeBound, overwritten with Q = ∏qᵢ, aliasing no operand), so a
// block of recoveries that reuses it allocates only its results.
func RecoverTagPackedScratch(r *ring.FpCyclotomic, q, pf []uint64, children [][]uint64) (*big.Int, error) {
	n := r.DegreeBound()
	ff := r.Fast()
	// One multi-factor product (single inverse transform on the NTT path);
	// the empty-children case yields the ring's one.
	r.MulPackedProdInto(q, children...)
	// Multiplying by x is a cyclic shift (x·x^{n-1} ≡ 1), so (x − t)·Q has
	// the coefficient Q[i-1] − t·Q[i] at x^i, indices mod n, and eq. (2)
	// asks it to be f[i], zero past f's length.
	want := func(i int) uint64 {
		if i < len(pf) {
			return pf[i]
		}
		return 0
	}
	// The first coordinate with an invertible Q coefficient determines t.
	at := 0
	for at < n && q[at] == 0 {
		at++
	}
	if at == n {
		return nil, ErrNoEquation
	}
	inv, _ := ff.Inv(q[at])
	t := ff.Mul(ff.Sub(q[(at+n-1)%n], want(at)), inv)
	// Full verification: every one of the n coefficient equations.
	tM := ff.MForm(t)
	prev := q[n-1]
	for i, qi := range q {
		if ff.Sub(prev, ff.MRed(qi, tM)) != want(i) {
			return nil, ErrInconsistent
		}
		prev = qi
	}
	return new(big.Int).SetUint64(t), nil
}

// RecoverTagUnchecked solves only the single lowest usable coefficient
// equation without the cross-check — the paper's trusted-server shortcut
// ("if we trust the server …, only the last equation is enough").
func RecoverTagUnchecked(r ring.Ring, f poly.Poly, children []poly.Poly) (*big.Int, error) {
	q := r.One()
	for _, c := range children {
		q = r.Mul(q, c)
	}
	qx := r.Mul(q, poly.X())
	d := r.Sub(qx, f)
	for i := 0; i < r.DegreeBound(); i++ {
		qi := q.Coeff(i)
		if r.CoeffZero(qi) {
			continue
		}
		if t, ok := r.SolveScalar(d.Coeff(i), qi); ok {
			return t, nil
		}
		return nil, ErrInconsistent
	}
	return nil, ErrNoEquation
}

// RecoverAllTags recovers the tag value of every node of the tree and
// returns them keyed by node path — the tree-wide exercise of Theorems 1–2.
func (t *Tree) RecoverAllTags() (map[string]*big.Int, error) {
	out := map[string]*big.Int{}
	var firstErr error
	t.Walk(func(key drbg.NodeKey, n *Node) bool {
		children := make([]poly.Poly, len(n.Children))
		for i, c := range n.Children {
			children[i] = c.Polynomial()
		}
		v, err := RecoverTag(t.Ring, n.Polynomial(), children)
		if err != nil {
			firstErr = fmt.Errorf("polyenc: node %s: %w", key, err)
			return false
		}
		out[key.String()] = v
		return true
	})
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}
