// Package polyenc implements the paper's §4.1 data representation: the
// translation of an XML element tree into a tree of polynomials over a
// quotient ring, and the inverse — unique recovery of a node's tag value
// from its polynomial and its children's polynomials (Theorems 1 and 2).
//
// Construction (bottom-up): a leaf named n becomes (x − map(n)); an interior
// node is (x − map(node)) · ∏ children. Every node polynomial therefore has
// the tag values of its entire subtree among its roots, which is what lets
// the query protocol prune dead branches from a single evaluation.
//
// On F_p the encode works in the evaluation domain: F_p[x]/(x^{p−1}−1) ≅
// F_p^{p−1}, so a node is its vector of values at a = 1 … p−1 and the
// product above is pointwise. Eq. (2) holds pointwise too, and
// RecoverTagPacked checks it there; the coefficient form remains as the
// reference (Encode without PackedOnly) and the coefficient solve
// (RecoverTag) as its oracle.
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
	// Poly is the node's polynomial, a canonical ring representative; zero
	// on an F_p ring after a PackedOnly encode.
	Poly poly.Poly
	// Packed is, on an F_p ring, the node's element in the evaluation
	// domain: its value at every point a = 1 … p−1, in order, as canonical
	// words (F_p[x]/(x^{p−1}−1) ≅ F_p^{p−1}, see ring.FpCyclotomic.Values).
	// It is what sharing.Split shares and the only form a PackedOnly encode
	// builds; nil on other rings. Shared read-only.
	Packed []uint64
	// Children mirror the XML element order.
	Children []*Node
}

// Polynomial returns the node's coefficient form, Poly. It is kept only
// until the benchmark stops calling it.
func (n *Node) Polynomial() poly.Poly { return n.Poly }

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
	// Parallelism bounds the worker pool of the value-form encode walk: 0
	// selects runtime.GOMAXPROCS, 1 forces a sequential walk. The encoding
	// is identical at every setting — tag values are assigned in a
	// deterministic sequential pre-pass and the product arithmetic is
	// exact — so this is purely a throughput knob. The coefficient encode
	// ignores it.
	Parallelism int
	// PackedOnly makes an F_p encode build the value form alone: Packed,
	// pointwise, with no coefficient form, no transform and no product of
	// polynomials — for pipelines (Outsource above all) that hand the tree
	// straight to sharing.Split. Without it, and with the ring's fast path
	// off, an F_p encode is the reference: the coefficient encode, then
	// Packed as its values at every point.
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
	fp, isFp := r.(*ring.FpCyclotomic)
	if isFp && o.PackedOnly && fp.Fast() != nil {
		return encodeValues(fp, doc, m, o)
	}
	root, err := encodeNode(r, doc, m, o)
	if err != nil {
		return nil, err
	}
	t := &Tree{Ring: r, Root: root}
	if isFp {
		t.Walk(func(_ drbg.NodeKey, n *Node) bool {
			n.Packed = fp.Values(n.Poly)
			return true
		})
	}
	return t, nil
}

// encodeValues is the word-sized encode. A product of ring elements is the
// pointwise product of their values, so a node's value vector is
// (a − t)·∏ children's values at every a, built bottom-up, subtrees in
// parallel on a bounded pool. Two phases keep it identical to the
// reference encode:
//
//  1. a sequential pre-pass assigns tag values in exactly the order the
//     recursive encode would (children before parent) — mapping.Assign
//     resolves draw collisions first-come-first-served, so the visit
//     order is part of the mapping's determinism contract;
//  2. a parallel product pass. Field arithmetic is exact, so the result
//     is schedule-independent.
func encodeValues(fp *ring.FpCyclotomic, doc *xmltree.Node, m *mapping.Map, o Opts) (*Tree, error) {
	e := &valueEncoder{
		ff:     fp.Fast(),
		n:      fp.DegreeBound(),
		nodes:  make(map[*xmltree.Node]encNode),
		leaves: make(map[uint64][]uint64),
		maxTag: fp.MaxTag(),
		pool:   parwalk.New(o.Parallelism),
	}
	if err := e.assignTags(doc, m, o); err != nil {
		return nil, err
	}
	e.slab = make([]uint64, e.interior*e.n)
	root := &Node{}
	e.walk(doc, root)
	e.pool.Wait() // infallible walk: only exact arithmetic after the pre-pass
	return &Tree{Ring: fp, Root: root}, nil
}

type valueEncoder struct {
	ff    *fastfield.Field
	n     int
	nodes map[*xmltree.Node]encNode // read-only during the parallel pass
	// leaves holds the values of a − t, one vector per tag t that names a
	// leaf: every leaf of a tag shares it. The interior nodes' vectors are
	// slots of slab, one allocation for the tree.
	leaves   map[uint64][]uint64
	interior int
	slab     []uint64
	maxTag   *big.Int
	pool     *parwalk.Pool
}

// encNode is what the pre-pass assigns a node: its tag value and, for an
// interior node, its slot in the slab.
type encNode struct {
	tag  uint64
	slot int
}

// assignTags replays the sequential encode's postorder Assign calls.
func (e *valueEncoder) assignTags(n *xmltree.Node, m *mapping.Map, o Opts) error {
	for _, c := range n.Children {
		if err := e.assignTags(c, m, o); err != nil {
			return err
		}
	}
	tag, err := m.Assign(n.Tag)
	if err != nil {
		return fmt.Errorf("polyenc: encoding %q: %w", n.PathString(), err)
	}
	if !o.AllowTagOverflow && tag.Cmp(e.maxTag) > 0 {
		return fmt.Errorf("polyenc: tag %q maps to %s, outside the ring's safe domain [1,%s] (Lemma 3)",
			n.Tag, tag, e.maxTag)
	}
	info := encNode{tag: e.ff.ReduceBig(tag)}
	switch {
	case len(n.Children) > 0:
		info.slot = e.interior
		e.interior++
	case e.leaves[info.tag] == nil:
		e.leaves[info.tag] = linearTimes(e.ff, make([]uint64, e.n), info.tag, nil)
	}
	e.nodes[n] = info
	return nil
}

func (e *valueEncoder) walk(x *xmltree.Node, out *Node) {
	info := e.nodes[x]
	if len(x.Children) == 0 {
		out.Packed = e.leaves[info.tag]
		return
	}
	out.Children = make([]*Node, len(x.Children))
	var wg sync.WaitGroup
	for i, c := range x.Children {
		child := &Node{}
		out.Children[i] = child
		wg.Add(1)
		e.pool.Do(func() {
			defer wg.Done()
			e.walk(c, child)
		})
	}
	wg.Wait()
	at := info.slot * e.n
	out.Packed = linearTimes(e.ff, e.slab[at:at+e.n:at+e.n], info.tag, out.Children)
}

// linearTimes writes (a − t)·∏ qᵢ(a) at a = 1 … len(out) into out, for the
// children's value vectors qᵢ, and returns it. Each Montgomery product
// divides by R, so the linear factor starts at (a − t)·R^k for k children
// — an arithmetic progression in a with step R^k — and the k products
// leave the plain values.
func linearTimes(ff *fastfield.Field, out []uint64, t uint64, children []*Node) []uint64 {
	rk := ff.Exp(ff.MForm(1), uint64(len(children)))
	v := ff.Mul(ff.Sub(1, t), rk)
	if len(children) == 0 {
		for i := range out {
			out[i] = v
			v = ff.Add(v, rk)
		}
		return out
	}
	// The first product rides on the progression.
	for i, q := range children[0].Packed {
		out[i] = ff.MRed(v, q)
		v = ff.Add(v, rk)
	}
	for _, c := range children[1:] {
		ff.MRedVec(out, c.Packed)
	}
	return out
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
		if b := n.Poly.MaxCoeffBitLen(); b > maxBits {
			maxBits = b
		}
		return true
	})
	return maxBits
}

// RecoverTag solves f ≡ (x − t)·∏qᵢ (mod ring) for the unique t
// (Theorem 1 for F_p[x]/(x^{p-1}−1), Theorem 2 for Z[x]/(r(x))) on
// polynomials in the coefficient form: the engine's path on Z[x]/(r(x)),
// and the oracle of the pointwise solves on F_p.
//
// Method (eqs. (2)–(3) of the paper): let Q = ∏qᵢ. Then
// t·Q ≡ Q·x − f coefficient-wise; the first coordinate with an invertible
// (resp. exactly dividing) Q coefficient determines t, and the remaining
// coordinates — checked via a full ring identity — verify it, which is what
// catches a lying server.
func RecoverTag(r ring.Ring, f poly.Poly, children []poly.Poly) (*big.Int, error) {
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

// RecoverTagPacked is RecoverTag in the evaluation domain of an F_p ring,
// in words: f and the children are value vectors (canonical values at
// a = 1 … p−1, zero past a shorter vector's end), and eq. (2) is the
// pointwise identity f(a) = (a − t)·Q(a), Q = ∏qᵢ, at every a. The first a
// with Q(a) ≠ 0 gives t = a − f(a)/Q(a), and every point is then checked —
// the whole identity, with no transform. Only valid with the fast path on.
func RecoverTagPacked(r *ring.FpCyclotomic, f []uint64, children [][]uint64) (*big.Int, error) {
	return RecoverTagPackedScratch(r, make([]uint64, r.DegreeBound()), f, children)
}

// RecoverTagPackedScratch is RecoverTagPacked over the caller's scratch q
// (length DegreeBound, overwritten, aliasing no operand), so a block of
// recoveries that reuses it allocates only its results.
func RecoverTagPackedScratch(r *ring.FpCyclotomic, q, f []uint64, children [][]uint64) (*big.Int, error) {
	ff := r.Fast()
	// Q·R at every point: R^{k+1} through k Montgomery products.
	rk := ff.Exp(ff.MForm(1), uint64(len(children)+1))
	for i := range q {
		q[i] = rk
	}
	for _, c := range children {
		ff.MRedVec(q[:len(c)], c)
		clear(q[len(c):])
	}
	at := 0
	for at < len(q) && q[at] == 0 {
		at++
	}
	if at == len(q) {
		return nil, ErrNoEquation
	}
	inv, _ := ff.Inv(ff.MRed(q[at], 1))
	t := ff.Sub(ff.Reduce(uint64(at+1)), ff.Mul(valueAt(f, at), inv))
	// Full verification: d = a − t at a = 1 … n, and (a − t)·Q(a) = f(a).
	d := ff.Sub(1, t)
	for i, qi := range q {
		if ff.MRed(d, qi) != valueAt(f, i) {
			return nil, ErrInconsistent
		}
		d = ff.Add(d, 1)
	}
	return new(big.Int).SetUint64(t), nil
}

func valueAt(v []uint64, i int) uint64 {
	if i < len(v) {
		return v[i]
	}
	return 0
}

// RecoverTagValues is RecoverTagPacked on the big.Int reference path: f and
// the children are value vectors in the boxed form — the value at a = i+1
// is coefficient i — of any integers, reduced here.
func RecoverTagValues(r *ring.FpCyclotomic, f poly.Poly, children []poly.Poly) (*big.Int, error) {
	fl := r.Field()
	q := make([]*big.Int, r.DegreeBound())
	var t *big.Int
	for i := range q {
		q[i] = fl.One()
		for _, c := range children {
			q[i] = fl.Mul(q[i], c.Coeff(i))
		}
		if t == nil && q[i].Sign() != 0 {
			ratio, _ := fl.Div(f.Coeff(i), q[i])
			t = fl.Sub(big.NewInt(int64(i+1)), ratio)
		}
	}
	if t == nil {
		return nil, ErrNoEquation
	}
	for i, qi := range q {
		if fl.Mul(fl.Sub(big.NewInt(int64(i+1)), t), qi).Cmp(fl.Reduce(f.Coeff(i))) != 0 {
			return nil, ErrInconsistent
		}
	}
	return t, nil
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
// returns them keyed by node path — the tree-wide exercise of Theorems 1–2,
// from the value vectors on an F_p ring.
func (t *Tree) RecoverAllTags() (map[string]*big.Int, error) {
	fp, _ := t.Ring.(*ring.FpCyclotomic)
	if fp != nil && fp.Fast() == nil {
		fp = nil
	}
	out := map[string]*big.Int{}
	var firstErr error
	t.Walk(func(key drbg.NodeKey, n *Node) bool {
		var v *big.Int
		var err error
		if fp != nil {
			children := make([][]uint64, len(n.Children))
			for i, c := range n.Children {
				children[i] = c.Packed
			}
			v, err = RecoverTagPacked(fp, n.Packed, children)
		} else {
			children := make([]poly.Poly, len(n.Children))
			for i, c := range n.Children {
				children[i] = c.Poly
			}
			v, err = RecoverTag(t.Ring, n.Poly, children)
		}
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
