package sharing

import (
	"encoding/binary"
	"errors"
	"fmt"

	"sssearch/internal/poly"
	"sssearch/internal/ring"
)

// Binary layout of a share tree:
//
//	uvarint  nNodes
//	uvarint  width           bytes per value; 0 for the coefficient form
//	nNodes × uvarint         the shape, in preorder: nChildren<<1 | held,
//	                         held = 1 when the node holds a share
//	the shares held, in preorder:
//	    value form:          p−1 values, width bytes each, little-endian
//	    coefficient form:    the polynomial (poly wire format)
//
// The shape comes whole and first, so the decoder is one loop over it —
// no recursion, however deep the tree — and the values of a value-form
// tree are one fixed-width slab that a loader hands out in place.

// maxTreeNodes bounds accepted trees (16M nodes).
const maxTreeNodes = 1 << 24

// MarshalBinary implements encoding.BinaryMarshaler. A tree deeper than
// MaxDepth, or whose value vectors differ in length, is refused.
func (t *Tree) MarshalBinary() ([]byte, error) {
	if t.Root == nil {
		return nil, errors.New("sharing: marshal of empty tree")
	}
	order, err := t.preorder()
	if err != nil {
		return nil, err
	}
	size := 0
	for _, n := range order {
		if t.Width > 0 && n.Vals != nil {
			if size != 0 && len(n.Vals) != size {
				return nil, fmt.Errorf("sharing: value vectors of %d and %d bytes", size, len(n.Vals))
			}
			size = len(n.Vals)
		}
	}
	buf := make([]byte, 0, 2*binary.MaxVarintLen64+len(order)*(2+size))
	buf = binary.AppendUvarint(buf, uint64(len(order)))
	buf = binary.AppendUvarint(buf, uint64(t.Width))
	for _, n := range order {
		c := uint64(len(n.Children)) << 1
		if t.holds(n) {
			c |= 1
		}
		buf = binary.AppendUvarint(buf, c)
	}
	for _, n := range order {
		switch {
		case t.Width > 0:
			buf = append(buf, n.Vals...)
		case t.holds(n):
			if buf, err = n.Poly.AppendBinary(buf); err != nil {
				return nil, err
			}
		}
	}
	return buf, nil
}

// holds reports whether node n holds a share.
func (t *Tree) holds(n *Node) bool {
	if t.Width > 0 {
		return n.Vals != nil
	}
	return !n.Poly.IsZero()
}

// preorder lists the nodes in preorder, refusing a tree deeper than
// MaxDepth.
func (t *Tree) preorder() ([]*Node, error) {
	type frame struct {
		n     *Node
		depth int
	}
	var out []*Node
	stack := []frame{{t.Root, 1}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if f.depth > MaxDepth {
			return nil, fmt.Errorf("sharing: tree deeper than %d levels", MaxDepth)
		}
		out = append(out, f.n)
		for i := len(f.n.Children) - 1; i >= 0; i-- {
			stack = append(stack, frame{f.n.Children[i], f.depth + 1})
		}
	}
	return out, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler for the
// coefficient form: the ring is unknown here, and a value-form tree needs
// it (DecodeTree).
func (t *Tree) UnmarshalBinary(data []byte) error {
	tree, rest, err := DecodeTree(nil, data)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return errors.New("sharing: trailing bytes after tree")
	}
	*t = *tree
	return nil
}

// DecodeTree decodes one share tree from the front of data, for ring r: a
// value-form tree on an F_p ring, whose width must be ValueWidth(r), and
// a coefficient-form tree on any other ring (or a nil one). It allocates
// the nodes and the child lists in one array each and never recurses: a
// shape deeper than MaxDepth, a child count above the nodes left, a short
// slab and a value at or above p are refused. The value vectors are views
// into data.
func DecodeTree(r ring.Ring, data []byte) (*Tree, []byte, error) {
	n, k := binary.Uvarint(data)
	if k <= 0 {
		return nil, nil, errors.New("sharing: bad node count")
	}
	// Every node takes a shape byte at least.
	if n == 0 || n > maxTreeNodes || n > uint64(len(data)) {
		return nil, nil, fmt.Errorf("sharing: node count %d out of range", n)
	}
	data = data[k:]
	width, k := binary.Uvarint(data)
	if k <= 0 {
		return nil, nil, errors.New("sharing: bad value width")
	}
	data = data[k:]
	fp, _ := r.(*ring.FpCyclotomic)
	switch {
	case fp != nil && width != uint64(ValueWidth(fp)):
		return nil, nil, fmt.Errorf("sharing: value width %d, F_%s takes %d", width, fp.P(), ValueWidth(fp))
	case fp == nil && width != 0:
		return nil, nil, fmt.Errorf("sharing: value width %d on a ring without a value form", width)
	}

	nodes := make([]Node, n)
	kids := make([]*Node, n-1) // every node but the root is one node's child
	held := make([]bool, n)
	type open struct {
		node        *Node
		left, depth int
	}
	var stack []open // the nodes still waiting for children
	used := 0
	for i := range nodes {
		c, k := binary.Uvarint(data)
		if k <= 0 {
			return nil, nil, errors.New("sharing: bad child count")
		}
		data = data[k:]
		nc, depth := c>>1, 1
		if i > 0 {
			if len(stack) == 0 {
				return nil, nil, fmt.Errorf("sharing: %d nodes declared, the root's subtree has %d", n, i)
			}
			top := &stack[len(stack)-1]
			top.node.Children = append(top.node.Children, &nodes[i])
			depth = top.depth + 1
			if top.left--; top.left == 0 {
				stack = stack[:len(stack)-1]
			}
		}
		if depth > MaxDepth {
			return nil, nil, fmt.Errorf("sharing: tree deeper than %d levels", MaxDepth)
		}
		if nc > uint64(len(kids)-used) {
			return nil, nil, fmt.Errorf("sharing: child count %d exceeds the %d nodes left", nc, len(kids)-used)
		}
		if nc > 0 {
			nodes[i].Children = kids[used : used : int(nc)+used]
			used += int(nc)
			stack = append(stack, open{&nodes[i], int(nc), depth})
		}
		held[i] = c&1 == 1
	}

	tree := &Tree{Root: &nodes[0], Width: int(width)}
	for i := range nodes {
		if !held[i] {
			continue
		}
		if fp == nil {
			p, rest, err := poly.DecodePoly(data)
			if err != nil {
				return nil, nil, err
			}
			nodes[i].Poly, data = p, rest
			continue
		}
		size := fp.DegreeBound() * tree.Width
		if len(data) < size {
			return nil, nil, fmt.Errorf("sharing: value slab truncated at node %d", i)
		}
		nodes[i].Vals, data = data[:size:size], data[size:]
		if err := checkValues(tree, &nodes[i], fp.P().Uint64()); err != nil {
			return nil, nil, err
		}
	}
	return tree, data, nil
}

// checkValues refuses a value at or above p: the word path takes stored
// values as they are.
func checkValues(t *Tree, n *Node, p uint64) error {
	for i := 0; i < len(n.Vals)/t.Width; i++ {
		if v := t.Value(n, i); v >= p {
			return fmt.Errorf("sharing: value %d at or above p = %d", v, p)
		}
	}
	return nil
}

// ByteSize returns the serialized size of the tree in bytes — the storage
// metric of the `storage` experiment.
func (t *Tree) ByteSize() int {
	b, err := t.MarshalBinary()
	if err != nil {
		return 0
	}
	return len(b)
}
