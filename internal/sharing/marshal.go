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
// slab and a value at or above p are refused. A value-form slab is checked
// whole, in one pass, before any node gets its values, and the value
// vectors are views into data.
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
	nHeld := 0
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
		if held[i] = c&1 == 1; held[i] {
			nHeld++
		}
	}

	tree := &Tree{Root: &nodes[0], Width: int(width)}
	if fp == nil {
		for i := range nodes {
			if !held[i] {
				continue
			}
			p, rest, err := poly.DecodePoly(data)
			if err != nil {
				return nil, nil, err
			}
			nodes[i].Poly, data = p, rest
		}
		return tree, data, nil
	}
	size := fp.DegreeBound() * tree.Width
	if nHeld > len(data)/size {
		return nil, nil, fmt.Errorf("sharing: value slab truncated: %d bytes, %d nodes hold %d", len(data), nHeld, nHeld*size)
	}
	slab := data[:nHeld*size]
	if err := checkSlab(slab, tree.Width, fp.P().Uint64()); err != nil {
		return nil, nil, err
	}
	for i := range nodes {
		if held[i] {
			nodes[i].Vals, slab = slab[:size:size], slab[size:]
		}
	}
	return tree, data[nHeld*size:], nil
}

// checkSlab refuses a value at or above p in a slab of width-byte values:
// the word path takes stored values as they are. A slab of 16-bit values
// for p ≤ 2¹⁵ (F_257 … F_32749) takes the word-wide test, and only a slab
// it refuses is scanned again for the value to name.
func checkSlab(slab []byte, width int, p uint64) error {
	if width == 2 && p <= 1<<15 && !over16(slab, p) {
		return nil
	}
	for i := 0; i < len(slab)/width; i++ {
		if v := getValue(slab, width, i); v >= p {
			return fmt.Errorf("sharing: value %d at or above p = %d", v, p)
		}
	}
	return nil
}

// over16 reports whether a slab of 16-bit little-endian values holds one
// at or above p, for p ≤ 2¹⁵, four values a word and without a branch on
// any of them. In a lane x, (x | 2¹⁵) − p cannot borrow from the next
// lane, and its top bit is set when x ≥ p, save for x ≥ 2¹⁵, whose own top
// bit the final OR brings in.
func over16(slab []byte, p uint64) bool {
	const top, one = 0x8000_8000_8000_8000, 0x0001_0001_0001_0001
	pp := p * one
	var bad uint64
	i := 0
	for ; i+32 <= len(slab); i += 32 { // four words an iteration: twice the speed of one
		w := slab[i : i+32 : i+32]
		x0 := binary.LittleEndian.Uint64(w)
		x1 := binary.LittleEndian.Uint64(w[8:])
		x2 := binary.LittleEndian.Uint64(w[16:])
		x3 := binary.LittleEndian.Uint64(w[24:])
		bad |= ((x0 | top) - pp) | x0 | ((x1 | top) - pp) | x1 | ((x2 | top) - pp) | x2 | ((x3 | top) - pp) | x3
	}
	for ; i+2 <= len(slab); i += 2 {
		x := uint64(binary.LittleEndian.Uint16(slab[i:]))
		bad |= ((x | 1<<15) - p) | x
	}
	return bad&top != 0
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
