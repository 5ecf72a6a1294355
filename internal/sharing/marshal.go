package sharing

import (
	"encoding/binary"
	"errors"
	"fmt"

	"sssearch/internal/poly"
	"sssearch/internal/ring"
)

// Binary layout of a share tree (preorder):
//
//	varint  nNodes
//	repeat nNodes times (preorder):
//	    varint  nChildren
//	    poly    share polynomial (poly wire format)
//
// Preorder with explicit child counts reconstructs the shape uniquely.

// maxTreeNodes bounds accepted trees (16M nodes).
const maxTreeNodes = 1 << 24

// MarshalBinary implements encoding.BinaryMarshaler.
func (t *Tree) MarshalBinary() ([]byte, error) {
	if t.Root == nil {
		return nil, errors.New("sharing: marshal of empty tree")
	}
	buf := binary.AppendUvarint(nil, uint64(t.Count()))
	var err error
	var rec func(n *Node)
	rec = func(n *Node) {
		if err != nil {
			return
		}
		buf = binary.AppendUvarint(buf, uint64(len(n.Children)))
		if n.Packed != nil {
			buf = poly.AppendWords(buf, n.Packed)
		} else if buf, err = n.Poly.AppendBinary(buf); err != nil {
			return
		}
		for _, c := range n.Children {
			rec(c)
		}
	}
	rec(t.Root)
	return buf, err
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. The ring is
// unknown here, so every node decodes into the big.Int form.
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

// DecodeTree decodes one share tree from the front of data, for ring r.
//
// When r is an F_p ring with the word-sized fast path, a node polynomial
// decodes straight into Node.Packed — no big.Int is built — provided it is
// canonical for r: every coefficient below p and at most DegreeBound of
// them. That check is what lets server.Local hand Packed to the Montgomery
// kernels unreduced. A polynomial that is not canonical (a hand-edited or
// foreign file) and every polynomial of any other ring — nil included —
// decode into Node.Poly, the big.Int form that consumers reduce.
func DecodeTree(r ring.Ring, data []byte) (*Tree, []byte, error) {
	fp, _ := r.(*ring.FpCyclotomic)
	if fp != nil && fp.Fast() == nil {
		fp = nil
	}
	n, k := binary.Uvarint(data)
	if k <= 0 {
		return nil, nil, errors.New("sharing: bad node count")
	}
	if n == 0 || n > maxTreeNodes {
		return nil, nil, fmt.Errorf("sharing: node count %d out of range", n)
	}
	data = data[k:]
	remaining := n
	root, data, err := decodeNode(fp, data, &remaining)
	if err != nil {
		return nil, nil, err
	}
	if remaining != 0 {
		return nil, nil, fmt.Errorf("sharing: node count mismatch: %d unconsumed", remaining)
	}
	return &Tree{Root: root}, data, nil
}

func decodeNode(fp *ring.FpCyclotomic, data []byte, remaining *uint64) (*Node, []byte, error) {
	if *remaining == 0 {
		return nil, nil, errors.New("sharing: more nodes than declared")
	}
	*remaining--
	nc, k := binary.Uvarint(data)
	if k <= 0 {
		return nil, nil, errors.New("sharing: bad child count")
	}
	if nc > *remaining {
		return nil, nil, fmt.Errorf("sharing: child count %d exceeds remaining nodes %d", nc, *remaining)
	}
	data = data[k:]
	node := &Node{}
	if w, rest, ok := decodeCanonical(fp, data); ok {
		// w is non-nil even for the zero polynomial, and Packed != nil is
		// what marks the word form authoritative.
		node.Packed, data = w, rest
	} else {
		p, rest, err := poly.DecodePoly(data)
		if err != nil {
			return nil, nil, err
		}
		node.Poly, data = p, rest
	}
	for i := uint64(0); i < nc; i++ {
		var c *Node
		var err error
		c, data, err = decodeNode(fp, data, remaining)
		if err != nil {
			return nil, nil, err
		}
		node.Children = append(node.Children, c)
	}
	return node, data, nil
}

// decodeCanonical decodes one polynomial into words when fp is non-nil and
// the polynomial is canonical for it (see DecodeTree).
func decodeCanonical(fp *ring.FpCyclotomic, data []byte) ([]uint64, []byte, bool) {
	if fp == nil {
		return nil, nil, false
	}
	w, rest, ok := poly.DecodeWords(data)
	if !ok || len(w) > fp.DegreeBound() {
		return nil, nil, false
	}
	p := fp.Fast().P()
	for _, v := range w {
		if v >= p {
			return nil, nil, false
		}
	}
	return w, rest, true
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
