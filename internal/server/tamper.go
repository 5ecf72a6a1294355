package server

import (
	"math/big"

	"sssearch/internal/core"
	"sssearch/internal/drbg"
	"sssearch/internal/poly"
)

// Tamperer wraps a ServerAPI and corrupts selected answers — the
// fault-injection harness behind experiment E14 (can the client catch a
// lying server?).
type Tamperer struct {
	Inner core.ServerAPI
	// CorruptPolyAt makes FetchPolys add 1 to the polynomial of the node
	// with this key (nil = no poly tampering).
	CorruptPolyAt drbg.NodeKey
	// CorruptValueAt makes EvalNodes add 1 to every value of the node with
	// this key (nil = no value tampering).
	CorruptValueAt drbg.NodeKey
	// PolyTampered / ValueTampered count how many answers were corrupted.
	PolyTampered  int
	ValueTampered int
}

// EvalNodes implements core.ServerAPI.
func (t *Tamperer) EvalNodes(keys []drbg.NodeKey, points []*big.Int) ([]core.NodeEval, error) {
	out, err := t.Inner.EvalNodes(keys, points)
	if err != nil {
		return nil, err
	}
	if t.CorruptValueAt == nil {
		return out, nil
	}
	target := t.CorruptValueAt.String()
	for i := range out {
		if out[i].Key.String() != target {
			continue
		}
		vals := make([]*big.Int, len(out[i].Values))
		for j, v := range out[i].Values {
			vals[j] = new(big.Int).Add(v, big.NewInt(1))
		}
		out[i].Values = vals
		t.ValueTampered++
	}
	return out, nil
}

// FetchPolys implements core.ServerAPI.
func (t *Tamperer) FetchPolys(keys []drbg.NodeKey) ([]core.NodePoly, error) {
	out, err := t.Inner.FetchPolys(keys)
	if err != nil {
		return nil, err
	}
	if t.CorruptPolyAt == nil {
		return out, nil
	}
	target := t.CorruptPolyAt.String()
	for i := range out {
		if out[i].Key.String() != target {
			continue
		}
		// Through the big.Int form: the sum may leave the canonical range.
		out[i] = core.NodePoly{Key: out[i].Key, Big: out[i].Polynomial().Add(poly.One()), NumChildren: out[i].NumChildren}
		t.PolyTampered++
	}
	return out, nil
}

// Prune implements core.ServerAPI.
func (t *Tamperer) Prune(keys []drbg.NodeKey) error { return t.Inner.Prune(keys) }

var _ core.ServerAPI = (*Tamperer)(nil)
