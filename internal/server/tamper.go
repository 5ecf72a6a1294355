package server

import (
	"math/big"
	"sync/atomic"

	"sssearch/internal/core"
	"sssearch/internal/drbg"
	"sssearch/internal/poly"
)

// Tamperer wraps a ServerAPI and corrupts selected answers — the
// fault-injection harness behind the `verify` experiment (can the client catch a
// lying server?). Configure it before the first call; the counters may be
// read at any time.
type Tamperer struct {
	Inner core.ServerAPI
	// CorruptPolyAt makes FetchPolys add 1 to the polynomial of the node
	// with this key (nil = no poly tampering).
	CorruptPolyAt drbg.NodeKey
	// CorruptValueAt makes EvalNodes add to the values of the node with
	// this key (nil = no value tampering): 1 at every point, or what
	// ValueDelta says.
	CorruptValueAt drbg.NodeKey
	// ValueDelta, when set, gives the forgery its shape: it is asked for
	// each point of a targeted answer and returns what to add to the value
	// there (nil leaves that value alone) — one point only, every point
	// alike, or a delta computed per point.
	ValueDelta func(point *big.Int) *big.Int
	// PolyTampered / ValueTampered count how many answers were corrupted.
	// Atomic: the engine calls from concurrent batches.
	PolyTampered  atomic.Int64
	ValueTampered atomic.Int64
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
		// Answers are read-only: forge a copy, through the big.Int form —
		// the sum may leave the canonical range, a word, or the naturals. It
		// goes out in words when it has a word form, as it would reach a
		// client off the wire.
		vals := append([]*big.Int(nil), out[i].Values()...)
		forged := false
		for j, v := range vals {
			delta := big.NewInt(1)
			if t.ValueDelta != nil {
				delta = t.ValueDelta(points[j])
			}
			if delta != nil {
				vals[j] = new(big.Int).Add(v, delta)
				forged = true
			}
		}
		if forged {
			out[i].Words, out[i].Big = nil, vals
			if w, ok := out[i].WordValues(); ok {
				out[i].Words, out[i].Big = w, nil
			}
			t.ValueTampered.Add(1)
		}
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
		t.PolyTampered.Add(1)
	}
	return out, nil
}

// Prune implements core.ServerAPI; kept only until the benchmark's tap
// stops forwarding it.
func (t *Tamperer) Prune([]drbg.NodeKey) error { return nil }

var _ core.ServerAPI = (*Tamperer)(nil)
