package core

import (
	"fmt"
	"math/big"

	"sssearch/internal/ring"
)

// SetChunkPolys overrides how many polynomials one fetch of a
// tag-recovery wave asks for. A budget of 1 gives every recovery a fetch
// of its own — the per-candidate path the wave replaced, which the tests
// pin the wave against.
func SetChunkPolys(e *Engine, n int) { e.chunkPolys = n }

// ResolvePoints returns the two points the engine resolves tags at under
// VerifyResolve, nil where it resolves them from polynomials.
func ResolvePoints(e *Engine) []*big.Int { return e.resolveAt }

// SolveAtPoints is the point solve of eq. (2), for the fuzz differential
// against polyenc.RecoverTag: over a table holding one node, whose sum at
// points[j] is f[j], and its children, kids[c][j]. It runs the big.Int form
// and, where the ring has one, the word form; they must agree on the tag or
// on refusing, else the error returned is neither's.
func SolveAtPoints(fp *ring.FpCyclotomic, points, f []*big.Int, kids [][]*big.Int) (*big.Int, error) {
	r := &run{e: &Engine{ring: fp}, pts: points, tables: &tables{nodes: make([]node, 1+len(kids))}}
	r.nodes[0] = node{nch: int32(len(kids)), first: 1}
	for j := range points {
		r.resolvePt = append(r.resolvePt, j)
		r.bigs = append(r.bigs, f[j])
	}
	for _, kid := range kids {
		r.bigs = append(r.bigs, kid...)
	}
	tag, err := r.solveBig(0)
	if r.ff = fp.Fast(); r.ff == nil {
		return tag, err
	}
	for _, p := range points {
		r.ptWords = append(r.ptWords, r.ff.ReduceBig(p))
	}
	for _, v := range r.bigs {
		r.words = append(r.words, r.ff.ReduceBig(v))
	}
	wtag, werr := r.solveWords(0)
	if (err == nil) != (werr == nil) || err == nil && tag.Cmp(new(big.Int).SetUint64(wtag)) != 0 {
		return nil, fmt.Errorf("the forms disagree: big.Int (%v, %v), words (%d, %v)", tag, err, wtag, werr)
	}
	return tag, err
}
