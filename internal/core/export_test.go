package core

import "math/big"

// SetChunkPolys overrides how many polynomials one fetch of a
// tag-recovery wave asks for. A budget of 1 gives every recovery a fetch
// of its own — the per-candidate path the wave replaced, which the tests
// pin the wave against.
func SetChunkPolys(e *Engine, n int) { e.chunkPolys = n }

// ResolvePoints returns the two points the engine resolves tags at under
// VerifyResolve, nil where it resolves them from polynomials.
func ResolvePoints(e *Engine) []*big.Int { return e.resolveAt }

// SolveAtPoints is the point solve of eq. (2), for the fuzz differential
// against polyenc.RecoverTag.
var SolveAtPoints = solveAtPoints
