package core

// SetChunkPolys overrides how many polynomials one fetch of a
// tag-recovery wave asks for. A budget of 1 gives every recovery a fetch
// of its own — the per-candidate path the wave replaced, which the tests
// pin the wave against.
func SetChunkPolys(e *Engine, n int) { e.chunkPolys = n }
