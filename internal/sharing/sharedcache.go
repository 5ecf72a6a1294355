package sharing

import (
	"encoding/binary"
	"fmt"
	"sync"

	"sssearch/internal/drbg"
	"sssearch/internal/lru"
	"sssearch/internal/metrics"
	"sssearch/internal/ring"
)

// DefaultSharedPadNodes bounds the cross-session shared pad LRU. It is
// deliberately larger than the per-session DefaultShareCacheNodes: one
// shared cache replaces N private ones, so the same memory budget buys a
// working set every session profits from (at F_257, 16384 × 256 words
// ≈ 32 MiB worst case for a whole ClientKey, vs 8 MiB per session before).
const DefaultSharedPadNodes = 16384

// DefaultShareEvalEntries bounds the shared (node, point-set) share-eval
// LRU — the client-side mirror of server.DefaultEvalCacheEntries. Each
// entry holds one word per point of the set, so memory stays small even
// at the default.
const DefaultShareEvalEntries = 1 << 16

// shareEvalKey addresses one cached multi-point share evaluation: the
// node's path in binary form (drbg.NodeKey.AppendBinary) plus the exact
// point vector (canonical word residues, in call order) rendered to bytes
// once per block of lookups.
type shareEvalKey struct {
	node string
	sig  string
}

// padCall is one in-flight singleflight pad regeneration.
type padCall struct {
	done chan struct{}
	vec  []uint64
	err  error
}

// evalCall is one in-flight singleflight share evaluation.
type evalCall struct {
	done chan struct{}
	vals []uint64
	err  error
}

// SharedPadCache is the cross-session client share cache of one ClientKey:
// every SeedClient attached to it (see NewClient) shares one packed pad
// LRU, one (node, point-set) share-eval LRU, and a singleflight front so
// concurrent misses on one node run the pad regeneration (or the
// multi-point Horner pass) exactly once, with every other session
// piggybacking on the in-flight result. Before this cache, N sessions of
// one seed regenerated the same pads and re-evaluated the same share
// polynomials N times — the client-side dilution that kept the PR 5
// serving-path win from surviving end to end.
//
// The cache is scoped to exactly one (ring, seed) pair: it owns the seed
// and derives attached clients itself, so a pad can never be served to a
// session with different secret material. Safe for concurrent use. On
// rings without the word-sized fast path the cache is inert and NewClient
// returns ordinary private clients.
type SharedPadCache struct {
	r    ring.Ring
	seed drbg.Seed
	// fp is non-nil when r carries the word-sized fast path; the cache
	// only operates there (pads are packed word vectors).
	fp *ring.FpCyclotomic
	d  *drbg.Deriver

	pads  *lru.Cache[string, []uint64]
	evals *lru.Cache[shareEvalKey, []uint64]

	// mu guards the two singleflight maps only; cache hits never take it.
	mu        sync.Mutex
	padCalls  map[string]*padCall
	evalCalls map[shareEvalKey]*evalCall
}

// NewSharedPadCache builds a shared client share cache for one seed over
// one ring, with the default bounds (DefaultSharedPadNodes pads,
// DefaultShareEvalEntries evaluations).
func NewSharedPadCache(r ring.Ring, seed drbg.Seed) *SharedPadCache {
	s := &SharedPadCache{
		r:         r,
		seed:      seed,
		d:         drbg.NewDeriver(seed, ShareLabel),
		padCalls:  map[string]*padCall{},
		evalCalls: map[shareEvalKey]*evalCall{},
	}
	if fp, ok := r.(*ring.FpCyclotomic); ok && fp.Fast() != nil {
		s.fp = fp
		s.pads = lru.New[string, []uint64](DefaultSharedPadNodes)
		s.evals = lru.New[shareEvalKey, []uint64](DefaultShareEvalEntries)
	}
	return s
}

// SetBounds re-bounds the two LRUs (padNodes pads, evalEntries cached
// point-set evaluations; 0 disables the respective cache). Not safe to
// call concurrently with queries.
func (s *SharedPadCache) SetBounds(padNodes, evalEntries int) {
	if s.fp == nil {
		return
	}
	s.pads = lru.New[string, []uint64](padNodes)
	s.evals = lru.New[shareEvalKey, []uint64](evalEntries)
}

// Active reports whether the cache actually caches (fast-path ring).
func (s *SharedPadCache) Active() bool { return s.fp != nil }

// Matches reports whether the cache serves exactly the given secret
// material: the same seed over the same ring parameters. Attaching a
// session to a cache of different material would silently corrupt every
// answer, so callers check loudly.
func (s *SharedPadCache) Matches(r ring.Ring, seed drbg.Seed) bool {
	return s.seed == seed && r != nil && s.r.Name() == r.Name()
}

// NewClient builds a SeedClient attached to this shared cache. The client
// regenerates from the cache's own seed — there is no way to pair it with
// foreign secret material. On non-fast rings the client is an ordinary
// private SeedClient.
func (s *SharedPadCache) NewClient() *SeedClient {
	c := NewSeedClient(s.r, s.seed)
	if s.fp != nil {
		c.shared = s
	}
	return c
}

// pad returns the node's packed share pad, serving cross-session hits
// from the shared LRU and collapsing concurrent misses into one DRBG
// regeneration. kb is the key's binary form; m receives the calling
// session's tallies.
func (s *SharedPadCache) pad(key drbg.NodeKey, kb []byte, m *metrics.Counters) ([]uint64, error) {
	if v, ok := s.pads.Get(string(kb)); ok {
		m.AddSharedPadHits(1)
		return v, nil
	}
	ks := string(kb)
	s.mu.Lock()
	if call, ok := s.padCalls[ks]; ok {
		s.mu.Unlock()
		m.AddSharedPadSingleflight(1)
		<-call.done
		return call.vec, call.err
	}
	// Re-check under the lock: the regeneration that raced our miss has
	// already retired its call entry and filled the cache.
	if v, ok := s.pads.Get(ks); ok {
		s.mu.Unlock()
		m.AddSharedPadHits(1)
		return v, nil
	}
	call := &padCall{done: make(chan struct{})}
	s.padCalls[ks] = call
	s.mu.Unlock()

	m.AddSharedPadMiss(1)
	vec := make([]uint64, s.fp.DegreeBound())
	err := s.fp.RandPacked(s.d.ForNode(key), vec)
	if err != nil {
		vec, err = nil, fmt.Errorf("sharing: node %s: %w", key, err)
	} else {
		s.pads.Add(ks, vec)
	}
	call.vec, call.err = vec, err
	s.mu.Lock()
	delete(s.padCalls, ks)
	s.mu.Unlock()
	close(call.done)
	return vec, err
}

// pointSig renders a point vector (canonical word residues, call order)
// to the comparable key string of the share-eval LRU.
func pointSig(xs []uint64) string {
	b := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(b[i*8:], x)
	}
	return string(b)
}

// evalShares evaluates the client share of every key of a block at the
// block's point vector into dst (see WordSource), serving repeated (node,
// point-set) requests — the hot-wave pattern where every session of one key
// asks for the same node at the same rotating point — from the shared eval
// LRU without touching the pad at all. The point vector is signed once for
// the block; a hit copies its words and allocates nothing.
func (s *SharedPadCache) evalShares(dst []uint64, keys []drbg.NodeKey, pv pointVec, m *metrics.Counters) (done int, err error) {
	sig := pointSig(pv.xs)
	np := len(pv.xs)
	var buf [nodeKeyBuf]byte
	for i, key := range keys {
		kb := key.AppendBinary(buf[:0])
		vals, ok := s.evals.Get(shareEvalKey{node: string(kb), sig: sig})
		if ok {
			m.AddShareEvalHits(1)
		} else if vals, err = s.evalMiss(key, kb, sig, pv.mont, m); err != nil {
			return i, err
		}
		copy(dst[i*np:(i+1)*np], vals)
	}
	return len(keys), nil
}

// evalMiss is evalShares for one key the eval LRU did not hold. Concurrent
// misses on one (node, point-set) run the Horner pass once; piggybacked
// waiters count as eval hits (they skipped the pass).
func (s *SharedPadCache) evalMiss(key drbg.NodeKey, kb []byte, sig string, mont []uint64, m *metrics.Counters) ([]uint64, error) {
	ek := shareEvalKey{node: string(kb), sig: sig}
	s.mu.Lock()
	if call, ok := s.evalCalls[ek]; ok {
		s.mu.Unlock()
		<-call.done
		if call.err != nil {
			return nil, call.err
		}
		m.AddShareEvalHits(1)
		return call.vals, nil
	}
	if v, ok := s.evals.Get(ek); ok {
		s.mu.Unlock()
		m.AddShareEvalHits(1)
		return v, nil
	}
	call := &evalCall{done: make(chan struct{})}
	s.evalCalls[ek] = call
	s.mu.Unlock()

	m.AddShareEvalMiss(1)
	// The actual multi-point Horner pass, over the (possibly freshly
	// regenerated) pad.
	vec, err := s.pad(key, kb, m)
	if err == nil {
		call.vals = make([]uint64, len(mont))
		s.fp.Fast().EvalMany(vec, mont, call.vals)
		s.evals.Add(ek, call.vals)
	}
	call.err = err
	s.mu.Lock()
	delete(s.evalCalls, ek)
	s.mu.Unlock()
	close(call.done)
	return call.vals, err
}
