package core

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"sort"

	"sssearch/internal/drbg"
	"sssearch/internal/mapping"
	"sssearch/internal/metrics"
	"sssearch/internal/obs"
	"sssearch/internal/ring"
	"sssearch/internal/sharing"
	"sssearch/internal/xpath"
)

// Engine is the client-side query processor. It holds the client's secret
// material (seed-derived share generator and private tag mapping) and
// drives a ServerAPI. An Engine is safe for concurrent queries as long as
// the underlying ServerAPI is.
type Engine struct {
	ring     ring.Ring
	shares   sharing.ShareSource
	mapping  *mapping.Map
	api      ServerAPI
	counters *metrics.Counters
	obsv     *obs.Observer
	// chunkPolys is how many polynomials one fetch of a tag-recovery wave
	// asks for (see chunkPolys): fixed by the ring, not an option.
	chunkPolys int
	// resolveAt holds the two points VerifyResolve solves eq. (2) at (see
	// resolvePoints); nil where tags are resolved from polynomials.
	resolveAt []*big.Int
	// spare holds the tables of the last query to finish, for the next to
	// take: at most one, and not past a collection (see spare).
	spare spare
}

// NewEngine assembles a query engine with a seed-derived client share
// source (the paper's §4.2 seed-only mode). counters may be nil (a private
// set is created).
func NewEngine(r ring.Ring, seed drbg.Seed, m *mapping.Map, api ServerAPI, counters *metrics.Counters) *Engine {
	return NewEngineWithShares(r, sharing.NewSeedClient(r, seed), m, api, counters)
}

// NewEngineWithShares assembles a query engine over an arbitrary client
// share source (materialized trees, external fixtures, …).
func NewEngineWithShares(r ring.Ring, shares sharing.ShareSource, m *mapping.Map, api ServerAPI, counters *metrics.Counters) *Engine {
	if counters == nil {
		counters = &metrics.Counters{}
	}
	return &Engine{
		ring:       r,
		shares:     shares,
		mapping:    m,
		api:        api,
		counters:   counters,
		obsv:       obs.Default(),
		chunkPolys: chunkPolys(r),
		resolveAt:  resolvePoints(r, m),
	}
}

// resolvePoints picks the two evaluation points of resolveAtPoints, at
// which no node polynomial of an honest server vanishes: p−1, which lies
// outside the tag domain [1, p−2], and a value no tag maps to, drawn under
// the mapping's key. They depend on the ring and the mapping alone, so
// every engine of one key asks at the same two. nil — tags are resolved
// from polynomials — off F_p (evaluation in Z[x]/(r) is not a homomorphism
// onto a field), for a mapping that leaves the tag domain (the paper's own
// F_5 example maps a tag to p−1) and for one with no free value.
func resolvePoints(r ring.Ring, m *mapping.Map) []*big.Int {
	fp, ok := r.(*ring.FpCyclotomic)
	if !ok || m.MaxTag().Cmp(fp.MaxTag()) > 0 {
		return nil
	}
	free, ok := m.FreeValue()
	if !ok {
		return nil
	}
	return []*big.Int{new(big.Int).Sub(fp.P(), big.NewInt(1)), free}
}

// Counters exposes the engine's metric counters.
func (e *Engine) Counters() *metrics.Counters { return e.counters }

// SetObserver replaces the observer recording this engine's stage
// latencies and sampled query spans (tests inject an isolated one). Call
// before querying.
func (e *Engine) SetObserver(o *obs.Observer) { e.obsv = o }

// Ring returns the engine's ring.
func (e *Engine) Ring() ring.Ring { return e.ring }

// Mapping returns the engine's private tag mapping.
func (e *Engine) Mapping() *mapping.Map { return e.mapping }

// Result is a completed query.
type Result struct {
	// Matches are the node keys whose element definitely satisfies the
	// query, in document order.
	Matches []drbg.NodeKey
	// Unresolved are zero-sum nodes the engine could not classify without
	// resolving their tags (only under VerifyNone): each may or may not be
	// a match.
	Unresolved []drbg.NodeKey
	// Stats is the per-query metric delta.
	Stats metrics.Snapshot
}

// Opts tunes a single query.
type Opts struct {
	Verify VerifyLevel
	// DisableLookahead turns off the §4.3 "evaluate the whole query at
	// once" optimisation: steps are evaluated left-to-right at their own
	// point only, without filtering branches by the later step names.
	// Exists for the E15 ablation; leave false in production.
	DisableLookahead bool
}

// ErrUnknownTag is returned when a queried tag has no mapping value: the
// client can conclude locally (without contacting the server) that nothing
// matches; callers may treat it as an empty result.
var ErrUnknownTag = errors.New("core: tag has no mapping value (no occurrences in the document)")

// Lookup runs the paper's element lookup //tag.
func (e *Engine) Lookup(tag string, opts Opts) (*Result, error) {
	q, err := xpath.Parse("//" + tag)
	if err != nil {
		return nil, fmt.Errorf("core: bad tag %q: %w", tag, err)
	}
	return e.Query(q, opts)
}

// Query evaluates a parsed XPath query against the shared tree.
//
// Wildcard steps ('*') are matched structurally (no tag test). Non-wildcard
// step names with no mapping value yield ErrUnknownTag.
func (e *Engine) Query(q *xpath.Query, opts Opts) (*Result, error) {
	before := e.counters.Snapshot()
	steps := q.Steps()
	points := make([]*big.Int, len(steps))
	for i, s := range steps {
		if s.Wildcard() {
			continue
		}
		v, ok := e.mapping.Value(s.Name)
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrUnknownTag, s.Name)
		}
		points[i] = v
	}
	// The engine is the trace origin for the query path: a sampled query
	// gets a span whose ID every downstream leg (batched, retried,
	// hedged, coalesced) carries on the wire.
	ctx := context.Background()
	var sp *obs.Span
	if tr := obs.NewTrace(); tr.Sampled {
		sp = obs.StartSpan("query", tr)
		ctx = obs.WithSpan(ctx, sp)
	}
	// A concurrent query finds no spare and starts from empty tables.
	t := e.spare.take()
	if t == nil {
		t = new(tables)
	}
	r := newRun(ctx, e, steps, points, opts, t)
	matches, unresolved, err := r.execute()
	e.spare.put(t) // nothing the query returns is in t
	if sp != nil {
		e.obsv.FinishSpan(sp)
	}
	if err != nil {
		return nil, err
	}
	return &Result{
		Matches:    sortKeys(matches),
		Unresolved: sortKeys(unresolved),
		Stats:      e.counters.Snapshot().Sub(before),
	}, nil
}

func sortKeys(keys []drbg.NodeKey) []drbg.NodeKey {
	sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })
	return keys
}

// keyLess orders node keys in document (preorder) order.
func keyLess(a, b drbg.NodeKey) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
