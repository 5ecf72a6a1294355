package core

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"slices"
	"sync"
	"time"

	"sssearch/internal/drbg"
	"sssearch/internal/obs"
	"sssearch/internal/parwalk"
	"sssearch/internal/poly"
	"sssearch/internal/polyenc"
	"sssearch/internal/ring"
	"sssearch/internal/sharing"
	"sssearch/internal/xpath"
)

// run is the per-query state: the compiled steps and points, the learned
// tree shape (child counts) and an evaluation cache that keeps the protocol
// from re-requesting sums the scan already produced.
//
// mu guards childCount and sumCache: when opts.Parallelism > 1 an
// evaluation wave splits into concurrent batches whose goroutines merge
// answers into both maps.
type run struct {
	// ctx carries the query's observability context (trace span) into
	// every server call; it is not used for cancellation.
	ctx    context.Context
	e      *Engine
	steps  []xpath.Step
	points []*big.Int // nil for wildcard steps
	opts   Opts
	// ptIdx interns the query's evaluation points: every point a step can
	// ever evaluate at is one of the r.points pointers, assigned a small
	// index at construction. Read-only after newRun, so sumKey lookups
	// never render a big.Int to a string.
	ptIdx      map[*big.Int]int
	mu         sync.Mutex
	childCount map[string]int
	sumCache   map[sumKey]*big.Int
}

// sumKey addresses one cached (node, point) sum: the node's rendered path
// and the interned point index — a comparable struct, so cache hits cost
// no string concatenation or big.Int rendering.
type sumKey struct {
	node string
	pt   int
}

// newRun assembles the per-query state, interning the point set.
func newRun(ctx context.Context, e *Engine, steps []xpath.Step, points []*big.Int, opts Opts) *run {
	idx := make(map[*big.Int]int, len(points)+len(e.resolveAt))
	for _, pts := range [][]*big.Int{points, e.resolveAt} {
		for _, p := range pts {
			if p == nil {
				continue
			}
			if _, ok := idx[p]; !ok {
				idx[p] = len(idx)
			}
		}
	}
	return &run{
		ctx:        ctx,
		e:          e,
		steps:      steps,
		points:     points,
		opts:       opts,
		ptIdx:      idx,
		childCount: map[string]int{},
		sumCache:   map[sumKey]*big.Int{},
	}
}

// ptIndex resolves an interned point. All evaluation flows through the
// r.points pointers interned at construction, so a miss is an internal
// invariant violation, reported loudly by the caller.
func (r *run) ptIndex(p *big.Int) (int, bool) {
	i, ok := r.ptIdx[p]
	return i, ok
}

// sumState is the client-side record of one evaluated node.
type sumState struct {
	key drbg.NodeKey
	// ks is key.String(), rendered once per wave and reused by every map
	// consult downstream.
	ks   string
	nch  int
	sums []*big.Int // aligned with the step's point vector; wildcard slot = 0
}

// zeroAll reports whether every sum vanished.
func (s *sumState) zeroAll() bool {
	for _, v := range s.sums {
		if v.Sign() != 0 {
			return false
		}
	}
	return true
}

// execute runs all steps and returns final matches and unresolved keys.
func (r *run) execute() (matches, unresolved []drbg.NodeKey, err error) {
	var contexts []drbg.NodeKey
	for i, step := range r.steps {
		pts := r.activePoints(i)
		var scanRoots []drbg.NodeKey
		if i == 0 {
			scanRoots = []drbg.NodeKey{{}}
		} else {
			scanRoots = r.childrenOf(contexts)
		}
		scanRoots = dedupKeys(scanRoots)
		var cands []sumState
		if step.Axis == xpath.AxisChild {
			states, err := r.evalKeys(scanRoots, pts, true)
			if err != nil {
				return nil, nil, err
			}
			for _, st := range states {
				if st.zeroAll() {
					cands = append(cands, st)
				}
			}
		} else {
			cands, err = r.scanDescendants(scanRoots, pts)
			if err != nil {
				return nil, nil, err
			}
		}
		stepMatches, stepUnresolved, err := r.classify(cands, i)
		if err != nil {
			return nil, nil, err
		}
		if i == len(r.steps)-1 {
			if r.opts.Verify == VerifyFull {
				if err := r.verifyMatches(stepMatches, r.points[i], step.Wildcard()); err != nil {
					return nil, nil, err
				}
			}
			return stepMatches, stepUnresolved, nil
		}
		// Non-final steps: matched nodes (plus, under VerifyNone,
		// optimistically-kept unresolved nodes) become the next contexts.
		next := append(append([]drbg.NodeKey{}, stepMatches...), stepUnresolved...)
		contexts = dedupKeys(next)
		if len(contexts) == 0 {
			return nil, nil, nil
		}
	}
	return nil, nil, nil
}

// activePoints builds the point vector for step i: the step's own point
// (nil for wildcards — evalKeys fabricates a zero sum) followed by every
// later non-wildcard point. Evaluating candidates at future points is the
// §4.3 "evaluate the whole query at once" optimisation (disabled by the
// DisableLookahead ablation).
func (r *run) activePoints(i int) []*big.Int {
	out := []*big.Int{r.points[i]}
	if r.opts.DisableLookahead {
		return out
	}
	for _, p := range r.points[i+1:] {
		if p != nil {
			out = append(out, p)
		}
	}
	return out
}

// childrenOf expands contexts into their child keys using learned counts.
func (r *run) childrenOf(contexts []drbg.NodeKey) []drbg.NodeKey {
	var out []drbg.NodeKey
	for _, ctx := range contexts {
		n := r.childCount[ctx.String()]
		for i := 0; i < n; i++ {
			out = append(out, ctx.Child(uint32(i)))
		}
	}
	return out
}

// evalKeys returns the client+server sum of each key at each point,
// consulting the per-run cache and asking the server only for keys with
// missing values. visit says whether the wave is the traversal reaching
// these nodes, and counts them as visited; a wave that goes back to nodes
// the step has already reached (resolveAtPoints) does not.
func (r *run) evalKeys(keys []drbg.NodeKey, points []*big.Int, visit bool) ([]sumState, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	eff := make([]*big.Int, 0, len(points))
	effIdx := make([]int, 0, len(points))
	for _, p := range points {
		if p == nil {
			continue
		}
		pi, ok := r.ptIndex(p)
		if !ok {
			return nil, fmt.Errorf("core: internal: evaluation point %s was not interned", p)
		}
		eff = append(eff, p)
		effIdx = append(effIdx, pi)
	}
	// Render each key once; every cache consult below reuses the string.
	ks := make([]string, len(keys))
	for i, k := range keys {
		ks[i] = k.String()
	}
	// Partition into cached and missing.
	var missing []drbg.NodeKey
	for i := range keys {
		if !r.cachedAll(ks[i], effIdx) {
			missing = append(missing, keys[i])
		}
	}
	if len(missing) > 0 {
		// One wave = one protocol round (latency-wise), even when it is
		// split into concurrent batches below.
		r.e.counters.AddRound()
		if visit {
			r.e.counters.AddNodesVisited(len(missing))
		}
		r.e.counters.AddNodesEvaluated(len(missing) * len(eff))
		r.e.counters.AddValuesMoved(len(missing) * len(eff))
		batches := splitBatches(missing, r.opts.Parallelism)
		if len(batches) == 1 {
			if err := r.evalBatch(batches[0], eff, effIdx); err != nil {
				return nil, err
			}
		} else {
			errs := make([]error, len(batches))
			var wg sync.WaitGroup
			for bi, batch := range batches {
				wg.Add(1)
				go func(bi int, batch []drbg.NodeKey) {
					defer wg.Done()
					errs[bi] = r.evalBatch(batch, eff, effIdx)
				}(bi, batch)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					return nil, err
				}
			}
		}
	}
	// Assemble states from cache.
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]sumState, len(keys))
	for i := range keys {
		st := sumState{key: keys[i], ks: ks[i], nch: r.childCount[ks[i]], sums: make([]*big.Int, 0, len(points))}
		for _, p := range points {
			if p == nil {
				st.sums = append(st.sums, big.NewInt(0))
				continue
			}
			pi, _ := r.ptIndex(p)
			v, ok := r.sumCache[sumKey{node: ks[i], pt: pi}]
			if !ok {
				return nil, fmt.Errorf("core: internal: missing cached sum for %s", keys[i])
			}
			st.sums = append(st.sums, v)
		}
		out[i] = st
	}
	return out, nil
}

// overlapMinKeys is the number of keys from which an evaluation wave (or a
// fetch chunk) becomes two concurrent legs, the client's spread over the
// idle cores. A smaller wave runs as it always did — the server call, then
// the client's shares, on the calling goroutine: the large waves carry the
// whole gain (CHANGES.md, PR 13, has the runs), and a sequential small wave
// keeps the per-stage ledger of a small query exact.
const overlapMinKeys = 512

// shareBlockKeys is how many keys one task of the client's leg covers:
// about half a millisecond of cold pad regeneration, tens of microseconds
// on cached pads.
const shareBlockKeys = 32

// twoLegs runs the two legs of a wave over n keys — the server call and the
// client's share work — and returns the server call's error. From
// overlapMinKeys keys on they run at once, the server call on a goroutine of
// its own and the client's work on the calling one, and twoLegs returns
// when both have finished: the helper never outlives the wave. Below, the
// client's work follows a successful server call.
func twoLegs(n int, server func() error, client func()) error {
	if n < overlapMinKeys {
		if err := server(); err != nil {
			return err
		}
		client()
		return nil
	}
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		err = server()
	}()
	client()
	<-done
	return err
}

// blocks runs f over [0, n) in blocks of size on a GOMAXPROCS-wide pool
// (one block runs on the calling goroutine). f must write only into slots
// of its own range.
func blocks(n, size int, f func(lo, hi int)) {
	if n <= size {
		f(0, n)
		return
	}
	pool := parwalk.New(0) // GOMAXPROCS
	for lo := 0; lo < n; lo += size {
		lo, hi := lo, min(lo+size, n)
		pool.Do(func() { f(lo, hi) })
	}
	pool.Wait() // f reports through its slots
}

// clientSummands evaluates the client share of every key at every eff
// point: one share regeneration serves all points when the source supports
// multi-point evaluation. Each block stops at its first error, so the
// lowest failing index is the first error in wave order; cvs is valid
// below it. failed is len(keys) on success.
func (r *run) clientSummands(keys []drbg.NodeKey, eff []*big.Int) (cvs [][]*big.Int, failed int, err error) {
	cvs = make([][]*big.Int, len(keys))
	if len(eff) == 0 {
		// Wildcard-only waves need no share work at all — the server round
		// still runs to learn child counts.
		return cvs, len(keys), nil
	}
	multi, isMulti := r.e.shares.(sharing.MultiPointSource)
	errs := make([]error, len(keys))
	block := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if isMulti {
				if cvs[i], errs[i] = multi.EvalShares(keys[i], eff); errs[i] == nil && len(cvs[i]) != len(eff) {
					errs[i] = fmt.Errorf("core: share source returned %d values for %d points", len(cvs[i]), len(eff))
				}
			} else {
				cvs[i] = make([]*big.Int, len(eff))
				for j, p := range eff {
					if cvs[i][j], errs[i] = r.e.shares.EvalShare(keys[i], p); errs[i] != nil {
						break
					}
				}
			}
			if errs[i] != nil {
				return
			}
		}
	}
	if len(keys) < overlapMinKeys {
		block(0, len(keys))
	} else {
		blocks(len(keys), shareBlockKeys, block)
	}
	for i, err := range errs {
		if err != nil {
			return cvs, i, err
		}
	}
	return cvs, len(keys), nil
}

// evalBatch evaluates one batch of keys and merges the combined sums into
// the caches. The wave is two concurrent legs that meet at the sum: the
// server evaluates its shares while the client regenerates and evaluates
// its own, for the keys it asked about. Safe to call from concurrent batch
// goroutines (the ServerAPI and ShareSource contracts require
// concurrent-safe implementations; the cache merge is locked). effIdx
// holds the interned index of each eff point.
func (r *run) evalBatch(batch []drbg.NodeKey, eff []*big.Int, effIdx []int) error {
	var (
		answers  []NodeEval
		cvs      [][]*big.Int
		shareBad int
		shareErr error
		arith    time.Duration
	)
	// A server error wins over a share-source error; after it, the first
	// error in wave order is the one reported.
	err := twoLegs(len(batch), func() (err error) {
		answers, err = EvalNodesWithCtx(r.ctx, r.e.api, batch, eff)
		return err
	}, func() {
		start := time.Now()
		cvs, shareBad, shareErr = r.clientSummands(batch, eff)
		arith = time.Since(start)
	})
	if err != nil {
		return err
	}
	// The client's own share arithmetic — the summands above plus the
	// modular sums below — is timed as one block per batch: per-node timing
	// would cost more than the work it measures on cached paths. On a large
	// wave the summands were computed beside the server's evaluation, so
	// this time is part of what the wave waited for only where it was the
	// longer leg.
	sumStart := time.Now()
	defer func() {
		d := arith + time.Since(sumStart)
		r.e.obsv.Observe(obs.StageShareArith, d)
		obs.SpanFrom(r.ctx).Add(obs.StageShareArith, d)
	}()
	if len(answers) != len(batch) {
		return fmt.Errorf("core: server returned %d answers for %d keys", len(answers), len(batch))
	}
	// The evaluation modulus of each point is fixed for the whole batch;
	// resolve it once instead of once per (node, point).
	mods := make([]*big.Int, len(eff))
	for i, p := range eff {
		if mods[i], err = r.e.ring.EvalModulus(p); err != nil {
			return fmt.Errorf("core: point %s: %w", p, err)
		}
	}
	for i, ans := range answers {
		// The summands were computed for batch[i]: an answer in another
		// order, or for a key that was not asked, must not be added to them.
		if !slices.Equal(ans.Key, batch[i]) {
			return fmt.Errorf("core: server answered for %s where %s was asked", ans.Key, batch[i])
		}
		if len(ans.Values) != len(eff) {
			return fmt.Errorf("core: server returned %d values for %d points", len(ans.Values), len(eff))
		}
		if i == shareBad {
			return shareErr
		}
		sums := make([]*big.Int, len(eff))
		for j := range eff {
			sum := new(big.Int).Add(cvs[i][j], ans.Values[j])
			sums[j] = sum.Mod(sum, mods[j])
		}
		aks := ans.Key.String()
		r.mu.Lock()
		r.childCount[aks] = ans.NumChildren
		for j := range eff {
			r.sumCache[sumKey{node: aks, pt: effIdx[j]}] = sums[j]
		}
		r.mu.Unlock()
	}
	return nil
}

// splitBatches carves keys into at most parallelism near-even batches.
func splitBatches(keys []drbg.NodeKey, parallelism int) [][]drbg.NodeKey {
	if parallelism <= 1 || len(keys) <= 1 {
		return [][]drbg.NodeKey{keys}
	}
	n := parallelism
	if n > len(keys) {
		n = len(keys)
	}
	size := (len(keys) + n - 1) / n
	out := make([][]drbg.NodeKey, 0, n)
	for start := 0; start < len(keys); start += size {
		end := start + size
		if end > len(keys) {
			end = len(keys)
		}
		out = append(out, keys[start:end])
	}
	return out
}

// cachedAll reports whether node ks has a cached child count and a cached
// sum at every interned point index.
func (r *run) cachedAll(ks string, effIdx []int) bool {
	if _, ok := r.childCount[ks]; !ok {
		return false
	}
	for _, pi := range effIdx {
		if _, ok := r.sumCache[sumKey{node: ks, pt: pi}]; !ok {
			return false
		}
	}
	return true
}

// scanDescendants BFSes the subtrees rooted at roots, descending only
// through nodes whose sums are all zero (a non-zero sum at any active
// point proves no candidate can exist below — the paper's dead-branch
// pruning), and returns all all-zero nodes as candidates.
func (r *run) scanDescendants(roots []drbg.NodeKey, pts []*big.Int) ([]sumState, error) {
	var cands []sumState
	seen := map[string]bool{}
	var pruned []drbg.NodeKey
	frontier := roots
	for len(frontier) > 0 {
		states, err := r.evalKeys(frontier, pts, true)
		if err != nil {
			return nil, err
		}
		var next []drbg.NodeKey
		for _, st := range states {
			if seen[st.ks] {
				continue
			}
			seen[st.ks] = true
			if st.zeroAll() {
				cands = append(cands, st)
				for c := 0; c < st.nch; c++ {
					next = append(next, st.key.Child(uint32(c)))
				}
			} else {
				pruned = append(pruned, st.key)
			}
		}
		frontier = dedupKeys(next)
	}
	if len(pruned) > 0 {
		r.e.counters.AddPruned(len(pruned))
		if err := PruneWithCtx(r.ctx, r.e.api, pruned); err != nil {
			return nil, err
		}
	}
	return cands, nil
}

// classify applies the paper's answer rule to candidates of step i:
// a zero node with no zero child (at the step's own point) is a definite
// match; a zero node with a zero child is ambiguous and is resolved by tag
// recovery (or reported unresolved under VerifyNone). Wildcard steps match
// structurally.
func (r *run) classify(cands []sumState, i int) (matches, unresolved []drbg.NodeKey, err error) {
	if len(cands) == 0 {
		return nil, nil, nil
	}
	step := r.steps[i]
	if step.Wildcard() {
		for _, c := range cands {
			matches = append(matches, c.key)
		}
		return matches, nil, nil
	}
	cur := r.points[i]
	// Evaluate all candidates' children at the step point (cache hits for
	// descendant scans, one batched round otherwise).
	var childKeys []drbg.NodeKey
	for _, c := range cands {
		for j := 0; j < c.nch; j++ {
			childKeys = append(childKeys, c.key.Child(uint32(j)))
		}
	}
	childStates, err := r.evalKeys(dedupKeys(childKeys), []*big.Int{cur}, true)
	if err != nil {
		return nil, nil, err
	}
	childZero := make(map[string]bool, len(childStates))
	for _, st := range childStates {
		childZero[st.ks] = st.sums[0].Sign() == 0
	}
	// A zero node with a zero child is ambiguous: node and some descendant
	// chain both contain the tag. The step's ambiguous candidates are
	// resolved together, by one wave of tag recoveries: from evaluations
	// where the engine has resolve points, from polynomials elsewhere and
	// under VerifyFull, which wants the whole coefficient identity.
	ambiguous := make([]bool, len(cands))
	var jobs []tagJob
	for ci, c := range cands {
		for j := 0; j < c.nch; j++ {
			if childZero[c.key.Child(uint32(j)).String()] {
				ambiguous[ci] = true
				break
			}
		}
		if ambiguous[ci] && r.opts.Verify != VerifyNone {
			jobs = append(jobs, tagJob{key: c.key, nch: c.nch})
		}
	}
	resolve := r.recoverNodeTags
	if r.opts.Verify == VerifyResolve && r.e.resolveAt != nil {
		resolve = r.resolveAtPoints
	}
	tags, failed, err := resolve(jobs)
	if err != nil {
		return nil, nil, fmt.Errorf("core: resolving %s: %w", jobs[failed].key, err)
	}
	ji := 0
	for ci, c := range cands {
		switch {
		case !ambiguous[ci]:
			// Definite: the (x - point) factor must be the node's own.
			matches = append(matches, c.key)
		case r.opts.Verify == VerifyNone:
			unresolved = append(unresolved, c.key)
		default:
			if tags[ji].Cmp(cur) == 0 {
				matches = append(matches, c.key)
			}
			ji++
		}
	}
	return matches, unresolved, nil
}

// tagJob is one tag recovery of a wave: a node and its child count.
type tagJob struct {
	key drbg.NodeKey
	nch int
}

// resolveAtPoints solves eq. (2) for the tag of every job from evaluations
// instead of polynomials. Evaluation at a ∈ F_p* is a ring homomorphism of
// F_p[x]/(x^{p−1}−1) onto F_p, so f = (x − t)·∏qᵢ holds pointwise:
// f(a) = (a − t)·Q(a) with Q(a) = ∏qᵢ(a), and t = a − f(a)/Q(a) wherever
// Q(a) ≠ 0. The jobs' nodes and children, deduplicated as a fetch would
// (planChunks), are evaluated at the engine's two resolve points by one
// ordinary wave; t is solved at the first and must come out the same at
// the second (doc.go has the soundness bound). No tag maps to either
// point, so Q(a) = 0 is a lie too, not a reason to retry. On error, failed
// is the first job in wave order that could not be resolved.
func (r *run) resolveAtPoints(jobs []tagJob) (tags []*big.Int, failed int, err error) {
	if len(jobs) == 0 {
		return nil, 0, nil
	}
	c := planChunks(jobs, math.MaxInt)[0] // the whole wave is one chunk
	states, err := r.evalKeys(c.keys, r.e.resolveAt, false)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	defer func() {
		d := time.Since(start)
		r.e.obsv.Observe(obs.StageTagRecover, d)
		obs.SpanFrom(r.ctx).Add(obs.StageTagRecover, d)
	}()
	fp := r.e.ring.(*ring.FpCyclotomic) // resolvePoints chose points for it
	tags = make([]*big.Int, len(jobs))
	for ji, set := range c.sets {
		kids := make([][]*big.Int, len(set)-1)
		for i, k := range set[1:] {
			kids[i] = states[k].sums
		}
		r.e.counters.AddTagRecovered()
		if tags[ji], err = solveAtPoints(fp, r.e.resolveAt, states[set[0]].sums, kids); err != nil {
			r.e.counters.AddVerifyFailure()
			return tags, ji, err
		}
	}
	return tags, 0, nil
}

// solveAtPoints solves f(a) = (a − t)·∏qᵢ(a) for t at each point a and
// returns the t they agree on: f[j] is the node's value at points[j] and
// kids[c][j] its c-th child's, all reduced mod p.
func solveAtPoints(fp *ring.FpCyclotomic, points, f []*big.Int, kids [][]*big.Int) (*big.Int, error) {
	p := fp.P()
	var tag *big.Int
	for j, a := range points {
		q := big.NewInt(1)
		for _, kid := range kids {
			q.Mod(q.Mul(q, kid[j]), p)
		}
		t, ok := fp.SolveScalar(f[j], q)
		if !ok {
			return nil, fmt.Errorf("%w: ∏qᵢ vanishes at %s, where no polynomial has a root", polyenc.ErrInconsistent, a)
		}
		t.Mod(t.Sub(a, t), p)
		if tag == nil {
			tag = t
		} else if tag.Cmp(t) != 0 {
			return nil, fmt.Errorf("%w: tag %s at %s, %s at %s", polyenc.ErrInconsistent, tag, points[0], t, a)
		}
	}
	return tag, nil
}

// fetchChunkBytes is the response size one polynomial fetch of a wave aims
// for: large enough that a step's recoveries cost a handful of round
// trips instead of one each, small enough to stay far under
// wire.MaxFrameSize and to let the solve of one chunk overlap the fetch of
// the next.
const fetchChunkBytes = 1 << 20

// maxChunkPolys caps a chunk where the degree bound says little about the
// polynomial's size (IntQuotient coefficients grow with the document).
const maxChunkPolys = 4096

// solveBlockJobs is how many recoveries of a chunk one task solves over one
// scratch product: a chunk of up to that many is solved inline, because the
// goroutine hand-offs would cost more than they save, and a larger one
// spreads its blocks over the idle cores.
const solveBlockJobs = 8

// solveScratch is what the word-path recoveries of one block share.
type solveScratch struct {
	q        []uint64   // ∏qᵢ, see polyenc.RecoverTagPackedScratch
	children [][]uint64 // the current job's child vectors
}

// chunkPolys is how many polynomials one fetch asks for: fetchChunkBytes at
// about four wire bytes per coefficient (sign, length, one or two
// magnitude bytes on the word-sized rings).
func chunkPolys(r ring.Ring) int {
	return max(1, min(maxChunkPolys, fetchChunkBytes/(4*r.DegreeBound())))
}

// fetchChunk is one polynomial fetch of a wave: the deduplicated (node +
// children) keys of a run of consecutive jobs.
type fetchChunk struct {
	first int // index of the chunk's first job in the wave
	keys  []drbg.NodeKey
	// sets[s] locates job first+s in keys: its node, then its children in
	// order.
	sets [][]int
	// pads[i] is the client share of keys[i] in words, regenerated while
	// the chunk's fetch is in flight (see packedShares); nil where key i has
	// none.
	pads [][]uint64
}

// planChunks cuts the wave into chunks of at most budget polynomials. A
// job's key set is never split, so a node with more children than the
// budget gets a chunk of its own.
func planChunks(jobs []tagJob, budget int) []fetchChunk {
	var chunks []fetchChunk
	var cur fetchChunk
	pos := map[string]int{}
	for ji, job := range jobs {
		if len(cur.keys) > 0 && len(cur.keys)+job.nch+1 > budget {
			chunks = append(chunks, cur)
			cur = fetchChunk{first: ji}
			pos = map[string]int{}
		}
		set := make([]int, 0, job.nch+1)
		add := func(k drbg.NodeKey) {
			ks := k.String()
			i, ok := pos[ks]
			if !ok {
				i = len(cur.keys)
				pos[ks] = i
				cur.keys = append(cur.keys, k)
			}
			set = append(set, i)
		}
		add(job.key)
		for c := 0; c < job.nch; c++ {
			add(job.key.Child(uint32(c)))
		}
		cur.sets = append(cur.sets, set)
	}
	return append(chunks, cur)
}

// recoverNodeTags solves eq. (2) for the tag of every job: it reconstructs
// the polynomials of each node and its children and recovers the node's
// tag value, with the full consistency check. The server polynomials
// arrive in a few large deduplicated fetches instead of one per node, the
// client regenerates a chunk's share pads while its fetch is in flight, the
// fetch of chunk k+1 is in flight while chunk k is solved, and a chunk's
// solves spread over the idle cores. On error, failed is the first job in
// wave order that could not be resolved and tags[:failed] are valid.
func (r *run) recoverNodeTags(jobs []tagJob) (tags []*big.Int, failed int, err error) {
	if len(jobs) == 0 {
		return nil, 0, nil
	}
	chunks := planChunks(jobs, r.e.chunkPolys)
	tags = make([]*big.Int, len(jobs))
	// One observation per wave: the time spent solving, not the time spent
	// waiting for a fetch (that is the wire's).
	var solve time.Duration
	defer func() {
		r.e.obsv.Observe(obs.StageTagRecover, solve)
		obs.SpanFrom(r.ctx).Add(obs.StageTagRecover, solve)
	}()
	type fetched struct {
		polys []NodePoly
		err   error
	}
	fetch := func(c *fetchChunk) (f fetched) {
		f.err = twoLegs(len(c.keys), func() (err error) {
			f.polys, err = r.fetchPolys(c.keys)
			return err
		}, func() {
			c.pads = r.packedShares(c.keys)
		})
		return f
	}
	cur := fetch(&chunks[0])
	for ci := range chunks {
		c := &chunks[ci]
		var next chan fetched
		if ci+1 < len(chunks) {
			next = make(chan fetched, 1)
			go func(c *fetchChunk) { next <- fetch(c) }(&chunks[ci+1])
		}
		failed, err = c.first, cur.err
		if err == nil {
			start := time.Now()
			failed, err = r.solveChunk(c, cur.polys, tags[c.first:])
			solve += time.Since(start)
		}
		if next != nil {
			cur = <-next // on the error path too: the fetch goroutine never outlives the wave
		}
		if err != nil {
			return tags, failed, err
		}
	}
	return tags, 0, nil
}

// fetchPolys asks the server for the share polynomials of keys, under the
// query's context, and checks that it answered for exactly those keys.
func (r *run) fetchPolys(keys []drbg.NodeKey) ([]NodePoly, error) {
	answers, err := FetchPolysWithCtx(r.ctx, r.e.api, keys)
	if err != nil {
		return nil, err
	}
	if len(answers) != len(keys) {
		return nil, fmt.Errorf("core: server returned %d polynomials for %d keys", len(answers), len(keys))
	}
	bytes := 0
	for i, a := range answers {
		if !slices.Equal(a.Key, keys[i]) {
			return nil, fmt.Errorf("core: server omitted polynomial for %s", keys[i])
		}
		bytes += a.BinarySize()
	}
	r.e.counters.AddRound()
	r.e.counters.AddPolysFetched(len(answers))
	r.e.counters.AddPolyBytes(bytes)
	return answers, nil
}

// solveChunk recovers the tag of every job of one fetched chunk into tags
// (aligned with c.sets). The jobs run in blocks over the idle cores, and a
// block's word-path solves share one scratch product, so a recovery
// allocates only its result. On error, failed is the wave index of the
// first job, in order, that could not be resolved.
func (r *run) solveChunk(c *fetchChunk, polys []NodePoly, tags []*big.Int) (failed int, err error) {
	// Reconstruct every polynomial of the chunk once, in words, however
	// many jobs share it.
	recon, fp := r.reconstructPacked(c.pads, polys)
	errs := make([]error, len(c.sets))
	blocks(len(c.sets), solveBlockJobs, func(lo, hi int) {
		var sc solveScratch
		if fp != nil {
			sc.q = make([]uint64, fp.DegreeBound())
		}
		for s := lo; s < hi; s++ {
			tags[s], errs[s] = r.recoverJob(c, c.sets[s], polys, recon, fp, &sc)
		}
	})
	for s, err := range errs {
		if err != nil {
			return c.first + s, err
		}
	}
	return 0, nil
}

// packedShares regenerates the client share of every key in the word
// representation, spread over the idle cores. The result is nil when the
// engine has no word path (the fast path is off, or the source has no
// packed shares), and pads[i] is nil where the source has no packed form
// for key i or failed on it: the jobs using it take the big.Int path, which
// asks the source again and reports.
func (r *run) packedShares(keys []drbg.NodeKey) [][]uint64 {
	fp, okRing := r.e.ring.(*ring.FpCyclotomic)
	src, okSrc := r.e.shares.(sharing.PackedShareSource)
	if !okRing || fp.Fast() == nil || !okSrc {
		return nil
	}
	n := fp.DegreeBound()
	pads := make([][]uint64, len(keys))
	blocks(len(keys), shareBlockKeys, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if cv, ok, err := src.PackedShare(keys[i]); err == nil && ok && len(cv) <= n {
				pads[i] = cv
			}
		}
	})
	return pads
}

// reconstructPacked adds the client share to each fetched server share in
// the word representation: server words arrive as words, client shares
// were regenerated packed beside the fetch (pads), and the sums land in
// one slab. recon[i] stays nil where key i has no word form — no pad (see
// packedShares), or a polynomial with out-of-word coefficients or
// over-long (a tampering server, StaticSource over unreduced figure
// values) — and the jobs using it take the big.Int path, which Reduces.
// Server words are reduced here: only a file loader vouches for canonical
// words, the wire does not.
func (r *run) reconstructPacked(pads [][]uint64, polys []NodePoly) ([][]uint64, *ring.FpCyclotomic) {
	if pads == nil {
		return nil, nil
	}
	fp := r.e.ring.(*ring.FpCyclotomic) // packedShares made pads for it
	ff := fp.Fast()
	n := fp.DegreeBound()
	recon := make([][]uint64, len(pads))
	slab := make([]uint64, len(pads)*n)
	blocks(len(pads), shareBlockKeys, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sv, ok := polys[i].WordCoeffs()
			if !ok || len(sv) > n || pads[i] == nil {
				continue
			}
			sum := slab[i*n : (i+1)*n : (i+1)*n]
			copy(sum, pads[i])
			for j, v := range sv {
				sum[j] = ff.Add(sum[j], ff.Reduce(v))
			}
			recon[i] = sum
		}
	})
	return recon, fp
}

// recoverJob solves eq. (2) for one job of a chunk: on the reconstructed
// word vectors when every polynomial of its set has one, through the
// big.Int reference path otherwise.
func (r *run) recoverJob(c *fetchChunk, set []int, polys []NodePoly, recon [][]uint64, fp *ring.FpCyclotomic, sc *solveScratch) (*big.Int, error) {
	packed := recon != nil
	for _, i := range set {
		packed = packed && recon[i] != nil
	}
	var tag *big.Int
	var err error
	if packed {
		sc.children = sc.children[:0]
		for _, i := range set[1:] {
			sc.children = append(sc.children, recon[i])
		}
		tag, err = polyenc.RecoverTagPackedScratch(fp, sc.q, recon[set[0]], sc.children)
	} else {
		full := make([]poly.Poly, len(set))
		for j, i := range set {
			cs, shareErr := r.e.shares.Share(c.keys[i])
			if shareErr != nil {
				return nil, shareErr
			}
			full[j] = r.e.ring.Add(cs, polys[i].Polynomial())
		}
		tag, err = polyenc.RecoverTag(r.e.ring, full[0], full[1:])
	}
	r.e.counters.AddTagRecovered()
	if err != nil {
		r.e.counters.AddVerifyFailure()
		return nil, err
	}
	return tag, nil
}

// verifyMatches re-derives each reported match's tag, all matches in one
// wave, and compares it with the query point (VerifyFull). The first
// failure in match order is the one reported.
func (r *run) verifyMatches(keys []drbg.NodeKey, point *big.Int, wildcard bool) error {
	jobs := make([]tagJob, len(keys))
	for i, k := range keys {
		jobs[i] = tagJob{key: k, nch: r.childCount[k.String()]}
	}
	tags, failed, err := r.recoverNodeTags(jobs)
	checked := len(keys)
	if err != nil {
		checked = failed
	}
	for i, k := range keys[:checked] {
		if !wildcard && tags[i].Cmp(point) != 0 {
			r.e.counters.AddVerifyFailure()
			return fmt.Errorf("core: server cheated: node %s has tag %s, query point %s", k, tags[i], point)
		}
	}
	if err != nil {
		return fmt.Errorf("core: verification of %s failed: %w", keys[failed], err)
	}
	return nil
}
