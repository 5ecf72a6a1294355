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
	"sssearch/internal/fastfield"
	"sssearch/internal/obs"
	"sssearch/internal/parwalk"
	"sssearch/internal/poly"
	"sssearch/internal/polyenc"
	"sssearch/internal/ring"
	"sssearch/internal/sharing"
	"sssearch/internal/xpath"
)

// run is the per-query state: the compiled steps, the query's points, and
// the table of the nodes the query has reached — what it has learned of
// each (child count, children, the client+server sum at each point), so the
// protocol never asks twice for a sum a wave already produced.
//
// A node is its index in the table: the root is 0, and a node's children
// are created, as consecutive entries, the first time the traversal steps
// down from it. Nothing is looked up by key, so nothing on a wave's
// per-node path renders or hashes one. The table grows only between waves,
// on the traversal's goroutine; the concurrent batches of a wave
// (opts.Parallelism) write the slots of their own, distinct nodes and need
// no lock.
type run struct {
	// ctx carries the query's observability context (trace span) into
	// every server call; it is not used for cancellation.
	ctx   context.Context
	e     *Engine
	steps []xpath.Step
	opts  Opts
	// pts are the distinct points the query evaluates at — the steps' in
	// step order, then the engine's resolve points — interned by value, so a
	// tag two steps name is one point: shipped, evaluated and cached once.
	// stepPt[i] is step i's point as an index into pts (-1 for a wildcard),
	// resolvePt the resolve points'. Read-only after newRun.
	pts       []*big.Int
	stepPt    []int
	resolvePt []int
	// ff selects the value form, once per run, from the ring: non-nil on a
	// word-sized F_p ring, where a sum is a machine word in words; nil
	// elsewhere (IntQuotient, moduli over 62 bits, SetFast(false)), where it
	// is a big.Int in bigs. The traversal is the same code over either; only
	// the add, the zero test and the point solve know which.
	ff *fastfield.Field
	// ptWords are pts reduced mod p (word form).
	ptWords []uint64

	nodes []node
	// words / bigs hold one sum per (node, point), row id·len(pts) being
	// node id's: unknownWord / nil until a wave has produced it.
	words []uint64
	bigs  []*big.Int
	// serial is the current generation of node.mark, see stamp.
	serial int32
}

// node is what the run knows of one node it has reached.
type node struct {
	key drbg.NodeKey
	// nch is the child count, -1 until a wave has learned it. The children,
	// once created (see kids), are nodes first … first+nch−1; first is 0
	// before, which no child's index is.
	nch, first int
	// mark and slot are the scratch of the pass that last stamped the node:
	// mark == run.serial says this pass has reached it, slot is its position
	// in the pass's key list (planChunks).
	mark, slot int32
}

// unknownWord marks a (node, point) sum no wave has produced yet. Sums are
// reduced mod p < 2^62, so it is not one.
const unknownWord = math.MaxUint64

// newRun assembles the per-query state: the interned point set and a table
// holding the root.
func newRun(ctx context.Context, e *Engine, steps []xpath.Step, points []*big.Int, opts Opts) *run {
	r := &run{ctx: ctx, e: e, steps: steps, opts: opts, stepPt: make([]int, len(points))}
	for i, p := range points {
		r.stepPt[i] = -1
		if p != nil {
			r.stepPt[i] = r.intern(p)
		}
	}
	for _, p := range e.resolveAt {
		r.resolvePt = append(r.resolvePt, r.intern(p))
	}
	if fp, ok := e.ring.(*ring.FpCyclotomic); ok && fp.Fast() != nil {
		r.ff = fp.Fast()
		r.ptWords = make([]uint64, len(r.pts))
		for i, p := range r.pts {
			r.ptWords[i] = r.ff.ReduceBig(p)
		}
	}
	r.nodes = []node{{key: drbg.NodeKey{}, nch: -1}}
	r.growSums(1)
	return r
}

// intern returns the index of p in pts, adding it if no point of that value
// is there yet.
func (r *run) intern(p *big.Int) int {
	for i, q := range r.pts {
		if q.Cmp(p) == 0 {
			return i
		}
	}
	r.pts = append(r.pts, p)
	return len(r.pts) - 1
}

// addChildren appends the n children of the node under key parent to the
// table, no count and no sum known; their keys share one array.
func (r *run) addChildren(parent drbg.NodeKey, n int) {
	depth := len(parent) + 1
	keys := make([]uint32, n*depth)
	for c := 0; c < n; c++ {
		k := keys[c*depth : (c+1)*depth : (c+1)*depth]
		copy(k, parent)
		k[depth-1] = uint32(c)
		r.nodes = append(r.nodes, node{key: k, nch: -1})
	}
	r.growSums(n)
}

// growSums makes room for the sums of n more nodes, all unknown.
func (r *run) growSums(n int) {
	n *= len(r.pts)
	if r.ff == nil {
		r.bigs = append(r.bigs, make([]*big.Int, n)...)
		return
	}
	at := len(r.words)
	r.words = slices.Grow(r.words, n)[:at+n]
	for i := at; i < len(r.words); i++ {
		r.words[i] = unknownWord
	}
}

// kids returns the children of node id — nodes first … first+n−1 —
// creating them on the first call after a wave learned the count. Not for
// use while a wave is in flight: it grows the table.
func (r *run) kids(id int) (first, n int) {
	nd := r.nodes[id]
	if nd.nch <= 0 {
		return 0, 0
	}
	if nd.first == 0 {
		nd.first = len(r.nodes)
		r.nodes[id].first = nd.first
		r.addChildren(nd.key, nd.nch)
	}
	return nd.first, nd.nch
}

// stamp marks node id as reached by the current pass (see serial) and
// reports whether it had not been: a pass lists each node once, in the
// order it first reaches it.
func (r *run) stamp(id int) bool {
	if r.nodes[id].mark == r.serial {
		return false
	}
	r.nodes[id].mark = r.serial
	return true
}

// zero reports whether the sum of node id at point pt vanished.
func (r *run) zero(id, pt int) bool {
	if r.ff != nil {
		return r.words[id*len(r.pts)+pt] == 0
	}
	return r.bigs[id*len(r.pts)+pt].Sign() == 0
}

// zeroAll reports whether the sum of node id vanished at every point of pts
// (at none, for a wave of wildcards only).
func (r *run) zeroAll(id int, pts []int) bool {
	for _, pt := range pts {
		if !r.zero(id, pt) {
			return false
		}
	}
	return true
}

// known reports whether the table holds node id's child count and its sum
// at every point of pts.
func (r *run) known(id int, pts []int) bool {
	if r.nodes[id].nch < 0 {
		return false
	}
	row := id * len(r.pts)
	for _, pt := range pts {
		if r.ff != nil && r.words[row+pt] == unknownWord {
			return false
		}
		if r.ff == nil && r.bigs[row+pt] == nil {
			return false
		}
	}
	return true
}

// keysOf returns the keys of the listed nodes.
func (r *run) keysOf(ids []int) []drbg.NodeKey {
	if len(ids) == 0 {
		return nil
	}
	keys := make([]drbg.NodeKey, len(ids))
	for i, id := range ids {
		keys[i] = r.nodes[id].key
	}
	return keys
}

// execute runs all steps and returns final matches and unresolved keys.
func (r *run) execute() (matches, unresolved []drbg.NodeKey, err error) {
	var contexts []int
	for i, step := range r.steps {
		pts := r.activePoints(i)
		roots := []int{0} // the document root
		if i > 0 {
			roots = r.childrenOf(contexts)
		}
		var cands []int
		if step.Axis == xpath.AxisChild {
			if err := r.eval(roots, pts, true); err != nil {
				return nil, nil, err
			}
			for _, id := range roots {
				if r.zeroAll(id, pts) {
					cands = append(cands, id)
				}
			}
		} else {
			cands, err = r.scanDescendants(roots, pts)
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
				if err := r.verifyMatches(stepMatches, r.stepPt[i]); err != nil {
					return nil, nil, err
				}
			}
			return r.keysOf(stepMatches), r.keysOf(stepUnresolved), nil
		}
		// Non-final steps: matched nodes (plus, under VerifyNone,
		// optimistically-kept unresolved nodes) become the next contexts.
		// Candidates are distinct nodes, so these are too.
		contexts = append(stepMatches, stepUnresolved...)
		if len(contexts) == 0 {
			return nil, nil, nil
		}
	}
	return nil, nil, nil
}

// childrenOf lists the children of the given nodes, in order.
func (r *run) childrenOf(ids []int) []int {
	var out []int
	for _, id := range ids {
		first, n := r.kids(id)
		for k := first; k < first+n; k++ {
			out = append(out, k)
		}
	}
	return out
}

// activePoints lists the points step i evaluates at: the step's own (none
// for a wildcard — its sum counts as zero) followed by every later step's,
// each once. Evaluating candidates at future points is the §4.3 "evaluate
// the whole query at once" optimisation (disabled by the DisableLookahead
// ablation).
func (r *run) activePoints(i int) []int {
	var out []int
	if r.stepPt[i] >= 0 {
		out = append(out, r.stepPt[i])
	}
	if r.opts.DisableLookahead {
		return out
	}
	for _, pt := range r.stepPt[i+1:] {
		if pt >= 0 && !slices.Contains(out, pt) {
			out = append(out, pt)
		}
	}
	return out
}

// eval brings the child count of every listed node, and its client+server
// sum at every point of pts, into the table, asking the server only about
// the nodes that miss one. ids must be distinct: the wave's batches write
// their nodes' slots unlocked. visit says whether the wave is the traversal
// reaching these nodes, and counts them as visited; a wave that goes back to
// nodes the step has already reached (resolveAtPoints) does not.
func (r *run) eval(ids []int, pts []int, visit bool) error {
	var missing []int
	for _, id := range ids {
		if !r.known(id, pts) {
			missing = append(missing, id)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	// One wave = one protocol round (latency-wise), even when it is
	// split into concurrent batches below.
	r.e.counters.AddRound()
	if visit {
		r.e.counters.AddNodesVisited(len(missing))
	}
	r.e.counters.AddNodesEvaluated(len(missing) * len(pts))
	r.e.counters.AddValuesMoved(len(missing) * len(pts))
	keys := r.keysOf(missing)
	points := make([]*big.Int, len(pts))
	for j, pt := range pts {
		points[j] = r.pts[pt]
	}
	// At most Parallelism near-even batches.
	n := max(1, min(r.opts.Parallelism, len(missing)))
	size := (len(missing) + n - 1) / n
	if size == len(missing) {
		return r.evalBatch(missing, keys, pts, points)
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for b := 0; b*size < len(missing); b++ {
		lo, hi := b*size, min((b+1)*size, len(missing))
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			errs[b] = r.evalBatch(missing[lo:hi], keys[lo:hi], pts, points)
		}(b)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
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

// summands are the client share values of a batch's keys at its points, in
// the run's value form: row i of words (len(points) wide), or bigs[i]. They
// are valid below failed, the lowest key whose share failed (with err);
// failed is the number of keys on success.
type summands struct {
	words  []uint64
	bigs   [][]*big.Int
	failed int
	err    error
}

// clientSummands evaluates the client share of every key at every point.
// The word form asks a sharing.WordSource a block of keys at a time; any
// other source, and the big.Int form, ask key by key through the boxed seam
// (boxedShares) and convert. Each block stops at its first error, so the
// lowest failing index is the first error in wave order.
func (r *run) clientSummands(keys []drbg.NodeKey, points []*big.Int) summands {
	sm := summands{failed: len(keys)}
	np := len(points)
	if np == 0 {
		// Wildcard-only waves need no share work at all — the server round
		// still runs to learn child counts.
		return sm
	}
	ws, wordSeam := r.e.shares.(sharing.WordSource)
	if r.ff != nil {
		sm.words = make([]uint64, len(keys)*np)
	} else {
		sm.bigs, wordSeam = make([][]*big.Int, len(keys)), false
	}
	block := func(lo, hi int) (int, error) {
		if wordSeam {
			if done, ok, err := ws.EvalShareWords(sm.words[lo*np:hi*np], keys[lo:hi], points); ok {
				return lo + done, err
			}
		}
		for i := lo; i < hi; i++ {
			vals, err := r.boxedShares(keys[i], points)
			if err != nil {
				return i, err
			}
			if r.ff == nil {
				sm.bigs[i] = vals
				continue
			}
			for j, v := range vals {
				sm.words[i*np+j] = r.ff.ReduceBig(v)
			}
		}
		return hi, nil
	}
	size := shareBlockKeys
	if len(keys) < overlapMinKeys {
		size = len(keys)
	}
	at := make([]int, (len(keys)+size-1)/size)
	errs := make([]error, len(at))
	blocks(len(keys), size, func(lo, hi int) { at[lo/size], errs[lo/size] = block(lo, hi) })
	for b, err := range errs {
		if err != nil {
			sm.failed, sm.err = at[b], err
			break
		}
	}
	return sm
}

// boxedShares evaluates the client share of one key at every point through
// the big.Int seam of the share source: one share regeneration serves all
// points when the source supports multi-point evaluation.
func (r *run) boxedShares(key drbg.NodeKey, points []*big.Int) ([]*big.Int, error) {
	if multi, ok := r.e.shares.(sharing.MultiPointSource); ok {
		vals, err := multi.EvalShares(key, points)
		if err == nil && len(vals) != len(points) {
			err = fmt.Errorf("core: share source returned %d values for %d points", len(vals), len(points))
		}
		return vals, err
	}
	vals := make([]*big.Int, len(points))
	for j, p := range points {
		var err error
		if vals[j], err = r.e.shares.EvalShare(key, p); err != nil {
			return nil, err
		}
	}
	return vals, nil
}

// evalBatch evaluates one batch of a wave — nodes ids, whose keys are keys,
// at pts, whose values are points — and writes the combined sums into the
// table. The wave is two concurrent legs that meet at the sum: the server
// evaluates its shares while the client regenerates and evaluates its own,
// for the keys it asked about. Safe to call from concurrent batch
// goroutines (the ServerAPI and ShareSource contracts require
// concurrent-safe implementations; batches write the slots of distinct
// nodes).
func (r *run) evalBatch(ids []int, keys []drbg.NodeKey, pts []int, points []*big.Int) error {
	var (
		answers []NodeEval
		sm      summands
		arith   time.Duration
	)
	// A server error wins over a share-source error; after it, the first
	// error in wave order is the one reported.
	err := twoLegs(len(keys), func() (err error) {
		answers, err = EvalNodesWithCtx(r.ctx, r.e.api, keys, points)
		return err
	}, func() {
		start := time.Now()
		sm = r.clientSummands(keys, points)
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
	// The summands were computed for keys[i]: an answer in another order, or
	// for a key that was not asked, must not be added to them.
	if err := CheckAnswered(keys, answers); err != nil {
		return fmt.Errorf("core: server %w", err)
	}
	// The evaluation modulus of each point is fixed for the whole batch;
	// resolve it once instead of once per (node, point). On F_p it is p
	// wherever evaluation is defined, and the word form needs only know that.
	var mods []*big.Int
	for j, p := range points {
		if r.ff == nil {
			m, err := r.e.ring.EvalModulus(p)
			if err != nil {
				return fmt.Errorf("core: point %s: %w", p, err)
			}
			mods = append(mods, m)
		} else if r.ptWords[pts[j]] == 0 {
			return fmt.Errorf("core: point %s: %w", p, ring.ErrEvalUndefined)
		}
	}
	for i, ans := range answers {
		if ans.Len() != len(points) {
			return fmt.Errorf("core: server returned %d values for %d points", ans.Len(), len(points))
		}
		if i == sm.failed {
			return sm.err
		}
		// The children are created from the first count a node is given: a
		// server that changes it has no honest reading.
		nd := &r.nodes[ids[i]]
		if nch := max(ans.NumChildren, 0); nd.nch < 0 {
			nd.nch = nch
		} else if nd.nch != nch {
			return fmt.Errorf("core: server gave %s %d children, then %d", ans.Key, nd.nch, nch)
		}
		row := ids[i] * len(r.pts)
		switch {
		case r.ff == nil:
			vals := ans.Values()
			for j, pt := range pts {
				sum := new(big.Int).Add(sm.bigs[i][j], vals[j])
				r.bigs[row+pt] = sum.Mod(sum, mods[j])
			}
		case len(ans.Big) == 0:
			// A word off the wire is any uint64: reduce it before the add.
			for j, pt := range pts {
				r.words[row+pt] = r.ff.Add(sm.words[i*len(pts)+j], r.ff.Reduce(ans.Words[j]))
			}
		default:
			// No word form (a negative or wider value): the general reduction.
			for j, pt := range pts {
				r.words[row+pt] = r.ff.Add(sm.words[i*len(pts)+j], r.ff.ReduceBig(ans.Big[j]))
			}
		}
	}
	return nil
}

// scanDescendants BFSes the subtrees rooted at roots, descending only
// through nodes whose sums are all zero (a non-zero sum at any active
// point proves no candidate can exist below — the paper's dead-branch
// pruning), and returns all all-zero nodes as candidates, each once: a
// subtree two roots share is scanned from the first that reaches it.
// Pruning is silent: the client stops asking below a dead node and tells
// the server nothing, which cannot tell a zero sum from a non-zero one.
func (r *run) scanDescendants(roots []int, pts []int) ([]int, error) {
	var cands []int
	pruned := 0
	r.serial++
	var frontier []int
	for _, id := range roots {
		if r.stamp(id) {
			frontier = append(frontier, id)
		}
	}
	for len(frontier) > 0 {
		if err := r.eval(frontier, pts, true); err != nil {
			return nil, err
		}
		var next []int
		for _, id := range frontier {
			if !r.zeroAll(id, pts) {
				pruned++
				continue
			}
			cands = append(cands, id)
			first, n := r.kids(id)
			for c := first; c < first+n; c++ {
				if r.stamp(c) {
					next = append(next, c)
				}
			}
		}
		frontier = next
	}
	r.e.counters.AddPruned(pruned)
	return cands, nil
}

// classify applies the paper's answer rule to candidates of step i:
// a zero node with no zero child (at the step's own point) is a definite
// match; a zero node with a zero child is ambiguous and is resolved by tag
// recovery (or reported unresolved under VerifyNone). Wildcard steps match
// structurally.
func (r *run) classify(cands []int, i int) (matches, unresolved []int, err error) {
	if len(cands) == 0 {
		return nil, nil, nil
	}
	cur := r.stepPt[i]
	if cur < 0 {
		return cands, nil, nil
	}
	// Evaluate all candidates' children at the step point (table hits for
	// descendant scans, one batched round otherwise).
	if err := r.eval(r.childrenOf(cands), []int{cur}, true); err != nil {
		return nil, nil, err
	}
	// A zero node with a zero child is ambiguous: node and some descendant
	// chain both contain the tag. The step's ambiguous candidates are
	// resolved together, by one wave of tag recoveries: from evaluations
	// where the engine has resolve points, from whole shares elsewhere and
	// under VerifyFull, which wants the whole identity.
	ambiguous := make([]bool, len(cands))
	var jobs []int
	for ci, c := range cands {
		first, n := r.kids(c)
		for k := first; k < first+n && !ambiguous[ci]; k++ {
			ambiguous[ci] = r.zero(k, cur)
		}
		if ambiguous[ci] && r.opts.Verify != VerifyNone {
			jobs = append(jobs, c)
		}
	}
	var hit []bool // per job: the node's tag is the step's
	var failed int
	if r.opts.Verify == VerifyResolve && r.resolvePt != nil {
		hit, failed, err = r.resolveAtPoints(jobs, cur)
	} else {
		var tags []*big.Int
		tags, failed, err = r.recoverNodeTags(jobs)
		hit = make([]bool, len(tags))
		for ji, t := range tags {
			hit[ji] = t != nil && t.Cmp(r.pts[cur]) == 0
		}
	}
	if err != nil {
		return nil, nil, fmt.Errorf("core: resolving %s: %w", r.nodes[jobs[failed]].key, err)
	}
	ji := 0
	for ci, c := range cands {
		switch {
		case !ambiguous[ci]:
			// Definite: the (x - point) factor must be the node's own.
			matches = append(matches, c)
		case r.opts.Verify == VerifyNone:
			unresolved = append(unresolved, c)
		default:
			if hit[ji] {
				matches = append(matches, c)
			}
			ji++
		}
	}
	return matches, unresolved, nil
}

// resolveAtPoints solves eq. (2) for the tag of every job from evaluations
// instead of polynomials, and reports, per job, whether the tag is the
// point cur. Evaluation at a ∈ F_p* is a ring homomorphism of
// F_p[x]/(x^{p−1}−1) onto F_p, so f = (x − t)·∏qᵢ holds pointwise:
// f(a) = (a − t)·Q(a) with Q(a) = ∏qᵢ(a), and t = a − f(a)/Q(a) wherever
// Q(a) ≠ 0. The jobs' nodes and children, each once in the order a fetch
// would list them (planChunks), are evaluated at the engine's two resolve
// points by one ordinary wave; t is solved at the first and must come out
// the same at the second (doc.go has the soundness bound). No tag maps to
// either point, so Q(a) = 0 is a lie too, not a reason to retry. On error,
// failed is the first job in wave order that could not be resolved.
func (r *run) resolveAtPoints(jobs []int, cur int) (hit []bool, failed int, err error) {
	if len(jobs) == 0 {
		return nil, 0, nil
	}
	r.serial++
	var set []int
	for _, job := range jobs {
		if r.stamp(job) {
			set = append(set, job)
		}
		first, n := r.kids(job)
		for k := first; k < first+n; k++ {
			if r.stamp(k) {
				set = append(set, k)
			}
		}
	}
	if err := r.eval(set, r.resolvePt, false); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	defer func() {
		d := time.Since(start)
		r.e.obsv.Observe(obs.StageTagRecover, d)
		obs.SpanFrom(r.ctx).Add(obs.StageTagRecover, d)
	}()
	hit = make([]bool, len(jobs))
	for ji, job := range jobs {
		r.e.counters.AddTagRecovered()
		if r.ff != nil {
			var t uint64
			t, err = r.solveWords(job)
			hit[ji] = t == r.ptWords[cur]
		} else {
			var t *big.Int
			t, err = r.solveBig(job)
			hit[ji] = err == nil && t.Cmp(r.pts[cur]) == 0
		}
		if err != nil {
			r.e.counters.AddVerifyFailure()
			return hit, ji, err
		}
	}
	return hit, 0, nil
}

// solveWords solves f(a) = (a − t)·∏qᵢ(a) for node id's tag t at each
// resolve point a, from the table's sums of the node (f) and its children
// (qᵢ), and returns the t the points agree on.
func (r *run) solveWords(id int) (uint64, error) {
	first, n := r.nodes[id].first, max(r.nodes[id].nch, 0)
	np := len(r.pts)
	var tag uint64
	for j, pt := range r.resolvePt {
		q := uint64(1)
		for k := first; k < first+n; k++ {
			q = r.ff.Mul(q, r.words[k*np+pt])
		}
		inv, ok := r.ff.Inv(q)
		if !ok {
			return 0, fmt.Errorf("%w: ∏qᵢ vanishes at %s, where no polynomial has a root", polyenc.ErrInconsistent, r.pts[pt])
		}
		t := r.ff.Sub(r.ptWords[pt], r.ff.Mul(r.words[id*np+pt], inv))
		if j == 0 {
			tag = t
		} else if tag != t {
			return 0, fmt.Errorf("%w: tag %d at %s, %d at %s", polyenc.ErrInconsistent, tag, r.pts[r.resolvePt[0]], t, r.pts[pt])
		}
	}
	return tag, nil
}

// solveBig is solveWords on big.Int sums: the reference form.
func (r *run) solveBig(id int) (*big.Int, error) {
	fp := r.e.ring.(*ring.FpCyclotomic) // resolvePoints chose points for it
	p := fp.P()
	first, n := r.nodes[id].first, max(r.nodes[id].nch, 0)
	np := len(r.pts)
	var tag *big.Int
	for _, pt := range r.resolvePt {
		a := r.pts[pt]
		q := big.NewInt(1)
		for k := first; k < first+n; k++ {
			q.Mod(q.Mul(q, r.bigs[k*np+pt]), p)
		}
		t, ok := fp.SolveScalar(r.bigs[id*np+pt], q)
		if !ok {
			return nil, fmt.Errorf("%w: ∏qᵢ vanishes at %s, where no polynomial has a root", polyenc.ErrInconsistent, a)
		}
		t.Mod(t.Sub(a, t), p)
		if tag == nil {
			tag = t
		} else if tag.Cmp(t) != 0 {
			return nil, fmt.Errorf("%w: tag %s at %s, %s at %s", polyenc.ErrInconsistent, tag, r.pts[r.resolvePt[0]], t, a)
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
// job's key set — the node, then its children — is never split, so a node
// with more children than the budget gets a chunk of its own; a key several
// jobs of a chunk use is listed once.
func (r *run) planChunks(jobs []int, budget int) []fetchChunk {
	var chunks []fetchChunk
	var cur fetchChunk
	r.serial++
	for ji, job := range jobs {
		first, n := r.kids(job)
		if len(cur.keys) > 0 && len(cur.keys)+n+1 > budget {
			chunks = append(chunks, cur)
			cur = fetchChunk{first: ji}
			r.serial++
		}
		set := make([]int, 0, n+1)
		add := func(id int) {
			if nd := &r.nodes[id]; r.stamp(id) {
				nd.slot = int32(len(cur.keys))
				cur.keys = append(cur.keys, nd.key)
			}
			set = append(set, int(r.nodes[id].slot))
		}
		add(job)
		for k := first; k < first+n; k++ {
			add(k)
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
func (r *run) recoverNodeTags(jobs []int) (tags []*big.Int, failed int, err error) {
	if len(jobs) == 0 {
		return nil, 0, nil
	}
	chunks := r.planChunks(jobs, r.e.chunkPolys)
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
	if err := CheckAnswered(keys, answers); err != nil {
		return nil, fmt.Errorf("core: server %w", err)
	}
	bytes := 0
	for _, a := range answers {
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
// one slab. A server vector shorter than the pad is read as zeros past its
// end (the codec trims a zero tail). recon[i] stays nil where key i has no
// word form — no pad (see packedShares), or a share with out-of-word or
// too many entries (a tampering server) — and the jobs using it take the
// big.Int path, which reduces. Server words are reduced here: only a file
// loader vouches for canonical words, the wire does not.
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
// word vectors when every share of its set has one, through the big.Int
// reference path otherwise — pointwise over value vectors on F_p,
// coefficient by coefficient elsewhere.
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
		if fp, ok := r.e.ring.(*ring.FpCyclotomic); ok {
			tag, err = polyenc.RecoverTagValues(fp, full[0], full[1:])
		} else {
			tag, err = polyenc.RecoverTag(r.e.ring, full[0], full[1:])
		}
	}
	r.e.counters.AddTagRecovered()
	if err != nil {
		r.e.counters.AddVerifyFailure()
		return nil, err
	}
	return tag, nil
}

// verifyMatches re-derives each reported match's tag, all matches in one
// wave, and compares it with the step's point pt, -1 for a wildcard
// (VerifyFull). The first failure in match order is the one reported.
func (r *run) verifyMatches(ids []int, pt int) error {
	tags, failed, err := r.recoverNodeTags(ids)
	checked := len(ids)
	if err != nil {
		checked = failed
	}
	for i, id := range ids[:checked] {
		if pt >= 0 && tags[i].Cmp(r.pts[pt]) != 0 {
			r.e.counters.AddVerifyFailure()
			return fmt.Errorf("core: server cheated: node %s has tag %s, query point %s", r.nodes[id].key, tags[i], r.pts[pt])
		}
	}
	if err != nil {
		return fmt.Errorf("core: verification of %s failed: %w", r.nodes[ids[failed]].key, err)
	}
	return nil
}
