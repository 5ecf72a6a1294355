package coalesce

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"runtime"
	"sync"
	"time"

	"sssearch/internal/core"
	"sssearch/internal/drbg"
	"sssearch/internal/metrics"
	"sssearch/internal/obs"
	"sssearch/internal/wire"
)

// EvalFunc is the evaluation primitive a Merger drives. The coalescer
// passes ctx through to the store it wraps.
type EvalFunc func(ctx context.Context, keys []drbg.NodeKey, points []*big.Int) ([]core.NodeEval, error)

// Merger is the request-merging engine behind coalesce.Server: it
// queues concurrent evaluation requests per point-vector signature,
// drains each signature on its own goroutine (independent groups never
// serialise behind one another — heterogeneous traffic keeps the
// concurrency of the unmerged path), merges each drained group into
// deduplicated passes, and distributes shared results. Safe for
// concurrent use.
type Merger struct {
	eval     EvalFunc
	counters *metrics.Counters
	// maxKeys reads the owner's batch bound at drain time (the owner
	// exposes it as a settable field).
	maxKeys func() int

	// obsv/waitStage record each request's queue wait (enqueue → merged
	// pass start) under the owner's stage label (coalesce_wait). waitStage
	// < 0 (the default) disables recording.
	obsv      *obs.Observer
	waitStage obs.Stage

	mu      sync.Mutex
	pending map[string][]*mergeReq
	active  map[string]bool
}

// mergeReq is one queued evaluation request.
type mergeReq struct {
	ctx    context.Context
	keys   []drbg.NodeKey
	points []*big.Int
	keySig uint64
	enq    time.Time      // when the request entered the queue
	done   chan mergeDone // buffered(1): drains never block delivering
}

type mergeDone struct {
	answers []core.NodeEval
	err     error
}

// NewMerger builds a merger over eval. maxKeys is consulted per drain
// (values <= 0 select DefaultMaxBatchKeys); counters receives the
// coalescing tallies.
func NewMerger(eval EvalFunc, counters *metrics.Counters, maxKeys func() int) *Merger {
	return &Merger{
		eval:      eval,
		counters:  counters,
		maxKeys:   maxKeys,
		obsv:      obs.Default(),
		waitStage: -1,
		pending:   map[string][]*mergeReq{},
		active:    map[string]bool{},
	}
}

// SetObserved configures queue-wait observation: each request's
// enqueue-to-pass-start wait is recorded into o's histogram for stage s
// (and the request's span, when sampled). The owner picks the stage.
func (m *Merger) SetObserved(o *obs.Observer, s obs.Stage) {
	m.obsv = o
	m.waitStage = s
}

// Eval queues the request for its signature's next merged pass and waits
// for its answers, honouring ctx. A cancelled waiter abandons its slot;
// the merged pass still completes for the other members.
func (m *Merger) Eval(ctx context.Context, keys []drbg.NodeKey, points []*big.Int) ([]core.NodeEval, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(keys) == 0 {
		// Nothing to merge; preserve the inner empty-batch shape.
		return m.eval(ctx, keys, points)
	}
	req := &mergeReq{
		ctx:    ctx,
		keys:   keys,
		points: points,
		keySig: keysSig(keys), // paid by the caller, off the drain's critical path
		enq:    time.Now(),
		done:   make(chan mergeDone, 1),
	}
	sig := pointSig(points)
	m.mu.Lock()
	m.pending[sig] = append(m.pending[sig], req)
	if !m.active[sig] {
		m.active[sig] = true
		go m.drain(sig)
	}
	m.mu.Unlock()
	select {
	case res := <-req.done:
		return res.answers, res.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Queued returns how many requests are waiting for their signature's next
// merged pass (requests inside a pass in flight are not counted).
func (m *Merger) Queued() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, group := range m.pending {
		n += len(group)
	}
	return n
}

// drain serves one signature's queue until it is empty, then retires.
// Requests arriving while a pass is in flight are taken by the next loop
// iteration — that accumulation window is where cross-session merging
// comes from. Signatures drain independently and concurrently.
func (m *Merger) drain(sig string) {
	for {
		// Yield once before grabbing the queue: callers that are already
		// runnable (other sessions mid-enqueue — on a single-P runtime the
		// spawned drain goroutine would otherwise run BEFORE them) get to
		// append first, so the pass merges everything actually concurrent.
		// This is a scheduling fence, not a timer — a lone query pays one
		// Gosched, never a batching window.
		runtime.Gosched()
		m.mu.Lock()
		group := m.pending[sig]
		delete(m.pending, sig)
		if len(group) == 0 {
			delete(m.active, sig)
			m.mu.Unlock()
			return
		}
		m.mu.Unlock()
		m.processGroup(group)
	}
}

// processGroup answers one drained, point-compatible group.
func (m *Merger) processGroup(group []*mergeReq) {
	// Every member's queue wait ends here, as the pass starts.
	if m.waitStage >= 0 {
		passStart := time.Now()
		for _, r := range group {
			w := passStart.Sub(r.enq)
			m.obsv.Observe(m.waitStage, w)
			obs.SpanFrom(r.ctx).Add(m.waitStage, w)
		}
	}
	if len(group) == 1 {
		// Lone request: straight through under its own ctx, no merge
		// bookkeeping.
		r := group[0]
		answers, err := m.eval(r.ctx, r.keys, r.points)
		r.done <- mergeDone{answers: answers, err: err}
		return
	}

	// Hot-wave fast path: concurrent sessions walking the same subtree
	// ask for the SAME key vector. One shared pass, no per-key
	// bookkeeping at all — each request gets a shallow copy of the
	// answer slice (values alias, read-only per the ServerAPI contract).
	first := group[0]
	identical := true
	for _, r := range group[1:] {
		// The fingerprint is a prefilter; equality is always verified.
		if r.keySig != first.keySig || !sameKeys(r.keys, first.keys) {
			identical = false
			break
		}
	}

	total := 0
	for _, r := range group {
		total += len(r.keys)
	}
	var (
		merged []drbg.NodeKey
		index  map[string]int // only built on the mixed path
	)
	if identical {
		merged = first.keys
	} else {
		// Mixed key sets: one slot per distinct key across the group.
		index = make(map[string]int, total)
		merged = make([]drbg.NodeKey, 0, total)
		var kb []byte
		for _, r := range group {
			for _, k := range r.keys {
				kb = k.AppendBinary(kb[:0])
				if _, ok := index[string(kb)]; !ok {
					index[string(kb)] = len(merged)
					merged = append(merged, k)
				}
			}
		}
	}

	// The merged pass runs under a fresh context carrying the first
	// sampled span in the group (if any), so a coalesced leg of a traced
	// query keeps its trace ID across the shared evaluation. Cancellation
	// is deliberately NOT inherited: the pass serves every member, so one
	// member's cancellation must not abort the others.
	passCtx := context.Background()
	for _, r := range group {
		if sp := obs.SpanFrom(r.ctx); sp != nil && sp.Trace.Sampled {
			passCtx = obs.WithSpan(passCtx, sp)
			break
		}
	}

	answers, passes, mergeErr := m.evalChunked(passCtx, merged, first.points)
	if errors.Is(mergeErr, errMisaddressed) {
		// Replaying alone would hand each member the same target's answers;
		// the group shares the target's failure instead.
		for _, r := range group {
			r.done <- mergeDone{err: mergeErr}
		}
		return
	}
	if mergeErr != nil {
		// A poisoned merge (e.g. one session's unknown key) degrades to
		// the unmerged path: every request replays alone — concurrently,
		// so one bad request cannot stall the group — and gets exactly
		// the error, or the answers, it would have gotten anyway. No
		// coalescing counters tick: nothing was shared.
		for _, r := range group {
			go func(r *mergeReq) {
				a, err := m.eval(r.ctx, r.keys, r.points)
				r.done <- mergeDone{answers: a, err: err}
			}(r)
		}
		return
	}
	m.counters.AddCoalescedBatches(passes)
	m.counters.AddCoalescedRequests(len(group))
	m.counters.AddCoalesceDedupHits(total - len(merged))

	if identical {
		group[0].done <- mergeDone{answers: answers}
		for _, r := range group[1:] {
			// Shallow per-request copy: callers own their top-level slice
			// (a wrapper like server.Tamperer may rewrite entries) while
			// the evaluated values stay shared.
			out := make([]core.NodeEval, len(answers))
			copy(out, answers)
			r.done <- mergeDone{answers: out}
		}
		return
	}

	// Distribute: each request gets answers aligned with ITS key order,
	// sharing the merged values (duplicates answer per occurrence).
	var kb []byte
	for _, r := range group {
		out := make([]core.NodeEval, len(r.keys))
		for i, k := range r.keys {
			kb = k.AppendBinary(kb[:0])
			// Answer under the caller's own key value; values (words or
			// big.Int, as evaluated) and child counts are the shared
			// evaluation.
			out[i] = answers[index[string(kb)]]
			out[i].Key = k
		}
		r.done <- mergeDone{answers: out}
	}
}

// errMisaddressed marks a merged pass whose target did not answer exactly
// the keys it was asked, in order: the answers cannot be distributed.
var errMisaddressed = errors.New("coalesce: target answered other keys than the merged pass asked")

// evalChunked runs the merged pass, split into concurrent chunks of at
// most maxKeys keys (the eval target is concurrent-safe by the
// ServerAPI contract, so an oversized merge keeps its parallelism).
// Returns the concatenated answers, an answer per merged key and for it,
// and the number of passes run.
func (m *Merger) evalChunked(ctx context.Context, merged []drbg.NodeKey, points []*big.Int) ([]core.NodeEval, int, error) {
	maxKeys := m.maxKeys()
	if maxKeys <= 0 {
		maxKeys = DefaultMaxBatchKeys
	}
	eval := func(keys []drbg.NodeKey) ([]core.NodeEval, error) {
		answers, err := m.eval(ctx, keys, points)
		if err != nil {
			return nil, err
		}
		if err := core.CheckAnswered(keys, answers); err != nil {
			return nil, fmt.Errorf("%w: target %w", errMisaddressed, err)
		}
		return answers, nil
	}
	if len(merged) <= maxKeys {
		answers, err := eval(merged)
		return answers, 1, err
	}
	chunks := (len(merged) + maxKeys - 1) / maxKeys
	parts := make([][]core.NodeEval, chunks)
	errs := make([]error, chunks)
	var wg sync.WaitGroup
	for c := 0; c < chunks; c++ {
		start := c * maxKeys
		end := start + maxKeys
		if end > len(merged) {
			end = len(merged)
		}
		wg.Add(1)
		go func(c int, keys []drbg.NodeKey) {
			defer wg.Done()
			parts[c], errs[c] = eval(keys)
		}(c, merged[start:end])
	}
	wg.Wait()
	answers := make([]core.NodeEval, 0, len(merged))
	for c := 0; c < chunks; c++ {
		if errs[c] != nil {
			return nil, 0, errs[c]
		}
		answers = append(answers, parts[c]...)
	}
	return answers, chunks, nil
}

// keysSig fingerprints a key vector (FNV-1a over lengths and
// components). It is a cheap prefilter for the identical-wave fast
// path — a signature match is ALWAYS confirmed by sameKeys before any
// aliasing happens, so collisions cost a map build, never correctness.
func keysSig(keys []drbg.NodeKey) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		h ^= v
		h *= prime64
	}
	mix(uint64(len(keys)))
	for _, k := range keys {
		mix(uint64(len(k)))
		for _, c := range k {
			mix(uint64(c))
		}
	}
	return h
}

// sameKeys reports whether two key vectors are element-wise identical.
func sameKeys(a, b []drbg.NodeKey) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		ka, kb := a[i], b[i]
		if len(ka) != len(kb) {
			return false
		}
		for j := range ka {
			if ka[j] != kb[j] {
				return false
			}
		}
	}
	return true
}

// pointSig renders an order-sensitive signature of a point vector; two
// requests merge only if they asked for the exact same points in the
// same order, so answer Values slices align for every member.
func pointSig(points []*big.Int) string {
	if len(points) == 0 {
		return ""
	}
	b := make([]byte, 0, 16*len(points))
	for _, p := range points {
		b = wire.AppendBig(b, p)
	}
	return string(b)
}
