package main

import (
	"context"
	"encoding/json"
	"math/big"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sssearch/internal/core"
	"sssearch/internal/drbg"
	"sssearch/internal/poly"
	"sssearch/internal/ring"
	"sssearch/internal/sharing"
)

// span is one timed call at a layer boundary, recorded by the benchmark's
// own decorators (the program itself carries no spans yet).
type span struct {
	Name   string
	Start  int64 // ns since the tracer started
	End    int64
	Parent int32 // index of the span that caused this one; -1 when unknown
	Query  int32 // query id shared by all spans of one Search; -1 when the seam cannot know it
	Lane   int32 // one lane per decorator instance, for the trace viewer
	// Counts taken at the same boundary as the times.
	Keys   int32
	Points int32
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	lanes atomic.Int32
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent, query, lane int32, keys, points int) int32 {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Query: query, Lane: lane, Keys: int32(keys), Points: int32(points)})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// mark returns a position in the span log; since(mark) returns what was
// recorded after it.
func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// since returns the completed spans begun after mark, with parents
// re-indexed into the returned slice. A span still open when the run ends
// (the straggling member call of a k-of-n fan-out) is dropped, and a
// parent outside the returned set reads as unknown.
func (t *tracer) since(mark int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	remap := make([]int32, len(t.spans))
	var out []span
	for i, s := range t.spans {
		if i < mark || s.End < 0 {
			remap[i] = -1
			continue
		}
		remap[i] = int32(len(out))
		out = append(out, s)
	}
	for i := range out {
		if out[i].Parent >= 0 {
			out[i].Parent = remap[out[i].Parent]
		}
	}
	return out
}

// durations returns the length in nanoseconds of every completed span of
// one name, warm-up included.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// selfTimes returns, for every span, its duration minus the part of its
// interval covered by the union of its children's intervals. Children that
// overlap (a concurrent fan-out) are counted once; a child that outlives
// its parent (the straggler of a k-of-n call) is clipped to the parent.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - coveredBy(s, spans, children[int32(i)])
	}
	return self
}

// coveredBy is the length of the union of the given children's intervals
// clipped to the parent's interval.
func coveredBy(parent span, spans []span, kids []int32) int64 {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := spans[k].Start, spans[k].End
		if a < parent.Start {
			a = parent.Start
		}
		if b > parent.End {
			b = parent.End
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, hi int64
	hi = parent.Start
	for _, v := range ivs {
		if v.b <= hi {
			continue
		}
		if v.a > hi {
			covered += v.b - v.a
		} else {
			covered += v.b - hi
		}
		hi = v.b
	}
	return covered
}

// layerTotals sums durations, self times and call counts by span name.
type layerTotals struct {
	Calls  int64
	DurNS  int64
	SelfNS int64
	Keys   int64
	// selfEach keeps each call's self time for per-call medians.
	selfEach []float64
	// kids is the total number of child spans (fan-out per call).
	kids int64
}

func totalsByName(spans []span) map[string]*layerTotals {
	self := selfTimes(spans)
	out := map[string]*layerTotals{}
	get := func(name string) *layerTotals {
		lt := out[name]
		if lt == nil {
			lt = &layerTotals{}
			out[name] = lt
		}
		return lt
	}
	for i, s := range spans {
		lt := get(s.Name)
		lt.Calls++
		lt.DurNS += s.End - s.Start
		lt.SelfNS += self[i]
		lt.Keys += int64(s.Keys)
		lt.selfEach = append(lt.selfEach, float64(self[i]))
		if s.Parent >= 0 {
			get(spans[s.Parent].Name).kids++
		}
	}
	return out
}

// writeChromeTrace writes the spans as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto).
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int32          `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(spans))
	for i, s := range spans {
		events = append(events, event{
			Name: s.Name, Ph: "X",
			TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			PID: 1, TID: s.Lane,
			Args: map[string]any{"id": i, "parent": s.Parent, "query": s.Query, "keys": s.Keys, "points": s.Points},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// scope is what a decorator publishes about the call it currently has
// open, so the decorators below it can name their parent. The seams carry
// no context of the benchmark's own (FetchPolys and Prune take none), so
// the link is structural: every decorator knows the one decorator above
// it, and that one has a single call open at a time on the closed-loop
// workloads. Where two clients share a daemon the daemon-side decorators
// have no parent scope and record parent and query as unknown.
type scope struct {
	open  atomic.Int32
	query atomic.Int32
}

func newScope() *scope {
	s := &scope{}
	s.open.Store(-1)
	s.query.Store(-1)
	return s
}

// The operations a decorator can see at its seam.
const (
	opEval = iota
	opFetch
	opPrune
	opShare
	opPacked
	numOps
)

var opSuffix = [numOps]string{".eval", ".fetch", ".prune", ".share", ".packed"}

// tap holds what every decorator needs to record a span under its parent.
type tap struct {
	tr     *tracer
	names  [numOps]string // span name per operation, built once
	parent *scope         // nil when the seam cannot know its caller
	self   *scope
	lane   int32
}

// newTap makes a decorator's recording half. self is the scope the
// decorator publishes its open call in; the topology builder passes one in
// when the decorators below were built first and already point at it.
func newTap(tr *tracer, name string, parent, self *scope) tap {
	if self == nil {
		self = newScope()
	}
	t := tap{tr: tr, parent: parent, self: self, lane: tr.lanes.Add(1)}
	for op, suffix := range opSuffix {
		t.names[op] = name + suffix
	}
	return t
}

func (t *tap) begin(op, keys, points int) int32 {
	parent, query := int32(-1), int32(-1)
	if t.parent != nil {
		parent, query = t.parent.open.Load(), t.parent.query.Load()
	}
	id := t.tr.begin(t.names[op], parent, query, t.lane, keys, points)
	t.self.query.Store(query)
	t.self.open.Store(id)
	return id
}

func (t *tap) end(id int32) {
	t.tr.end(id)
	t.self.open.CompareAndSwap(id, -1)
}

// apiTap decorates a core.ServerAPI (and server.Store) seam. It forwards
// every call unchanged — including the optional context-carrying
// evaluation — so the decorated topology runs the same code path.
type apiTap struct {
	tap
	inner core.ServerAPI
	ring  ring.Ring
	// sample, when non-nil, receives the arguments and answers of calls so
	// the codec and tag-recovery kernels run on the workload's own data.
	sample *callSample
}

func newAPITap(tr *tracer, name string, parent, self *scope, inner core.ServerAPI, r ring.Ring) *apiTap {
	return &apiTap{tap: newTap(tr, name, parent, self), inner: inner, ring: r}
}

// Ring makes the tap a server.Store when its inner API is one.
func (a *apiTap) Ring() ring.Ring { return a.ring }

func (a *apiTap) EvalNodes(keys []drbg.NodeKey, points []*big.Int) ([]core.NodeEval, error) {
	id := a.begin(opEval, len(keys), len(points))
	out, err := a.inner.EvalNodes(keys, points)
	a.end(id)
	if a.sample != nil && err == nil {
		a.sample.eval(out)
	}
	return out, err
}

func (a *apiTap) EvalNodesCtx(ctx context.Context, keys []drbg.NodeKey, points []*big.Int) ([]core.NodeEval, error) {
	id := a.begin(opEval, len(keys), len(points))
	out, err := core.EvalNodesWithCtx(ctx, a.inner, keys, points)
	a.end(id)
	if a.sample != nil && err == nil {
		a.sample.eval(out)
	}
	return out, err
}

func (a *apiTap) FetchPolys(keys []drbg.NodeKey) ([]core.NodePoly, error) {
	id := a.begin(opFetch, len(keys), 0)
	out, err := a.inner.FetchPolys(keys)
	a.end(id)
	if a.sample != nil && err == nil {
		a.sample.fetch(keys, out)
	}
	return out, err
}

func (a *apiTap) Prune(keys []drbg.NodeKey) error {
	id := a.begin(opPrune, len(keys), 0)
	err := a.inner.Prune(keys)
	a.end(id)
	return err
}

var (
	_ core.ServerAPI = (*apiTap)(nil)
	_ core.CtxEvaler = (*apiTap)(nil)
)

// callSample keeps a bounded sample of one client's calls.
type callSample struct {
	mu sync.Mutex
	// largest evaluation answer seen (the frame the codec kernels replay).
	evalAnswers []core.NodeEval
	// fetches holds (node, children...) key sets of tag recoveries with the
	// answers the server returned for them.
	fetchKeys    [][]drbg.NodeKey
	fetchAnswers [][]core.NodePoly
	fetchSeen    int
}

// One fetch in fetchStride is kept, up to maxFetchSamples: a pass over the
// large document recovers ~8k tags, so the sample spans a whole pass.
const (
	fetchStride     = 16
	maxFetchSamples = 512
)

func (c *callSample) eval(out []core.NodeEval) {
	c.mu.Lock()
	if len(out) > len(c.evalAnswers) {
		c.evalAnswers = out
	}
	c.mu.Unlock()
}

func (c *callSample) fetch(keys []drbg.NodeKey, out []core.NodePoly) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.fetchSeen++
	if c.fetchSeen%fetchStride == 1 && len(c.fetchKeys) < maxFetchSamples {
		c.fetchKeys = append(c.fetchKeys, keys)
		c.fetchAnswers = append(c.fetchAnswers, out)
	}
}

// shareTap decorates the client's share source. The engine type-asserts
// for the multi-point and packed extensions, so the tap offers both and
// forwards them to the inner source, which has both.
type shareTap struct {
	tap
	inner interface {
		sharing.MultiPointSource
		sharing.PackedShareSource
	}
}

func (s *shareTap) Share(key drbg.NodeKey) (poly.Poly, error) {
	id := s.begin(opShare, 1, 0)
	p, err := s.inner.Share(key)
	s.end(id)
	return p, err
}

func (s *shareTap) EvalShare(key drbg.NodeKey, a *big.Int) (*big.Int, error) {
	id := s.begin(opEval, 1, 1)
	v, err := s.inner.EvalShare(key, a)
	s.end(id)
	return v, err
}

func (s *shareTap) EvalShares(key drbg.NodeKey, points []*big.Int) ([]*big.Int, error) {
	id := s.begin(opEval, 1, len(points))
	v, err := s.inner.EvalShares(key, points)
	s.end(id)
	return v, err
}

func (s *shareTap) PackedShare(key drbg.NodeKey) ([]uint64, bool, error) {
	id := s.begin(opPacked, 1, 0)
	v, ok, err := s.inner.PackedShare(key)
	s.end(id)
	return v, ok, err
}

var (
	_ sharing.MultiPointSource  = (*shareTap)(nil)
	_ sharing.PackedShareSource = (*shareTap)(nil)
)
