package main

import (
	"context"
	"crypto/rand"
	"fmt"
	"io"
	"math/big"
	"net"
	"path/filepath"
	"time"

	"sssearch"
	"sssearch/internal/client"
	"sssearch/internal/coalesce"
	"sssearch/internal/core"
	"sssearch/internal/mapping"
	"sssearch/internal/metrics"
	"sssearch/internal/poly"
	"sssearch/internal/polyenc"
	"sssearch/internal/ring"
	"sssearch/internal/server"
	"sssearch/internal/shard"
	"sssearch/internal/sharing"
	"sssearch/internal/store"
	"sssearch/internal/xmltree"
	"sssearch/internal/xpath"
)

// Span names: the layer (module) name, then the seam. The decorator
// appends the operation (.eval, .fetch, .prune, ...).
const (
	spanQuery       = "core.query"
	spanShares      = "sharing.share"
	spanRouter      = "shard.router"
	spanMultiServer = "core.multiserver"
	spanRemote      = "client.remote"
	spanCoalesce    = "coalesce.server"
	spanGuard       = "shard.guard"
	spanLocal       = "server.local"

	// Direct calls into one layer, outside the query path.
	spanParse      = "xmltree.parse"
	spanEncode     = "polyenc.encode"
	spanSplit      = "sharing.split"
	spanMultiShare = "sharing.multishare"
	spanSave       = "store.save"
	spanLoad       = "store.load"
	spanNewLocal   = "server.new_local"
)

// tracedClient is one closed-loop caller of the decorated topology.
type tracedClient struct {
	eng      *core.Engine
	root     *scope // the query span currently open on this client
	lane     int32
	counters *metrics.Counters
	// calls samples what the engine sees at its ServerAPI (tag recoveries);
	// frames samples what one wire connection carries (codec kernels).
	calls  *callSample
	frames *callSample
}

// tracedTopo is the workload's topology rebuilt from the internal
// constructors the public API uses, with one decorator at each seam.
type tracedTopo struct {
	tr      *tracer
	ring    ring.Ring
	mapping *mapping.Map
	enc     *polyenc.Tree // kept for the tag-recovery kernel

	clients    []*tracedClient
	conns      []io.Closer
	daemons    []*server.Daemon
	locals     []*server.Local
	coalescers []*coalesce.Server
}

func (t *tracedTopo) close() error {
	var first error
	for _, c := range t.conns {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, d := range t.daemons {
		ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
		if err := d.Shutdown(ctx); err != nil && first == nil {
			first = err
		}
		cancel()
	}
	t.conns, t.daemons = nil, nil
	return first
}

// timed records fn as a span with no parent: a direct call into one layer.
func (tr *tracer) timed(name string, fn func() error) error {
	id := tr.begin(name, -1, -1, 0, 0, 0)
	err := fn()
	tr.end(id)
	return err
}

// newRing builds the workload's ring the way sssearch.Outsource does from
// the Config defaults: F_257[x]/(x^256-1), or Z[x]/(x^2+1).
func newRing(kind sssearch.RingKind) (ring.Ring, error) {
	if kind == sssearch.RingFp {
		return ring.NewFpCyclotomic(big.NewInt(257))
	}
	return ring.NewIntQuotient(poly.FromInt64(1, 0, 1))
}

// buildTraced mirrors coldPath(): parse, encode, split, (share and shard,)
// save, load, serve, dial — each step a direct call into its layer, timed
// as a span — and puts a decorator at every seam of the query path.
func buildTraced(in *inputs, dir string, tr *tracer) (_ *tracedTopo, err error) {
	t := &tracedTopo{tr: tr}
	defer func() {
		if err != nil {
			t.close()
		}
	}()
	if t.ring, err = newRing(in.spec.Ring); err != nil {
		return nil, err
	}
	r := t.ring

	var doc *xmltree.Node
	if err = tr.timed(spanParse, func() (e error) {
		doc, e = xmltree.ParseString(in.xml)
		return e
	}); err != nil {
		return nil, err
	}
	if t.mapping, err = mapping.New(r.MaxTag(), mappingSecret); err != nil {
		return nil, err
	}
	if err = tr.timed(spanEncode, func() (e error) {
		t.enc, e = polyenc.EncodeWithOpts(r, doc, t.mapping, polyenc.Opts{PackedOnly: true})
		return e
	}); err != nil {
		return nil, err
	}
	// The split tree is served from its saved and reloaded copy, as in
	// coldPath(); it is not kept.
	var split *sharing.Tree
	if err = tr.timed(spanSplit, func() (e error) {
		split, e = sharing.SplitWithOpts(t.enc, in.cfgSeed, sharing.SplitOpts{})
		return e
	}); err != nil {
		return nil, err
	}

	shared := sharing.NewSharedPadCache(r, in.cfgSeed)
	switch in.spec.Topo {
	case topoLocal:
		tree, err := t.saveLoad(filepath.Join(dir, "server.sss"), split)
		if err != nil {
			return nil, err
		}
		local, err := t.newLocal(tree)
		if err != nil {
			return nil, err
		}
		c := t.newClient()
		top := newAPITap(tr, spanLocal, c.root, nil, local, r)
		top.sample = c.calls
		t.attach(c, shared, top)

	case topoTCP:
		tree, err := t.saveLoad(filepath.Join(dir, "server.sss"), split)
		if err != nil {
			return nil, err
		}
		// One client: its remote is the daemon-side spans' parent. Two
		// clients share the daemon, which then cannot know its caller.
		var link *scope
		if in.spec.Clients == 1 {
			link = newScope()
		}
		addr, err := t.serve(tree, nil, 0, link)
		if err != nil {
			return nil, err
		}
		for i := 0; i < in.spec.Clients; i++ {
			c := t.newClient()
			top, err := t.dial(addr, c, c.root, link)
			if err != nil {
				return nil, err
			}
			top.sample = c.calls
			c.frames = c.calls
			t.attach(c, shared, top)
		}

	case topoFabric:
		fp := r.(*ring.FpCyclotomic)
		var members []sharing.ServerShare
		if err = tr.timed(spanMultiShare, func() (e error) {
			members, e = sharing.MultiShare(r, split, fabricThreshold, fabricMembers, rand.Reader)
			return e
		}); err != nil {
			return nil, err
		}
		man, err := shard.Plan(members[0].Tree, fabricShards)
		if err != nil {
			return nil, err
		}
		c := t.newClient()
		routerScope := newScope()
		groups := make([][]core.MultiMember, fabricShards)
		msScopes := make([]*scope, fabricShards)
		for s := range msScopes {
			msScopes[s] = newScope()
		}
		for m, member := range members {
			trees, err := shard.PartitionWithManifest(member.Tree, man)
			if err != nil {
				return nil, err
			}
			for s, tree := range trees {
				path := filepath.Join(dir, fmt.Sprintf("member%d-shard%d.sss", m, s))
				loaded, loadedMan, id, err := t.saveLoadShard(path, tree, man, s)
				if err != nil {
					return nil, err
				}
				link := newScope()
				addr, err := t.serve(loaded, loadedMan, id, link)
				if err != nil {
					return nil, err
				}
				remote, err := t.dial(addr, c, msScopes[s], link)
				if err != nil {
					return nil, err
				}
				if c.frames == nil {
					c.frames = &callSample{}
					remote.sample = c.frames
				}
				groups[s] = append(groups[s], core.MultiMember{X: member.X, API: remote})
			}
		}
		backends := make([]core.ServerAPI, fabricShards)
		for s, group := range groups {
			ms, err := core.NewMultiServer(fp, fabricThreshold, group)
			if err != nil {
				return nil, err
			}
			backends[s] = newAPITap(tr, spanMultiServer, routerScope, msScopes[s], ms, r)
		}
		router, err := shard.NewRouter(man, backends)
		if err != nil {
			return nil, err
		}
		top := newAPITap(tr, spanRouter, c.root, routerScope, router, r)
		top.sample = c.calls
		t.attach(c, shared, top)
	}
	return t, nil
}

func (t *tracedTopo) newClient() *tracedClient {
	c := &tracedClient{root: newScope(), lane: t.tr.lanes.Add(1), counters: &metrics.Counters{}, calls: &callSample{}}
	t.clients = append(t.clients, c)
	return c
}

// attach gives a client its engine, the way ClientKey.newSession does:
// a seed client on the key's shared pad cache, tallying into the
// session's counters.
func (t *tracedTopo) attach(c *tracedClient, shared *sharing.SharedPadCache, api core.ServerAPI) {
	shares := shared.NewClient()
	shares.SetCounters(c.counters)
	st := &shareTap{tap: newTap(t.tr, spanShares, c.root, nil), inner: shares}
	c.eng = core.NewEngineWithShares(t.ring, st, t.mapping, api, c.counters)
}

func (t *tracedTopo) saveLoad(path string, tree *sharing.Tree) (loaded *sharing.Tree, err error) {
	if err = t.tr.timed(spanSave, func() error { return store.SaveServer(path, t.ring, tree) }); err != nil {
		return nil, err
	}
	err = t.tr.timed(spanLoad, func() (e error) {
		_, loaded, e = store.LoadServer(path)
		return e
	})
	return loaded, err
}

func (t *tracedTopo) saveLoadShard(path string, tree *sharing.Tree, man *shard.Manifest, id int) (loaded *sharing.Tree, loadedMan *shard.Manifest, loadedID int, err error) {
	if err = t.tr.timed(spanSave, func() error { return store.SaveShard(path, t.ring, tree, man, id) }); err != nil {
		return nil, nil, 0, err
	}
	err = t.tr.timed(spanLoad, func() (e error) {
		_, loaded, loadedMan, loadedID, e = store.LoadShard(path)
		return e
	})
	return loaded, loadedMan, loadedID, err
}

func (t *tracedTopo) newLocal(tree *sharing.Tree) (local *server.Local, err error) {
	err = t.tr.timed(spanNewLocal, func() (e error) {
		local, e = server.NewLocal(t.ring, tree)
		return e
	})
	if err == nil {
		t.locals = append(t.locals, local)
	}
	return local, err
}

// serve puts a loaded tree behind the stack a public Serve* call builds —
// Local, (Guard,) coalescer, daemon — decorated at each seam. caller is
// the scope of the one remote that will dial this daemon, nil when several
// clients share it.
func (t *tracedTopo) serve(tree *sharing.Tree, man *shard.Manifest, id int, caller *scope) (string, error) {
	local, err := t.newLocal(tree)
	if err != nil {
		return "", err
	}
	r := t.ring
	coScope := newScope()
	var inner core.ServerAPI
	if man == nil {
		inner = newAPITap(t.tr, spanLocal, coScope, nil, local, r)
	} else {
		guardScope := newScope()
		guard, err := shard.NewGuard(r, newAPITap(t.tr, spanLocal, guardScope, nil, local, r), man, id)
		if err != nil {
			return "", err
		}
		inner = newAPITap(t.tr, spanGuard, coScope, guardScope, guard, r)
	}
	co := coalesce.New(inner, nil)
	t.coalescers = append(t.coalescers, co)
	d := server.NewDaemon(newAPITap(t.tr, spanCoalesce, caller, coScope, co, r), nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	t.daemons = append(t.daemons, d)
	go func() { _ = d.Serve(l) }() // returns when Shutdown closes the listener
	return l.Addr().String(), nil
}

// dial connects a client to a daemon and decorates the connection.
func (t *tracedTopo) dial(addr string, c *tracedClient, parent, self *scope) (*apiTap, error) {
	remote, err := client.Dial(addr, c.counters)
	if err != nil {
		return nil, err
	}
	t.conns = append(t.conns, remote)
	return newAPITap(t.tr, spanRemote, parent, self, remote, t.ring), nil
}

// query runs one search through a traced client inside a core.query span
// and checks the answer against the oracle.
func (c *tracedClient) query(tr *tracer, qid int32, q *query, t *tally) (metrics.Snapshot, float64) {
	id := tr.begin(spanQuery, -1, qid, c.lane, 0, 0)
	c.root.query.Store(qid)
	c.root.open.Store(id)
	start := time.Now()
	var res *core.Result
	parsed, err := xpath.Parse(q.Expr)
	if err == nil {
		res, err = c.eng.Query(parsed, core.Opts{Verify: core.VerifyResolve})
	}
	ms := float64(time.Since(start)) / 1e6
	tr.end(id)
	c.root.open.Store(-1)
	switch {
	case err != nil:
		t.fail("traced %s: %v", q.Expr, err)
		return metrics.Snapshot{}, ms
	case len(res.Unresolved) != 0 || !sameKeys(res.Matches, q.want):
		t.fail("traced %s: answer differs from the plaintext oracle", q.Expr)
	default:
		t.ok()
	}
	return res.Stats, ms
}

// tracedResult is one traced run of one workload.
type tracedResult struct {
	Workload string             `json:"workload"`
	Passes   int                `json:"passes"`
	Queries  int                `json:"traced_queries"`
	Spans    int                `json:"spans"`
	Layers   map[string]float64 `json:"per_layer"`
	Counts   map[string]float64 `json:"exact_counts_per_query"`
	// QueryWallMS is the mean traced Engine.Query wall time, and
	// LayerSumMS the sum of the layers' mean self times inside it: the two
	// agree when every part of the query path is attributed to a layer.
	QueryWallMS float64 `json:"query_wall_ms"`
	LayerSumMS  float64 `json:"layer_self_sum_ms"`
	Attempted   int64   `json:"attempted"`
	Failed      int64   `json:"failed"`
	FirstErr    string  `json:"first_error,omitempty"`

	queryMedianMS []float64
	spans         []span
}

// tracedPasses is how many passes over the query list a traced run times.
const tracedPasses = 3

// runTraced builds the decorated topology, warms it exactly as measure()
// does, and times up to tracedPasses whole passes (fewer once the budget
// is spent, never less than one).
func runTraced(in *inputs, dir string, budget time.Duration) (*tracedResult, error) {
	tr := newTracer()
	var t tally
	res := &tracedResult{Workload: in.spec.Name}
	began := time.Now()

	warm := func(topo *tracedTopo) {
		topo.clients[0].query(tr, -1, &in.first, &t)
		for _, c := range topo.clients {
			for qi := range in.queries {
				c.query(tr, -1, &in.queries[qi], &t)
			}
		}
	}
	topo, err := buildTraced(in, dir, tr)
	if err != nil {
		return nil, fmt.Errorf("traced build: %w", err)
	}
	defer func() { topo.close() }()
	warm(topo)

	mark := tr.mark()
	var w timedWindow
	more := func(passes int) bool {
		return passes < tracedPasses && (passes == 0 || time.Since(began) < budget)
	}
	if in.spec.Rebuild {
		// Every pass rebuilds, so the build spans after the mark are one
		// sample per pass and the queries run cold.
		for more(w.passes) {
			if err := topo.close(); err != nil {
				return nil, fmt.Errorf("teardown: %w", err)
			}
			if topo, err = buildTraced(in, dir, tr); err != nil {
				return nil, fmt.Errorf("traced pass %d: %w", w.passes, err)
			}
			c := topo.clients[0]
			c.query(tr, -1, &in.first, &t)
			ms := make([]float64, len(in.queries))
			var stats metrics.Snapshot
			for qi := range in.queries {
				s, d := c.query(tr, int32(w.passes*len(in.queries)+qi), &in.queries[qi], &t)
				ms[qi] = d
				stats = stats.Add(s)
			}
			w.addPass(ms, stats)
		}
	} else {
		callers := make([]caller, len(topo.clients))
		for ci, c := range topo.clients {
			ci, c := ci, c
			callers[ci] = caller{
				ask: func(pass, pos int, q *query, t *tally) (metrics.Snapshot, float64) {
					// Query ids are unique across clients: the client index
					// sits in the low digits.
					id := (pass*len(in.queries)+pos)*len(topo.clients) + ci
					return c.query(tr, int32(id), q, t)
				},
				counters: c.counters.Snapshot,
			}
		}
		w = closedLoops(callers, in.queries, more)
		t.add(w.t)
	}
	res.Passes = w.passes
	res.queryMedianMS, res.Queries = w.queryMedians()

	res.spans = tr.since(mark)
	res.Spans = len(res.spans)
	res.Counts = exactCounts(w.stats, w.passes, len(in.queries))
	if w.wireFirstPass == 0 {
		res.Counts["wire_bytes_per_query"] = payloadBytes(w.stats) / float64(res.Queries)
	} else {
		res.Counts["wire_bytes_per_query"] = float64(w.wireFirstPass) / float64(len(in.queries)*len(topo.clients))
	}
	res.Layers = layerMetrics(in, topo, res, w.stats, tr)
	for k, v := range kernelMetrics(in, topo) {
		res.Layers[k] = v
	}
	res.Layers["core.tag_recover_est_ms"] = res.Counts["core.tags_recovered_per_query"] * res.Layers["polyenc.recover_tag_us"] / 1e3
	res.Attempted, res.Failed, res.FirstErr = t.attempted, t.failed, t.firstErr
	return res, nil
}

// layerMetrics turns the spans of the timed passes into per-layer numbers,
// each a mean per traced query unless its name says otherwise.
func layerMetrics(in *inputs, topo *tracedTopo, res *tracedResult, stats metrics.Snapshot, tr *tracer) map[string]float64 {
	by := totalsByName(res.spans)
	q := float64(res.Queries)
	// sum adds up one field over every operation of a seam.
	sum := func(prefix string, field func(*layerTotals) int64) (total int64) {
		for _, suffix := range opSuffix {
			if lt := by[prefix+suffix]; lt != nil {
				total += field(lt)
			}
		}
		return total
	}
	dur := func(prefix string) float64 {
		return float64(sum(prefix, func(l *layerTotals) int64 { return l.DurNS }))
	}
	self := func(prefix string) float64 {
		return float64(sum(prefix, func(l *layerTotals) int64 { return l.SelfNS }))
	}
	calls := func(prefix string) float64 {
		return float64(sum(prefix, func(l *layerTotals) int64 { return l.Calls }))
	}
	kids := func(prefix string) float64 {
		return float64(sum(prefix, func(l *layerTotals) int64 { return l.kids }))
	}
	ms := func(ns float64) float64 { return ns / 1e6 / q }
	ratio := func(a, b int64) float64 {
		if a+b == 0 {
			return 0
		}
		return float64(a) / float64(a+b)
	}
	perCall := func(total, n float64) float64 {
		if n == 0 {
			return 0
		}
		return total / n
	}

	m := map[string]float64{}
	for k, v := range res.Counts {
		if k != "wire_bytes_per_query" {
			m[k] = v
		}
	}

	queryDur := float64(by[spanQuery].DurNS)
	m["core.query_self_ms"] = ms(float64(by[spanQuery].SelfNS))
	m["sharing.client_share_ms"] = ms(dur(spanShares))
	m["sharing.client_share_calls_per_query"] = calls(spanShares) / q

	// The transport leg is what a remote call costs beyond the daemon-side
	// store call it carries: encode, socket, dispatch, admission, writer
	// queue, decode. Totals are subtracted, not parent-linked spans, so the
	// figure also holds where two clients share a daemon.
	remote, daemonStore := dur(spanRemote), dur(spanCoalesce)
	m["client.remote_call_ms"] = ms(remote)
	m["client.remote_calls_per_query"] = calls(spanRemote) / q
	wireSelf := 0.0
	if remote > 0 {
		wireSelf = remote - daemonStore
	}
	m["wire.roundtrip_self_ms"] = ms(wireSelf)
	m["wire.rtt_us"] = rttMicros(by, in.spec.Clients == 1, wireSelf, calls(spanRemote))
	m["wire.bytes_per_round"] = perCall(res.Counts["wire_bytes_per_query"], res.Counts["core.rounds_per_query"])
	if remote == 0 {
		m["wire.bytes_per_round"] = 0
	}

	// Below the coalescer sits the guard on the fabric, the store elsewhere.
	below := dur(spanGuard)
	if below == 0 {
		below = dur(spanLocal)
	}
	coSelf := 0.0
	if daemonStore > 0 {
		coSelf = daemonStore - below
		if coSelf < 0 {
			// Merged passes serve several requests at once; their store
			// time is then counted once against several request spans.
			coSelf = 0
		}
	}
	m["coalesce.self_ms"] = ms(coSelf)
	var co metrics.Snapshot
	for _, c := range topo.coalescers {
		co = co.Add(c.Counters().Snapshot())
	}
	outerKeys := sum(spanCoalesce, func(l *layerTotals) int64 { return l.Keys })
	m["coalesce.dedup_hit_ratio"] = perCall(float64(co.CoalesceDedupHits), float64(outerKeys))
	innerEvals := by[spanGuard+opSuffix[opEval]]
	if innerEvals == nil {
		innerEvals = by[spanLocal+opSuffix[opEval]]
	}
	m["coalesce.requests_per_batch"] = 0
	if outer := by[spanCoalesce+opSuffix[opEval]]; outer != nil && innerEvals != nil {
		m["coalesce.requests_per_batch"] = perCall(float64(outer.Calls), float64(innerEvals.Calls))
	}

	guardSelf := 0.0
	if g := dur(spanGuard); g > 0 {
		guardSelf = g - dur(spanLocal)
	}
	m["shard.guard_self_ms"] = ms(guardSelf)
	m["server.store_eval_ms"], m["server.store_fetch_ms"] = 0, 0
	if lt := by[spanLocal+opSuffix[opEval]]; lt != nil {
		m["server.store_eval_ms"] = ms(float64(lt.DurNS))
	}
	if lt := by[spanLocal+opSuffix[opFetch]]; lt != nil {
		m["server.store_fetch_ms"] = ms(float64(lt.DurNS))
	}
	var sv metrics.Snapshot
	for _, l := range topo.locals {
		sv = sv.Add(l.Counters().Snapshot())
	}
	m["server.eval_cache_hit_ratio"] = ratio(sv.EvalCacheHits, sv.EvalCacheMiss)

	m["shard.router_self_ms"] = ms(self(spanRouter))
	m["shard.fanout_per_call"] = perCall(kids(spanRouter), calls(spanRouter))
	m["core.multiserver_self_ms"] = ms(self(spanMultiServer))
	m["core.multiserver_member_wait_ms"] = ms(dur(spanMultiServer) - self(spanMultiServer))

	m["sharing.pad_hit_ratio"] = ratio(stats.PadCacheHits+stats.SharedPadHits, stats.PadCacheMiss+stats.SharedPadMiss)
	m["sharing.share_eval_hit_ratio"] = ratio(stats.ShareEvalHits, stats.ShareEvalMiss)

	// Direct calls: one span per build (per pass on the rebuilding
	// workload), reported as the median call. They are looked up in the
	// whole run: the first build happens before the timed passes.
	direct := func(name string) float64 { return median(tr.durations(name)) / 1e6 }
	m["xmltree.parse_ms"] = direct(spanParse)
	m["polyenc.encode_ms"] = direct(spanEncode)
	m["sharing.split_ms"] = direct(spanSplit)
	m["sharing.multishare_ms"] = direct(spanMultiShare)
	m["store.save_ms"] = direct(spanSave)
	m["store.load_ms"] = direct(spanLoad)
	m["server.new_local_ms"] = direct(spanNewLocal)

	res.QueryWallMS = ms(queryDur)
	res.LayerSumMS = m["core.query_self_ms"] + m["sharing.client_share_ms"] +
		ms(self(spanRouter)) + ms(self(spanMultiServer)) +
		m["wire.roundtrip_self_ms"] + m["coalesce.self_ms"] + m["shard.guard_self_ms"] +
		m["server.store_eval_ms"] + m["server.store_fetch_ms"]
	return m
}

// rttMicros is the transport leg of one call: the median over remote calls
// of the call's time minus the daemon-side span it caused, where the two
// can be linked; the mean where two clients share the daemon and they
// cannot.
func rttMicros(by map[string]*layerTotals, linked bool, wireSelfNS, calls float64) float64 {
	if calls == 0 {
		return 0
	}
	if !linked {
		return wireSelfNS / calls / 1e3
	}
	var each []float64
	for _, suffix := range opSuffix {
		if lt := by[spanRemote+suffix]; lt != nil {
			each = append(each, lt.selfEach...)
		}
	}
	return median(each) / 1e3
}
