package experiments

import (
	"crypto/sha256"
	"fmt"
	"io"
	"math/big"
	"net"
	"sync"
	"time"

	"sssearch/internal/client"
	"sssearch/internal/coalesce"
	"sssearch/internal/core"
	"sssearch/internal/drbg"
	"sssearch/internal/mapping"
	"sssearch/internal/metrics"
	"sssearch/internal/polyenc"
	"sssearch/internal/ring"
	"sssearch/internal/server"
	"sssearch/internal/sharing"
	"sssearch/internal/workload"
)

func init() {
	register(Experiment{
		ID: "coalesce", Ref: "cross-session batching (throughput scaling)",
		Title: "request coalescing: N hot-key sessions vs one shared evaluation pass",
		Run:   runCoalesce,
	})
}

// QueryMode selects the cross-session end-to-end stack under measurement.
type QueryMode int

const (
	// QueryBaseline is the PR 4 stack: private per-session pad caches,
	// bare shared Local (no coalescing).
	QueryBaseline QueryMode = iota
	// QueryCoalesced adds the server-side coalescer but keeps private
	// per-session pad caches — the PR 5 stack, whose end-to-end gain was
	// diluted by per-session client share arithmetic.
	QueryCoalesced
	// QueryShared is the production default since PR 6: coalesced store
	// plus one cross-session SharedPadCache, so the client-side DRBG and
	// Horner work is also paid once per wave instead of once per session.
	QueryShared
)

func (m QueryMode) String() string {
	switch m {
	case QueryBaseline:
		return "baseline"
	case QueryCoalesced:
		return "coalesced"
	case QueryShared:
		return "shared"
	default:
		return "invalid"
	}
}

// CoalesceQueryWorkload is the cross-session read-path fixture behind
// the coalesceQuery bench target and BenchmarkCoalesceQuery16: a
// capacity-scale F_257 document queried by N concurrent seed-only
// sessions that all chase the SAME hot key at the same moment — the
// trending-query pattern — while the hot key rotates across rounds, so
// the (node × point) working set overflows the server's eval LRU and
// every round costs real evaluation passes (at catalog scale the cache
// cannot absorb the whole vocabulary). PRs 1–4 paid those passes once
// per session; the coalescer drains the concurrent frames into shared
// deduplicated passes and pays them once per round; the shared client
// cache (QueryShared) does the same for the per-session share
// regeneration and evaluation work that diluted the PR 5 gain.
type CoalesceQueryWorkload struct {
	engines []*core.Engine
	vocab   int
	round   int
	coal    *coalesce.Server        // nil when uncoalesced (the PR 4 baseline)
	shared  *sharing.SharedPadCache // non-nil in QueryShared
	// counters aggregates every session's engine tallies (shared-cache
	// hits/misses/singleflight included) for the workload report.
	counters *metrics.Counters
}

// coalesceDocNodes/coalesceDocVocab size the workload document so that
// nodes × vocabulary exceeds server.DefaultEvalCacheEntries — the
// serving regime where cross-session sharing is worth real evaluation
// work, not just cache lookups.
const (
	coalesceDocNodes = 4000
	coalesceDocVocab = 30
)

// coalesceStore is the shared fixture both coalesce workloads build: the
// capacity-scale document, its mapping/seed, and a Local over the server
// share tree.
type coalesceStore struct {
	fp    *ring.FpCyclotomic
	m     *mapping.Map
	seed  drbg.Seed
	local *server.Local
	keys  []drbg.NodeKey
}

func newCoalesceStore() (*coalesceStore, error) {
	fp := ring.MustFp(257)
	doc := workload.RandomTree(workload.TreeConfig{Nodes: coalesceDocNodes, MaxFanout: 4, Vocab: coalesceDocVocab, Seed: 1234})
	m, err := mapping.New(fp.MaxTag(), []byte("bench-coalesce-query"))
	if err != nil {
		return nil, err
	}
	enc, err := polyenc.EncodeWithOpts(fp, doc, m, polyenc.Opts{PackedOnly: true})
	if err != nil {
		return nil, err
	}
	seed := drbg.Seed(sha256.Sum256([]byte("bench-coalesce-query")))
	tree, err := sharing.Split(enc, seed)
	if err != nil {
		return nil, err
	}
	local, err := server.NewLocal(fp, tree)
	if err != nil {
		return nil, err
	}
	st := &coalesceStore{fp: fp, m: m, seed: seed, local: local}
	enc.Walk(func(key drbg.NodeKey, _ *polyenc.Node) bool {
		st.keys = append(st.keys, key)
		return true
	})
	return st, nil
}

// point resolves the round's rotating hot tag to its evaluation point.
func (st *coalesceStore) point(round int) (*big.Int, error) {
	tag := fmt.Sprintf("t%d", round%coalesceDocVocab)
	v, ok := st.m.Value(tag)
	if !ok {
		var err error
		if v, err = st.m.Assign(tag); err != nil {
			return nil, err
		}
	}
	return v, nil
}

// NewCoalesceQueryWorkload wires n sessions over one shared store in the
// given mode (see QueryMode).
func NewCoalesceQueryWorkload(n int, mode QueryMode) (*CoalesceQueryWorkload, error) {
	st, err := newCoalesceStore()
	if err != nil {
		return nil, err
	}
	w := &CoalesceQueryWorkload{vocab: coalesceDocVocab, counters: &metrics.Counters{}}
	var api core.ServerAPI = st.local
	if mode != QueryBaseline {
		w.coal = coalesce.New(st.local, nil)
		api = w.coal
	}
	if mode == QueryShared {
		w.shared = sharing.NewSharedPadCache(st.fp, st.seed)
	}
	for i := 0; i < n; i++ {
		w.engines = append(w.engines, core.NewEngineShared(st.fp, st.seed, st.m, api, w.counters, w.shared))
	}
	return w, nil
}

// run performs one aggregate round: every session concurrently issues
// the round's hot //tag lookup (the tag rotates per round). Returns the
// total match count (identical across coalesced and uncoalesced stacks
// by construction) and the first error.
func (w *CoalesceQueryWorkload) run() (int, error) {
	tag := fmt.Sprintf("t%d", w.round%w.vocab)
	w.round++
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		matches int
		first   error
	)
	for _, eng := range w.engines {
		wg.Add(1)
		go func(eng *core.Engine) {
			defer wg.Done()
			// VerifyNone is the paper's trusted-server serving mode — the
			// configuration a throughput-bound deployment runs hot reads
			// in (VerifyResolve spends most of each query in client-side
			// tag recovery, which no server-side change can share).
			res, err := eng.Lookup(tag, core.Opts{Verify: core.VerifyNone})
			mu.Lock()
			defer mu.Unlock()
			if err != nil && first == nil {
				first = err
			}
			if err == nil {
				matches += len(res.Matches)
			}
		}(eng)
	}
	wg.Wait()
	return matches, first
}

// Run is the bench-target iteration (errors only).
func (w *CoalesceQueryWorkload) Run() error {
	_, err := w.run()
	return err
}

// Sessions returns the session count.
func (w *CoalesceQueryWorkload) Sessions() int { return len(w.engines) }

// CoalesceStats returns the coalescer's counter snapshot (zero when
// uncoalesced).
func (w *CoalesceQueryWorkload) CoalesceStats() metrics.Snapshot {
	if w.coal == nil {
		return metrics.Snapshot{}
	}
	return w.coal.Counters().Snapshot()
}

// SharedStats returns the aggregated engine counter snapshot — the
// shared client-cache tallies (pad hits/misses/singleflight, share-eval
// hits/misses) live here.
func (w *CoalesceQueryWorkload) SharedStats() metrics.Snapshot {
	return w.counters.Snapshot()
}

// SharedPadWorkload is the fixture behind the sharedPad bench target and
// BenchmarkSharedPad16: N seed-only clients of ONE seed concurrently
// evaluating their client share on every node of the capacity-scale tree
// at the round's rotating hot point — exactly the per-wave client share
// arithmetic of one hot query, isolated from the server and the protocol.
// With the shared cache all sessions' DRBG regenerations and Horner
// passes collapse into one; the private ablation pays them per session.
type SharedPadWorkload struct {
	st      *coalesceStore
	clients []*sharing.SeedClient
	// counters aggregates all sessions' tallies (hit/miss/singleflight).
	counters *metrics.Counters
	round    int
}

// NewSharedPadWorkload wires n clients over one seed; shared false is the
// private per-session cache ablation (the pre-PR 6 client).
func NewSharedPadWorkload(n int, shared bool) (*SharedPadWorkload, error) {
	st, err := newCoalesceStore()
	if err != nil {
		return nil, err
	}
	w := &SharedPadWorkload{st: st, counters: &metrics.Counters{}}
	var sp *sharing.SharedPadCache
	if shared {
		sp = sharing.NewSharedPadCache(st.fp, st.seed)
	}
	for i := 0; i < n; i++ {
		var c *sharing.SeedClient
		if sp != nil {
			c = sp.NewClient()
		} else {
			c = sharing.NewSeedClient(st.fp, st.seed)
		}
		c.SetCounters(w.counters)
		w.clients = append(w.clients, c)
	}
	return w, nil
}

// run performs one aggregate round: every client concurrently evaluates
// its share on every tree node at the round's hot point. Returns the
// total value count (a cheap integrity probe).
func (w *SharedPadWorkload) run() (int, error) {
	pt, err := w.st.point(w.round)
	if err != nil {
		return 0, err
	}
	w.round++
	points := []*big.Int{pt}
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		values int
		first  error
	)
	for _, c := range w.clients {
		wg.Add(1)
		go func(c *sharing.SeedClient) {
			defer wg.Done()
			n := 0
			for _, key := range w.st.keys {
				vals, err := c.EvalShares(key, points)
				if err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					return
				}
				n += len(vals)
			}
			mu.Lock()
			values += n
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return values, first
}

// Run is the bench-target iteration (errors only).
func (w *SharedPadWorkload) Run() error {
	_, err := w.run()
	return err
}

// Stats returns the aggregated client-cache snapshot.
func (w *SharedPadWorkload) Stats() metrics.Snapshot { return w.counters.Snapshot() }

// ServeMode selects the serving stack under measurement.
type ServeMode int

const (
	// ServeBaseline is the PR 4 deployment: every session its own
	// pipelined connection, plain store behind the daemon.
	ServeBaseline ServeMode = iota
	// ServeCoalesced keeps per-session connections but wraps the store
	// in the daemon-side coalescer, which drains concurrent frames from
	// all connections into shared deduplicated passes.
	ServeCoalesced
	// ServeBatched is the full stack: the sessions share one micro-batched
	// connection pool (client.Batcher over client.Pool), so concurrent
	// waves merge into ~one wire frame, AND the daemon store is coalesced
	// for cross-process traffic.
	ServeBatched
)

func (m ServeMode) String() string {
	switch m {
	case ServeBaseline:
		return "baseline"
	case ServeCoalesced:
		return "coalesced"
	case ServeBatched:
		return "batched"
	default:
		return "invalid"
	}
}

// CoalesceServeWorkload is the serving-path capacity fixture: one real
// daemon on loopback TCP, N client sessions each repeatedly pushing the
// round's hot evaluation wave (every tree node at the rotating hot
// point — the full-scan wave a cold //tag query costs the server). This
// isolates the serving cost this PR attacks: frame encode/decode →
// evaluation passes → response encode, per session in the baseline,
// shared under coalescing/batching.
type CoalesceServeWorkload struct {
	st       *coalesceStore
	sessions []core.ServerAPI // per-session call surface (shared in ServeBatched)
	closers  []io.Closer
	daemon   *server.Daemon
	coal     *coalesce.Server // nil in ServeBaseline
	batcher  *client.Batcher  // non-nil in ServeBatched
	round    int
}

// NewCoalesceServeWorkload starts a daemon over the capacity-scale store
// and wires n sessions in the given mode. Close releases the daemon and
// connections.
func NewCoalesceServeWorkload(n int, mode ServeMode) (*CoalesceServeWorkload, error) {
	st, err := newCoalesceStore()
	if err != nil {
		return nil, err
	}
	w := &CoalesceServeWorkload{st: st}
	var store server.Store = st.local
	if mode != ServeBaseline {
		w.coal = coalesce.New(st.local, nil)
		store = w.coal
	}
	w.daemon = server.NewDaemon(store, nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go func() { _ = w.daemon.Serve(l) }()

	if mode == ServeBatched {
		pool, err := client.DialPool(l.Addr().String(), 2, nil)
		if err != nil {
			w.Close()
			return nil, err
		}
		w.closers = append(w.closers, pool)
		w.batcher = client.NewBatcher(pool, nil)
		for i := 0; i < n; i++ {
			w.sessions = append(w.sessions, w.batcher)
		}
		return w, nil
	}
	for i := 0; i < n; i++ {
		r, err := client.Dial(l.Addr().String(), nil)
		if err != nil {
			w.Close()
			return nil, err
		}
		w.closers = append(w.closers, r)
		w.sessions = append(w.sessions, r)
	}
	return w, nil
}

// run performs one aggregate round: every session concurrently submits
// the hot wave. Returns the summed value count as a cheap integrity
// probe (identical across stacks).
func (w *CoalesceServeWorkload) run() (int, error) {
	pt, err := w.st.point(w.round)
	if err != nil {
		return 0, err
	}
	w.round++
	points := []*big.Int{pt}
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		values int
		first  error
	)
	for _, s := range w.sessions {
		wg.Add(1)
		go func(s core.ServerAPI) {
			defer wg.Done()
			answers, err := s.EvalNodes(w.st.keys, points)
			mu.Lock()
			defer mu.Unlock()
			if err != nil && first == nil {
				first = err
			}
			for _, a := range answers {
				values += a.Len()
			}
		}(s)
	}
	wg.Wait()
	return values, first
}

// Run is one serving round (errors only).
func (w *CoalesceServeWorkload) Run() error {
	_, err := w.run()
	return err
}

// CoalesceStats returns the combined coalescing snapshot: daemon-side
// merges plus (in ServeBatched) client-side micro-batching merges.
func (w *CoalesceServeWorkload) CoalesceStats() metrics.Snapshot {
	var s metrics.Snapshot
	if w.coal != nil {
		s = w.coal.Counters().Snapshot()
	}
	if w.batcher != nil {
		b := w.batcher.Counters().Snapshot()
		s.CoalescedBatches += b.CoalescedBatches
		s.CoalescedRequests += b.CoalescedRequests
		s.CoalesceDedupHits += b.CoalesceDedupHits
	}
	return s
}

// Close shuts the sessions and the daemon down.
func (w *CoalesceServeWorkload) Close() error {
	for _, c := range w.closers {
		c.Close()
	}
	if w.daemon != nil {
		return w.daemon.Close()
	}
	return nil
}

// runnable is the shared timing surface of the two workloads.
type runnable interface{ run() (int, error) }

func timeRounds(w runnable, rounds int) (time.Duration, error) {
	start := time.Now()
	for i := 0; i < rounds; i++ {
		if _, err := w.run(); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// runCoalesce measures cross-session coalescing at two altitudes.
//
// Serving path: one daemon on loopback TCP, N pipelined remote sessions
// all pushing the same rotating hot evaluation wave. The daemon is the
// bottleneck a deployment scales by, and the coalescer turns its N
// per-session evaluation passes into one shared deduplicated pass per
// round — this is where the ≥1.5× aggregate win lives.
//
// End to end: N in-process engine sessions running whole //tag lookups
// against one shared store. Client-side protocol work (share
// regeneration, sum combination) is inherently per-session and dilutes
// the shared-pass win; the table quantifies that dilution honestly.
//
// Answers must be identical coalesced and uncoalesced at both
// altitudes; the dedup counters prove evaluations were actually shared.
func runCoalesce(w io.Writer, cfg Config) error {
	serveRounds, queryRounds := 24, 20
	sessionCounts := []int{4, 16}
	if cfg.Quick {
		serveRounds, queryRounds = 3, 2
		sessionCounts = []int{4}
	}

	fmt.Fprintf(w, "serving path: hot evaluation waves through one daemon (loopback TCP, %d-node tree)\n", coalesceDocNodes)
	serveTable := &Table{Headers: []string{"sessions", "baseline waves/s", "+server coalesce", "speedup", "+client batch", "speedup", "dedup evals/wave"}}
	for _, n := range sessionCounts {
		if err := runServeRow(serveTable, n, serveRounds); err != nil {
			return err
		}
	}
	serveTable.Render(w)

	fmt.Fprintf(w, "\nend to end: full //tag lookups by in-process engine sessions sharing one store\n")
	queryTable := &Table{Headers: []string{"sessions", "baseline q/s", "coalesced q/s", "speedup", "shared q/s", "speedup", "dedup evals/query", "pad regen saved", "horner saved"}}
	for _, n := range sessionCounts {
		if err := runQueryRow(queryTable, n, queryRounds); err != nil {
			return err
		}
	}
	queryTable.Render(w)
	fmt.Fprintf(w, "(hot key rotates over a %d-tag vocabulary so the node×point working set overflows the eval LRU — the capacity regime; every session asks for the SAME key at the same moment and the coalescer drains the concurrent frames into one deduplicated pass. Coalescing alone is diluted by per-session client share arithmetic; the shared column adds the cross-session pad cache, which merges that client work too — 'pad regen saved' counts DRBG regenerations absorbed by the shared pad LRU + singleflight, 'horner saved' the share evaluations answered from the shared eval LRU.)\n", coalesceDocVocab)
	return nil
}

func runServeRow(t *Table, n, rounds int) error {
	modes := []ServeMode{ServeBaseline, ServeCoalesced, ServeBatched}
	wps := make([]float64, len(modes))
	var dedupPerWave float64
	values := -1
	for i, mode := range modes {
		w, err := NewCoalesceServeWorkload(n, mode)
		if err != nil {
			return err
		}
		// Warm-up round doubles as the integrity probe: every stack must
		// serve the identical value set.
		v, err := w.run()
		if err != nil {
			w.Close()
			return err
		}
		if values == -1 {
			values = v
		} else if v != values {
			w.Close()
			return fmt.Errorf("%s serving changed the answers: %d vs %d values", mode, v, values)
		}
		pre := w.CoalesceStats()
		elapsed, err := timeRounds(w, rounds)
		if err != nil {
			w.Close()
			return err
		}
		delta := w.CoalesceStats().Sub(pre)
		w.Close()
		waves := float64(n * rounds)
		wps[i] = waves / elapsed.Seconds()
		if mode != ServeBaseline && delta.CoalesceDedupHits == 0 {
			return fmt.Errorf("coalesce: no deduplicated evaluations at %d %s serving sessions — frames never merged", n, mode)
		}
		if mode == ServeCoalesced {
			dedupPerWave = float64(delta.CoalesceDedupHits) / waves
		}
	}
	t.Add(n,
		fmt.Sprintf("%.1f", wps[0]),
		fmt.Sprintf("%.1f", wps[1]),
		fmt.Sprintf("%.2fx", wps[1]/wps[0]),
		fmt.Sprintf("%.1f", wps[2]),
		fmt.Sprintf("%.2fx", wps[2]/wps[0]),
		fmt.Sprintf("%.0f", dedupPerWave))
	return nil
}

func runQueryRow(t *Table, n, rounds int) error {
	modes := []QueryMode{QueryBaseline, QueryCoalesced, QueryShared}
	qps := make([]float64, len(modes))
	var dedupPerQuery, padSaved, hornerSaved float64
	matches := -1
	queries := float64(n * rounds)
	for i, mode := range modes {
		w, err := NewCoalesceQueryWorkload(n, mode)
		if err != nil {
			return err
		}
		// Warm-up round doubles as the integrity probe: every stack must
		// return the identical match set.
		m, err := w.run()
		if err != nil {
			return err
		}
		if matches == -1 {
			matches = m
		} else if m != matches {
			return fmt.Errorf("%s stack changed results: %d vs %d matches", mode, m, matches)
		}
		preCoal, preShared := w.CoalesceStats(), w.SharedStats()
		elapsed, err := timeRounds(w, rounds)
		if err != nil {
			return err
		}
		qps[i] = queries / elapsed.Seconds()
		coalDelta := w.CoalesceStats().Sub(preCoal)
		if mode != QueryBaseline && coalDelta.CoalesceDedupHits == 0 {
			return fmt.Errorf("coalesce: no deduplicated evaluations at %d %s sessions — frames never merged", n, mode)
		}
		if mode == QueryCoalesced {
			dedupPerQuery = float64(coalDelta.CoalesceDedupHits) / queries
		}
		if mode == QueryShared {
			sd := w.SharedStats().Sub(preShared)
			if sd.SharedPadHits+sd.SharedPadSingleflight == 0 {
				return fmt.Errorf("shared cache: no cross-session pad reuse at %d sessions", n)
			}
			padSaved = float64(sd.SharedPadHits+sd.SharedPadSingleflight) / queries
			hornerSaved = float64(sd.ShareEvalHits) / queries
		}
	}
	t.Add(n,
		fmt.Sprintf("%.0f", qps[0]),
		fmt.Sprintf("%.0f", qps[1]),
		fmt.Sprintf("%.2fx", qps[1]/qps[0]),
		fmt.Sprintf("%.0f", qps[2]),
		fmt.Sprintf("%.2fx", qps[2]/qps[0]),
		fmt.Sprintf("%.1f", dedupPerQuery),
		fmt.Sprintf("%.1f", padSaved),
		fmt.Sprintf("%.1f", hornerSaved))
	return nil
}
