package main

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"

	"sssearch"
)

// A run repeats the cold path (XML text to first verified answer) so that
// setup_s and the set-up-phase timings are medians, not single shots: at
// least setupReps times, and on — up to maxSetupReps — while the
// repetitions have taken less than setupBudget, so the cheap cold paths,
// whose short timings are the noisiest, are repeated most. The warm-up pass
// that completes the set-up runs once, on the last deployment.
const (
	setupReps    = 3
	maxSetupReps = 9
	setupBudget  = 6 * time.Second
)

// e2eResult is one untraced run of one workload: every end-to-end metric,
// the exact per-query protocol counts, and what is needed to compare a
// traced run against it.
type e2eResult struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Nodes    int     `json:"nodes"`
	Queries  int     `json:"queries_in_list"`
	Clients  int     `json:"clients"`
	Passes   int     `json:"passes"`
	Samples  int     `json:"latency_samples"`
	WindowS  float64 `json:"window_s"`
	// P90Beyond is how many latency samples lie above the reported p90;
	// the percentile is supported when it is at least 10. Supported is the
	// highest percentile this run's sample count does support.
	P90Beyond int                `json:"p90_samples_beyond"`
	Supported float64            `json:"highest_supported_percentile"`
	Metrics   map[string]float64 `json:"end_to_end"`
	// Counts are exact per-query protocol counts averaged over complete
	// passes; they repeat bit for bit between runs of one seed.
	Counts    map[string]float64 `json:"exact_counts_per_query"`
	Proc      map[string]float64 `json:"proc"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	FirstErr  string             `json:"first_error,omitempty"`

	// queryMedianMS is each list query's median latency, for the tracing
	// overhead ratio.
	queryMedianMS []float64
}

// caller is one closed-loop caller: how it asks one question of the list
// (pass and position given, so a traced caller can number its queries) and
// where its session's cumulative counters are read.
type caller struct {
	ask      func(pass, pos int, q *query, t *tally) (sssearch.Stats, float64)
	counters func() sssearch.Stats
}

// timedWindow is what the callers of one timed window measured, merged.
type timedWindow struct {
	lat    [][]float64 // per list position, every caller's latencies
	stats  sssearch.Stats
	passes int // summed over callers
	// wireFirstPass is the socket bytes of each caller's first timed pass
	// alone, summed. Request ids are varints that grow with a session's
	// age, so only a pass at a fixed position in the session's life costs
	// the same bytes in every run.
	wireFirstPass int64
	// throughput is queries per second: list length over the median pass
	// time, summed over callers.
	throughput float64
	seconds    float64 // until the last caller finished
	t          tally
}

// addPass records one caller's pass over the list.
func (w *timedWindow) addPass(ms []float64, stats sssearch.Stats) {
	if w.lat == nil {
		w.lat = make([][]float64, len(ms))
	}
	for i, v := range ms {
		w.lat[i] = append(w.lat[i], v)
	}
	w.stats = w.stats.Add(stats)
	w.passes++
}

// queryMedians returns each list position's median latency and the number
// of samples behind them.
func (w *timedWindow) queryMedians() (medians []float64, samples int) {
	for _, l := range w.lat {
		samples += len(l)
		medians = append(medians, median(l))
	}
	return medians, samples
}

// closedLoops runs the callers concurrently. Each is a closed loop: it
// waits for an answer before asking the next question, and works through
// whole passes of the list for as long as more(passes done) holds,
// finishing the pass in progress.
func closedLoops(callers []caller, queries []query, more func(passes int) bool) timedWindow {
	type result struct {
		w     timedWindow
		passS []float64
	}
	results := make([]result, len(callers))
	start := time.Now()
	var wg sync.WaitGroup
	for ci, c := range callers {
		wg.Add(1)
		go func(c caller, r *result) {
			defer wg.Done()
			before := quiesce(c.counters)
			for pass := 0; more(pass); pass++ {
				passStart := time.Now()
				ms := make([]float64, len(queries))
				var stats sssearch.Stats
				for pos := range queries {
					s, d := c.ask(pass, pos, &queries[pos], &r.w.t)
					ms[pos] = d
					stats = stats.Add(s)
				}
				r.passS = append(r.passS, time.Since(passStart).Seconds())
				r.w.addPass(ms, stats)
				if pass == 0 {
					after := quiesce(c.counters)
					r.w.wireFirstPass = after.BytesSent + after.BytesReceived - before.BytesSent - before.BytesReceived
				}
			}
			r.w.seconds = time.Since(start).Seconds()
		}(c, &results[ci])
	}
	wg.Wait()

	merged := timedWindow{lat: make([][]float64, len(queries))}
	for _, r := range results {
		for pos := range r.w.lat {
			merged.lat[pos] = append(merged.lat[pos], r.w.lat[pos]...)
		}
		merged.stats = merged.stats.Add(r.w.stats)
		merged.passes += r.w.passes
		merged.wireFirstPass += r.w.wireFirstPass
		merged.throughput += float64(len(queries)) / median(r.passS)
		if r.w.seconds > merged.seconds {
			merged.seconds = r.w.seconds
		}
		merged.t.add(r.w.t)
	}
	return merged
}

// quiesce waits until every request a session sent has been answered, and
// returns its counters. A 2-of-3 fan-out returns on the second answer, so
// the third can still be in flight when a pass ends; byte counts are read
// only once it landed.
func quiesce(counters func() sssearch.Stats) sssearch.Stats {
	deadline := time.Now().Add(500 * time.Millisecond)
	for {
		c := counters()
		if c.MessagesSent == c.MessagesRcvd || time.Now().After(deadline) {
			return c
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// payloadBytes is what an in-process workload reports under
// wire_bytes_per_query. It has no socket; the column then carries the
// protocol payload the paper counts — polynomial bytes plus one machine
// word per scalar value — so it is never empty and still moves only when
// the protocol moves different data.
func payloadBytes(s sssearch.Stats) float64 {
	return float64(s.PolyBytesMoved + 8*s.ValuesMoved)
}

// procSnapshot is the process-wide resource reading taken around a window.
type procSnapshot struct {
	mallocs, allocBytes, pauseNS uint64
	cpu                          time.Duration
}

func readProc() procSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return procSnapshot{mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc, pauseNS: ms.PauseTotalNs, cpu: cpu}
}

func procDelta(a, b procSnapshot, queries int, windowS float64) map[string]float64 {
	q := float64(queries)
	return map[string]float64{
		"proc.allocs_per_query":      float64(b.mallocs-a.mallocs) / q,
		"proc.alloc_bytes_per_query": float64(b.allocBytes-a.allocBytes) / q,
		"proc.gc_pause_ms_per_s":     float64(b.pauseNS-a.pauseNS) / 1e6 / windowS,
		"proc.cpu_ms_per_query":      float64(b.cpu-a.cpu) / 1e6 / q,
	}
}

func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// measure runs one workload untraced: reps cold paths or more (see
// setupReps; exactly one when reps is 1; the last deployment stays up), the
// warm-up pass, the unknown-tag check, then the timed window.
func measure(in *inputs, dir string, window time.Duration, reps int) (*e2eResult, error) {
	var t tally
	var colds []coldTimes
	var topo *topology
	defer func() {
		if topo != nil {
			topo.close()
		}
	}()
	// redeploy replaces the running deployment by a fresh cold path.
	redeploy := func() (coldTimes, error) {
		if topo != nil {
			if err := topo.close(); err != nil {
				return coldTimes{}, fmt.Errorf("teardown: %w", err)
			}
		}
		var ct coldTimes
		var err error
		topo, ct, err = coldPath(in, dir, &t)
		return ct, err
	}
	began := time.Now()
	for rep := 0; rep < reps || (reps > 1 && rep < maxSetupReps && time.Since(began) < setupBudget); rep++ {
		ct, err := redeploy()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		colds = append(colds, ct)
	}
	warm := warmUp(topo, in, &t)
	if res, err := topo.sessions[0].Search(in.unknown.Expr); err != nil || len(res.Matches) != 0 {
		t.fail("%s: unknown tag must give an empty answer", in.unknown.Expr)
	} else {
		t.ok()
	}

	r := &e2eResult{
		Workload: in.spec.Name, Seed: in.seed, Nodes: in.nodes,
		Queries: len(in.queries), Clients: in.spec.Clients,
	}
	timed := colds // cold paths the set-up-phase metrics are taken from
	runtime.GC()
	procBefore := readProc()
	var w timedWindow
	if in.spec.Rebuild {
		// Every pass of the window is a cold path of its own, followed by
		// one cold pass over the list.
		timed = nil
		var queryPassS []float64 // time inside the queries of each pass
		start := time.Now()
		for w.passes == 0 || time.Since(start) < window {
			ct, err := redeploy()
			if err != nil {
				return nil, fmt.Errorf("pass %d: %w", w.passes, err)
			}
			// Under the fixed Config.Seed every pass must save the very
			// same bytes.
			if ct.storeHash != colds[0].storeHash {
				t.fail("pass %d: saved store differs from the first pass under the same seed", w.passes)
			} else {
				t.ok()
			}
			timed = append(timed, ct)
			pass := warmUp(topo, in, &t)
			w.addPass(pass.ms, pass.stats)
			queryPassS = append(queryPassS, pass.querySeconds())
		}
		w.seconds = time.Since(start).Seconds()
		w.throughput = float64(len(in.queries)) / median(queryPassS)
	} else {
		callers := make([]caller, len(topo.sessions))
		for i, sess := range topo.sessions {
			sess := sess
			callers[i] = caller{
				ask: func(_, _ int, q *query, t *tally) (sssearch.Stats, float64) {
					res, ms := search(sess, q, t)
					if res == nil {
						return sssearch.Stats{}, ms
					}
					return res.Stats, ms
				},
				counters: sess.Counters,
			}
		}
		start := time.Now()
		w = closedLoops(callers, in.queries, func(passes int) bool {
			return passes == 0 || time.Since(start) < window
		})
		t.add(w.t)
	}
	procAfter := readProc()

	// Latency percentiles are taken over the query mix: each list position
	// contributes the median of its samples, so a burst of host noise that
	// inflates one pass does not move them. The raw sample count is kept to
	// say which tail percentile the samples themselves would support.
	r.queryMedianMS, r.Samples = w.queryMedians()
	r.Passes, r.WindowS = w.passes, w.seconds
	sorted := sortedCopy(r.queryMedianMS)
	r.P90Beyond = samplesBeyond(r.Samples, 0.9)
	r.Supported = highestSupported(r.Samples)

	wirePerQuery := float64(w.wireFirstPass) / float64(len(in.queries)*len(topo.sessions))
	if w.wireFirstPass == 0 {
		wirePerQuery = payloadBytes(w.stats) / float64(r.Samples)
	}
	var outsourceS, coldMS, setupS []float64
	for _, ct := range timed {
		outsourceS = append(outsourceS, ct.outsourceS)
		coldMS = append(coldMS, ct.coldStartMS)
	}
	for _, ct := range colds {
		setupS = append(setupS, ct.totalS)
	}
	r.Metrics = map[string]float64{
		"query_p50_ms":          latencyPercentile(sorted, 0.5),
		"query_p90_ms":          latencyPercentile(sorted, 0.9),
		"queries_per_s":         w.throughput,
		"wire_bytes_per_query":  wirePerQuery,
		"outsource_nodes_per_s": float64(in.nodes) / median(outsourceS),
		"cold_start_ms":         median(coldMS),
		"store_bytes_per_node":  float64(colds[0].storeBytes) / float64(in.nodes),
		"heap_live_mb":          heapLiveMB(),
		"setup_s":               median(setupS) + warm.seconds,
		failedOpsRatio:          float64(t.failed) / float64(t.attempted),
	}
	r.Counts = exactCounts(w.stats, w.passes, len(in.queries))
	r.Counts["wire_bytes_per_query"] = wirePerQuery
	r.Proc = procDelta(procBefore, procAfter, r.Samples, r.WindowS)
	r.Attempted, r.Failed, r.FirstErr = t.attempted, t.failed, t.firstErr
	return r, nil
}

// exactCounts turns Stats summed over complete passes of the list into the
// per-query protocol counts of the core layer.
func exactCounts(s sssearch.Stats, passes, listLen int) map[string]float64 {
	pruned := 0.0
	if s.NodesVisited > 0 {
		pruned = float64(s.NodesPruned) / float64(s.NodesVisited)
	}
	return map[string]float64{
		"core.rounds_per_query":         perQuery(s.Rounds, passes, listLen),
		"core.nodes_visited_per_query":  perQuery(s.NodesVisited, passes, listLen),
		"core.nodes_pruned_ratio":       pruned,
		"core.tags_recovered_per_query": perQuery(s.TagsRecovered, passes, listLen),
		"core.polys_fetched_per_query":  perQuery(s.PolysFetched, passes, listLen),
		"core.poly_bytes_per_query":     perQuery(s.PolyBytesMoved, passes, listLen),
		"core.values_moved_per_query":   perQuery(s.ValuesMoved, passes, listLen),
	}
}
