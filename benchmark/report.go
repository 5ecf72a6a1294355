package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// metricDef names one metric. BENCHMARK.json at the repository root lists
// the same names with the regression bound of each end-to-end metric; a
// test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics a user of the system sees. failed_ops_ratio is
// the tenth: it must be 0, so it cannot carry a relative bound and travels
// as the failed/attempted pair of the result line instead.
var endToEnd = []metricDef{
	{"query_p50_ms", "ms", "lower"},
	{"query_p90_ms", "ms", "lower"},
	{"queries_per_s", "1/s", "higher"},
	{"wire_bytes_per_query", "B", "lower"},
	{"outsource_nodes_per_s", "1/s", "higher"},
	{"cold_start_ms", "ms", "lower"},
	{"store_bytes_per_node", "B", "lower"},
	{"heap_live_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

const failedOpsRatio = "failed_ops_ratio"

// printedEndToEnd is endToEnd plus failed_ops_ratio: what the full run
// prints and -compare checks.
func printedEndToEnd(bounded []metricDef) []metricDef {
	return append(append([]metricDef(nil), bounded...), metricDef{failedOpsRatio, "ratio", "lower"})
}

// perLayer are the metrics of single layers, named layer.metric with the
// module name as the layer. They come from the traced run and from direct
// calls; a layer the workload does not execute reads 0.
var perLayer = []metricDef{
	{"core.query_self_ms", "ms", "lower"},
	{"core.rounds_per_query", "count", "lower"},
	{"core.nodes_visited_per_query", "count", "lower"},
	{"core.nodes_pruned_ratio", "ratio", "higher"},
	{"core.tags_recovered_per_query", "count", "lower"},
	{"core.polys_fetched_per_query", "count", "lower"},
	{"core.poly_bytes_per_query", "B", "lower"},
	{"core.values_moved_per_query", "count", "lower"},
	{"core.tag_recover_est_ms", "ms", "lower"},
	{"core.multiserver_self_ms", "ms", "lower"},
	{"core.multiserver_member_wait_ms", "ms", "lower"},
	{"polyenc.recover_tag_us", "us", "lower"},
	{"polyenc.encode_ms", "ms", "lower"},
	{"ring.mulprod_us", "us", "lower"},
	{"fastfield.ntt_transform_us", "us", "lower"},
	{"fastfield.evalmany_ns_per_coeff", "ns", "lower"},
	{"fastfield.lagrange_combine_ns_per_value", "ns", "lower"},
	{"sharing.client_share_ms", "ms", "lower"},
	{"sharing.client_share_calls_per_query", "count", "lower"},
	{"sharing.pad_hit_ratio", "ratio", "higher"},
	{"sharing.share_eval_hit_ratio", "ratio", "higher"},
	{"sharing.pad_regen_us", "us", "lower"},
	{"sharing.split_ms", "ms", "lower"},
	{"sharing.multishare_ms", "ms", "lower"},
	{"client.remote_call_ms", "ms", "lower"},
	{"client.remote_calls_per_query", "count", "lower"},
	{"wire.roundtrip_self_ms", "ms", "lower"},
	{"wire.rtt_us", "us", "lower"},
	{"wire.bytes_per_round", "B", "lower"},
	{"wire.encode_eval_resp_us", "us", "lower"},
	{"wire.decode_eval_resp_us", "us", "lower"},
	{"wire.decode_fetch_resp_us", "us", "lower"},
	{"server.store_eval_ms", "ms", "lower"},
	{"server.store_fetch_ms", "ms", "lower"},
	{"server.eval_cache_hit_ratio", "ratio", "higher"},
	{"server.new_local_ms", "ms", "lower"},
	{"coalesce.self_ms", "ms", "lower"},
	{"coalesce.dedup_hit_ratio", "ratio", "higher"},
	{"coalesce.requests_per_batch", "count", "higher"},
	{"shard.router_self_ms", "ms", "lower"},
	{"shard.fanout_per_call", "count", "lower"},
	{"shard.guard_self_ms", "ms", "lower"},
	{"xmltree.parse_ms", "ms", "lower"},
	{"store.save_ms", "ms", "lower"},
	{"store.load_ms", "ms", "lower"},
	{"proc.allocs_per_query", "count", "lower"},
	{"proc.alloc_bytes_per_query", "B", "lower"},
	{"proc.gc_pause_ms_per_s", "ms/s", "lower"},
	{"proc.cpu_ms_per_query", "ms", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
}

// resultLine is the last line of standard output of a single-workload run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pick reports exactly the named metrics, failing on one that is missing
// so a renamed metric cannot silently drop out of the result line.
func pick(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// environment records where the numbers were taken.
type environment struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Commit     string `json:"commit"`
	// Link states what carries the queries: client, generator and daemons
	// share one process, so no real network link is measured.
	Link string `json:"link"`
}

func readEnvironment() environment {
	env := environment{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Commit:     "unknown",
		Link:       "loopback TCP inside one process (daemons, clients and generator share it); no real link is measured",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

// workloadReport pairs the untraced and the traced run of one workload.
type workloadReport struct {
	EndToEnd *e2eResult    `json:"untraced"`
	Traced   *tracedResult `json:"traced"`
}

// fullRun is one pass over every workload.
type fullRun struct {
	Seed      int64                      `json:"seed"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

// reportFile is what -out writes and -compare reads.
type reportFile struct {
	Env     environment `json:"env"`
	Seconds float64     `json:"seconds"`
	Runs    []fullRun   `json:"runs"`
}

// series collects, per workload and metric, the values of every run in a
// report, in workload order then metric order.
func (f *reportFile) series(defs []metricDef, get func(*workloadReport) map[string]float64) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, run := range f.Runs {
		for name, wr := range run.Workloads {
			values := get(wr)
			if values == nil {
				continue
			}
			if out[name] == nil {
				out[name] = map[string][]float64{}
			}
			for _, d := range defs {
				if v, ok := values[d.Name]; ok {
					out[name][d.Name] = append(out[name][d.Name], v)
				}
			}
		}
	}
	return out
}

func e2eValues(wr *workloadReport) map[string]float64 {
	if wr.EndToEnd == nil {
		return nil
	}
	return wr.EndToEnd.Metrics
}

func layerValues(wr *workloadReport) map[string]float64 {
	if wr.Traced == nil {
		return nil
	}
	return wr.Traced.Layers
}

// printReport prints every metric by name with its unit: one value for a
// single run, the median with quartiles and relative spread for several.
func printReport(w io.Writer, f *reportFile) {
	fmt.Fprintf(w, "go %s, GOMAXPROCS %d, nproc %d, commit %s, %d run(s) of %.0f s windows\n",
		f.Env.GoVersion, f.Env.GOMAXPROCS, f.Env.NumCPU, f.Env.Commit, len(f.Runs), f.Seconds)
	fmt.Fprintf(w, "link: %s\n", f.Env.Link)
	e2e := f.series(printedEndToEnd(endToEnd), e2eValues)
	layers := f.series(perLayer, layerValues)
	for _, spec := range workloads {
		if e2e[spec.Name] == nil {
			continue
		}
		last := f.Runs[len(f.Runs)-1].Workloads[spec.Name]
		fmt.Fprintf(w, "\n== %s ==\n", spec.Name)
		if r := last.EndToEnd; r != nil {
			fmt.Fprintf(w, "%d nodes, %d queries in list, %d client(s), %d passes, %d latency samples (%d beyond p90, supports p%g), window %.1f s, %d/%d operations failed\n",
				r.Nodes, r.Queries, r.Clients, r.Passes, r.Samples, r.P90Beyond, 100*r.Supported, r.WindowS, r.Failed, r.Attempted)
		}
		printSeries(w, printedEndToEnd(endToEnd), e2e[spec.Name])
		if t := last.Traced; t != nil {
			fmt.Fprintf(w, "-- per layer (traced: %d passes, %d queries, %d spans) --\n", t.Passes, t.Queries, t.Spans)
			printSeries(w, perLayer, layers[spec.Name])
			fmt.Fprintf(w, "traced Engine.Query wall %.3f ms per query; layer self times sum to %.3f ms (%.1f%%)\n",
				t.QueryWallMS, t.LayerSumMS, 100*t.LayerSumMS/t.QueryWallMS)
		}
	}
}

func printSeries(w io.Writer, defs []metricDef, values map[string][]float64) {
	for _, d := range defs {
		vs := values[d.Name]
		switch len(vs) {
		case 0:
		case 1:
			fmt.Fprintf(w, "  %-42s %14.4f %s\n", d.Name, vs[0], d.Unit)
		default:
			q1, q3 := quartiles(vs)
			fmt.Fprintf(w, "  %-42s %14.4f %-5s  q1 %.4f  q3 %.4f  spread %.2f%%  (n=%d)\n",
				d.Name, median(vs), d.Unit, q1, q3, 100*relSpread(vs), len(vs))
		}
	}
}

// manifest is the part of BENCHMARK.json that -compare applies.
type manifest struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareReports applies the bounds of BENCHMARK.json to two report files
// and prints each (metric, workload) pair as better, unchanged, worse or
// unresolved. It returns how many pairs are worse.
func compareReports(w io.Writer, manifestPath, pathA, pathB string) (int, error) {
	var man manifest
	if err := readJSON(manifestPath, &man); err != nil {
		return 0, err
	}
	var a, b reportFile
	if err := readJSON(pathA, &a); err != nil {
		return 0, err
	}
	if err := readJSON(pathB, &b); err != nil {
		return 0, err
	}
	defs := make([]metricDef, len(man.EndToEnd))
	for i, m := range man.EndToEnd {
		defs[i] = metricDef{m.Name, m.Unit, m.Better}
	}
	defs = printedEndToEnd(defs)
	sa, sb := a.series(defs, e2eValues), b.series(defs, e2eValues)

	worse := 0
	fmt.Fprintf(w, "%-15s %-24s %14s %14s %8s %7s  %s\n", "workload", "metric", "a (median)", "b (median)", "change", "bound", "verdict")
	for _, spec := range workloads {
		for i, d := range defs {
			va, vb := sa[spec.Name][d.Name], sb[spec.Name][d.Name]
			var v string
			bound := 0.0
			if d.Name == failedOpsRatio {
				// An absolute bound of zero: any failure is a regression.
				v = "unchanged"
				if median(vb) > 0 {
					v = "worse"
				}
			} else {
				bound = man.EndToEnd[i].Bound
				v = verdict(va, vb, d.Better == "lower", bound)
			}
			if v == "worse" {
				worse++
			}
			change := 0.0
			if ma := median(va); ma != 0 {
				change = (median(vb) - ma) / ma
			}
			fmt.Fprintf(w, "%-15s %-24s %14.4f %14.4f %+7.2f%% %6.0f%%  %s\n",
				spec.Name, d.Name, median(va), median(vb), 100*change, 100*bound, v)
		}
	}

	// Exact counts must repeat bit for bit.
	ca := a.series(exactDefs(), exactValues)
	cb := b.series(exactDefs(), exactValues)
	var drift []string
	for _, spec := range workloads {
		for _, d := range exactDefs() {
			if spec.Topo == topoFabric && strings.Contains(d.Name, "_bytes_per_") {
				// The fabric's member stores are drawn from crypto/rand at
				// every set-up; its byte counts agree to a fraction of a
				// percent, not bit for bit.
				continue
			}
			va, vb := ca[spec.Name][d.Name], cb[spec.Name][d.Name]
			if len(va) > 0 && len(vb) > 0 && (va[0] != vb[0] || relSpread(va) != 0 || relSpread(vb) != 0) {
				drift = append(drift, fmt.Sprintf("%s/%s: %v vs %v", spec.Name, d.Name, va[0], vb[0]))
			}
		}
	}
	sort.Strings(drift)
	if len(drift) == 0 {
		fmt.Fprintln(w, "exact counts (core.*_per_query, wire_bytes_per_query, store_bytes_per_node; byte counts of query_fabric excepted): identical in every run of both files")
	} else {
		fmt.Fprintf(w, "exact per-query counts that differ:\n  %s\n", strings.Join(drift, "\n  "))
	}
	return worse, nil
}

// exactDefs names the per-query counts that repeat bit for bit.
func exactDefs() []metricDef {
	var out []metricDef
	for _, d := range perLayer {
		if strings.HasPrefix(d.Name, "core.") && (strings.HasSuffix(d.Name, "_per_query") || d.Name == "core.nodes_pruned_ratio") {
			out = append(out, d)
		}
	}
	return append(out, metricDef{"wire_bytes_per_query", "B", "lower"}, metricDef{"store_bytes_per_node", "B", "lower"})
}

func exactValues(wr *workloadReport) map[string]float64 {
	if wr.EndToEnd == nil {
		return nil
	}
	out := map[string]float64{"store_bytes_per_node": wr.EndToEnd.Metrics["store_bytes_per_node"]}
	for k, v := range wr.EndToEnd.Counts {
		out[k] = v
	}
	return out
}
