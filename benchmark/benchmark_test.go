package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	// p90 is supported from exactly 100 samples: ten lie above rank 90.
	if got := samplesBeyond(100, 0.9); got != 10 {
		t.Fatalf("samplesBeyond(100, 0.9) = %d, want 10", got)
	}
	cases := []struct {
		n    int
		want float64
	}{
		{24, 0.5}, {40, 0.75}, {99, 0.75}, {100, 0.9}, {199, 0.9}, {200, 0.95}, {1000, 0.99}, {10000, 0.999},
	}
	for _, c := range cases {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	sorted := make([]float64, 100)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	// Harrell–Davis: symmetric weights give the exact centre of 1..100,
	// and on many samples the estimate sits at the sample percentile.
	if got := percentile(sorted, 0.5); math.Abs(got-50.5) > 1e-6 {
		t.Errorf("p50 of 1..100 = %v, want 50.5", got)
	}
	if got := percentile(sorted, 0.9); math.Abs(got-90.4) > 0.5 {
		t.Errorf("p90 of 1..100 = %v, want about 90.4", got)
	}
	// Two values: the median is their mean. One value: itself.
	if got := percentile([]float64{10, 70}, 0.5); math.Abs(got-40) > 1e-6 {
		t.Errorf("median of two = %v, want 40", got)
	}
	if got := percentile([]float64{7}, 0.9); got != 7 {
		t.Errorf("p90 of one value = %v, want 7", got)
	}
	// Latencies are averaged on the log scale: three hot queries of 6, 45
	// and 175 ms have their median near the middle one, not at the
	// arithmetic blend of the three (68 ms).
	if got := latencyPercentile([]float64{6, 45, 175}, 0.5); got < 30 || got > 45 {
		t.Errorf("log-scale median of 6, 45, 175 = %v, want between 30 and 45", got)
	}
	// A mix of 24 queries with a wide gap at the median: moving the one
	// query just above the gap by a quarter moves the estimate by far less.
	mix := []float64{0.5, 2, 3, 3, 5, 5, 9, 11, 12, 16, 18, 26, 40, 92, 95, 97, 132, 142, 154, 155, 179, 505, 712, 765}
	base := latencyPercentile(mix, 0.5)
	mix[12] = 52
	if moved := latencyPercentile(mix, 0.5); moved/base > 1.08 {
		t.Errorf("p50 moved from %v to %v (%.0f%%) when one query moved by 30%%", base, moved, 100*(moved/base-1))
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	values := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(values)
	if q1 != 2.75 || q3 != 8.25 || median(values) != 5.5 {
		t.Fatalf("quartiles = %v, %v, median %v; want 2.75, 8.25, 5.5", q1, q3, median(values))
	}
	if got, want := relSpread(values), 1.0; got != want {
		t.Errorf("relSpread = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of three = %v, %v; want 1, 4", q1, q3)
	}
}

func TestWholePassAveragingRepeatsExactly(t *testing.T) {
	// 7 rounds per query on a 24-query list plus an odd one: the per-query
	// figure must not depend on how many whole passes fitted in the window.
	const perPass = 24*7 + 5
	three := perQuery(3*perPass, 3, 24)
	four := perQuery(4*perPass, 4, 24)
	if three != four {
		t.Fatalf("3 passes give %v, 4 passes give %v", three, four)
	}
	if perQuery(10, 0, 24) != 0 {
		t.Error("no complete pass must average to 0, not divide by zero")
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "parent", Start: 0, End: 100, Parent: -1},
		{Name: "child", Start: 10, End: 50, Parent: 0},
		{Name: "child", Start: 30, End: 70, Parent: 0},    // overlaps the first: a concurrent fan-out
		{Name: "child", Start: 90, End: 130, Parent: 0},   // straggler, outlives the parent
		{Name: "grand", Start: 35, End: 45, Parent: 2},    // covered once, at its own level only
		{Name: "other", Start: 200, End: 260, Parent: -1}, // no children: self is its duration
	}
	self := selfTimes(spans)
	want := []int64{30, 40, 30, 40, 10, 60}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%d] (%s) = %d, want %d", i, spans[i].Name, self[i], want[i])
		}
	}
	by := totalsByName(spans)
	if by["parent"].kids != 3 || by["child"].kids != 1 {
		t.Errorf("fan-out: parent has %d children, child %d; want 3 and 1", by["parent"].kids, by["child"].kids)
	}
}

func TestTracerDropsOpenSpansAndSpansBeforeMark(t *testing.T) {
	tr := newTracer()
	warm := tr.begin("warm", -1, -1, 0, 0, 0)
	tr.end(warm)
	mark := tr.mark()
	q := tr.begin("query", -1, 7, 0, 0, 0)
	done := tr.begin("call", q, 7, 0, 3, 2)
	tr.begin("straggler", q, 7, 0, 0, 0) // never ended
	late := tr.begin("late", warm, -1, 0, 0, 0)
	tr.end(done)
	tr.end(late)
	tr.end(q)
	got := tr.since(mark)
	if len(got) != 3 {
		t.Fatalf("got %d spans, want 3 (query, call, late)", len(got))
	}
	if got[1].Name != "call" || got[1].Parent != 0 || got[1].Query != 7 || got[1].Keys != 3 {
		t.Errorf("call span = %+v", got[1])
	}
	if got[2].Parent != -1 {
		t.Errorf("a parent before the mark must read as unknown, got %d", got[2].Parent)
	}
}

func TestVerdictAppliesBound(t *testing.T) {
	lower := true
	cases := []struct {
		name string
		a, b []float64
		want string
	}{
		{"within bound", []float64{100, 101, 99, 100}, []float64{104, 105, 103, 104}, "unchanged"},
		{"beyond bound", []float64{100, 101, 99, 100}, []float64{112, 113, 111, 112}, "worse"},
		{"noisy baseline", []float64{80, 100, 120, 140}, []float64{100, 110, 115, 120}, "unresolved"},
		{"noisy but every run better", []float64{80, 100, 120, 140}, []float64{50, 60, 70, 75}, "better"},
		{"clear gain", []float64{100, 101, 99, 100}, []float64{80, 81, 79, 80}, "better"},
		{"single runs inside bound", []float64{100}, []float64{95}, "unchanged"},
		{"single runs beyond bound", []float64{100}, []float64{85}, "better"},
		{"one side missing", nil, []float64{1}, "missing"},
	}
	for _, c := range cases {
		if got := verdict(c.a, c.b, lower, 0.10); got != c.want {
			t.Errorf("%s: verdict = %q, want %q", c.name, got, c.want)
		}
	}
	// Higher is better: a drop beyond the bound is worse.
	if got := verdict([]float64{100, 100}, []float64{85, 85}, false, 0.10); got != "worse" {
		t.Errorf("throughput drop: verdict = %q, want worse", got)
	}
}

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	manifest
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
}

func TestManifestMatchesProgram(t *testing.T) {
	var man benchmarkJSON
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &man); err != nil {
		t.Fatal(err)
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(man.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if man.Workloads[i].Name != w.Name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, man.Workloads[i].Name, w.Name)
		}
		if len(man.Workloads[i].Why) > 200 || len(w.Why) > 200 {
			t.Errorf("workload %s: why is longer than 200 characters", w.Name)
		}
	}
	if len(man.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(man.EndToEnd), len(endToEnd))
	}
	sawSetup := false
	for i, d := range endToEnd {
		m := man.EndToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end-to-end %d: %+v in BENCHMARK.json, %+v in the program", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		sawSetup = sawSetup || m.Name == "setup_s"
	}
	if !sawSetup {
		t.Error("setup_s is missing from the end-to-end metrics")
	}
	if len(man.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(man.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		m := man.PerLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: %+v in BENCHMARK.json, %+v in the program", i, m, d)
		}
	}
	if len(man.Paths) != 1 || man.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", man.Paths)
	}
}

func TestQueryListIsStratifiedAndSeedIndependent(t *testing.T) {
	doc := genAuction(sizeSmoke, 1)
	list := buildQueries(doc)
	classes := map[string]int{}
	for _, q := range list {
		classes[q.Class]++
	}
	want := map[string]int{"rare": 6, "common": 4, "child_path": 6, "mixed": 4, "wildcard": 2, "parent_child": 2}
	for class, n := range want {
		if classes[class] != n {
			t.Errorf("%d %s queries, want %d (list: %v)", classes[class], class, n, list)
		}
	}
	// The seed rearranges the document, never the statistics the list is
	// derived from: two seeds ask the same questions in the same order.
	other := buildQueries(genAuction(sizeSmoke, 2))
	a, b := interleave(list), interleave(other)
	if len(a) != len(list) || len(b) != len(a) {
		t.Fatalf("interleave changed the list length: %d, %d of %d", len(a), len(b), len(list))
	}
	for i := range a {
		if a[i].Expr != b[i].Expr {
			t.Errorf("position %d: seed 1 asks %s, seed 2 asks %s", i, a[i].Expr, b[i].Expr)
		}
		if i > 0 && a[i].Class == a[i-1].Class && a[i].Class != "rare" && a[i].Class != "child_path" {
			t.Errorf("positions %d and %d are both %s: strata are not interleaved", i-1, i, a[i].Class)
		}
	}
	if genAuction(sizeSmoke, 1).String() == genAuction(sizeSmoke, 2).String() {
		t.Error("two seeds generate the same document")
	}
	if hot := hotQueries(list); len(hot) != 3 {
		t.Errorf("hot list has %d queries, want 3", len(hot))
	}
}

func smokeSpec(t *testing.T, name string) workloadSpec {
	t.Helper()
	if raceEnabled {
		t.Skip("the benchmark refuses to measure under the race detector")
	}
	spec, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	spec.Size = sizeSmoke
	return spec
}

// TestSmoke runs every workload once, untraced then traced, on a ~500-node
// document, so the benchmark cannot rot unnoticed.
func TestSmoke(t *testing.T) {
	smokeSpec(t, "query_fp_tcp")
	traceDir := t.TempDir()
	report, err := runAll(t.TempDir(), 1, 0, 1, true, traceDir)
	if err != nil {
		t.Fatal(err)
	}
	run := report.Runs[0]
	for _, spec := range workloads {
		wr := run.Workloads[spec.Name]
		if wr == nil {
			t.Errorf("%s: not run", spec.Name)
			continue
		}
		if wr.EndToEnd.Failed != 0 || wr.Traced.Failed != 0 {
			t.Errorf("%s: failed operations: %s %s", spec.Name, wr.EndToEnd.FirstErr, wr.Traced.FirstErr)
		}
		e2e, err := pick(endToEnd, wr.EndToEnd.Metrics)
		if err != nil {
			t.Errorf("%s: %v", spec.Name, err)
		}
		for name, v := range e2e {
			if !(v.Value > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", spec.Name, name, v.Value)
			}
		}
		if _, err := pick(perLayer, wr.Traced.Layers); err != nil {
			t.Errorf("%s: %v", spec.Name, err)
		}
		data, err := os.ReadFile(filepath.Join(traceDir, spec.Name+".trace.json"))
		if err != nil {
			t.Errorf("%s: %v", spec.Name, err)
			continue
		}
		var trace struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		if err := json.Unmarshal(data, &trace); err != nil || len(trace.TraceEvents) == 0 {
			t.Errorf("%s: trace file does not hold trace events (%v)", spec.Name, err)
		}
	}
	// The in-process workloads execute no wire and no fan-out layer.
	for _, name := range []string{"client.remote_call_ms", "wire.rtt_us", "shard.router_self_ms"} {
		if v := run.Workloads["query_z_local"].Traced.Layers[name]; v != 0 {
			t.Errorf("query_z_local: %s = %v, want 0", name, v)
		}
	}
	// On a single closed-loop client every part of a query is attributed.
	tr := run.Workloads["query_fp_tcp"].Traced
	if diff := tr.LayerSumMS/tr.QueryWallMS - 1; diff > 0.02 || diff < -0.02 {
		t.Errorf("query_fp_tcp: layer self times sum to %.3f ms of %.3f ms wall", tr.LayerSumMS, tr.QueryWallMS)
	}
	var buf bytes.Buffer
	printReport(&buf, report)
	for _, want := range []string{"query_p90_ms", "core.query_self_ms", "loopback"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("printed report lacks %q", want)
		}
	}
}

// TestWrongOracleFailsTheRun corrupts one oracle answer: the run must
// count the mismatch, say so in the result line and return an error (which
// makes the command exit non-zero).
func TestWrongOracleFailsTheRun(t *testing.T) {
	spec := smokeSpec(t, "query_z_local")
	in, err := makeInputs(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in.queries {
		if len(in.queries[i].want) > 1 {
			in.queries[i].want = in.queries[i].want[1:]
			break
		}
	}
	var out bytes.Buffer
	err = driverRun(&out, in, t.TempDir(), 0, false, "")
	if err == nil {
		t.Fatal("a wrong oracle entry did not fail the run")
	}
	var line resultLine
	if jerr := json.Unmarshal(bytes.TrimSpace(out.Bytes()), &line); jerr != nil {
		t.Fatalf("result line: %v (%q)", jerr, out.String())
	}
	if line.Correct || line.Failed == 0 || line.Failed >= line.Attempted {
		t.Errorf("result line = correct %v, %d failed of %d", line.Correct, line.Failed, line.Attempted)
	}
}

// TestDriverResultLine checks the contract of the single-workload mode on
// both trace settings: exactly the listed metrics, with their units.
func TestDriverResultLine(t *testing.T) {
	spec := smokeSpec(t, "query_fabric")
	in, err := makeInputs(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	base := t.TempDir()
	for _, traced := range []bool{false, true} {
		var out bytes.Buffer
		if err := driverRun(&out, in, base, 100*time.Millisecond, traced, ""); err != nil {
			t.Fatalf("traced=%v: %v", traced, err)
		}
		var line resultLine
		if err := json.Unmarshal(bytes.TrimSpace(out.Bytes()), &line); err != nil {
			t.Fatalf("traced=%v: %v", traced, err)
		}
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		if len(line.Metrics) != len(defs) {
			t.Errorf("traced=%v: %d metrics, want %d", traced, len(line.Metrics), len(defs))
		}
		for _, d := range defs {
			if line.Metrics[d.Name].Unit != d.Unit {
				t.Errorf("traced=%v: %s has unit %q, want %q", traced, d.Name, line.Metrics[d.Name].Unit, d.Unit)
			}
		}
		if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
			t.Errorf("traced=%v: correct %v, %d failed of %d", traced, line.Correct, line.Failed, line.Attempted)
		}
	}
	if left, _ := filepath.Glob(filepath.Join(base, ".bench_tmp-*")); len(left) != 0 {
		t.Errorf("scratch directories left behind: %v", left)
	}
}
