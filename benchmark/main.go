// Command benchmark is the repository's benchmark: five workloads, the
// end-to-end metrics a user of the library sees, and a traced run that
// splits every number by layer. BENCHMARK.json at the repository root
// describes it; README.md in this directory explains every choice.
//
// One workload, as the driver runs it (the last line of standard output is
// the JSON result):
//
//	go run ./benchmark --workload query_fp_tcp --seed 1 --seconds 12 --trace 0
//
// Every workload, untraced then traced, with a report file:
//
//	go run ./benchmark -seed 1 -out report.json [-repeat N] [-trace-dir DIR]
//
// Two report files against the bounds of BENCHMARK.json:
//
//	go run ./benchmark -compare a.json b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload and print the JSON result line (driver mode)")
		seed     = flag.Int64("seed", 1, "seed every input is generated from")
		seconds  = flag.Float64("seconds", 20, "length of each timed window")
		trace    = flag.Int("trace", 0, "driver mode: 0 reports the end-to-end metrics, 1 the per-layer metrics")
		out      = flag.String("out", "", "write the full report to this file")
		traceDir = flag.String("trace-dir", "", "write each traced run's spans here as Chrome trace-event JSON")
		repeat   = flag.Int("repeat", 1, "make this many full runs and print medians, quartiles and spread")
		compare  = flag.Bool("compare", false, "compare two report files (arguments) under the bounds of BENCHMARK.json")
		smoke    = flag.Bool("smoke", false, "one pass per workload on a ~500-node document")
	)
	flag.Parse()
	if raceEnabled {
		fatal(errors.New("refusing to measure under the race detector: its instrumentation changes every number"))
	}
	window := time.Duration(*seconds * float64(time.Second))

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(errors.New("-compare takes two report files"))
		}
		worse, err := compareReports(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse > 0 {
			os.Exit(1)
		}
	case *workload != "":
		spec, ok := findWorkload(*workload)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		in, err := makeInputs(spec, *seed)
		if err != nil {
			fatal(err)
		}
		if err := driverRun(os.Stdout, in, ".", window, *trace == 1, *traceDir); err != nil {
			fatal(err)
		}
	default:
		if err := fullRuns(*seed, window, *repeat, *smoke, *out, *traceDir); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// driverLimit is the hard wall-clock limit of a single-workload run: the
// driver allows 180 s.
const driverLimit = 170 * time.Second

// watchdog fails the process when a run outlives its limit, so a hang
// (a daemon that never drains, a lost frame) ends the run instead of
// blocking it. The returned func disarms it.
func watchdog(limit time.Duration, what string, cleanup func()) func() {
	timer := time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "benchmark: %s exceeded its %s wall-clock limit\n", what, limit)
		cleanup()
		os.Exit(2)
	})
	return func() { timer.Stop() }
}

// scratchDir makes the directory store files are saved to, under base: the
// working directory for the command, because a run may write only inside
// its checkout. The returned func removes it.
func scratchDir(base string) (string, func(), error) {
	dir, err := os.MkdirTemp(base, ".bench_tmp-")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}

// driverRun measures one workload and prints the result line. It returns
// an error — and the command exits non-zero — when any operation failed or
// any answer differed from the oracle.
func driverRun(w io.Writer, in *inputs, base string, window time.Duration, traced bool, traceDir string) error {
	dir, cleanup, err := scratchDir(base)
	if err != nil {
		return err
	}
	defer cleanup()
	defer watchdog(driverLimit, in.spec.Name, cleanup)()

	var line resultLine
	if !traced {
		r, err := measure(in, dir, window, setupReps)
		if err != nil {
			return err
		}
		if line.Metrics, err = pick(endToEnd, r.Metrics); err != nil {
			return err
		}
		line.Attempted, line.Failed = r.Attempted, r.Failed
		for i, q := range in.queries {
			fmt.Fprintf(os.Stderr, "%9.3f ms  %-12s %s\n", r.queryMedianMS[i], q.Class, q.Expr)
		}
		if r.Failed > 0 {
			fmt.Fprintln(os.Stderr, "benchmark: first failure:", r.FirstErr)
		}
	} else {
		// A third of the window measures untraced (for the parity check,
		// the proc.* deltas and the tracing overhead), the rest traced.
		wr, err := tracedPair(in, dir, window/3, 1, window*2/3, traceDir)
		if err != nil {
			return err
		}
		if line.Metrics, err = pick(perLayer, wr.Traced.Layers); err != nil {
			return err
		}
		line.Attempted = wr.EndToEnd.Attempted + wr.Traced.Attempted
		line.Failed = wr.EndToEnd.Failed + wr.Traced.Failed
		for _, e := range []string{wr.EndToEnd.FirstErr, wr.Traced.FirstErr} {
			if e != "" {
				fmt.Fprintln(os.Stderr, "benchmark: first failure:", e)
			}
		}
	}
	line.Correct = line.Failed == 0
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(data))
	if !line.Correct {
		return fmt.Errorf("%d of %d operations failed", line.Failed, line.Attempted)
	}
	return nil
}

// tracedPair runs a workload untraced and then traced, checks that the
// decorated topology is the same code path — same answers (both runs check
// every answer against the oracle) and the same exact per-query counts —
// and fills in the metrics that need both runs.
func tracedPair(in *inputs, dir string, window time.Duration, reps int, tracedBudget time.Duration, traceDir string) (*workloadReport, error) {
	untraced, err := measure(in, dir, window, reps)
	if err != nil {
		return nil, err
	}
	traced, err := runTraced(in, dir, tracedBudget)
	if err != nil {
		return nil, err
	}
	for name, want := range untraced.Counts {
		got := traced.Counts[name]
		traced.Attempted++
		if !sameCount(in.spec, name, want, got) {
			traced.Failed++
			if traced.FirstErr == "" {
				traced.FirstErr = fmt.Sprintf("traced run differs from untraced on %s: %v vs %v", name, got, want)
			}
		}
	}
	var sumTraced, sumUntraced float64
	for i := range traced.queryMedianMS {
		sumTraced += traced.queryMedianMS[i]
		sumUntraced += untraced.queryMedianMS[i]
	}
	traced.Layers["trace.overhead_ratio"] = sumTraced/sumUntraced - 1
	for k, v := range untraced.Proc {
		traced.Layers[k] = v
	}
	if traceDir != "" {
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return nil, err
		}
		if err := writeChromeTrace(filepath.Join(traceDir, in.spec.Name+".trace.json"), traced.spans); err != nil {
			return nil, err
		}
	}
	traced.spans = nil // hundreds of thousands; not kept in the report
	return &workloadReport{EndToEnd: untraced, Traced: traced}, nil
}

// sameCount compares an exact per-query count of the traced run with the
// untraced run's. Counts must be identical, with one exception: the
// fabric's member stores are drawn from crypto/rand at every set-up, and
// share values of different magnitude encode to different lengths, so its
// socket bytes agree only to a fraction of a percent.
func sameCount(spec workloadSpec, name string, want, got float64) bool {
	if want == got {
		return true
	}
	if spec.Topo == topoFabric && name == "wire_bytes_per_query" {
		return math.Abs(got-want) <= 0.005*want
	}
	return false
}

// fullRuns runs every workload, untraced then traced, repeat times, prints
// every metric and optionally writes the report file.
func fullRuns(seed int64, window time.Duration, repeat int, smoke bool, out, traceDir string) error {
	dir, cleanup, err := scratchDir(".")
	if err != nil {
		return err
	}
	defer cleanup()
	report, err := runAll(dir, seed, window, repeat, smoke, traceDir)
	if err != nil {
		return err
	}
	printReport(os.Stdout, report)
	if out != "" {
		data, err := json.MarshalIndent(report, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, data, 0o644); err != nil {
			return err
		}
	}
	for _, run := range report.Runs {
		for name, wr := range run.Workloads {
			if failed := wr.EndToEnd.Failed + wr.Traced.Failed; failed > 0 {
				return fmt.Errorf("%s: %d operations failed (%s%s)", name, failed, wr.EndToEnd.FirstErr, wr.Traced.FirstErr)
			}
		}
	}
	return nil
}

// runAll is fullRuns without the printing, shared with the smoke test.
func runAll(dir string, seed int64, window time.Duration, repeat int, smoke bool, traceDir string) (*reportFile, error) {
	report := &reportFile{Env: readEnvironment(), Seconds: window.Seconds()}
	reps := setupReps
	if smoke {
		window, reps = 0, 1
		report.Seconds = 0
	}
	for n := 0; n < repeat; n++ {
		run := fullRun{Seed: seed, Workloads: map[string]*workloadReport{}}
		for _, spec := range workloads {
			if smoke {
				spec.Size = sizeSmoke
			}
			// Set-ups, window and traced passes each stay well inside this.
			limit := 2*time.Minute + 8*window
			stop := watchdog(limit, spec.Name, func() { os.RemoveAll(dir) })
			in, err := makeInputs(spec, seed)
			if err != nil {
				return nil, err
			}
			wr, err := tracedPair(in, dir, window, reps, time.Hour, traceDir)
			stop()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", spec.Name, err)
			}
			run.Workloads[spec.Name] = wr
		}
		report.Runs = append(report.Runs, run)
	}
	return report, nil
}
