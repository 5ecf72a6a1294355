// Package obs is the observability layer of the serving stack: lock-free
// log-bucketed latency histograms for every request-path stage, sampled
// trace propagation (one 64-bit trace ID shared by every retried, hedged
// and coalesced leg of a logical query), a bounded slow-query log with
// per-stage breakdowns, and an ops/debug HTTP surface (/metrics,
// /healthz, /varz, net/http/pprof).
//
// The design splits cost by sampling state:
//
//   - Histograms are recorded for EVERY request: one Observe is a couple
//     of atomic adds, so the unsampled hot path pays nanoseconds.
//   - Traces exist only for sampled requests (SetSampleEvery; off by
//     default). Only sampled requests allocate a Span, ride the wire
//     trace extension, emit slog span events and feed the slow-query
//     log.
//
// Components share an Observer — the bundle of stage histograms, slow
// log and span logger. The package Default observer is what every layer
// uses unless a specific one is injected (tests inject their own for
// isolation; the daemon exposes its observer to the debug handler).
package obs

import "time"

// Stage enumerates the instrumented request-path stages. The zero-based
// values index Observer histograms and Span accumulators; String returns
// the stable label used in /metrics and /varz.
type Stage int

const (
	// StageShareArith is the client-side share arithmetic of one
	// evaluation batch: pad/share evaluation plus the modular sums that
	// combine client and server summands. On a large batch the evaluation
	// runs beside the batch's server call (StageWire, StageStoreEval), not
	// after it, so on a single-server path the stages of a query over a
	// large document sum to more than its wall time by design: this stage
	// is on the blocking chain only where it is the longer leg.
	StageShareArith Stage = iota
	// StageWire is one wire round trip: request write through response
	// read on a Remote session.
	StageWire
	// StageDispatch is the daemon-side queue/dispatch time: frame read
	// to handler start (worker-pool wait included).
	StageDispatch
	// StageCoalesceWait is the time an EvalNodes call spent queued in
	// the server-side coalescer before its merged pass started.
	StageCoalesceWait
	// StageStoreEval is the store evaluation itself (EvalNodes or
	// FetchPolys against the served share store).
	StageStoreEval
	// StageWriterQueue is a response's residency in the daemon's bounded
	// write queue: enqueue to written-to-socket.
	StageWriterQueue
	// StageTagRecover is the client-side solve of one wave of eq. (2) tag
	// recoveries: reconstructing the fetched polynomials and recovering and
	// checking every tag, summed over the wave's chunks — or, where tags
	// are resolved from evaluations, the scalar solves of the wave. The
	// fetch (or evaluation wave) those solves waited for is StageWire's
	// (and overlaps the previous chunk's solve), so it is not counted here.
	StageTagRecover

	// NumStages is the number of instrumented stages.
	NumStages int = iota
)

var stageNames = [NumStages]string{
	"share_arith",
	"wire",
	"dispatch",
	"coalesce_wait",
	"store_eval",
	"writer_queue",
	"tag_recover",
}

func (s Stage) String() string {
	if s < 0 || int(s) >= NumStages {
		return "invalid"
	}
	return stageNames[s]
}

// Observer bundles the per-stage histograms, the slow-query log and the
// optional span-event logger. The zero value is ready to use; a nil
// *Observer is safe to call (observations are dropped), so call sites
// never branch.
type Observer struct {
	stages [NumStages]Histogram

	// Slow is the bounded slow-query log fed by sampled spans.
	Slow SlowLog

	// SpanLogger, when non-nil, receives one structured span event per
	// finished sampled span (trace ID, op, total, stage breakdown).
	SpanLogger SpanLogger
}

// Stage returns the histogram of one stage (nil on a nil observer).
func (o *Observer) Stage(s Stage) *Histogram {
	if o == nil || s < 0 || int(s) >= NumStages {
		return nil
	}
	return &o.stages[s]
}

// Observe records one stage latency into the stage's histogram. Safe on
// a nil observer and from any goroutine.
func (o *Observer) Observe(s Stage, d time.Duration) {
	if o == nil || s < 0 || int(s) >= NumStages {
		return
	}
	o.stages[s].Observe(d)
}

// StageSnapshots captures every stage histogram.
func (o *Observer) StageSnapshots() [NumStages]HistSnapshot {
	var out [NumStages]HistSnapshot
	if o == nil {
		return out
	}
	for i := range o.stages {
		out[i] = o.stages[i].Snapshot()
	}
	return out
}

// defaultObserver is the process-wide observer used by every layer that
// was not handed a specific one.
var defaultObserver = &Observer{}

// Default returns the process-wide observer.
func Default() *Observer { return defaultObserver }
