package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"reflect"
	"sort"
	"strings"
	"time"

	"sssearch/internal/metrics"
)

// DebugOptions configures the ops/debug HTTP surface. Every field is
// optional; absent pieces simply leave their endpoint section empty (or,
// for Healthy, report healthy).
type DebugOptions struct {
	// Counters supplies the current flat counter totals rendered on
	// /metrics and /varz. Use a merged snapshot when one process holds
	// several Counters.
	Counters func() metrics.Snapshot

	// Observer supplies the stage histograms and slow-query log.
	Observer *Observer

	// Healthy reports nil when the process should pass /healthz; return
	// an error (e.g. "draining") to fail readiness.
	Healthy func() error

	// Vars contributes extra key/values to the /varz JSON document
	// (store epoch, inflight, breaker states, ...).
	Vars func() map[string]any
}

// DebugHandler builds the ops/debug HTTP mux: /metrics (Prometheus text
// format: every metrics.Counters field plus per-stage latency
// histograms), /healthz, /varz (JSON runtime snapshot incl. the
// slow-query log) and the standard net/http/pprof endpoints.
func DebugHandler(opts DebugOptions) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		var b strings.Builder
		if opts.Counters != nil {
			writeCounterMetrics(&b, opts.Counters())
		}
		writeStageMetrics(&b, opts.Observer)
		_, _ = w.Write([]byte(b.String()))
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if opts.Healthy != nil {
			if err := opts.Healthy(); err != nil {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/varz", func(w http.ResponseWriter, r *http.Request) {
		doc := map[string]any{}
		if opts.Counters != nil {
			doc["counters"] = counterMap(opts.Counters())
		}
		if o := opts.Observer; o != nil {
			stages := map[string]any{}
			snaps := o.StageSnapshots()
			for i, s := range snaps {
				if s.Count == 0 {
					continue
				}
				stages[Stage(i).String()] = map[string]any{
					"count":   s.Count,
					"mean_ns": s.Mean(),
					"p50_ns":  s.Quantile(0.50),
					"p95_ns":  s.Quantile(0.95),
					"p99_ns":  s.Quantile(0.99),
					"max_ns":  s.Max,
				}
			}
			doc["stages"] = stages
			slow := o.Slow.Entries()
			entries := make([]map[string]any, 0, len(slow))
			for _, e := range slow {
				entries = append(entries, map[string]any{
					"trace_id": fmt.Sprintf("%016x", e.TraceID),
					"op":       e.Op,
					"start":    e.Start.Format(time.RFC3339Nano),
					"total_ns": e.Total.Nanoseconds(),
					"stages":   e.StageMap(),
				})
			}
			doc["slow_queries"] = entries
		}
		if opts.Vars != nil {
			for k, v := range opts.Vars() {
				doc[k] = v
			}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(doc)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// writeCounterMetrics renders every metrics.Snapshot field as one
// Prometheus counter line. Field discovery is reflective, so a counter
// added to metrics.Counters shows up here without a code change — the
// same property the Snapshot.String completeness test enforces.
func writeCounterMetrics(b *strings.Builder, s metrics.Snapshot) {
	v := reflect.ValueOf(s)
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		name := "sss_" + snakeCase(f.Name)
		fmt.Fprintf(b, "# TYPE %s counter\n", name)
		switch fv := v.Field(i); fv.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			fmt.Fprintf(b, "%s %d\n", name, fv.Int())
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			fmt.Fprintf(b, "%s %d\n", name, fv.Uint())
		default:
			fmt.Fprintf(b, "%s %v\n", name, fv.Interface())
		}
	}
}

// writeStageMetrics renders each stage histogram as a Prometheus summary
// (quantiles in seconds) plus count/sum/max.
func writeStageMetrics(b *strings.Builder, o *Observer) {
	if o == nil {
		return
	}
	const name = "sss_stage_latency_seconds"
	fmt.Fprintf(b, "# HELP %s per-stage request latency\n# TYPE %s summary\n", name, name)
	snaps := o.StageSnapshots()
	for i, s := range snaps {
		label := Stage(i).String()
		for _, q := range []float64{0.5, 0.95, 0.99} {
			fmt.Fprintf(b, "%s{stage=%q,quantile=%q} %g\n", name, label, fmt.Sprintf("%g", q), s.Quantile(q)/1e9)
		}
		fmt.Fprintf(b, "%s_sum{stage=%q} %g\n", name, label, float64(s.Sum)/1e9)
		fmt.Fprintf(b, "%s_count{stage=%q} %d\n", name, label, s.Count)
		fmt.Fprintf(b, "%s_max{stage=%q} %g\n", name, label, float64(s.Max)/1e9)
	}
}

// counterMap flattens a metrics.Snapshot into snake_case name → value.
func counterMap(s metrics.Snapshot) map[string]int64 {
	out := map[string]int64{}
	v := reflect.ValueOf(s)
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		switch fv := v.Field(i); fv.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			out[snakeCase(f.Name)] = fv.Int()
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			out[snakeCase(f.Name)] = int64(fv.Uint())
		}
	}
	return out
}

// CounterNames returns the snake_case /metrics names (without the sss_
// prefix) of every exported metrics.Snapshot field, sorted. The CI smoke
// and completeness tests use it.
func CounterNames() []string {
	var names []string
	t := reflect.TypeOf(metrics.Snapshot{})
	for i := 0; i < t.NumField(); i++ {
		if f := t.Field(i); f.IsExported() {
			names = append(names, snakeCase(f.Name))
		}
	}
	sort.Strings(names)
	return names
}

// snakeCase converts a Go exported identifier to snake_case, keeping
// acronym runs together ("BytesSent" → "bytes_sent", "EvalLRUHits" →
// "eval_lru_hits").
func snakeCase(s string) string {
	var b strings.Builder
	rs := []rune(s)
	for i, r := range rs {
		if r >= 'A' && r <= 'Z' {
			// word boundary: previous is lowercase/digit, or previous is
			// uppercase and next is lowercase (end of an acronym run)
			if i > 0 {
				prevUpper := rs[i-1] >= 'A' && rs[i-1] <= 'Z'
				nextLower := i+1 < len(rs) && rs[i+1] >= 'a' && rs[i+1] <= 'z'
				if !prevUpper || nextLower {
					b.WriteByte('_')
				}
			}
			b.WriteRune(r - 'A' + 'a')
		} else {
			b.WriteRune(r)
		}
	}
	return b.String()
}
