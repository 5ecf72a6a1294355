package obs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"sync/atomic"
	"time"
)

// Trace identifies one logical query across every leg the serving stack
// fans it into: retried attempts, hedged spares, shard sub-batches and
// coalesced merge passes all carry the same ID, so a slow request can be
// followed end to end. The zero Trace means "not traced" — requests only
// carry a trace when sampling selected them, so the unsampled path pays
// nothing on the wire or in allocations.
type Trace struct {
	ID      uint64
	Sampled bool
}

// sampleEvery is the sampling knob: 0 = never (default), 1 = every
// request, n = one in n.
var sampleEvery atomic.Uint64

// sampleTick counts NewTrace calls for the 1-in-n selection.
var sampleTick atomic.Uint64

// traceCtr and traceSeed drive ID generation: a process-random seed
// whitened through splitmix64 per counter increment, so IDs are unique
// within a process and collide across processes only at birthday-bound
// rates.
var (
	traceCtr  atomic.Uint64
	traceSeed = func() uint64 {
		var b [8]byte
		if _, err := rand.Read(b[:]); err != nil {
			return 0x9e3779b97f4a7c15 // deterministic fallback: IDs stay unique in-process
		}
		return binary.LittleEndian.Uint64(b[:])
	}()
)

// SetSampleEvery sets the trace sampling rate: 0 disables tracing
// (default), 1 samples every request, n samples one in n. Applies
// process-wide to every trace origin (engines, batchers).
func SetSampleEvery(n int) {
	if n < 0 {
		n = 0
	}
	sampleEvery.Store(uint64(n))
}

// SampleEvery returns the current sampling rate.
func SampleEvery() int { return int(sampleEvery.Load()) }

// NewTrace draws the sampling decision for a new logical query. With
// sampling off (the default) it is one atomic load returning the zero
// Trace; when the 1-in-n tick selects the request it mints a fresh ID.
func NewTrace() Trace {
	n := sampleEvery.Load()
	if n == 0 {
		return Trace{}
	}
	if n > 1 && sampleTick.Add(1)%n != 0 {
		return Trace{}
	}
	return Trace{ID: splitmix64(traceSeed + traceCtr.Add(1)), Sampled: true}
}

// splitmix64 is the finalizer of the splitmix64 generator — a cheap
// bijective whitener, the same construction the resilience jitter uses.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Span accumulates the per-stage time of one sampled request on one side
// of the wire. Stage accumulators are atomic because parallel legs of
// one query (engine batches, hedged spares) add into the same span
// concurrently. Spans are created only for sampled traces.
type Span struct {
	Trace Trace
	// Op labels what the span covers ("query", "eval", …).
	Op    string
	start time.Time

	stages [NumStages]atomic.Int64 // accumulated ns per stage
}

// StartSpan opens a span for a sampled trace, starting now.
func StartSpan(op string, tr Trace) *Span { return StartSpanAt(op, tr, time.Now()) }

// StartSpanAt opens a span whose clock started at start (the daemon uses
// the frame-arrival time, so server spans cover arrival → response
// written).
func StartSpanAt(op string, tr Trace, start time.Time) *Span {
	return &Span{Trace: tr, Op: op, start: start}
}

// Add accumulates stage time into the span. Safe on a nil span and from
// concurrent goroutines.
func (sp *Span) Add(s Stage, d time.Duration) {
	if sp == nil || s < 0 || int(s) >= NumStages || d <= 0 {
		return
	}
	sp.stages[s].Add(int64(d))
}

// Start returns the span's start time.
func (sp *Span) Start() time.Time { return sp.start }

// SpanLogger receives finished span events. *slog.Logger satisfies it
// via SlogSpans; tests use their own recorder.
type SpanLogger interface {
	SpanEvent(e SlowEntry)
}

// FinishSpan closes a span against this observer: the elapsed total and
// stage breakdown are recorded into the slow-query log and emitted as a
// span event. Returns the span's total duration. Safe on a nil observer
// or span (the duration is still measured when possible).
func (o *Observer) FinishSpan(sp *Span) time.Duration {
	if sp == nil {
		return 0
	}
	total := time.Since(sp.start)
	if o == nil || !sp.Trace.Sampled {
		return total
	}
	e := SlowEntry{
		TraceID: sp.Trace.ID,
		Op:      sp.Op,
		Start:   sp.start,
		Total:   total,
	}
	for i := range e.Stages {
		e.Stages[i] = time.Duration(sp.stages[i].Load())
	}
	o.Slow.Record(e)
	if o.SpanLogger != nil {
		o.SpanLogger.SpanEvent(e)
	}
	return total
}

// spanKey carries a *Span through a context.
type spanKey struct{}

// WithSpan attaches a span to the context; every layer below forwards
// the context, so retried, hedged and coalesced legs read the same span.
func WithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, sp)
}

// SpanFrom returns the context's span, or nil.
func SpanFrom(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}
