// Package metrics provides the instrumentation counters the experiment
// harness reports: protocol work (node evaluations, rounds), transfer
// volume (scalar values, polynomials, raw bytes) and verification effort.
package metrics

import (
	"fmt"
	"reflect"
	"sync/atomic"
)

// Counters accumulates protocol statistics. All methods are safe for
// concurrent use. The zero value is ready to use.
type Counters struct {
	nodesEvaluated atomic.Int64 // node×point evaluations performed
	valuesMoved    atomic.Int64 // scalar values sent server→client
	polysFetched   atomic.Int64 // full polynomials sent server→client
	polyBytesMoved atomic.Int64 // bytes of polynomial payloads
	rounds         atomic.Int64 // protocol round trips
	nodesVisited   atomic.Int64 // distinct nodes touched by the protocol
	nodesPruned    atomic.Int64 // subtree prunes issued
	tagsRecovered  atomic.Int64 // RecoverTag invocations
	verifyFailures atomic.Int64 // detected inconsistencies
	bytesSent      atomic.Int64 // wire bytes client→server
	bytesReceived  atomic.Int64 // wire bytes server→client
	messagesSent   atomic.Int64
	messagesRcvd   atomic.Int64

	// Coalescing tallies, counted by a coalesce.Server on its own Counters
	// instance: merged inner evaluation passes. No default serving path
	// builds one, so they read 0 outside the benchmark's traced run.
	coalescedBatches  atomic.Int64 // shared passes that served >1 queued request
	coalescedRequests atomic.Int64 // Eval requests absorbed into shared passes
	coalesceDedupHits atomic.Int64 // duplicate (node, point-set) evals avoided

	// Fault-tolerance tallies (internal/resilience and friends): calls
	// re-attempted after transport faults, hedged spare calls launched and
	// spare answers that made the k-set, connections re-dialed after a
	// break, pool members ejected by health tracking, and daemon
	// connections that completed a graceful drain.
	retries        atomic.Int64 // retried calls (transport faults re-attempted)
	hedgesFired    atomic.Int64 // spare member calls launched by the hedge timer
	hedgesWon      atomic.Int64 // spare answers that were needed for the k-set
	redials        atomic.Int64 // connections re-established after a break
	membersEjected atomic.Int64 // pool members removed by health tracking
	connsDrained   atomic.Int64 // daemon connections gracefully drained

	// Overload-protection and live-operations tallies: requests shed by
	// admission control, requests skipped because their propagated
	// deadline had already expired, live store swaps completed, and
	// connections cut because the peer would not drain its responses.
	requestsShed    atomic.Int64 // requests answered with CodeOverloaded
	deadlineSkips   atomic.Int64 // requests skipped, deadline already past
	storeSwaps      atomic.Int64 // Daemon.SwapStore epochs completed
	slowConsumerCut atomic.Int64 // connections disconnected as slow consumers
}

// Add* methods increment the corresponding counter.

func (c *Counters) AddNodesEvaluated(n int) { c.nodesEvaluated.Add(int64(n)) }
func (c *Counters) AddValuesMoved(n int)    { c.valuesMoved.Add(int64(n)) }
func (c *Counters) AddPolysFetched(n int)   { c.polysFetched.Add(int64(n)) }
func (c *Counters) AddPolyBytes(n int)      { c.polyBytesMoved.Add(int64(n)) }
func (c *Counters) AddRound()               { c.rounds.Add(1) }
func (c *Counters) AddNodesVisited(n int)   { c.nodesVisited.Add(int64(n)) }
func (c *Counters) AddPruned(n int)         { c.nodesPruned.Add(int64(n)) }
func (c *Counters) AddTagRecovered()        { c.tagsRecovered.Add(1) }
func (c *Counters) AddVerifyFailure()       { c.verifyFailures.Add(1) }
func (c *Counters) AddBytesSent(n int)      { c.bytesSent.Add(int64(n)) }
func (c *Counters) AddBytesReceived(n int)  { c.bytesReceived.Add(int64(n)) }
func (c *Counters) AddMessageSent()         { c.messagesSent.Add(1) }
func (c *Counters) AddMessageReceived()     { c.messagesRcvd.Add(1) }

func (c *Counters) AddCoalescedBatches(n int)  { c.coalescedBatches.Add(int64(n)) }
func (c *Counters) AddCoalescedRequests(n int) { c.coalescedRequests.Add(int64(n)) }
func (c *Counters) AddCoalesceDedupHits(n int) { c.coalesceDedupHits.Add(int64(n)) }

func (c *Counters) AddRetries(n int)        { c.retries.Add(int64(n)) }
func (c *Counters) AddHedgesFired(n int)    { c.hedgesFired.Add(int64(n)) }
func (c *Counters) AddHedgesWon(n int)      { c.hedgesWon.Add(int64(n)) }
func (c *Counters) AddRedials(n int)        { c.redials.Add(int64(n)) }
func (c *Counters) AddMembersEjected(n int) { c.membersEjected.Add(int64(n)) }
func (c *Counters) AddConnsDrained(n int)   { c.connsDrained.Add(int64(n)) }

func (c *Counters) AddRequestsShed(n int)    { c.requestsShed.Add(int64(n)) }
func (c *Counters) AddDeadlineSkips(n int)   { c.deadlineSkips.Add(int64(n)) }
func (c *Counters) AddStoreSwaps(n int)      { c.storeSwaps.Add(int64(n)) }
func (c *Counters) AddSlowConsumerCut(n int) { c.slowConsumerCut.Add(int64(n)) }

// Snapshot is an immutable copy of the counters. EvalCache*, PadCache*,
// SharedPad*, ShareEval* and BreakerTrips have no counter behind them and
// read 0; they stay so that the /metrics names and the benchmark's reads
// are unchanged.
type Snapshot struct {
	NodesEvaluated int64
	ValuesMoved    int64
	PolysFetched   int64
	PolyBytesMoved int64
	Rounds         int64
	NodesVisited   int64
	NodesPruned    int64
	TagsRecovered  int64
	VerifyFailures int64
	BytesSent      int64
	BytesReceived  int64
	MessagesSent   int64
	MessagesRcvd   int64
	EvalCacheHits  int64
	EvalCacheMiss  int64
	PadCacheHits   int64
	PadCacheMiss   int64

	CoalescedBatches  int64
	CoalescedRequests int64
	CoalesceDedupHits int64

	SharedPadHits         int64
	SharedPadMiss         int64
	SharedPadSingleflight int64
	ShareEvalHits         int64
	ShareEvalMiss         int64

	Retries        int64
	HedgesFired    int64
	HedgesWon      int64
	Redials        int64
	MembersEjected int64
	ConnsDrained   int64

	RequestsShed    int64
	DeadlineSkips   int64
	BreakerTrips    int64
	StoreSwaps      int64
	SlowConsumerCut int64
}

// Snapshot captures the current counter values.
func (c *Counters) Snapshot() Snapshot {
	return Snapshot{
		NodesEvaluated: c.nodesEvaluated.Load(),
		ValuesMoved:    c.valuesMoved.Load(),
		PolysFetched:   c.polysFetched.Load(),
		PolyBytesMoved: c.polyBytesMoved.Load(),
		Rounds:         c.rounds.Load(),
		NodesVisited:   c.nodesVisited.Load(),
		NodesPruned:    c.nodesPruned.Load(),
		TagsRecovered:  c.tagsRecovered.Load(),
		VerifyFailures: c.verifyFailures.Load(),
		BytesSent:      c.bytesSent.Load(),
		BytesReceived:  c.bytesReceived.Load(),
		MessagesSent:   c.messagesSent.Load(),
		MessagesRcvd:   c.messagesRcvd.Load(),

		CoalescedBatches:  c.coalescedBatches.Load(),
		CoalescedRequests: c.coalescedRequests.Load(),
		CoalesceDedupHits: c.coalesceDedupHits.Load(),

		Retries:        c.retries.Load(),
		HedgesFired:    c.hedgesFired.Load(),
		HedgesWon:      c.hedgesWon.Load(),
		Redials:        c.redials.Load(),
		MembersEjected: c.membersEjected.Load(),
		ConnsDrained:   c.connsDrained.Load(),

		RequestsShed:    c.requestsShed.Load(),
		DeadlineSkips:   c.deadlineSkips.Load(),
		StoreSwaps:      c.storeSwaps.Load(),
		SlowConsumerCut: c.slowConsumerCut.Load(),
	}
}

// Reset zeroes all counters.
func (c *Counters) Reset() {
	c.nodesEvaluated.Store(0)
	c.valuesMoved.Store(0)
	c.polysFetched.Store(0)
	c.polyBytesMoved.Store(0)
	c.rounds.Store(0)
	c.nodesVisited.Store(0)
	c.nodesPruned.Store(0)
	c.tagsRecovered.Store(0)
	c.verifyFailures.Store(0)
	c.bytesSent.Store(0)
	c.bytesReceived.Store(0)
	c.messagesSent.Store(0)
	c.messagesRcvd.Store(0)
	c.coalescedBatches.Store(0)
	c.coalescedRequests.Store(0)
	c.coalesceDedupHits.Store(0)
	c.retries.Store(0)
	c.hedgesFired.Store(0)
	c.hedgesWon.Store(0)
	c.redials.Store(0)
	c.membersEjected.Store(0)
	c.connsDrained.Store(0)
	c.requestsShed.Store(0)
	c.deadlineSkips.Store(0)
	c.storeSwaps.Store(0)
	c.slowConsumerCut.Store(0)
}

// Sub returns the delta s - prev, for per-query deltas over a shared
// counter set.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	return Snapshot{
		NodesEvaluated: s.NodesEvaluated - prev.NodesEvaluated,
		ValuesMoved:    s.ValuesMoved - prev.ValuesMoved,
		PolysFetched:   s.PolysFetched - prev.PolysFetched,
		PolyBytesMoved: s.PolyBytesMoved - prev.PolyBytesMoved,
		Rounds:         s.Rounds - prev.Rounds,
		NodesVisited:   s.NodesVisited - prev.NodesVisited,
		NodesPruned:    s.NodesPruned - prev.NodesPruned,
		TagsRecovered:  s.TagsRecovered - prev.TagsRecovered,
		VerifyFailures: s.VerifyFailures - prev.VerifyFailures,
		BytesSent:      s.BytesSent - prev.BytesSent,
		BytesReceived:  s.BytesReceived - prev.BytesReceived,
		MessagesSent:   s.MessagesSent - prev.MessagesSent,
		MessagesRcvd:   s.MessagesRcvd - prev.MessagesRcvd,
		EvalCacheHits:  s.EvalCacheHits - prev.EvalCacheHits,
		EvalCacheMiss:  s.EvalCacheMiss - prev.EvalCacheMiss,
		PadCacheHits:   s.PadCacheHits - prev.PadCacheHits,
		PadCacheMiss:   s.PadCacheMiss - prev.PadCacheMiss,

		CoalescedBatches:  s.CoalescedBatches - prev.CoalescedBatches,
		CoalescedRequests: s.CoalescedRequests - prev.CoalescedRequests,
		CoalesceDedupHits: s.CoalesceDedupHits - prev.CoalesceDedupHits,

		SharedPadHits:         s.SharedPadHits - prev.SharedPadHits,
		SharedPadMiss:         s.SharedPadMiss - prev.SharedPadMiss,
		SharedPadSingleflight: s.SharedPadSingleflight - prev.SharedPadSingleflight,
		ShareEvalHits:         s.ShareEvalHits - prev.ShareEvalHits,
		ShareEvalMiss:         s.ShareEvalMiss - prev.ShareEvalMiss,

		Retries:        s.Retries - prev.Retries,
		HedgesFired:    s.HedgesFired - prev.HedgesFired,
		HedgesWon:      s.HedgesWon - prev.HedgesWon,
		Redials:        s.Redials - prev.Redials,
		MembersEjected: s.MembersEjected - prev.MembersEjected,
		ConnsDrained:   s.ConnsDrained - prev.ConnsDrained,

		RequestsShed:    s.RequestsShed - prev.RequestsShed,
		DeadlineSkips:   s.DeadlineSkips - prev.DeadlineSkips,
		BreakerTrips:    s.BreakerTrips - prev.BreakerTrips,
		StoreSwaps:      s.StoreSwaps - prev.StoreSwaps,
		SlowConsumerCut: s.SlowConsumerCut - prev.SlowConsumerCut,
	}
}

// Add returns the field-wise sum s + o, for merging snapshots taken
// from distinct Counters (e.g. a daemon's and its coalescer's) into one
// reporting surface. Implemented reflectively so a counter added to the
// struct is summed without a code change here.
func (s Snapshot) Add(o Snapshot) Snapshot {
	out := s
	ov := reflect.ValueOf(o)
	rv := reflect.ValueOf(&out).Elem()
	for i := 0; i < rv.NumField(); i++ {
		f := rv.Field(i)
		f.SetInt(f.Int() + ov.Field(i).Int())
	}
	return out
}

// String renders a compact one-line summary.
func (s Snapshot) String() string {
	return fmt.Sprintf("evals=%d values=%d polys=%d polyB=%d rounds=%d visited=%d pruned=%d recovered=%d failures=%d sent=%d recvd=%d msgsSent=%d msgsRcvd=%d cacheHit=%d cacheMiss=%d padHit=%d padMiss=%d coalBatch=%d coalReq=%d coalDedup=%d sharedHit=%d sharedMiss=%d sharedFlight=%d shareEvalHit=%d shareEvalMiss=%d retries=%d hedged=%d hedgeWon=%d redials=%d ejected=%d drained=%d shed=%d deadlineSkip=%d breakerTrip=%d storeSwap=%d slowCut=%d",
		s.NodesEvaluated, s.ValuesMoved, s.PolysFetched, s.PolyBytesMoved,
		s.Rounds, s.NodesVisited, s.NodesPruned, s.TagsRecovered, s.VerifyFailures,
		s.BytesSent, s.BytesReceived, s.MessagesSent, s.MessagesRcvd,
		s.EvalCacheHits, s.EvalCacheMiss, s.PadCacheHits, s.PadCacheMiss,
		s.CoalescedBatches, s.CoalescedRequests, s.CoalesceDedupHits,
		s.SharedPadHits, s.SharedPadMiss, s.SharedPadSingleflight,
		s.ShareEvalHits, s.ShareEvalMiss,
		s.Retries, s.HedgesFired, s.HedgesWon, s.Redials, s.MembersEjected, s.ConnsDrained,
		s.RequestsShed, s.DeadlineSkips, s.BreakerTrips, s.StoreSwaps, s.SlowConsumerCut)
}
