package metrics

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// ShardCounters accumulates routing statistics for a tree-partitioned
// deployment: how many backend calls each shard absorbed and how widely
// each routed batch fanned out. It lives beside Counters but is sized by
// the deployment (one slot per shard), so it
// is its own type rather than more fixed fields. All methods are safe for
// concurrent use. A nil *ShardCounters is a valid no-op sink.
type ShardCounters struct {
	requests []atomic.Int64 // backend calls per shard
	batches  atomic.Int64   // routed batches (one per router call that touched a shard)
	fanout   atomic.Int64   // total shards touched across batches
}

// NewShardCounters builds a counter set for a deployment of n shards.
func NewShardCounters(n int) *ShardCounters {
	if n < 1 {
		n = 1
	}
	return &ShardCounters{requests: make([]atomic.Int64, n)}
}

// Shards returns the number of tracked shards.
func (c *ShardCounters) Shards() int {
	if c == nil {
		return 0
	}
	return len(c.requests)
}

// RecordBatch tallies one routed call that touched the given shards: each
// shard's request count is incremented, the batch count by one and the
// fan-out by the number of shards touched. Calls that touch no shard
// (empty key batches) are not recorded.
func (c *ShardCounters) RecordBatch(shards []int) {
	if c == nil || len(shards) == 0 {
		return
	}
	for _, s := range shards {
		if s >= 0 && s < len(c.requests) {
			c.requests[s].Add(1)
		}
	}
	c.batches.Add(1)
	c.fanout.Add(int64(len(shards)))
}

// ShardSnapshot is an immutable copy of a ShardCounters.
type ShardSnapshot struct {
	// Requests[s] is the number of backend calls routed to shard s.
	Requests []int64
	// Batches is the number of routed calls (each touching ≥ 1 shard).
	Batches int64
	// Fanout is the total number of shards touched across all batches;
	// Fanout/Batches is the average cross-shard fan-out per call.
	Fanout int64
}

// Snapshot captures the current counter values.
func (c *ShardCounters) Snapshot() ShardSnapshot {
	if c == nil {
		return ShardSnapshot{}
	}
	out := ShardSnapshot{
		Requests: make([]int64, len(c.requests)),
		Batches:  c.batches.Load(),
		Fanout:   c.fanout.Load(),
	}
	for i := range c.requests {
		out.Requests[i] = c.requests[i].Load()
	}
	return out
}

// AvgFanout returns the average number of shards touched per routed call.
func (s ShardSnapshot) AvgFanout() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.Fanout) / float64(s.Batches)
}

// String renders a compact one-line summary.
func (s ShardSnapshot) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "batches=%d fanout=%.2f requests=[", s.Batches, s.AvgFanout())
	for i, r := range s.Requests {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%d", r)
	}
	sb.WriteByte(']')
	return sb.String()
}
