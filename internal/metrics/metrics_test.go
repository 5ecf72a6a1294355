package metrics

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestCountersAccumulate(t *testing.T) {
	c := &Counters{}
	c.AddNodesEvaluated(3)
	c.AddValuesMoved(4)
	c.AddPolysFetched(2)
	c.AddPolyBytes(100)
	c.AddRound()
	c.AddRound()
	c.AddNodesVisited(5)
	c.AddPruned(1)
	c.AddTagRecovered()
	c.AddVerifyFailure()
	c.AddBytesSent(10)
	c.AddBytesReceived(20)
	c.AddMessageSent()
	c.AddMessageReceived()
	s := c.Snapshot()
	if s.NodesEvaluated != 3 || s.ValuesMoved != 4 || s.PolysFetched != 2 ||
		s.PolyBytesMoved != 100 || s.Rounds != 2 || s.NodesVisited != 5 ||
		s.NodesPruned != 1 || s.TagsRecovered != 1 || s.VerifyFailures != 1 ||
		s.BytesSent != 10 || s.BytesReceived != 20 ||
		s.MessagesSent != 1 || s.MessagesRcvd != 1 {
		t.Errorf("snapshot = %+v", s)
	}
}

func TestSubDelta(t *testing.T) {
	c := &Counters{}
	c.AddRound()
	before := c.Snapshot()
	c.AddRound()
	c.AddValuesMoved(7)
	delta := c.Snapshot().Sub(before)
	if delta.Rounds != 1 || delta.ValuesMoved != 7 {
		t.Errorf("delta = %+v", delta)
	}
}

func TestReset(t *testing.T) {
	c := &Counters{}
	c.AddRound()
	c.AddBytesSent(99)
	c.Reset()
	s := c.Snapshot()
	if s != (Snapshot{}) {
		t.Errorf("after reset: %+v", s)
	}
}

func TestConcurrentUse(t *testing.T) {
	c := &Counters{}
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.AddNodesEvaluated(1)
				c.AddRound()
			}
		}()
	}
	wg.Wait()
	s := c.Snapshot()
	if s.NodesEvaluated != 5000 || s.Rounds != 5000 {
		t.Errorf("lost updates: %+v", s)
	}
}

func TestStringFormat(t *testing.T) {
	c := &Counters{}
	c.AddRound()
	out := c.Snapshot().String()
	if !strings.Contains(out, "rounds=1") {
		t.Errorf("String() = %q", out)
	}
}

// TestStringComplete reflects over Snapshot and gives every field a
// distinct value, then requires each value to appear in String() — so a
// future counter that is added to the struct but forgotten in the format
// string fails this test instead of silently vanishing from logs.
func TestStringComplete(t *testing.T) {
	var s Snapshot
	rv := reflect.ValueOf(&s).Elem()
	for i := 0; i < rv.NumField(); i++ {
		rv.Field(i).SetInt(int64(1000003 + i))
	}
	out := s.String()
	for i := 0; i < rv.NumField(); i++ {
		want := fmt.Sprintf("=%d", 1000003+i)
		if !strings.Contains(out, want) {
			t.Errorf("String() missing field %s (looked for %q): %s",
				rv.Type().Field(i).Name, want, out)
		}
	}
}

// TestSnapshotAdd checks the reflective merge sums every field.
func TestSnapshotAdd(t *testing.T) {
	var a, b Snapshot
	av := reflect.ValueOf(&a).Elem()
	bv := reflect.ValueOf(&b).Elem()
	for i := 0; i < av.NumField(); i++ {
		av.Field(i).SetInt(int64(i + 1))
		bv.Field(i).SetInt(int64(10 * (i + 1)))
	}
	sum := a.Add(b)
	sv := reflect.ValueOf(sum)
	for i := 0; i < sv.NumField(); i++ {
		if got, want := sv.Field(i).Int(), int64(11*(i+1)); got != want {
			t.Errorf("Add field %s = %d, want %d", sv.Type().Field(i).Name, got, want)
		}
	}
	if a.Add(Snapshot{}) != a {
		t.Errorf("Add zero changed the snapshot")
	}
}

func TestCoalesceCounters(t *testing.T) {
	c := &Counters{}
	c.AddCoalescedBatches(2)
	c.AddCoalescedRequests(9)
	c.AddCoalesceDedupHits(40)
	s := c.Snapshot()
	if s.CoalescedBatches != 2 || s.CoalescedRequests != 9 || s.CoalesceDedupHits != 40 {
		t.Errorf("snapshot = %+v", s)
	}
	delta := s.Sub(Snapshot{CoalescedBatches: 1, CoalescedRequests: 4, CoalesceDedupHits: 15})
	if delta.CoalescedBatches != 1 || delta.CoalescedRequests != 5 || delta.CoalesceDedupHits != 25 {
		t.Errorf("delta = %+v", delta)
	}
	if out := s.String(); !strings.Contains(out, "coalBatch=2") || !strings.Contains(out, "coalDedup=40") {
		t.Errorf("String() missing coalesce counters: %s", out)
	}
	c.Reset()
	if s := c.Snapshot(); s != (Snapshot{}) {
		t.Errorf("reset snapshot = %+v", s)
	}
}

// countEverything bumps every counter a Counters has.
func countEverything() Snapshot {
	c := &Counters{}
	c.AddNodesEvaluated(1)
	c.AddValuesMoved(1)
	c.AddPolysFetched(1)
	c.AddPolyBytes(1)
	c.AddRound()
	c.AddNodesVisited(1)
	c.AddPruned(1)
	c.AddTagRecovered()
	c.AddVerifyFailure()
	c.AddBytesSent(1)
	c.AddBytesReceived(1)
	c.AddMessageSent()
	c.AddMessageReceived()
	c.AddCoalescedBatches(1)
	c.AddCoalescedRequests(1)
	c.AddCoalesceDedupHits(1)
	c.AddRetries(1)
	c.AddHedgesFired(1)
	c.AddHedgesWon(1)
	c.AddRedials(1)
	c.AddMembersEjected(1)
	c.AddConnsDrained(1)
	c.AddRequestsShed(1)
	c.AddDeadlineSkips(1)
	c.AddStoreSwaps(1)
	c.AddSlowConsumerCut(1)
	return c.Snapshot()
}

// TestSharedCacheCounters: the retired cross-session cache's fields have no
// counter behind them — a snapshot reads 0 however much else is counted —
// and still subtract and render under their names.
func TestSharedCacheCounters(t *testing.T) {
	s := countEverything()
	if s.SharedPadHits != 0 || s.SharedPadMiss != 0 || s.SharedPadSingleflight != 0 ||
		s.ShareEvalHits != 0 || s.ShareEvalMiss != 0 {
		t.Errorf("snapshot = %+v", s)
	}
	s = Snapshot{SharedPadHits: 5, SharedPadMiss: 1, SharedPadSingleflight: 3, ShareEvalHits: 7, ShareEvalMiss: 2}
	delta := s.Sub(Snapshot{SharedPadHits: 2, SharedPadSingleflight: 1, ShareEvalHits: 4})
	if delta.SharedPadHits != 3 || delta.SharedPadSingleflight != 2 || delta.ShareEvalHits != 3 ||
		delta.SharedPadMiss != 1 || delta.ShareEvalMiss != 2 {
		t.Errorf("delta = %+v", delta)
	}
	if out := s.String(); !strings.Contains(out, "sharedHit=5") || !strings.Contains(out, "sharedFlight=3") ||
		!strings.Contains(out, "shareEvalHit=7") {
		t.Errorf("String() missing shared-cache fields: %s", out)
	}
}

// TestPadCacheCounters: the client pad pair, the server eval-cache pair and
// the breaker trips have no counter behind them either.
func TestPadCacheCounters(t *testing.T) {
	s := countEverything()
	if s.PadCacheHits != 0 || s.PadCacheMiss != 0 || s.EvalCacheHits != 0 || s.EvalCacheMiss != 0 || s.BreakerTrips != 0 {
		t.Errorf("snapshot = %+v", s)
	}
	s = Snapshot{PadCacheHits: 3, PadCacheMiss: 2, EvalCacheHits: 4, BreakerTrips: 1}
	delta := s.Sub(Snapshot{PadCacheHits: 1, PadCacheMiss: 1, EvalCacheHits: 1})
	if delta.PadCacheHits != 2 || delta.PadCacheMiss != 1 || delta.EvalCacheHits != 3 || delta.BreakerTrips != 1 {
		t.Errorf("delta = %+v", delta)
	}
	if out := s.String(); !strings.Contains(out, "padHit=3") || !strings.Contains(out, "padMiss=2") ||
		!strings.Contains(out, "cacheHit=4") || !strings.Contains(out, "breakerTrip=1") {
		t.Errorf("String() missing pad, eval-cache or breaker fields: %s", out)
	}
}
