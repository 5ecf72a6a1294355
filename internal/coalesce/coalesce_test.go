package coalesce_test

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"sssearch/internal/apitest"
	"sssearch/internal/client"
	"sssearch/internal/coalesce"
	"sssearch/internal/core"
	"sssearch/internal/drbg"
	"sssearch/internal/ring"
	"sssearch/internal/server"
)

// countingAPI wraps a ServerAPI and counts inner EvalNodes passes and
// evaluated keys, to observe merging from the outside.
type countingAPI struct {
	inner core.ServerAPI
	calls atomic.Int64
	keys  atomic.Int64
}

func (c *countingAPI) EvalNodes(keys []drbg.NodeKey, points []*big.Int) ([]core.NodeEval, error) {
	c.calls.Add(1)
	c.keys.Add(int64(len(keys)))
	return c.inner.EvalNodes(keys, points)
}

func (c *countingAPI) FetchPolys(keys []drbg.NodeKey) ([]core.NodePoly, error) {
	return c.inner.FetchPolys(keys)
}

func (c *countingAPI) Prune(keys []drbg.NodeKey) error { return c.inner.Prune(keys) }

// gate blocks the first inner call until released, forcing subsequent
// requests to pile up behind the in-flight drain.
type gate struct {
	core.ServerAPI
	once    sync.Once
	release chan struct{}
	entered chan struct{}
}

func (g *gate) EvalNodes(keys []drbg.NodeKey, points []*big.Int) ([]core.NodeEval, error) {
	g.once.Do(func() {
		close(g.entered)
		<-g.release
	})
	return g.ServerAPI.EvalNodes(keys, points)
}

// TestMergesQueuedRequests proves the singleflight property directly:
// requests queued behind a blocked drain collapse into one shared inner
// pass with deduplicated keys.
func TestMergesQueuedRequests(t *testing.T) {
	f := apitest.NewFixture(t, ring.MustFp(257))
	counting := &countingAPI{inner: f.Reference}
	g := &gate{ServerAPI: counting, release: make(chan struct{}), entered: make(chan struct{})}
	s := coalesce.New(g, nil)

	// Leader: occupies the drain (inner call blocked on the gate).
	leadErr := make(chan error, 1)
	go func() {
		_, err := s.EvalNodes(f.Keys[:1], f.Points[:1])
		leadErr <- err
	}()
	<-g.entered

	// Followers: all ask for the same keys while the drain is busy.
	want, err := f.Reference.EvalNodes(f.Keys, f.Points)
	if err != nil {
		t.Fatal(err)
	}
	const followers = 8
	var wg sync.WaitGroup
	errs := make(chan error, followers)
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := s.EvalNodes(f.Keys, f.Points)
			if err == nil {
				err = apitest.CompareEvals(got, want)
			}
			if err != nil {
				errs <- err
			}
		}()
	}
	// Release the gate once the followers are queued; the next drain
	// iteration must take them all in one pass.
	close(g.release)
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if err := <-leadErr; err != nil {
		t.Fatal(err)
	}

	calls := counting.calls.Load()
	keys := counting.keys.Load()
	// Uncoalesced this workload costs 1 + followers passes over
	// 1 + followers*len(keys) keys. Merged, the followers share passes;
	// the exact count depends on scheduling, but it must be well below
	// per-request serving, and the coalescer must report dedup hits.
	if calls >= followers+1 {
		t.Fatalf("%d inner passes for %d requests — nothing merged", calls, followers+1)
	}
	if keys >= int64(followers*len(f.Keys)) {
		t.Fatalf("%d inner keys — duplicates were not deduplicated", keys)
	}
	snap := s.Counters().Snapshot()
	if snap.CoalesceDedupHits == 0 || snap.CoalescedRequests == 0 {
		t.Fatalf("counters show no merging: %+v", snap)
	}
}

// TestMergedErrorIsolation: an unknown key poisoning a merged pass must
// fail only its own request; innocent requests merged with it succeed.
func TestMergedErrorIsolation(t *testing.T) {
	f := apitest.NewFixture(t, ring.MustFp(257))
	counting := &countingAPI{inner: f.Reference}
	g := &gate{ServerAPI: counting, release: make(chan struct{}), entered: make(chan struct{})}
	s := coalesce.New(g, nil)

	go func() {
		_, _ = s.EvalNodes(f.Keys[:1], f.Points[:1])
	}()
	<-g.entered

	var wg sync.WaitGroup
	goodErr := make(chan error, 4)
	badErr := make(chan error, 1)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.EvalNodes(f.Keys, f.Points[:1])
			goodErr <- err
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := s.EvalNodes([]drbg.NodeKey{f.Keys[0], f.UnknownKey()}, f.Points[:1])
		badErr <- err
	}()
	close(g.release)
	wg.Wait()
	close(goodErr)
	for err := range goodErr {
		if err != nil {
			t.Errorf("innocent request failed: %v", err)
		}
	}
	if err := <-badErr; err == nil {
		t.Error("unknown-key request succeeded")
	}
}

// TestSixteenSessionsRaceAndCancel is the cross-session stress pin: 16
// concurrent remote sessions with overlapping key windows against ONE
// coalescing daemon, some cancelling their contexts mid-batch. Every
// completed call must be byte-identical to the uncoalesced reference
// path; cancellations must only ever surface context errors.
func TestSixteenSessionsRaceAndCancel(t *testing.T) {
	f := apitest.NewFixture(t, ring.MustFp(257))

	d := server.NewDaemon(coalesce.New(f.Reference, nil), nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = d.Serve(l)
	}()
	t.Cleanup(func() {
		d.Close()
		<-done
	})

	// Uncoalesced reference answers per overlap window.
	const sessions, iters = 16, 12
	windows := make([][]drbg.NodeKey, 4)
	wants := make([][]core.NodeEval, 4)
	for i := range windows {
		windows[i] = f.Keys[i:]
		w, err := f.Reference.EvalNodes(windows[i], f.Points)
		if err != nil {
			t.Fatal(err)
		}
		wants[i] = w
	}

	errs := make(chan error, sessions)
	var cancelled, completed atomic.Int64
	var wg sync.WaitGroup
	for sID := 0; sID < sessions; sID++ {
		wg.Add(1)
		go func(sID int) {
			defer wg.Done()
			r, err := client.Dial(l.Addr().String(), nil)
			if err != nil {
				errs <- err
				return
			}
			defer r.Close()
			wi := sID % len(windows)
			keys, want := windows[wi], wants[wi]
			for i := 0; i < iters; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				if sID%4 == 3 && i%3 == 1 {
					// Mid-batch cancellation: cancel concurrently with the
					// in-flight call (the daemon still finishes the merged
					// pass for everyone else).
					go cancel()
				}
				got, err := r.EvalNodesCtx(ctx, keys, f.Points)
				cancel()
				if err != nil {
					// An abandoned call may surface ONLY a context error —
					// anything else (ErrClosed, RemoteError, wrong reply)
					// is a real failure even on a cancelling iteration.
					if errors.Is(err, context.Canceled) {
						cancelled.Add(1)
						continue
					}
					errs <- fmt.Errorf("session %d iter %d: %v", sID, i, err)
					return
				}
				completed.Add(1)
				if err := apitest.CompareEvals(got, want); err != nil {
					errs <- fmt.Errorf("session %d: %w", sID, err)
					return
				}
			}
		}(sID)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if completed.Load() == 0 {
		t.Fatal("no session completed any call")
	}
	t.Logf("completed %d calls, %d cancelled mid-batch", completed.Load(), cancelled.Load())
}

// TestRingDelegation: the wrapper must stand in for a server.Store.
func TestRingDelegation(t *testing.T) {
	f := apitest.NewFixture(t, ring.MustFp(257))
	s := coalesce.New(f.Reference, nil)
	if s.Ring() != f.Reference.Ring() {
		t.Fatal("Ring not delegated to the inner store")
	}
	var st server.Store = s // compile-time: usable behind a daemon
	_ = st
}

// misaddressing answers a merged pass — a call for three keys or more —
// one key short, or with its last answer for another key.
type misaddressing struct {
	core.ServerAPI
	short bool
}

func (m misaddressing) EvalNodes(keys []drbg.NodeKey, points []*big.Int) ([]core.NodeEval, error) {
	out, err := m.ServerAPI.EvalNodes(keys, points)
	if err != nil || len(keys) < 3 {
		return out, err
	}
	if m.short {
		return out[:len(out)-1], nil
	}
	out = slices.Clone(out)
	out[len(out)-1].Key = drbg.NodeKey{9, 9, 9}
	return out, nil
}

// TestMergerRefusesMisaddressedAnswers: a merged pass over two requests'
// mixed keys whose target answers one key short, or for a key it was not
// asked, fails both requests with an error — where the distribution used
// to index past the answers (a panic) or hand the wrong key's values out
// under the right one.
func TestMergerRefusesMisaddressedAnswers(t *testing.T) {
	f := apitest.NewFixture(t, ring.MustFp(257))
	for _, short := range []bool{true, false} {
		g := &gate{ServerAPI: misaddressing{ServerAPI: f.Reference, short: short}, release: make(chan struct{}), entered: make(chan struct{})}
		s := coalesce.New(g, nil)
		go func() { _, _ = s.EvalNodes(f.Keys[:1], f.Points) }()
		<-g.entered

		errs := make(chan error, 2)
		for _, keys := range [][]drbg.NodeKey{f.Keys[0:2], f.Keys[1:3]} {
			go func(keys []drbg.NodeKey) {
				_, err := s.EvalNodes(keys, f.Points)
				errs <- err
			}(keys)
		}
		for s.Queued() < 2 {
			runtime.Gosched()
		}
		close(g.release)
		for i := 0; i < 2; i++ {
			if err := <-errs; err == nil || !strings.Contains(err.Error(), "other keys than the merged pass asked") {
				t.Fatalf("short=%v: a member of the misaddressed pass got error %v", short, err)
			}
		}
	}
}
