package apitest

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"sssearch/internal/core"
	"sssearch/internal/drbg"
)

// ComparePolys checks a FetchPolys answer set against a reference: same
// length, aligned keys, matching child counts and share polynomials. Like
// CompareEvals it returns the first discrepancy as an error so concurrent
// callers can collect failures without touching testing.T.
func ComparePolys(got, want []core.NodePoly) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d answers, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Key.String() != want[i].Key.String() {
			return fmt.Errorf("answer %d under key %s, want %s (answers must align with request order)", i, got[i].Key, want[i].Key)
		}
		if got[i].NumChildren != want[i].NumChildren {
			return fmt.Errorf("%s: %d children, want %d", want[i].Key, got[i].NumChildren, want[i].NumChildren)
		}
		if !got[i].Polynomial().Equal(want[i].Polynomial()) {
			return fmt.Errorf("%s: polynomial differs from reference share", want[i].Key)
		}
	}
	return nil
}

// Chaos drives a resilient ServerAPI through rounds of reference-checked
// traffic while (by arrangement of the caller) its transport is injecting
// faults. The contract is byte-identity under chaos: every EvalNodes and
// FetchPolys answer must match the fault-free reference exactly — a retry
// or failover that changed an answer is a correctness bug, not a
// robustness feature — and semantics must survive too: an unknown key must
// STILL be an error (a resilience layer that "retries away" the server's
// answer would be lying). The rounds rotate key windows so coalescing and
// batching wrappers see both identical and offset requests, then a
// concurrent phase hammers the same checks from several goroutines.
//
// The api under test must mask every injected fault: any error other than
// the deliberate unknown-key probe fails the test.
func Chaos(t *testing.T, f *Fixture, api core.ServerAPI, rounds int) {
	t.Helper()
	if rounds < 4 {
		rounds = 4
	}
	check := newChecker(t, f, api)

	// Sequential phase: faults land between and inside single calls.
	for r := 0; r < rounds; r++ {
		if err := check(r); err != nil {
			t.Fatal(err)
		}
	}

	// Concurrent phase: faults land while several calls are in flight, so
	// re-dials, ejections and failovers race live traffic.
	const goroutines = 4
	perG := rounds / goroutines
	if perG < 2 {
		perG = 2
	}
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < perG; r++ {
				if err := check(g*101 + r); err != nil {
					errs <- fmt.Errorf("goroutine %d: %w", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

// newChecker precomputes fault-free reference answers over rotating key
// windows and returns the per-round checker the chaos harnesses share:
// byte-identity for EvalNodes/FetchPolys, plus semantic preservation —
// an unknown key must STILL be an error through every masking layer.
func newChecker(t *testing.T, f *Fixture, api core.ServerAPI) func(round int) error {
	t.Helper()
	windows := len(f.Keys) - 1
	if windows > 6 {
		windows = 6
	}
	if windows < 1 {
		windows = 1
	}
	wantEvals := make([][]core.NodeEval, windows)
	wantPolys := make([][]core.NodePoly, windows)
	for off := 0; off < windows; off++ {
		we, err := f.Reference.EvalNodes(f.Keys[off:], f.Points)
		if err != nil {
			t.Fatal(err)
		}
		wp, err := f.Reference.FetchPolys(f.Keys[off:])
		if err != nil {
			t.Fatal(err)
		}
		wantEvals[off] = we
		wantPolys[off] = wp
	}
	return func(round int) error {
		off := round % windows
		keys := f.Keys[off:]
		if round%3 == 2 {
			got, err := api.FetchPolys(keys)
			if err != nil {
				return fmt.Errorf("round %d: FetchPolys: %w", round, err)
			}
			if err := ComparePolys(got, wantPolys[off]); err != nil {
				return fmt.Errorf("round %d: FetchPolys: %w", round, err)
			}
		} else {
			got, err := api.EvalNodes(keys, f.Points)
			if err != nil {
				return fmt.Errorf("round %d: EvalNodes: %w", round, err)
			}
			if err := CompareEvals(got, wantEvals[off]); err != nil {
				return fmt.Errorf("round %d: EvalNodes: %w", round, err)
			}
		}
		if round%5 == 4 {
			// Semantic preservation: the server's unknown-key answer must
			// come through the fault-masking layers untouched.
			if _, err := api.EvalNodes([]drbg.NodeKey{f.UnknownKey()}, f.Points[:1]); err == nil {
				return fmt.Errorf("round %d: unknown key answered", round)
			}
		}
		return nil
	}
}

// ChaosOverload floods api from many goroutines released on one barrier —
// against a daemon whose admission cap is set well below the offered
// concurrency, so requests are being shed the whole time — and requires
// every answer byte-identical to the fault-free reference. Masking the
// typed shed errors (retry with the hint, fail over, breaker probing) is
// the resilient layer's job; the caller asserts via daemon counters that
// sheds actually fired, so a passing run proves typed-error handling
// rather than an idle daemon.
func ChaosOverload(t *testing.T, f *Fixture, api core.ServerAPI, goroutines, waves int) {
	t.Helper()
	if goroutines < 2 {
		goroutines = 2
	}
	if waves < 2 {
		waves = 2
	}
	check := newChecker(t, f, api)
	start := make(chan struct{})
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for r := 0; r < waves; r++ {
				if err := check(g*211 + r); err != nil {
					errs <- fmt.Errorf("goroutine %d: %w", g, err)
					return
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

// ChaosHotSwap runs concurrent reference-checked traffic while swap()
// keeps replacing the served store(s) mid-wave. Because each swap
// installs an equivalent store, byte-identity across the swap IS the
// zero-downtime contract: no request may error, tear, or answer from a
// half-installed store. swap runs from its own goroutine for the whole
// traffic window, so swaps land inside in-flight batches, not between
// them.
func ChaosHotSwap(t *testing.T, f *Fixture, api core.ServerAPI, swap func() error, goroutines, waves int) {
	t.Helper()
	if goroutines < 2 {
		goroutines = 2
	}
	if waves < 2 {
		waves = 2
	}
	check := newChecker(t, f, api)
	stop := make(chan struct{})
	swapErr := make(chan error, 1)
	go func() {
		defer close(swapErr)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := swap(); err != nil {
				swapErr <- err
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < waves; r++ {
				if err := check(g*307 + r); err != nil {
					errs <- fmt.Errorf("goroutine %d: %w", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	if err, ok := <-swapErr; ok && err != nil {
		t.Fatalf("mid-wave store swap failed: %v", err)
	}
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}
