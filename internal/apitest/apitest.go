// Package apitest is a shared conformance suite for core.ServerAPI
// implementations. Every transport and wrapper — the in-process Local
// store, the tamper harness, the multi-server fan-out, the remote client
// over a loopback daemon — must prove the same contract: evaluations
// match the reference share tree, unknown keys error, empty or duplicate
// key batches behave predictably, and the retained Prune is a no-op. New ServerAPI implementations register a Maker in a test
// and get the whole table for free.
package apitest

import (
	"fmt"
	"math/big"
	"sync"
	"testing"

	"sssearch/internal/core"
	"sssearch/internal/drbg"
	"sssearch/internal/mapping"
	"sssearch/internal/polyenc"
	"sssearch/internal/ring"
	"sssearch/internal/server"
	"sssearch/internal/sharing"
	"sssearch/internal/workload"
	"sssearch/internal/xmltree"
)

// Fixture is the shared world a ServerAPI implementation is checked
// against: a small document encoded and split with a fixed seed, the
// single-server share tree, and a reference server.Local over it.
type Fixture struct {
	Ring       ring.Ring
	Mapping    *mapping.Map
	Seed       drbg.Seed
	Encoded    *polyenc.Tree
	ServerTree *sharing.Tree
	Reference  *server.Local

	// Keys is every node key of the document in walk order.
	Keys []drbg.NodeKey
	// Points are valid evaluation points (assigned tag-mapping values).
	Points []*big.Int
}

// NewFixture builds the fixture over ring r. The document shape and seed
// are deterministic so every implementation sees the same world.
func NewFixture(t testing.TB, r ring.Ring) *Fixture {
	t.Helper()
	f := NewFixtureOver(t, r, workload.RandomTree(workload.TreeConfig{Nodes: 30, MaxFanout: 3, Vocab: 8, Seed: 99}))
	for i := 0; i < 8 && len(f.Points) < 3; i++ {
		if v, ok := f.Mapping.Value(workloadTag(i)); ok {
			f.Points = append(f.Points, v)
		}
	}
	if len(f.Points) < 2 {
		t.Fatalf("apitest: only %d usable points", len(f.Points))
	}
	return f
}

// NewFixtureOver builds the fixture's world over a document of the
// caller's — for suites that run whole queries through the registered
// topologies and need its plaintext — leaving Points empty.
func NewFixtureOver(t testing.TB, r ring.Ring, doc *xmltree.Node) *Fixture {
	t.Helper()
	m, err := mapping.New(r.MaxTag(), []byte("apitest"))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := polyenc.Encode(r, doc, m)
	if err != nil {
		t.Fatal(err)
	}
	var seed drbg.Seed
	for i := range seed {
		seed[i] = 0xA7
	}
	tree, err := sharing.Split(enc, seed)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := server.NewLocal(r, tree)
	if err != nil {
		t.Fatal(err)
	}
	f := &Fixture{
		Ring:       r,
		Mapping:    m,
		Seed:       seed,
		Encoded:    enc,
		ServerTree: tree,
		Reference:  ref,
	}
	enc.Walk(func(key drbg.NodeKey, _ *polyenc.Node) bool {
		f.Keys = append(f.Keys, key)
		return true
	})
	if len(f.Keys) == 0 {
		t.Fatal("apitest: fixture has no keys")
	}
	return f
}

func workloadTag(i int) string {
	return "t" + string(rune('0'+i))
}

// UnknownKey returns a key that is guaranteed absent from the document.
func (f *Fixture) UnknownKey() drbg.NodeKey {
	return drbg.NodeKey{1 << 30, 7, 7}
}

// Maker builds the ServerAPI under test over the fixture's share tree.
// Use t.Cleanup for teardown (daemons, connections).
type Maker func(t *testing.T, f *Fixture) core.ServerAPI

// CompareEvals checks an answer set against a reference: same length,
// aligned keys, matching child counts and per-point values. It returns
// the first discrepancy as an error (nil when identical), so concurrent
// callers can collect failures without touching testing.T.
func CompareEvals(got, want []core.NodeEval) error {
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
		if got[i].Len() != want[i].Len() {
			return fmt.Errorf("%s: %d values, want %d", want[i].Key, got[i].Len(), want[i].Len())
		}
		// Words against words where both answers have them; an answer in the
		// big.Int form is compared there.
		if len(got[i].Big) == 0 && len(want[i].Big) == 0 {
			for j, w := range want[i].Words {
				if got[i].Words[j] != w {
					return fmt.Errorf("%s at point %d: %d, want %d", want[i].Key, j, got[i].Words[j], w)
				}
			}
			continue
		}
		gv, wv := got[i].Values(), want[i].Values()
		for j := range wv {
			if gv[j].Cmp(wv[j]) != 0 {
				return fmt.Errorf("%s at point %d: %v, want %v", want[i].Key, j, gv[j], wv[j])
			}
		}
	}
	return nil
}

// Run executes the full conformance table against the implementation
// produced by mk over ring r.
func Run(t *testing.T, r ring.Ring, mk Maker) {
	f := NewFixture(t, r)
	api := mk(t, f)

	t.Run("EvalMatchesReference", func(t *testing.T) {
		want, err := f.Reference.EvalNodes(f.Keys, f.Points)
		if err != nil {
			t.Fatal(err)
		}
		got, err := api.EvalNodes(f.Keys, f.Points)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) > 0 && got[0].Len() != len(f.Points) {
			t.Fatalf("%s: %d values for %d points", got[0].Key, got[0].Len(), len(f.Points))
		}
		if err := CompareEvals(got, want); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("EvalEmptyKeyBatch", func(t *testing.T) {
		got, err := api.EvalNodes(nil, f.Points)
		if err != nil {
			t.Fatalf("empty key batch must not error: %v", err)
		}
		if len(got) != 0 {
			t.Fatalf("%d answers for empty batch", len(got))
		}
	})

	t.Run("EvalNoPoints", func(t *testing.T) {
		keys := f.Keys[:1]
		got, err := api.EvalNodes(keys, nil)
		if err != nil {
			t.Fatalf("empty point list must not error: %v", err)
		}
		if len(got) != 1 || got[0].Len() != 0 {
			t.Fatalf("unexpected shape for pointless eval: %+v", got)
		}
	})

	t.Run("EvalDuplicateKeys", func(t *testing.T) {
		k := f.Keys[0]
		dup := []drbg.NodeKey{k, k, f.Keys[len(f.Keys)-1]}
		got, err := api.EvalNodes(dup, f.Points[:1])
		if err != nil {
			t.Fatalf("duplicate keys must not error: %v", err)
		}
		if len(got) != 3 {
			t.Fatalf("%d answers for 3 keys (duplicates must answer per occurrence)", len(got))
		}
		for i, want := range dup {
			if got[i].Key.String() != want.String() {
				t.Errorf("answer %d for %s, want %s", i, got[i].Key, want)
			}
		}
		if got[0].Values()[0].Cmp(got[1].Values()[0]) != 0 {
			t.Error("duplicate occurrences of one key disagree")
		}
	})

	t.Run("EvalUnknownKey", func(t *testing.T) {
		if _, err := api.EvalNodes([]drbg.NodeKey{f.UnknownKey()}, f.Points[:1]); err == nil {
			t.Fatal("unknown key must be an error")
		}
		// A bad key must not poison the session for later calls.
		if _, err := api.EvalNodes(f.Keys[:1], f.Points[:1]); err != nil {
			t.Fatalf("call after unknown-key error failed: %v", err)
		}
	})

	t.Run("FetchMatchesReference", func(t *testing.T) {
		want, err := f.Reference.FetchPolys(f.Keys)
		if err != nil {
			t.Fatal(err)
		}
		got, err := api.FetchPolys(f.Keys)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%d answers, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i].Key.String() != want[i].Key.String() {
				t.Fatalf("answer %d for key %s, want %s", i, got[i].Key, want[i].Key)
			}
			if got[i].NumChildren != want[i].NumChildren {
				t.Errorf("%s: %d children, want %d", want[i].Key, got[i].NumChildren, want[i].NumChildren)
			}
			if !got[i].Polynomial().Equal(want[i].Polynomial()) {
				t.Errorf("%s: polynomial differs from reference share", want[i].Key)
			}
		}
	})

	t.Run("FetchUnknownKey", func(t *testing.T) {
		if _, err := api.FetchPolys([]drbg.NodeKey{f.UnknownKey()}); err == nil {
			t.Fatal("unknown key must be an error")
		}
	})

	t.Run("ConcurrentEvalIdentical", func(t *testing.T) {
		// The ServerAPI contract requires concurrent safety, and batching
		// or coalescing wrappers must return byte-identical answers under
		// contention: 8 goroutines hammer overlapping key windows (some
		// identical, some offset, so both the shared-pass and the
		// mixed-merge paths fire) and every answer must match the
		// reference.
		const goroutines, iters = 8, 4
		offsets := []int{0, 0, 1, 2} // several goroutines share each window
		wants := make([][]core.NodeEval, len(offsets))
		for i, off := range offsets {
			w, err := f.Reference.EvalNodes(f.Keys[off:], f.Points)
			if err != nil {
				t.Fatal(err)
			}
			wants[i] = w
		}
		errs := make(chan error, goroutines)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				oi := g % len(offsets)
				keys, want := f.Keys[offsets[oi]:], wants[oi]
				for i := 0; i < iters; i++ {
					got, err := api.EvalNodes(keys, f.Points)
					if err == nil {
						err = CompareEvals(got, want)
					}
					if err != nil {
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
	})

	// Prune is kept only until the benchmark's tap stops forwarding it:
	// every implementation returns nil, for any keys, and leaves the
	// answers alone.
	t.Run("PruneSemantics", func(t *testing.T) {
		if err := api.Prune(append(f.Keys[:2:2], drbg.NodeKey{1 << 30})); err != nil {
			t.Fatalf("Prune returned %v, want nil", err)
		}
		if err := api.Prune(nil); err != nil {
			t.Fatalf("empty Prune returned %v, want nil", err)
		}
		if _, err := api.EvalNodes(f.Keys[:2], f.Points[:1]); err != nil {
			t.Fatalf("eval after Prune failed: %v", err)
		}
	})
}
