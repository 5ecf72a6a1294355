// ServerAPI conformance: every implementation — the in-process store, the
// tamper wrappers, the multi-server fan-out, and the remote client over a
// loopback daemon (pipelined v2, strict v1, and pooled) — must satisfy the
// same contract. The table itself lives in internal/apitest.
package sssearch

import (
	"crypto/rand"
	"fmt"
	"net"
	"testing"

	"sssearch/internal/apitest"
	"sssearch/internal/client"
	"sssearch/internal/coalesce"
	"sssearch/internal/core"
	"sssearch/internal/drbg"
	"sssearch/internal/ring"
	"sssearch/internal/server"
	"sssearch/internal/shard"
	"sssearch/internal/sharing"
	"sssearch/internal/wire"
)

// startFixtureDaemon serves the fixture's share tree on a loopback
// listener, shut down via t.Cleanup.
func startFixtureDaemon(t *testing.T, f *apitest.Fixture) string {
	t.Helper()
	d := server.NewDaemon(f.Reference, nil)
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
	return l.Addr().String()
}

func TestConformanceLocal(t *testing.T) {
	for _, tc := range []struct {
		name string
		ring ring.Ring
	}{
		{"Fp", ring.MustFp(257)},
		{"Z", ring.MustIntQuotient(1, 0, 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			apitest.Run(t, tc.ring, func(t *testing.T, f *apitest.Fixture) core.ServerAPI {
				return f.Reference
			})
		})
	}
}

// The tamper wrappers must be transparent when their targets never fire:
// idle (no target) and aimed at a key outside the document.
func TestConformanceTamperer(t *testing.T) {
	t.Run("Idle", func(t *testing.T) {
		apitest.Run(t, ring.MustIntQuotient(1, 0, 1), func(t *testing.T, f *apitest.Fixture) core.ServerAPI {
			return &server.Tamperer{Inner: f.Reference}
		})
	})
	t.Run("MissedTarget", func(t *testing.T) {
		apitest.Run(t, ring.MustFp(257), func(t *testing.T, f *apitest.Fixture) core.ServerAPI {
			return &server.Tamperer{
				Inner:          f.Reference,
				CorruptPolyAt:  drbg.NodeKey{1 << 20},
				CorruptValueAt: drbg.NodeKey{1 << 20},
			}
		})
	})
}

// TestConformanceMultiServer registers core.MultiServer (wrapping
// in-process Locals) with both combiner implementations: the fastfield
// Lagrange batch combiner (the default) and the big.Int interpolation
// ablation, so the rewritten combine path answers to the same contract as
// every other ServerAPI.
func TestConformanceMultiServer(t *testing.T) {
	for _, tc := range []struct {
		k, n       int
		bigCombine bool
	}{
		{1, 1, false}, {2, 3, false}, {4, 4, false},
		{2, 3, true}, {4, 4, true},
	} {
		name := fmt.Sprintf("k%d_n%d", tc.k, tc.n)
		if tc.bigCombine {
			name += "_bigCombine"
		}
		t.Run(name, func(t *testing.T) {
			apitest.Run(t, ring.MustFp(257), multiServerMaker(tc.k, tc.n, tc.bigCombine))
		})
	}
}

// multiServerMaker Shamir-shares the fixture k-of-n across in-process
// Locals behind one core.MultiServer.
func multiServerMaker(k, n int, bigCombine bool) apitest.Maker {
	return func(t *testing.T, f *apitest.Fixture) core.ServerAPI {
		fp := f.Ring.(*ring.FpCyclotomic)
		shares, err := sharing.MultiSplit(f.Encoded, f.Seed, k, n, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		members := make([]core.MultiMember, len(shares))
		for i, s := range shares {
			srv, err := server.NewLocal(fp, s.Tree)
			if err != nil {
				t.Fatal(err)
			}
			members[i] = core.MultiMember{X: s.X, API: srv}
		}
		ms, err := core.NewMultiServer(fp, k, members)
		if err != nil {
			t.Fatal(err)
		}
		ms.BigCombine = bigCombine
		return ms
	}
}

// TestConformanceShardRouter registers the scatter/gather shard.Router
// with the suite: the fixture tree is partitioned into 2 and 4 shards of
// guarded in-process Locals, on both rings — the routed deployment must
// be indistinguishable from the single store it was cut from.
func TestConformanceShardRouter(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
		ring   func() ring.Ring
	}{
		{"Fp_2shards", 2, func() ring.Ring { return ring.MustFp(257) }},
		{"Fp_4shards", 4, func() ring.Ring { return ring.MustFp(257) }},
		{"Z_2shards", 2, func() ring.Ring { return ring.MustIntQuotient(1, 0, 1) }},
		{"Z_4shards", 4, func() ring.Ring { return ring.MustIntQuotient(1, 0, 1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			apitest.Run(t, tc.ring(), func(t *testing.T, f *apitest.Fixture) core.ServerAPI {
				return newShardRouter(t, f, tc.shards)
			})
		})
	}
}

// TestConformanceShardMultiServer registers the 2-D composition:
// the document is Shamir-shared 2-of-3 (MultiSplit), every member tree
// is partitioned under ONE shared manifest (the plan is shape-driven and
// all member trees mirror the document shape), and each shard's backend
// is a k-of-n MultiServer over that shard's member slices. Partition and
// replication must commute with the protocol.
func TestConformanceShardMultiServer(t *testing.T) {
	apitest.Run(t, ring.MustFp(257), shardMultiServerMaker)
}

// shardMultiServerMaker builds the 2-D composition over the fixture: two
// shards, each a 2-of-3 MultiServer.
func shardMultiServerMaker(t *testing.T, f *apitest.Fixture) core.ServerAPI {
	const shards, k, n = 2, 2, 3
	fp := f.Ring.(*ring.FpCyclotomic)
	shares, err := sharing.MultiSplit(f.Encoded, f.Seed, k, n, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	man, err := shard.Plan(shares[0].Tree, shards)
	if err != nil {
		t.Fatal(err)
	}
	// perMember[j][s] is member j's slice of shard s.
	perMember := make([][]*sharing.Tree, n)
	for j, s := range shares {
		perMember[j], err = shard.PartitionWithManifest(s.Tree, man)
		if err != nil {
			t.Fatal(err)
		}
	}
	backends := make([]core.ServerAPI, shards)
	for s := 0; s < shards; s++ {
		members := make([]core.MultiMember, n)
		for j := 0; j < n; j++ {
			local, err := server.NewLocal(fp, perMember[j][s])
			if err != nil {
				t.Fatal(err)
			}
			members[j] = core.MultiMember{X: shares[j].X, API: local}
		}
		ms, err := core.NewMultiServer(fp, k, members)
		if err != nil {
			t.Fatal(err)
		}
		backends[s] = ms
	}
	router, err := shard.NewRouter(man, backends)
	if err != nil {
		t.Fatal(err)
	}
	return router
}

// newShardRouter partitions the fixture tree into guarded in-process
// Locals behind a scatter/gather Router (shared by the router and
// coalescer conformance tables).
func newShardRouter(t *testing.T, f *apitest.Fixture, shards int) *shard.Router {
	t.Helper()
	trees, man, err := shard.Partition(f.ServerTree, shards)
	if err != nil {
		t.Fatal(err)
	}
	backends := make([]core.ServerAPI, len(trees))
	for s, st := range trees {
		local, err := server.NewLocal(f.Ring, st)
		if err != nil {
			t.Fatal(err)
		}
		guard, err := shard.NewGuard(f.Ring, local, man, s)
		if err != nil {
			t.Fatal(err)
		}
		backends[s] = guard
	}
	router, err := shard.NewRouter(man, backends)
	if err != nil {
		t.Fatal(err)
	}
	return router
}

// TestConformanceCoalesce pins the cross-session request coalescer to
// the ServerAPI contract: over the plain in-process store on both rings,
// and composed over a 2-shard guarded Router — merged passes must be
// indistinguishable from per-request serving, including error semantics
// (unknown keys must fail only their own request).
func TestConformanceCoalesce(t *testing.T) {
	t.Run("Fp", func(t *testing.T) {
		apitest.Run(t, ring.MustFp(257), func(t *testing.T, f *apitest.Fixture) core.ServerAPI {
			return coalesce.New(f.Reference, nil)
		})
	})
	t.Run("Z", func(t *testing.T) {
		apitest.Run(t, ring.MustIntQuotient(1, 0, 1), func(t *testing.T, f *apitest.Fixture) core.ServerAPI {
			return coalesce.New(f.Reference, nil)
		})
	})
	t.Run("Over2ShardRouter", func(t *testing.T) {
		apitest.Run(t, ring.MustFp(257), func(t *testing.T, f *apitest.Fixture) core.ServerAPI {
			return coalesce.New(newShardRouter(t, f, 2), nil)
		})
	})
	t.Run("Z_Over2ShardRouter", func(t *testing.T) {
		apitest.Run(t, ring.MustIntQuotient(1, 0, 1), func(t *testing.T, f *apitest.Fixture) core.ServerAPI {
			return coalesce.New(newShardRouter(t, f, 2), nil)
		})
	})
}

// TestConformanceBatcher pins the client-side micro-batcher: over a
// pipelined remote session and over a pooled connection set, both
// against a coalescing daemon — the full batched serving stack.
func TestConformanceBatcher(t *testing.T) {
	startCoalescingDaemon := func(t *testing.T, f *apitest.Fixture) string {
		t.Helper()
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
		return l.Addr().String()
	}
	t.Run("OverRemote", func(t *testing.T) {
		apitest.Run(t, ring.MustFp(257), func(t *testing.T, f *apitest.Fixture) core.ServerAPI {
			r, err := client.Dial(startCoalescingDaemon(t, f), nil)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { r.Close() })
			return client.NewBatcher(r, nil)
		})
	})
	t.Run("OverPool", func(t *testing.T) {
		apitest.Run(t, ring.MustIntQuotient(1, 0, 1), func(t *testing.T, f *apitest.Fixture) core.ServerAPI {
			p, err := client.DialPool(startCoalescingDaemon(t, f), 2, nil)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { p.Close() })
			return client.NewBatcher(p, nil)
		})
	})
}

func TestConformanceRemote(t *testing.T) {
	t.Run("Pipelined", func(t *testing.T) {
		apitest.Run(t, ring.MustIntQuotient(1, 0, 1), func(t *testing.T, f *apitest.Fixture) core.ServerAPI {
			addr := startFixtureDaemon(t, f)
			r, err := client.Dial(addr, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := r.ProtocolVersion(); got != wire.MaxVersion {
				t.Fatalf("negotiated version %d, want %d", got, wire.MaxVersion)
			}
			t.Cleanup(func() { r.Close() })
			return r
		})
	})
	t.Run("StrictV1", func(t *testing.T) {
		apitest.Run(t, ring.MustIntQuotient(1, 0, 1), func(t *testing.T, f *apitest.Fixture) core.ServerAPI {
			addr := startFixtureDaemon(t, f)
			r, err := client.DialVersion(addr, wire.Version, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := r.ProtocolVersion(); got != wire.Version {
				t.Fatalf("negotiated version %d, want %d", got, wire.Version)
			}
			t.Cleanup(func() { r.Close() })
			return r
		})
	})
	t.Run("Pool", func(t *testing.T) {
		apitest.Run(t, ring.MustFp(257), func(t *testing.T, f *apitest.Fixture) core.ServerAPI {
			addr := startFixtureDaemon(t, f)
			p, err := client.DialPool(addr, 3, nil)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { p.Close() })
			return p
		})
	})
}
