// Sharded deployment tests: the differential harness (a partitioned
// deployment must return byte-identical results to the single store it
// was cut from, at every verification level, on both rings), the
// end-to-end TCP path through guarded daemons, and the Session.Close
// connection-leak check.
package sssearch

import (
	"fmt"
	"net"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"sssearch/internal/drbg"
	"sssearch/internal/workload"
)

// shardTestBundle outsources a deterministic 180-node document.
func shardTestBundle(t *testing.T, cfg Config) (*Document, *Bundle) {
	t.Helper()
	return shardTestBundleOf(t, cfg, 180)
}

// shardTestBundleOf is shardTestBundle at a chosen document size.
func shardTestBundleOf(t *testing.T, cfg Config, nodes int) (*Document, *Bundle) {
	t.Helper()
	doc := workload.RandomTree(workload.TreeConfig{Nodes: nodes, MaxFanout: 3, Vocab: 6, Seed: 2026})
	cfg.Seed = drbg.Seed{1: 0xD1, 7: 0x44}
	cfg.Secret = []byte("shard-differential")
	bundle, err := Outsource(doc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return doc, bundle
}

var shardTestQueries = []string{
	"//t0", "//t3", "//t5",
	"/*/t1", "//t2/t4",
}

// resultKey renders a search result for exact comparison.
func resultKey(r *SearchResult) string {
	return fmt.Sprintf("m=%v u=%v", r.Matches, r.Unresolved)
}

// TestShardedDifferential: Outsource → Shard(N) → Search returns
// byte-identical results to the unsharded single-Local path for
// N ∈ {1, 2, 4}, at all three VerifyLevels, for both rings. The last row is
// the capacity scale no other test reaches: 100,000 nodes through the
// packed parallel write path (every interior product fills the ring, so
// encode runs on the NTT) and a four-way partition, one query each way. It
// holds about half a gigabyte, several times that under the race detector.
func TestShardedDifferential(t *testing.T) {
	allLevels := []VerifyLevel{VerifyNone, VerifyResolve, VerifyFull}
	for _, ringCase := range []struct {
		name    string
		cfg     Config
		nodes   int
		shards  []int
		queries []string
		levels  []VerifyLevel
	}{
		{"Fp", Config{Kind: RingFp, P: 257}, 180, []int{1, 2, 4}, shardTestQueries, allLevels},
		{"Z", Config{Kind: RingZ}, 180, []int{1, 2, 4}, shardTestQueries, allLevels},
		{"Fp100k", Config{Kind: RingFp, P: 257}, 100000, []int{4}, []string{"//t2/t4"}, []VerifyLevel{VerifyResolve}},
	} {
		t.Run(ringCase.name, func(t *testing.T) {
			if ringCase.nodes > 180 && (testing.Short() || raceEnabled) {
				t.Skip("capacity-scale row: skipped with -short and under the race detector")
			}
			_, bundle := shardTestBundleOf(t, ringCase.cfg, ringCase.nodes)
			ref, err := bundle.Connect()
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()
			for _, n := range ringCase.shards {
				sb, err := bundle.Shard(n)
				if err != nil {
					t.Fatalf("Shard(%d): %v", n, err)
				}
				if len(sb.Stores) != n || sb.Manifest.NumShards() != n {
					t.Fatalf("Shard(%d): %d stores, manifest %d", n, len(sb.Stores), sb.Manifest.NumShards())
				}
				owned := 0
				for _, st := range sb.Stores {
					owned += st.OwnedNodes()
				}
				if owned != bundle.Server.NodeCount() {
					t.Fatalf("Shard(%d): shards own %d of %d nodes", n, owned, bundle.Server.NodeCount())
				}
				sess, err := bundle.Key.ConnectSharded(sb)
				if err != nil {
					t.Fatal(err)
				}
				for _, expr := range ringCase.queries {
					for _, v := range ringCase.levels {
						want, err := ref.Search(expr, WithVerify(v))
						if err != nil {
							t.Fatalf("reference %s @%v: %v", expr, v, err)
						}
						got, err := sess.Search(expr, WithVerify(v))
						if err != nil {
							t.Fatalf("shards=%d %s @%v: %v", n, expr, v, err)
						}
						if resultKey(got) != resultKey(want) {
							t.Errorf("shards=%d %s @%v:\n got %s\nwant %s", n, expr, v, resultKey(got), resultKey(want))
						}
					}
				}
				if n > 1 {
					stats, ok := sess.ShardCounters()
					if !ok || stats.Batches == 0 {
						t.Errorf("shards=%d: no routing stats recorded (%+v, %v)", n, stats, ok)
					}
				}
				sess.Close()
			}
		})
	}
}

// TestShardedTCPEndToEnd drives the whole deployment surface: shard
// stores round-trip through disk, each shard is served by its own
// guarded daemon, the manifest round-trips through its file format, and
// a DialSharded session answers identically to the in-process reference.
func TestShardedTCPEndToEnd(t *testing.T) {
	_, bundle := shardTestBundle(t, Config{Kind: RingFp, P: 257})
	ref, err := bundle.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	sb, err := bundle.Shard(3)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	manPath := filepath.Join(dir, "routing.ssm")
	if err := sb.Manifest.Save(manPath); err != nil {
		t.Fatal(err)
	}
	man, err := LoadShardManifest(manPath)
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, len(sb.Stores))
	for i, st := range sb.Stores {
		path := filepath.Join(dir, fmt.Sprintf("shard%d.sss", i))
		if err := st.Save(path); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadShardStore(path)
		if err != nil {
			t.Fatal(err)
		}
		if loaded.ID() != i {
			t.Fatalf("shard %d loaded with id %d", i, loaded.ID())
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		d, err := loaded.ServeTCP(l)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		addrs[i] = l.Addr().String()
	}

	sess, err := bundle.Key.DialSharded(man, addrs...)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for _, expr := range shardTestQueries {
		want, err := ref.Search(expr, WithVerify(VerifyFull))
		if err != nil {
			t.Fatal(err)
		}
		got, err := sess.Search(expr, WithVerify(VerifyFull))
		if err != nil {
			t.Fatalf("%s: %v", expr, err)
		}
		if resultKey(got) != resultKey(want) {
			t.Errorf("%s: got %s, want %s", expr, resultKey(got), resultKey(want))
		}
	}
	stats, ok := sess.ShardCounters()
	if !ok {
		t.Fatal("sharded session reports no shard counters")
	}
	if len(stats.Requests) != 3 || stats.Requests[0] == 0 {
		t.Errorf("implausible shard requests: %+v", stats)
	}
	if c := sess.Counters(); c.BytesSent == 0 || c.BytesReceived == 0 {
		t.Error("no wire traffic recorded for a TCP sharded session")
	}
}

// TestServeShardTCPWholeStore exercises the -shard-manifest deployment
// mode: whole-tree stores logically fenced to manifest ranges.
func TestServeShardTCPWholeStore(t *testing.T) {
	_, bundle := shardTestBundle(t, Config{Kind: RingFp, P: 257})
	sb, err := bundle.Shard(2)
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, 2)
	for i := 0; i < 2; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		d, err := bundle.Server.ServeShardTCP(l, sb.Manifest, i)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		addrs[i] = l.Addr().String()
	}
	sess, err := bundle.Key.DialSharded(sb.Manifest, addrs...)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ref, err := bundle.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	want, err := ref.Search("//t1")
	if err != nil {
		t.Fatal(err)
	}
	got, err := sess.Search("//t1")
	if err != nil {
		t.Fatal(err)
	}
	if resultKey(got) != resultKey(want) {
		t.Errorf("got %s, want %s", resultKey(got), resultKey(want))
	}
}

// TestMultiShareDialMulti covers the surfaced k-of-n deployment: Shamir
// member stores served by plain daemons, queried through DialMulti.
func TestMultiShareDialMulti(t *testing.T) {
	_, bundle := shardTestBundle(t, Config{Kind: RingFp, P: 257})
	stores, err := bundle.MultiShare(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, len(stores))
	for i, st := range stores {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		d, err := st.ServeTCP(l)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		addrs[i] = l.Addr().String()
	}
	sess, err := bundle.Key.DialMulti(2, addrs...)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ref, err := bundle.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for _, expr := range []string{"//t0", "//t4"} {
		want, _ := ref.Search(expr)
		got, err := sess.Search(expr)
		if err != nil {
			t.Fatalf("%s: %v", expr, err)
		}
		if resultKey(got) != resultKey(want) {
			t.Errorf("%s: got %s, want %s", expr, resultKey(got), resultKey(want))
		}
	}
	// Z-ring keys must refuse multi-server sessions.
	_, zBundle := shardTestBundle(t, Config{Kind: RingZ})
	if _, err := zBundle.Key.DialMulti(2, addrs...); err == nil {
		t.Error("DialMulti accepted a Z-ring key")
	}
}

// TestSessionCloseClosesAllConnections is the leak check for the
// Session.Close fix: a sharded (or pooled) session owns many
// connections, and Close must release every one — observable because
// each daemon's Close waits for its in-flight connections, so a leaked
// client socket would hang the shutdown until the test times out.
func TestSessionCloseClosesAllConnections(t *testing.T) {
	_, bundle := shardTestBundle(t, Config{Kind: RingFp, P: 257})
	sb, err := bundle.Shard(3)
	if err != nil {
		t.Fatal(err)
	}
	daemons := make([]*Daemon, len(sb.Stores))
	addrs := make([]string, len(sb.Stores))
	for i, st := range sb.Stores {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if daemons[i], err = st.ServeTCP(l); err != nil {
			t.Fatal(err)
		}
		addrs[i] = l.Addr().String()
	}
	sess, err := bundle.Key.DialSharded(sb.Manifest, addrs...)
	if err != nil {
		t.Fatal(err)
	}
	if len(sess.closers) != 3 {
		t.Fatalf("sharded session owns %d connections, want 3", len(sess.closers))
	}
	if _, err := sess.Search("//t1"); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Every daemon must shut down promptly: Close waits for in-flight
	// connections, which only drain if the session really closed them.
	done := make(chan struct{})
	go func() {
		for _, d := range daemons {
			d.Close()
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("daemon shutdown hung: session leaked connections")
	}
	// Searching on a closed session fails rather than wedging.
	if _, err := sess.Search("//t1"); err == nil {
		t.Error("search succeeded on a closed session")
	}
	// Pooled sessions own size connections and close them all too.
	poolStore := filepath.Join(t.TempDir(), "server.sss")
	if err := bundle.Server.Save(poolStore); err != nil {
		t.Fatal(err)
	}
	st, err := LoadServerStore(poolStore)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d, err := st.ServeTCP(l)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := bundle.Key.DialPool(l.Addr().String(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pooled.Search("//t2"); err != nil {
		t.Fatal(err)
	}
	if err := pooled.Close(); err != nil {
		t.Fatal(err)
	}
	done2 := make(chan struct{})
	go func() {
		d.Close()
		close(done2)
	}()
	select {
	case <-done2:
	case <-time.After(10 * time.Second):
		t.Fatal("daemon shutdown hung: pooled session leaked connections")
	}
}

// TestShardPlanIsShapeOnly pins the property the 2-D deployment relies
// on: planning any share tree of one document yields the same manifest.
func TestShardPlanIsShapeOnly(t *testing.T) {
	_, bundle := shardTestBundle(t, Config{Kind: RingFp, P: 257})
	sb1, err := bundle.Shard(4)
	if err != nil {
		t.Fatal(err)
	}
	stores, err := bundle.MultiShare(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	sb2, err := stores[1].Shard(4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sb1.Manifest.m.Entries, sb2.Manifest.m.Entries) {
		t.Error("manifests differ between share trees of the same document")
	}
}
