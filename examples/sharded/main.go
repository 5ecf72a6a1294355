// Sharded deployment: one document's share tree partitioned across
// several daemons by subtree, so a document larger than any single host
// can still be outsourced — the capacity-scaling complement to Shamir
// replication (examples/multiserver).
//
// The data owner outsources once, cuts the server store into N shard
// stores plus a small routing manifest (Bundle.Shard), and hands each
// store to a different daemon. Each daemon holds only its key ranges and
// rejects anything else. The client routes with the manifest
// (DialSharded): every query wave is scattered to the owning shards
// concurrently and gathered back in order — same answers, same privacy,
// 1/N of the storage per host.
//
//	go run ./examples/sharded
package main

import (
	"fmt"
	"log"
	"net"
	"os"
	"path/filepath"

	"sssearch"
)

const doc = `<site>
  <regions>
    <europe><item/><item/><item/></europe>
    <asia><item/><item/></asia>
    <namerica><item/></namerica>
  </regions>
  <people>
    <person><name/><watch/></person>
    <person><name/></person>
    <person><name/><watch/><watch/></person>
  </people>
  <catgraph><edge/><edge/></catgraph>
</site>`

func main() {
	const shards = 3

	d, err := sssearch.ParseXML(doc)
	if err != nil {
		log.Fatal(err)
	}
	bundle, err := sssearch.Outsource(d, sssearch.Config{Kind: sssearch.RingFp, P: 257})
	if err != nil {
		log.Fatal(err)
	}

	// Owner side: cut the store into shard stores + routing manifest.
	sb, err := bundle.Shard(shards)
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "sss-sharded")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	manifestPath := filepath.Join(dir, "routing.ssm")
	if err := sb.Manifest.Save(manifestPath); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("document: %d nodes, %d B as one store\n",
		bundle.Server.NodeCount(), bundle.Server.ByteSize())

	// Provider side: each shard store runs as its own daemon (in real
	// deployments: `sss-server -store shardN.sss` on N different hosts —
	// the shard id and manifest travel inside the file).
	addrs := make([]string, shards)
	for i, st := range sb.Stores {
		path := filepath.Join(dir, fmt.Sprintf("shard%d.sss", i))
		if err := st.Save(path); err != nil {
			log.Fatal(err)
		}
		loaded, err := sssearch.LoadShardStore(path)
		if err != nil {
			log.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		daemon, err := loaded.ServeTCP(l)
		if err != nil {
			log.Fatal(err)
		}
		defer daemon.Close()
		addrs[i] = l.Addr().String()
		fmt.Printf("shard %d: %d of %d polynomials (%d B) on %s\n",
			loaded.ID(), loaded.OwnedNodes(), bundle.Server.NodeCount(), loaded.ByteSize(), addrs[i])
	}

	// Client side: the key plus the public manifest route the queries.
	man, err := sssearch.LoadShardManifest(manifestPath)
	if err != nil {
		log.Fatal(err)
	}
	sess, err := bundle.Key.DialSharded(man, addrs...)
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()

	for _, expr := range []string{"//person", "//watch", "/site/regions/asia/item"} {
		res, err := sess.Search(expr, sssearch.WithVerify(sssearch.VerifyFull))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%-28s → %d matches (verified)\n", expr, len(res.Matches))
		for _, p := range res.Paths(d) {
			fmt.Printf("  %s\n", p)
		}
		want, err := sssearch.EvaluatePlaintext(d, expr)
		if err != nil {
			log.Fatal(err)
		}
		if fmt.Sprint(res.Paths(d)) != fmt.Sprint(want) {
			log.Fatalf("MISMATCH: plaintext %v", want)
		}
	}

	if stats, ok := sess.ShardCounters(); ok {
		fmt.Printf("\nrouting: %d batches, avg fan-out %.2f, per-shard requests %v\n",
			stats.Batches, stats.AvgFanout(), stats.Requests)
	}
	fmt.Println("every daemon saw only opaque points for its own key ranges; no daemon holds the whole tree ✓")
}
