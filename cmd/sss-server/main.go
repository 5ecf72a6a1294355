// Command sss-server hosts a share store over TCP. The process holds only
// the server share tree and public ring parameters; it cannot decrypt
// anything it stores.
//
// Usage:
//
//	sss-server -store server.sss -listen 127.0.0.1:7070
//
// Sharded deployments: a shard store produced by Bundle.Shard embeds its
// shard id and routing manifest and is auto-detected, so each daemon of a
// partitioned deployment is started the same way:
//
//	sss-server -store shard0.sss -listen 127.0.0.1:7070
//
// Alternatively a WHOLE-tree store can be served as one logical shard of
// a manifest (partitioned routing over complete replicas):
//
//	sss-server -store server.sss -shard-manifest routing.ssm -shard-id 1
//
// Overload protection and live operations: -max-inflight bounds
// concurrently executing requests daemon-wide (excess requests are shed
// with a typed retryable error plus a retry-after hint that resilient
// clients honor), and -reload re-reads the store file and hot-swaps it
// into the running daemon on SIGHUP — in-flight requests finish on the
// old store, no connection is dropped:
//
//	sss-server -store server.sss -max-inflight 256 -reload
//	kill -HUP $(pidof sss-server)   # after replacing server.sss
//
// Observability: -debug-addr starts an operator-only HTTP listener with
// /metrics (Prometheus text: every protocol counter plus per-stage latency
// histograms), /healthz (503 once draining — point load-balancer checks
// here), /varz (JSON counters, stage latencies and the slow-query log) and
// /debug/pprof. -trace-sample N samples every Nth request end to end: the
// sampled request carries a trace ID across the wire, every serving stage
// it passes through is attributed to it, and the slowest sampled requests
// appear in /varz's slow_queries with their per-stage breakdown:
//
//	sss-server -store server.sss -debug-addr 127.0.0.1:7071 -trace-sample 100
//	curl -s 127.0.0.1:7071/metrics | grep sss_stage_latency
//
// Bind -debug-addr to loopback or an internal interface only; the pprof
// endpoints are not meant for untrusted networks.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sssearch"
	"sssearch/internal/obs"
)

func main() {
	storePath := flag.String("store", "server.sss", "server share store file (whole-tree or shard store)")
	listen := flag.String("listen", "127.0.0.1:7070", "listen address")
	quiet := flag.Bool("quiet", false, "suppress connection logging")
	manifestPath := flag.String("shard-manifest", "", "serve a whole-tree store as one shard of this routing manifest")
	shardID := flag.Int("shard-id", -1, "shard id within -shard-manifest")
	drain := flag.Duration("drain", 5*time.Second, "graceful-drain window on SIGTERM/SIGINT: finish in-flight requests and send clients a Bye before closing (0 = immediate close)")
	idleTimeout := flag.Duration("idle-timeout", 0, "close connections idle between frames for this long (0 = never)")
	maxInflight := flag.Int("max-inflight", 0, "bound concurrently executing requests across the daemon; excess requests are shed with a typed retryable error and a retry-after hint (0 = unbounded)")
	reload := flag.Bool("reload", false, "re-read -store and hot-swap it into the running daemon on SIGHUP — zero-downtime store reload (whole-tree stores only)")
	debugAddr := flag.String("debug-addr", "", "serve the ops/debug HTTP surface (/metrics, /healthz, /varz, /debug/pprof) on this address; keep it off untrusted networks (empty = disabled)")
	traceSample := flag.Int("trace-sample", 0, "sample every Nth request for end-to-end tracing: stage attribution and the slow-query log (1 = every request, 0 = off)")
	flag.Parse()
	if *idleTimeout < 0 {
		log.Fatal("sss-server: -idle-timeout must be >= 0")
	}
	if *traceSample < 0 {
		log.Fatal("sss-server: -trace-sample must be >= 0")
	}
	obs.SetSampleEvery(*traceSample)
	maxInflightSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "max-inflight" {
			maxInflightSet = true
		}
	})
	if maxInflightSet && *maxInflight < 1 {
		log.Fatal("sss-server: -max-inflight must be >= 1 (omit the flag for unbounded admission)")
	}
	if *reload && *storePath == "" {
		log.Fatal("sss-server: -reload requires a -store path to re-read")
	}
	opts := sssearch.ServeOpts{IdleTimeout: *idleTimeout, MaxInflight: *maxInflight}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("sss-server: listen: %v", err)
	}

	var daemon *sssearch.Daemon
	reloadable := false
	switch {
	case *manifestPath != "":
		// Whole-tree store, logically fenced to one manifest range.
		if *shardID < 0 {
			log.Fatal("sss-server: -shard-manifest requires -shard-id")
		}
		man, err := sssearch.LoadShardManifest(*manifestPath)
		if err != nil {
			log.Fatalf("sss-server: loading manifest: %v", err)
		}
		st, err := sssearch.LoadServerStore(*storePath)
		if err != nil {
			log.Fatalf("sss-server: loading store: %v", err)
		}
		fmt.Printf("sss-server: serving %s (%s, %d nodes) as shard %d/%d on %s\n",
			*storePath, st.RingName(), st.NodeCount(), *shardID, man.NumShards(), l.Addr())
		daemon, err = st.ServeShardTCPOpts(l, man, *shardID, opts)
		if err != nil {
			log.Fatalf("sss-server: %v", err)
		}
	case isShardStore(*storePath):
		// Shard store: id + manifest travel in the file.
		st, err := sssearch.LoadShardStore(*storePath)
		if err != nil {
			log.Fatalf("sss-server: loading shard store: %v", err)
		}
		if *shardID >= 0 && *shardID != st.ID() {
			log.Fatalf("sss-server: -shard-id %d contradicts store's embedded shard id %d", *shardID, st.ID())
		}
		fmt.Printf("sss-server: serving %s (%s) as shard %d/%d, %d owned nodes, on %s\n",
			*storePath, st.RingName(), st.ID(), st.Manifest().NumShards(), st.OwnedNodes(), l.Addr())
		daemon, err = st.ServeTCPOpts(l, opts)
		if err != nil {
			log.Fatalf("sss-server: %v", err)
		}
	default:
		st, err := sssearch.LoadServerStore(*storePath)
		if err != nil {
			log.Fatalf("sss-server: loading store: %v", err)
		}
		fmt.Printf("sss-server: serving %s (%s, %d nodes) on %s\n",
			*storePath, st.RingName(), st.NodeCount(), l.Addr())
		daemon, err = st.ServeTCPOpts(l, opts)
		if err != nil {
			log.Fatalf("sss-server: %v", err)
		}
		reloadable = true
	}
	if *reload && !reloadable {
		log.Fatal("sss-server: -reload supports whole-tree stores only (shard daemons cannot hot-swap)")
	}
	if *debugAddr != "" {
		dl, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			log.Fatalf("sss-server: debug listen: %v", err)
		}
		fmt.Printf("sss-server: debug surface on http://%s (/metrics /healthz /varz /debug/pprof)\n", dl.Addr())
		go func() {
			if err := http.Serve(dl, daemon.DebugHandler()); err != nil {
				log.Printf("sss-server: debug server: %v", err)
			}
		}()
	}
	if !*quiet {
		fmt.Println("sss-server: the store contains only additive shares; queries arrive as opaque points")
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	var hup chan os.Signal
	if *reload {
		hup = make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
	}
	for {
		select {
		case <-hup:
			// Zero-downtime reload: re-read the store file and swap it in.
			// In-flight requests finish on the old store; a failed load or
			// a params mismatch leaves the served store untouched.
			st, err := sssearch.LoadServerStore(*storePath)
			if err != nil {
				log.Printf("sss-server: reload: loading %s: %v (still serving the old store)", *storePath, err)
				continue
			}
			epoch, err := daemon.SwapStore(st)
			if err != nil {
				log.Printf("sss-server: reload: %v (still serving the old store)", err)
				continue
			}
			fmt.Printf("sss-server: reloaded %s (epoch %d)\n", *storePath, epoch)
		case <-sig:
			if *drain <= 0 {
				fmt.Println("\nsss-server: shutting down")
				if err := daemon.Close(); err != nil {
					log.Printf("sss-server: close: %v", err)
				}
				return
			}
			fmt.Printf("\nsss-server: draining (up to %v)\n", *drain)
			ctx, cancel := context.WithTimeout(context.Background(), *drain)
			defer cancel()
			if err := daemon.Shutdown(ctx); err != nil {
				log.Printf("sss-server: drain: %v", err)
			}
			return
		}
	}
}

// isShardStore sniffs the file magic without fully parsing the store.
func isShardStore(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	var magic [8]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil {
		return false
	}
	return sssearch.IsShardStoreFile(magic[:])
}
