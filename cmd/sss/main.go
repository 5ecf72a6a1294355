// Command sss is the scheme's Swiss-army CLI: encode and split XML
// documents, inspect stores, and run queries against local stores or
// remote servers.
//
// Usage:
//
//	sss encode  -in doc.xml -store server.sss -key client.key [-ring z|fp] [-p 257] [-r 1,0,1]
//	sss shard   -store server.sss -n 3 [-out dir]
//	sss query   -key client.key (-store server.sss | -addr host:port | -manifest routing.ssm -addrs a,b,c) [-verify none|resolve|full] [-stats] XPATH
//	sss inspect (-store server.sss | -key client.key)
//	sss figures [-list] [-quick] [id ...]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"sssearch"
	"sssearch/internal/experiments"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "encode":
		err = cmdEncode(os.Args[2:])
	case "shard":
		err = cmdShard(os.Args[2:])
	case "query":
		err = cmdQuery(os.Args[2:])
	case "inspect":
		err = cmdInspect(os.Args[2:])
	case "figures":
		err = cmdFigures(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "sss: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "sss: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `sss — secret-shared search over encrypted XML (Brinkman et al., SDM@VLDB 2004)

commands:
  encode   translate an XML document into a server share store + client key
  shard    partition a server store into per-daemon shard stores + routing manifest
  query    run an XPath query against a store (local, remote, or sharded)
  inspect  describe a store or client key
  figures  reproduce the paper's figures 1-6, or the experiments named (-list shows them)`)
}

func cmdEncode(args []string) error {
	fs := flag.NewFlagSet("encode", flag.ExitOnError)
	in := fs.String("in", "", "input XML document (required)")
	storePath := fs.String("store", "server.sss", "output server share store")
	keyPath := fs.String("key", "client.key", "output client key")
	ringKind := fs.String("ring", "z", "ring family: z (Z[x]/(r)) or fp (F_p[x]/(x^(p-1)-1))")
	p := fs.Uint64("p", 257, "field prime for -ring fp")
	rCoeffs := fs.String("r", "1,0,1", "ascending modulus coefficients for -ring z")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("encode: -in is required")
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	doc, err := sssearch.ParseXMLReader(f)
	if err != nil {
		return err
	}
	cfg := sssearch.Config{}
	switch *ringKind {
	case "z":
		coeffs, err := parseCoeffs(*rCoeffs)
		if err != nil {
			return err
		}
		cfg.Kind = sssearch.RingZ
		cfg.R = coeffs
	case "fp":
		cfg.Kind = sssearch.RingFp
		cfg.P = *p
	default:
		return fmt.Errorf("encode: unknown ring %q", *ringKind)
	}
	bundle, err := sssearch.Outsource(doc, cfg)
	if err != nil {
		return err
	}
	if err := bundle.Server.Save(*storePath); err != nil {
		return err
	}
	if err := bundle.Key.Save(*keyPath); err != nil {
		return err
	}
	fmt.Printf("encoded %d elements into %s (%s, %d bytes)\n",
		doc.Count(), *storePath, bundle.Server.RingName(), bundle.Server.ByteSize())
	fmt.Printf("client key written to %s (keep it secret; it is the only copy)\n", *keyPath)
	return nil
}

func cmdShard(args []string) error {
	fs := flag.NewFlagSet("shard", flag.ExitOnError)
	storePath := fs.String("store", "server.sss", "input server share store")
	n := fs.Int("n", 2, "number of shards")
	out := fs.String("out", ".", "output directory for shardN.sss + routing.ssm")
	fs.Parse(args)
	st, err := sssearch.LoadServerStore(*storePath)
	if err != nil {
		return err
	}
	sb, err := st.Shard(*n)
	if err != nil {
		return err
	}
	manPath := filepath.Join(*out, "routing.ssm")
	if err := sb.Manifest.Save(manPath); err != nil {
		return err
	}
	fmt.Printf("%s: %d nodes → %d shards\n", *storePath, st.NodeCount(), *n)
	for i, shardStore := range sb.Stores {
		path := filepath.Join(*out, fmt.Sprintf("shard%d.sss", i))
		if err := shardStore.Save(path); err != nil {
			return err
		}
		fmt.Printf("  %s: shard %d, %d owned nodes, %d bytes\n",
			path, i, shardStore.OwnedNodes(), shardStore.ByteSize())
	}
	fmt.Printf("  %s: routing manifest (give to the client alongside its key)\n", manPath)
	return nil
}

func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	keyPath := fs.String("key", "client.key", "client key file")
	storePath := fs.String("store", "", "local server store file")
	addr := fs.String("addr", "", "remote server address (host:port)")
	manifestPath := fs.String("manifest", "", "routing manifest of a sharded deployment")
	addrs := fs.String("addrs", "", "comma-separated shard addresses (with -manifest, one per shard)")
	verify := fs.String("verify", "resolve", "verification level: none|resolve|full")
	stats := fs.Bool("stats", false, "print protocol statistics")
	docPath := fs.String("doc", "", "optional plaintext document for path display")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("query: exactly one XPath expression required")
	}
	expr := fs.Arg(0)
	key, err := sssearch.LoadClientKey(*keyPath)
	if err != nil {
		return err
	}
	var sess *sssearch.Session
	switch {
	case *manifestPath != "":
		var man *sssearch.ShardManifest
		man, err = sssearch.LoadShardManifest(*manifestPath)
		if err != nil {
			return err
		}
		list := strings.Split(*addrs, ",")
		if *addrs == "" || len(list) != man.NumShards() {
			return fmt.Errorf("query: -manifest needs -addrs with %d comma-separated addresses", man.NumShards())
		}
		sess, err = key.DialSharded(man, list...)
	case *addr != "":
		sess, err = key.Dial(*addr)
	case *storePath != "":
		var st *sssearch.ServerStore
		st, err = sssearch.LoadServerStore(*storePath)
		if err == nil {
			sess, err = key.ConnectLocal(st)
		}
	default:
		return fmt.Errorf("query: need -store, -addr, or -manifest + -addrs")
	}
	if err != nil {
		return err
	}
	defer sess.Close()
	lvl, err := parseVerify(*verify)
	if err != nil {
		return err
	}
	res, err := sess.Search(expr, sssearch.WithVerify(lvl))
	if err != nil {
		return err
	}
	if *docPath != "" {
		f, err := os.Open(*docPath)
		if err != nil {
			return err
		}
		doc, err := sssearch.ParseXMLReader(f)
		f.Close()
		if err != nil {
			return err
		}
		for _, p := range res.Paths(doc) {
			fmt.Println(p)
		}
	} else {
		for _, k := range res.Matches {
			fmt.Println(k)
		}
	}
	if len(res.Unresolved) > 0 {
		fmt.Printf("(%d unresolved candidates — rerun with -verify resolve)\n", len(res.Unresolved))
	}
	fmt.Printf("%d match(es)\n", len(res.Matches))
	if *stats {
		fmt.Println(sssearch.FormatStats(res.Stats))
	}
	return nil
}

func cmdInspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	storePath := fs.String("store", "", "server store file")
	keyPath := fs.String("key", "", "client key file")
	fs.Parse(args)
	switch {
	case *storePath != "":
		st, err := sssearch.LoadServerStore(*storePath)
		if err != nil {
			return err
		}
		fmt.Printf("server store: %s\n  ring:  %s\n  nodes: %d\n  bytes: %d\n",
			*storePath, st.RingName(), st.NodeCount(), st.ByteSize())
		return nil
	case *keyPath != "":
		key, err := sssearch.LoadClientKey(*keyPath)
		if err != nil {
			return err
		}
		seed := key.Seed()
		fmt.Printf("client key: %s\n  seed: %s…(%d bytes)\n", *keyPath, seed.String()[:8], len(seed))
		return nil
	default:
		return fmt.Errorf("inspect: need -store or -key")
	}
}

func cmdFigures(args []string) error {
	fs := flag.NewFlagSet("figures", flag.ExitOnError)
	list := fs.Bool("list", false, "list experiment ids and exit")
	quick := fs.Bool("quick", false, "reduced workload sizes")
	fs.Parse(args)
	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-12s %-28s %s\n", e.ID, e.Ref, e.Title)
		}
		return nil
	}
	ids := fs.Args()
	if len(ids) == 0 {
		ids = []string{"fig1", "fig2", "fig3", "fig4", "fig5", "fig6"}
	}
	for _, id := range ids {
		e, ok := experiments.ByID(id)
		if !ok {
			return fmt.Errorf("unknown experiment %q (try -list)", id)
		}
		fmt.Printf("\n=== %s: %s ===\n", e.Ref, e.Title)
		if err := e.Run(os.Stdout, experiments.Config{Quick: *quick}); err != nil {
			return err
		}
	}
	return nil
}

func parseCoeffs(s string) ([]int64, error) {
	parts := strings.Split(s, ",")
	out := make([]int64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad coefficient %q: %w", p, err)
		}
		out[i] = v
	}
	return out, nil
}

func parseVerify(s string) (sssearch.VerifyLevel, error) {
	switch s {
	case "none":
		return sssearch.VerifyNone, nil
	case "resolve":
		return sssearch.VerifyResolve, nil
	case "full":
		return sssearch.VerifyFull, nil
	default:
		return sssearch.VerifyResolve, fmt.Errorf("unknown verify level %q", s)
	}
}
