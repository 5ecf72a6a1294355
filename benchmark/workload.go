package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"sssearch"
	"sssearch/internal/drbg"
	"sssearch/internal/xmltree"
	"sssearch/internal/xpath"
)

// topoKind is how a workload's client reaches its server stores.
type topoKind int

const (
	// topoTCP is one daemon (ServerStore.ServeTCP, coalescer on) reached by
	// ClientKey.Dial over loopback.
	topoTCP topoKind = iota
	// topoLocal is an in-process session (ClientKey.ConnectLocal): no wire,
	// no daemon, no coalescer.
	topoLocal
	// topoFabric is MultiShare(2,3) x 2 shards = 6 daemons reached by
	// ClientKey.DialShardedReplicated.
	topoFabric
)

// workloadSpec describes one workload. Names are stable identifiers.
type workloadSpec struct {
	Name string
	Why  string
	Size docSize
	Ring sssearch.RingKind
	Topo topoKind
	// Clients is the number of closed-loop callers, each with its own
	// session. The sandbox has two cores; never more than two.
	Clients int
	// Hot restricts the timed mix to the 3-query hot list.
	Hot bool
	// Rebuild makes every timed pass redo the whole set-up (parse,
	// outsource, save, load, connect) before its queries: the write path
	// and cold start. Its list is the six absolute child paths, cheap
	// enough that the write path, not the cold queries, fills the pass.
	Rebuild bool
}

var workloads = []workloadSpec{
	{
		Name: "query_fp_tcp", Size: sizeLarge, Ring: sssearch.RingFp, Topo: topoTCP, Clients: 1,
		Why: "paper's main use over a network; ~20k nodes exceed the 16,384-node pad LRU and both 65,536-entry eval LRUs, so core, polyenc, ring, fastfield, wire, client and server all work",
	},
	{
		Name: "query_z_local", Size: sizeMedium, Ring: sssearch.RingZ, Topo: topoLocal, Clients: 1,
		Why: "in-process big.Int reference path (Z[x]/(x^2+1)); bypasses wire, client, daemon, coalesce, fastfield and NTT, so a fast-path or wire change predicts no change here",
	},
	{
		Name: "serve_hot", Size: sizeMedium, Ring: sssearch.RingFp, Topo: topoTCP, Clients: 2, Hot: true,
		Why: "fits-in-cache: two sessions of one key loop 3 hot queries on one coalescing daemon, so coalesce, lru and the shared client cache do the work; decides the cache-layer ablations",
	},
	{
		Name: "query_fabric", Size: sizeSmall, Ring: sssearch.RingFp, Topo: topoFabric, Clients: 1,
		Why: "only path through shard.Router, core.MultiServer fan-out, the Lagrange combine and six client.Remotes (2-of-3 Shamir x 2 shards); first check DialShardedReplicated ever had",
	},
	{
		Name: "outsource", Size: sizeLarge, Ring: sssearch.RingFp, Topo: topoLocal, Clients: 1, Rebuild: true,
		Why: "write path and cold start: every pass parses, outsources, saves, loads and queries cold; xmltree, polyenc.Encode (NTT for encode), sharing.Split, parwalk and store do the work",
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// mappingSecret keys the private tag mapping. It is the same for every seed
// so that a tag has the same value in every run: in Z[x]/(x^2+1) the size of
// a coefficient, and with it every byte count, depends on those values.
var mappingSecret = []byte("sssearch benchmark tag mapping")

// inputs is everything a workload run is given, made from the seed alone.
type inputs struct {
	spec    workloadSpec
	seed    int64
	doc     *xmltree.Node
	xml     string
	nodes   int
	cfgSeed drbg.Seed
	// first is the query a cold start answers: the most common absolute
	// child path, the same expression whatever the seed.
	first query
	// queries is the timed list in the order it is issued, each with its
	// oracle.
	queries []query
	// unknown asks for a tag the document does not contain. It is answered
	// locally in under a microsecond, so it is checked once for correctness
	// and kept out of the timed mix.
	unknown query
}

func makeInputs(spec workloadSpec, seed int64) (*inputs, error) {
	doc := genAuction(spec.Size, seed)
	in := &inputs{spec: spec, seed: seed, doc: doc, xml: doc.String(), nodes: doc.Count()}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(seed))
	in.cfgSeed = drbg.Seed(sha256.Sum256(append(buf[:], spec.Name...)))

	list := buildQueries(doc)
	in.first = ofClass(list, "child_path")[0]
	switch {
	case spec.Hot:
		list = hotQueries(list)
	case spec.Rebuild:
		list = ofClass(list, "child_path")
	}
	in.queries = interleave(list)
	in.unknown = query{Expr: "//zz-absent-tag", Class: "unknown"}
	if err := buildOracle(doc, in.queries); err != nil {
		return nil, err
	}
	first := []query{in.first}
	if err := buildOracle(doc, first); err != nil {
		return nil, err
	}
	in.first = first[0]
	return in, nil
}

// buildOracle fills in each query's expected answer: the node keys the
// plaintext evaluator returns, in document order.
func buildOracle(doc *xmltree.Node, qs []query) error {
	keys := map[*xmltree.Node][]uint32{}
	var walk func(n *xmltree.Node, key []uint32)
	walk = func(n *xmltree.Node, key []uint32) {
		keys[n] = key
		for i, c := range n.Children {
			walk(c, append(append(make([]uint32, 0, len(key)+1), key...), uint32(i)))
		}
	}
	walk(doc, []uint32{})
	for i := range qs {
		parsed, err := xpath.Parse(qs[i].Expr)
		if err != nil {
			return fmt.Errorf("query %q: %w", qs[i].Expr, err)
		}
		nodes := parsed.Evaluate(doc)
		qs[i].want = make([][]uint32, len(nodes))
		for j, n := range nodes {
			qs[i].want[j] = keys[n]
		}
	}
	return nil
}

// sameKeys compares a search answer with the oracle, key by key.
func sameKeys(got []sssearch.NodeKey, want [][]uint32) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return false
		}
		for j := range got[i] {
			if got[i][j] != want[i][j] {
				return false
			}
		}
	}
	return true
}

// tally counts operations against the number attempted.
type tally struct {
	attempted int64
	failed    int64
	firstErr  string
}

func (t *tally) ok() { t.attempted++ }

func (t *tally) fail(format string, args ...any) {
	t.attempted++
	t.failed++
	if t.firstErr == "" {
		t.firstErr = fmt.Sprintf(format, args...)
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstErr == "" {
		t.firstErr = o.firstErr
	}
}

// search runs one query on a session and checks it against the oracle.
func search(sess *sssearch.Session, q *query, t *tally) (*sssearch.SearchResult, float64) {
	start := time.Now()
	res, err := sess.Search(q.Expr)
	ms := float64(time.Since(start)) / 1e6
	switch {
	case err != nil:
		t.fail("%s: %v", q.Expr, err)
		return nil, ms
	case len(res.Unresolved) != 0 || !sameKeys(res.Matches, q.want):
		t.fail("%s: answer differs from the plaintext oracle (%d matches, want %d)", q.Expr, len(res.Matches), len(q.want))
		return res, ms
	}
	t.ok()
	return res, ms
}

// topology is a ready-to-query deployment built through the public API.
type topology struct {
	sessions []*sssearch.Session
	daemons  []*sssearch.Daemon
}

// shutdownTimeout bounds how long teardown waits for a daemon to drain.
const shutdownTimeout = 5 * time.Second

// close tears the deployment down: sessions first, then daemons.
// Daemon.Close waits for open connections, so closing in the other order
// hangs; Shutdown with a deadline force-closes whatever is left.
func (t *topology) close() error {
	var first error
	for _, s := range t.sessions {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, d := range t.daemons {
		ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
		if err := d.Shutdown(ctx); err != nil && first == nil {
			first = err
		}
		cancel()
	}
	t.sessions, t.daemons = nil, nil
	return first
}

// coldTimes is what one cold path measured.
type coldTimes struct {
	outsourceS  float64 // ParseXML + Outsource
	coldStartMS float64 // load the saved store(s) + bring the topology up + first verified query
	totalS      float64 // XML text in hand to first verified answer
	storeBytes  int64   // size of the saved server store file(s)
	storeHash   [32]byte
}

// coldPath takes a workload from its XML text to its first verified
// answer: parse, outsource, (share and shard,) save, load, serve, dial, one
// query. dir receives the store files.
func coldPath(in *inputs, dir string, t *tally) (*topology, coldTimes, error) {
	var ct coldTimes
	// Start from a collected heap, so what the previous deployment left
	// behind is not charged to this one.
	runtime.GC()
	start := time.Now()
	doc, err := sssearch.ParseXML(in.xml)
	if err != nil {
		return nil, ct, fmt.Errorf("parse: %w", err)
	}
	bundle, err := sssearch.Outsource(doc, sssearch.Config{Kind: in.spec.Ring, Seed: in.cfgSeed, Secret: mappingSecret})
	if err != nil {
		return nil, ct, fmt.Errorf("outsource: %w", err)
	}
	ct.outsourceS = time.Since(start).Seconds()

	files, man, err := saveStores(in.spec, bundle, dir)
	if err != nil {
		return nil, ct, err
	}
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, ct, err
		}
		ct.storeBytes += int64(len(data))
		h.Write(data)
	}
	h.Sum(ct.storeHash[:0])

	cold := time.Now()
	topo, err := bringUp(in.spec, bundle.Key, man, files)
	if err != nil {
		return nil, ct, err
	}
	search(topo.sessions[0], &in.first, t)
	ct.coldStartMS = float64(time.Since(cold)) / 1e6
	ct.totalS = time.Since(start).Seconds()
	return topo, ct, nil
}

// warmPass is one untimed-window pass of every session over the list: it
// fills the caches before the window, and on a Rebuild workload its
// latencies are the cold-cache samples.
type warmPass struct {
	ms      []float64 // latency of each query on the first session, in list order
	stats   sssearch.Stats
	seconds float64
}

// querySeconds is the time spent inside the first session's queries.
func (w warmPass) querySeconds() float64 {
	total := 0.0
	for _, ms := range w.ms {
		total += ms / 1e3
	}
	return total
}

func warmUp(topo *topology, in *inputs, t *tally) warmPass {
	var w warmPass
	// Loading a store leaves as much garbage as live data; collect it now
	// rather than during the first queries.
	runtime.GC()
	start := time.Now()
	for si, sess := range topo.sessions {
		for qi := range in.queries {
			res, ms := search(sess, &in.queries[qi], t)
			if si == 0 {
				w.ms = append(w.ms, ms)
				if res != nil {
					w.stats = w.stats.Add(res.Stats)
				}
			}
		}
	}
	w.seconds = time.Since(start).Seconds()
	return w
}

// saveStores writes the server-side artifact(s) of a bundle: one store
// file, or for the fabric six shard stores (3 Shamir members x 2 shards
// under one shared manifest).
func saveStores(spec workloadSpec, bundle *sssearch.Bundle, dir string) (files []string, man *sssearch.ShardManifest, err error) {
	if spec.Topo != topoFabric {
		path := filepath.Join(dir, "server.sss")
		if err := bundle.Server.Save(path); err != nil {
			return nil, nil, fmt.Errorf("save: %w", err)
		}
		return []string{path}, nil, nil
	}
	members, err := bundle.MultiShare(fabricThreshold, fabricMembers)
	if err != nil {
		return nil, nil, fmt.Errorf("multishare: %w", err)
	}
	for m, member := range members {
		var sb *sssearch.ShardedBundle
		if man == nil {
			sb, err = member.Shard(fabricShards)
			if err == nil {
				man = sb.Manifest
			}
		} else {
			sb, err = member.ShardWith(man)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("shard member %d: %w", m, err)
		}
		for s, store := range sb.Stores {
			path := filepath.Join(dir, fmt.Sprintf("member%d-shard%d.sss", m, s))
			if err := store.Save(path); err != nil {
				return nil, nil, fmt.Errorf("save: %w", err)
			}
			files = append(files, path)
		}
	}
	return files, man, nil
}

// The fabric is 2-of-3 Shamir sharing across 2 tree shards: 6 daemons.
const (
	fabricThreshold = 2
	fabricMembers   = 3
	fabricShards    = 2
)

// bringUp loads the saved store(s) and connects the workload's sessions.
func bringUp(spec workloadSpec, key *sssearch.ClientKey, man *sssearch.ShardManifest, files []string) (_ *topology, err error) {
	topo := &topology{}
	defer func() {
		if err != nil {
			topo.close()
		}
	}()
	listen := func() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

	switch spec.Topo {
	case topoLocal:
		store, err := sssearch.LoadServerStore(files[0])
		if err != nil {
			return nil, fmt.Errorf("load: %w", err)
		}
		sess, err := key.ConnectLocal(store)
		if err != nil {
			return nil, err
		}
		topo.sessions = append(topo.sessions, sess)

	case topoTCP:
		store, err := sssearch.LoadServerStore(files[0])
		if err != nil {
			return nil, fmt.Errorf("load: %w", err)
		}
		l, err := listen()
		if err != nil {
			return nil, err
		}
		d, err := store.ServeTCP(l)
		if err != nil {
			l.Close()
			return nil, err
		}
		topo.daemons = append(topo.daemons, d)
		for c := 0; c < spec.Clients; c++ {
			sess, err := key.Dial(l.Addr().String())
			if err != nil {
				return nil, err
			}
			topo.sessions = append(topo.sessions, sess)
		}

	case topoFabric:
		groups := make([][]string, fabricShards)
		for i, f := range files { // files are ordered member-major
			store, err := sssearch.LoadShardStore(f)
			if err != nil {
				return nil, fmt.Errorf("load: %w", err)
			}
			l, err := listen()
			if err != nil {
				return nil, err
			}
			d, err := store.ServeTCP(l)
			if err != nil {
				l.Close()
				return nil, err
			}
			topo.daemons = append(topo.daemons, d)
			s := i % fabricShards
			groups[s] = append(groups[s], l.Addr().String())
		}
		sess, err := key.DialShardedReplicated(man, fabricThreshold, groups...)
		if err != nil {
			return nil, err
		}
		topo.sessions = append(topo.sessions, sess)

	default:
		return nil, errors.New("unknown topology")
	}
	return topo, nil
}
