package sssearch

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"sssearch/internal/client"
	"sssearch/internal/coalesce"
	"sssearch/internal/core"
	"sssearch/internal/drbg"
	"sssearch/internal/mapping"
	"sssearch/internal/metrics"
	"sssearch/internal/obs"
	"sssearch/internal/poly"
	"sssearch/internal/polyenc"
	"sssearch/internal/ring"
	"sssearch/internal/server"
	"sssearch/internal/shard"
	"sssearch/internal/sharing"
	"sssearch/internal/store"
	"sssearch/internal/xmltree"
	"sssearch/internal/xpath"
)

// Document is a parsed XML element tree.
type Document = xmltree.Node

// NodeKey identifies an element by its path of child indices from the root.
type NodeKey = drbg.NodeKey

// Stats is the per-query protocol cost snapshot.
type Stats = metrics.Snapshot

// VerifyLevel controls how much a search re-checks the server; see the
// constants below.
type VerifyLevel = core.VerifyLevel

// Verification levels.
const (
	// VerifyNone trusts the server's evaluations (minimum bandwidth;
	// ambiguous nodes stay unresolved).
	VerifyNone = core.VerifyNone
	// VerifyResolve resolves the ambiguous nodes, and nothing else, for an
	// exact answer (the default): from two more evaluations a node on
	// RingFp, from fetched polynomials on RingZ.
	VerifyResolve = core.VerifyResolve
	// VerifyFull re-derives every reported match, catching a lying server.
	VerifyFull = core.VerifyFull
)

// ParseXML parses an XML document from a string.
func ParseXML(s string) (*Document, error) { return xmltree.ParseString(s) }

// ParseXMLReader parses an XML document from a reader.
func ParseXMLReader(r io.Reader) (*Document, error) { return xmltree.Parse(r) }

// RingKind selects the quotient ring family of §4.1.
type RingKind int

const (
	// RingZ is Z[x]/(r(x)): short polynomials (deg r coefficients) whose
	// integer coefficients grow with document size. The default.
	RingZ RingKind = iota
	// RingFp is F_p[x]/(x^{p-1}-1): constant-size polynomials (p-1
	// coefficients < p), tag domain limited to [1, p-2].
	RingFp
)

// Config tunes Outsource.
type Config struct {
	// Kind selects the ring family. Default: RingZ.
	Kind RingKind
	// P is the field characteristic for RingFp. Default: 257.
	P uint64
	// R holds the ascending coefficients of the monic irreducible modulus
	// for RingZ. Default: x^2+1.
	R []int64
	// Secret keys the private tag mapping. Default: derived from the seed.
	Secret []byte
	// Seed fixes the client share seed; zero value means "generate fresh".
	Seed drbg.Seed
	// Parallelism bounds the worker pool of the outsourcing pipeline's
	// tree walks (encode and split). 0 selects runtime.GOMAXPROCS, 1
	// forces sequential walks. The produced bundle is byte-identical at
	// every setting.
	Parallelism int
}

// ClientKey is the client's complete secret material: the share seed, the
// private tag mapping and the (public) ring parameters.
//
// Sessions opened from one ClientKey share a cross-session client share
// cache by default: the seed-derived share pads and hot multi-point share
// evaluations are computed once per key, not once per session, with
// singleflight regeneration under concurrent misses (answers are
// byte-identical either way). SetSharedCache(false) opts out.
type ClientKey struct {
	state *store.ClientState

	// mu guards the lazily built shared client cache and the opt-out flag.
	mu        sync.Mutex
	shared    *sharing.SharedPadCache
	sharedOff bool
}

// ServerStore is the server-side artifact: the share tree plus ring
// parameters. It contains no secrets.
type ServerStore struct {
	ring ring.Ring
	tree *sharing.Tree
}

// Bundle pairs the two Outsource outputs.
type Bundle struct {
	Server *ServerStore
	Key    *ClientKey
}

// Outsource encodes, splits and packages a document for outsourcing.
func Outsource(doc *Document, cfg Config) (*Bundle, error) {
	if doc == nil {
		return nil, errors.New("sssearch: nil document")
	}
	var r ring.Ring
	var err error
	switch cfg.Kind {
	case RingFp:
		p := cfg.P
		if p == 0 {
			p = 257
		}
		r, err = ring.NewFpCyclotomic(new(big.Int).SetUint64(p))
	case RingZ:
		coeffs := cfg.R
		if len(coeffs) == 0 {
			coeffs = []int64{1, 0, 1} // x^2+1
		}
		r, err = ring.NewIntQuotient(poly.FromInt64(coeffs...))
	default:
		return nil, fmt.Errorf("sssearch: unknown ring kind %d", cfg.Kind)
	}
	if err != nil {
		return nil, err
	}
	seed := cfg.Seed
	if seed == (drbg.Seed{}) {
		seed, err = drbg.NewSeed()
		if err != nil {
			return nil, err
		}
	}
	secret := cfg.Secret
	if secret == nil {
		secret = seed[:]
	}
	m, err := mapping.New(r.MaxTag(), secret)
	if err != nil {
		return nil, err
	}
	// The encoded tree feeds straight into Split and is then discarded, so
	// the fast-path encode skips the big.Int boundary representation
	// entirely (PackedOnly); the big.Int rings ignore both options.
	enc, err := polyenc.EncodeWithOpts(r, doc, m, polyenc.Opts{
		Parallelism: cfg.Parallelism,
		PackedOnly:  true,
	})
	if err != nil {
		return nil, err
	}
	tree, err := sharing.SplitWithOpts(enc, seed, sharing.SplitOpts{Parallelism: cfg.Parallelism})
	if err != nil {
		return nil, err
	}
	return &Bundle{
		Server: &ServerStore{ring: r, tree: tree},
		Key: &ClientKey{state: &store.ClientState{
			Seed:    seed,
			Params:  r.Params(),
			Mapping: m,
		}},
	}, nil
}

// --- persistence -----------------------------------------------------------

// Save writes the server store to a file.
func (s *ServerStore) Save(path string) error {
	return store.SaveServer(path, s.ring, s.tree)
}

// LoadServerStore reads a server store from a file.
func LoadServerStore(path string) (*ServerStore, error) {
	r, tree, err := store.LoadServer(path)
	if err != nil {
		return nil, err
	}
	return &ServerStore{ring: r, tree: tree}, nil
}

// NodeCount reports the number of stored share polynomials.
func (s *ServerStore) NodeCount() int { return s.tree.Count() }

// ByteSize reports the serialized size of the share tree.
func (s *ServerStore) ByteSize() int { return s.tree.ByteSize() }

// RingName describes the store's ring.
func (s *ServerStore) RingName() string { return s.ring.Name() }

// Save writes the client key to a file (0600).
func (k *ClientKey) Save(path string) error { return store.SaveClient(path, k.state) }

// LoadClientKey reads a client key from a file.
func LoadClientKey(path string) (*ClientKey, error) {
	st, err := store.LoadClient(path)
	if err != nil {
		return nil, err
	}
	return &ClientKey{state: st}, nil
}

// Seed returns the client share seed.
func (k *ClientKey) Seed() drbg.Seed { return k.state.Seed }

// SetSharedCache toggles the cross-session client share cache for
// sessions opened after the call (default enabled). Disabling gives every
// new session a private pad cache — the pre-shared behavior, useful for
// ablations and for isolating sessions' memory. Results are byte-identical
// either way.
func (k *ClientKey) SetSharedCache(enabled bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.sharedOff = !enabled
	if !enabled {
		k.shared = nil
	}
}

// sharedPads returns the key's shared client cache, building it on first
// use over the session ring r; nil when opted out.
func (k *ClientKey) sharedPads(r ring.Ring) *sharing.SharedPadCache {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.sharedOff {
		return nil
	}
	if k.shared == nil {
		k.shared = sharing.NewSharedPadCache(r, k.state.Seed)
	}
	return k.shared
}

// --- serving ----------------------------------------------------------------

// ServeOpts tunes a daemon started by the Serve* helpers.
type ServeOpts struct {
	// DisableCoalesce turns off the cross-session request coalescer in
	// front of the store. Coalescing is on by default: it is semantically
	// transparent (byte-identical answers) and merges concurrent Eval
	// frames from all connections into shared deduplicated evaluation
	// passes. Disable only for ablations and debugging.
	DisableCoalesce bool

	// IdleTimeout, when positive, closes connections that sit silent
	// between frames for longer than this — protection against half-dead
	// peers holding sockets forever. Zero disables the timeout.
	IdleTimeout time.Duration

	// MaxInflight, when positive, bounds concurrently executing requests
	// across the whole daemon. Excess requests from current-protocol
	// sessions are shed immediately with a typed retryable error carrying
	// a retry-after hint (resilient clients back off and retry); older
	// sessions queue for a slot instead. Zero leaves admission unbounded.
	MaxInflight int
}

// wrapStore applies the serving-path wrappers selected by opts.
func wrapStore(st server.Store, opts ServeOpts) server.Store {
	if opts.DisableCoalesce {
		return st
	}
	return coalesce.New(st, nil)
}

// ServeTCP serves the store's share tree on the listener until Close is
// called on the returned daemon. Concurrent queries from all connections
// are coalesced into shared evaluation passes (see ServeOpts).
func (s *ServerStore) ServeTCP(l net.Listener) (*Daemon, error) {
	return s.ServeTCPOpts(l, ServeOpts{})
}

// ServeTCPOpts is ServeTCP with explicit serving options.
func (s *ServerStore) ServeTCPOpts(l net.Listener, opts ServeOpts) (*Daemon, error) {
	local, err := server.NewLocal(s.ring, s.tree)
	if err != nil {
		return nil, err
	}
	d := server.NewDaemon(wrapStore(local, opts), nil)
	d.IdleTimeout = opts.IdleTimeout
	d.MaxInflight = opts.MaxInflight
	go func() { _ = d.Serve(l) }()
	return &Daemon{d: d, opts: opts}, nil
}

// Daemon is a running network server.
type Daemon struct {
	d       *server.Daemon
	opts    ServeOpts
	sharded bool
}

// SwapStore atomically replaces the daemon's served share store with s —
// the zero-downtime reload path. Requests in flight finish on the store
// they started on; every request dispatched after the swap is answered
// from s. The new store's ring parameters must match the served ones
// byte-identically (live sessions pinned them at their handshake) or the
// swap is refused. The serving wrappers chosen at start (coalescing) are
// re-applied to s. Returns the new store epoch. Shard daemons cannot
// swap: their guard is bound to the manifest range of the original
// store.
func (d *Daemon) SwapStore(s *ServerStore) (uint64, error) {
	if d.sharded {
		return 0, errors.New("sssearch: SwapStore: shard daemons cannot swap stores")
	}
	if s == nil {
		return 0, errors.New("sssearch: SwapStore: nil store")
	}
	local, err := server.NewLocal(s.ring, s.tree)
	if err != nil {
		return 0, err
	}
	return d.d.SwapStore(wrapStore(local, d.opts))
}

// StoreEpoch returns the daemon's store-swap epoch: 0 until the first
// SwapStore, incremented by each successful swap.
func (d *Daemon) StoreEpoch() uint64 { return d.d.StoreEpoch() }

// DebugHandler returns the daemon's live ops surface, ready to mount on an
// operator-only HTTP listener (cmd/sss-server's -debug-addr does exactly
// that):
//
//   - /metrics — Prometheus text format: every protocol counter plus the
//     per-stage latency histograms (p50/p95/p99, sum, count, max).
//   - /healthz — 200 while serving, 503 once a graceful Shutdown begins,
//     so load balancers stop routing to a draining daemon.
//   - /varz — a JSON snapshot: counters, stage latencies, the slow-query
//     log of sampled traces, store epoch and inflight admission slots.
//   - /debug/pprof/... — the standard Go profiling endpoints.
//
// The counters merge the daemon's own tallies with the coalescer's (when
// coalescing is enabled, the coalescer in front of the store keeps its
// own counter set).
func (d *Daemon) DebugHandler() http.Handler {
	return obs.DebugHandler(obs.DebugOptions{
		Counters: func() metrics.Snapshot {
			snap := d.d.Counters().Snapshot()
			if co, ok := d.d.Store().(*coalesce.Server); ok {
				snap = snap.Add(co.Counters().Snapshot())
			}
			return snap
		},
		Observer: d.d.Observer(),
		Healthy: func() error {
			if d.d.Draining() {
				return errors.New("draining")
			}
			return nil
		},
		Vars: func() map[string]any {
			return map[string]any{
				"store_epoch":  d.d.StoreEpoch(),
				"inflight":     d.d.Inflight(),
				"max_inflight": d.opts.MaxInflight,
				"sharded":      d.sharded,
			}
		},
	})
}

// Close stops the daemon and waits for in-flight connections.
func (d *Daemon) Close() error { return d.d.Close() }

// Shutdown drains the daemon gracefully: stop accepting, finish each
// connection's in-flight requests, send every client a Bye (resilient
// clients re-dial elsewhere), then close. Connections that have not
// finished by the context deadline are force-closed. Use for
// zero-downtime restarts; Close for immediate teardown.
func (d *Daemon) Shutdown(ctx context.Context) error { return d.d.Shutdown(ctx) }

// --- sharding ---------------------------------------------------------------

// ShardStats is the routing-cost snapshot of a sharded session: backend
// calls per shard and cross-shard fan-out per routed batch.
type ShardStats = metrics.ShardSnapshot

// ShardManifest is the public routing table of a sharded deployment: it
// records which shard owns which NodeKey-prefix range of the share tree.
// It contains no secrets (it mirrors tree shape, which the server learns
// anyway) and is all a client needs — besides its ClientKey — to route
// queries to the right daemons.
type ShardManifest struct{ m *shard.Manifest }

// NumShards returns the number of shards in the deployment.
func (m *ShardManifest) NumShards() int { return m.m.Shards }

// Save writes the manifest to a file.
func (m *ShardManifest) Save(path string) error { return store.SaveManifest(path, m.m) }

// LoadShardManifest reads a routing manifest from a file.
func LoadShardManifest(path string) (*ShardManifest, error) {
	man, err := store.LoadManifest(path)
	if err != nil {
		return nil, err
	}
	return &ShardManifest{m: man}, nil
}

// ShardStore is one shard's server-side slice of a partitioned share
// tree: the full tree shape with only the owned ranges' polynomials,
// plus the manifest and shard id its daemon enforces. Like ServerStore
// it contains no secrets.
type ShardStore struct {
	ring ring.Ring
	tree *sharing.Tree
	man  *shard.Manifest
	id   int
}

// ID returns the shard's position in the manifest.
func (s *ShardStore) ID() int { return s.id }

// Manifest returns the deployment's routing manifest.
func (s *ShardStore) Manifest() *ShardManifest { return &ShardManifest{m: s.man} }

// OwnedNodes reports how many share polynomials this shard actually
// stores (its tree keeps the whole shape, but foreign nodes are empty).
func (s *ShardStore) OwnedNodes() int { return shard.OwnedNodes(s.tree, s.man, s.id) }

// ByteSize reports the serialized size of the shard's tree.
func (s *ShardStore) ByteSize() int { return s.tree.ByteSize() }

// RingName describes the store's ring.
func (s *ShardStore) RingName() string { return s.ring.Name() }

// Save writes the shard store to a file.
func (s *ShardStore) Save(path string) error {
	return store.SaveShard(path, s.ring, s.tree, s.man, s.id)
}

// LoadShardStore reads a shard store from a file.
func LoadShardStore(path string) (*ShardStore, error) {
	r, tree, man, id, err := store.LoadShard(path)
	if err != nil {
		return nil, err
	}
	return &ShardStore{ring: r, tree: tree, man: man, id: id}, nil
}

// IsShardStoreFile reports whether data is a shard store (as opposed to
// a whole-tree server store) — the sniff sss-server uses to auto-detect
// what it was handed.
func IsShardStoreFile(data []byte) bool { return store.IsShardStore(data) }

// serveGuardedTCP starts a daemon over a guarded Local: the shared body
// of ShardStore.ServeTCP and ServerStore.ServeShardTCP. The coalescer
// (unless disabled) wraps the guard, so merged passes stay inside the
// shard's ownership fence.
func serveGuardedTCP(l net.Listener, r ring.Ring, tree *sharing.Tree, man *shard.Manifest, id int, opts ServeOpts) (*Daemon, error) {
	local, err := server.NewLocal(r, tree)
	if err != nil {
		return nil, err
	}
	guard, err := shard.NewGuard(r, local, man, id)
	if err != nil {
		return nil, err
	}
	d := server.NewDaemon(wrapStore(guard, opts), nil)
	d.IdleTimeout = opts.IdleTimeout
	d.MaxInflight = opts.MaxInflight
	go func() { _ = d.Serve(l) }()
	return &Daemon{d: d, opts: opts, sharded: true}, nil
}

// ServeTCP serves the shard on the listener. The daemon answers only for
// node keys inside the shard's manifest ranges; anything else is
// rejected rather than answered with the empty foreign share.
func (s *ShardStore) ServeTCP(l net.Listener) (*Daemon, error) {
	return s.ServeTCPOpts(l, ServeOpts{})
}

// ServeTCPOpts is ServeTCP with explicit serving options.
func (s *ShardStore) ServeTCPOpts(l net.Listener, opts ServeOpts) (*Daemon, error) {
	return serveGuardedTCP(l, s.ring, s.tree, s.man, s.id, opts)
}

// ShardedBundle is the server-side output of Bundle.Shard: one store per
// shard plus the manifest the client routes with.
type ShardedBundle struct {
	Manifest *ShardManifest
	Stores   []*ShardStore
}

// Shard partitions the server store's share tree across n shards by
// NodeKey-prefix ranges (deterministic, balanced by node count). The
// union of the shards is exactly the original store; queries through a
// routed session return byte-identical results.
func (s *ServerStore) Shard(n int) (*ShardedBundle, error) {
	man, err := shard.Plan(s.tree, n)
	if err != nil {
		return nil, err
	}
	return s.ShardWith(&ShardManifest{m: man})
}

// ShardWith partitions the store under an existing manifest — the
// building block of 2-D deployments: Shamir-share first (MultiShare),
// then partition every member store with ONE shared manifest (all member
// trees mirror the document shape, so one plan fits all).
func (s *ServerStore) ShardWith(man *ShardManifest) (*ShardedBundle, error) {
	trees, err := shard.PartitionWithManifest(s.tree, man.m)
	if err != nil {
		return nil, err
	}
	out := &ShardedBundle{Manifest: man, Stores: make([]*ShardStore, len(trees))}
	for i, t := range trees {
		out.Stores[i] = &ShardStore{ring: s.ring, tree: t, man: man.m, id: i}
	}
	return out, nil
}

// Shard partitions the bundle's server store across n daemons; the
// client key is unchanged (sharding is server-side only).
func (b *Bundle) Shard(n int) (*ShardedBundle, error) { return b.Server.Shard(n) }

// MultiShare Shamir-shares the server store across n stores with
// reconstruction threshold k (the paper's §4.2 k-of-n extension):
// store i must be served as the member with share point X = i+1 —
// DialMulti assumes that order. Requires the F_p ring. Any k stores
// reconstruct the original; fewer than k learn nothing, even colluding.
func (b *Bundle) MultiShare(k, n int) ([]*ServerStore, error) {
	shares, err := sharing.MultiShare(b.Server.ring, b.Server.tree, k, n, rand.Reader)
	if err != nil {
		return nil, err
	}
	out := make([]*ServerStore, len(shares))
	for i, s := range shares {
		out[i] = &ServerStore{ring: b.Server.ring, tree: s.Tree}
	}
	return out, nil
}

// ServeShardTCP serves a whole-tree store as one shard of a sharded
// deployment: the daemon holds everything but answers only for the
// manifest ranges of shard id. This is the cmd/sss-server
// -shard-manifest path — logical partitioning over physically complete
// replicas (useful for cache locality and load spreading without
// re-splitting stores).
func (s *ServerStore) ServeShardTCP(l net.Listener, man *ShardManifest, id int) (*Daemon, error) {
	return serveGuardedTCP(l, s.ring, s.tree, man.m, id, ServeOpts{})
}

// ServeShardTCPOpts is ServeShardTCP with explicit serving options.
func (s *ServerStore) ServeShardTCPOpts(l net.Listener, man *ShardManifest, id int, opts ServeOpts) (*Daemon, error) {
	return serveGuardedTCP(l, s.ring, s.tree, man.m, id, opts)
}

// --- querying ---------------------------------------------------------------

// Session is a connected query client.
type Session struct {
	engine   *core.Engine
	counters *metrics.Counters
	closers  []io.Closer   // every connection the session owns (empty in-process)
	router   *shard.Router // non-nil for sharded sessions
}

// Connect opens an in-process session: client and server in one address
// space (no network), sharing the bundle's key and store.
func (b *Bundle) Connect() (*Session, error) {
	return b.Key.ConnectLocal(b.Server)
}

// ConnectLocal opens an in-process session against a server store.
func (k *ClientKey) ConnectLocal(s *ServerStore) (*Session, error) {
	local, err := server.NewLocal(s.ring, s.tree)
	if err != nil {
		return nil, err
	}
	return k.newSession(local, nil)
}

// Dial opens a TCP session against a remote share server.
func (k *ClientKey) Dial(addr string) (*Session, error) {
	counters := &metrics.Counters{}
	remote, err := client.Dial(addr, counters)
	if err != nil {
		return nil, err
	}
	sess, err := k.newSessionWithCounters(remote, []io.Closer{remote}, counters)
	if err != nil {
		remote.Close()
		return nil, err
	}
	return sess, nil
}

// DialPool opens a TCP session backed by a fixed-size pool of pipelined
// connections to one share server — concurrent searches on the session
// spread across the pool instead of serialising behind one socket.
// Concurrent evaluation calls are additionally micro-batched: requests
// issued while a round trip is in flight merge into one deduplicated
// wire request (flush on size or first-await — a lone query never waits
// on a batching window). The coalescing tallies appear in
// Session.Counters next to the wire counters.
func (k *ClientKey) DialPool(addr string, size int) (*Session, error) {
	counters := &metrics.Counters{}
	pool, err := client.DialPool(addr, size, counters)
	if err != nil {
		return nil, err
	}
	batched := client.NewBatcher(pool, counters)
	sess, err := k.newSessionWithCounters(batched, []io.Closer{pool}, counters)
	if err != nil {
		pool.Close()
		return nil, err
	}
	return sess, nil
}

// DialMulti opens a session against a k-of-n Shamir deployment (see
// Bundle.MultiShare): addrs[i] must serve the store with share point
// X = i+1 — the order MultiShare returned them in. threshold is k; the
// session answers queries as long as any k servers do.
func (k *ClientKey) DialMulti(threshold int, addrs ...string) (*Session, error) {
	r, err := ring.FromParams(k.state.Params)
	if err != nil {
		return nil, err
	}
	fp, ok := r.(*ring.FpCyclotomic)
	if !ok {
		return nil, fmt.Errorf("sssearch: multi-server sessions require the F_p ring, got %s", r.Name())
	}
	counters := &metrics.Counters{}
	members := make([]core.MultiMember, 0, len(addrs))
	var closers []io.Closer
	fail := func(err error) (*Session, error) {
		for _, c := range closers {
			c.Close()
		}
		return nil, err
	}
	for i, addr := range addrs {
		remote, err := client.Dial(addr, counters)
		if err != nil {
			return fail(err)
		}
		closers = append(closers, remote)
		members = append(members, core.MultiMember{X: uint32(i + 1), API: remote})
	}
	ms, err := core.NewMultiServer(fp, threshold, members)
	if err != nil {
		return fail(err)
	}
	sess, err := k.newSessionWithCounters(ms, closers, counters)
	if err != nil {
		return fail(err)
	}
	return sess, nil
}

// ConnectSharded opens an in-process session over a sharded bundle: one
// guarded Local per shard behind a scatter/gather router — the
// single-process mirror of a DialSharded deployment, used by tests and
// the differential harness.
func (k *ClientKey) ConnectSharded(sb *ShardedBundle) (*Session, error) {
	backends := make([]core.ServerAPI, len(sb.Stores))
	for i, st := range sb.Stores {
		local, err := server.NewLocal(st.ring, st.tree)
		if err != nil {
			return nil, err
		}
		guard, err := shard.NewGuard(st.ring, local, st.man, st.id)
		if err != nil {
			return nil, err
		}
		backends[i] = guard
	}
	router, err := shard.NewRouter(sb.Manifest.m, backends)
	if err != nil {
		return nil, err
	}
	sess, err := k.newSession(router, nil)
	if err != nil {
		return nil, err
	}
	sess.router = router
	return sess, nil
}

// DialSharded opens a session against a tree-partitioned deployment:
// addrs[i] must serve shard i of the manifest. Queries are scattered to
// the owning shards over pipelined connections and gathered back in
// request order; the search semantics are identical to a single-server
// session.
func (k *ClientKey) DialSharded(man *ShardManifest, addrs ...string) (*Session, error) {
	if len(addrs) != man.NumShards() {
		return nil, fmt.Errorf("sssearch: %d addresses for %d shards", len(addrs), man.NumShards())
	}
	counters := &metrics.Counters{}
	backends := make([]core.ServerAPI, 0, len(addrs))
	var closers []io.Closer
	fail := func(err error) (*Session, error) {
		for _, c := range closers {
			c.Close()
		}
		return nil, err
	}
	for i, addr := range addrs {
		remote, err := client.Dial(addr, counters)
		if err != nil {
			return fail(fmt.Errorf("sssearch: shard %d: %w", i, err))
		}
		closers = append(closers, remote)
		backends = append(backends, remote)
	}
	router, err := shard.NewRouter(man.m, backends)
	if err != nil {
		return fail(err)
	}
	sess, err := k.newSessionWithCounters(router, closers, counters)
	if err != nil {
		return fail(err)
	}
	sess.router = router
	return sess, nil
}

// DialShardedReplicated opens a session against a 2-D (partition ×
// replica) deployment: groups[i] lists the addresses of shard i's
// Shamir replica group, each serving one member store (share point
// X = position+1, the MultiShare order); any threshold of them answer
// for the shard. Requires the F_p ring.
func (k *ClientKey) DialShardedReplicated(man *ShardManifest, threshold int, groups ...[]string) (*Session, error) {
	if len(groups) != man.NumShards() {
		return nil, fmt.Errorf("sssearch: %d replica groups for %d shards", len(groups), man.NumShards())
	}
	r, err := ring.FromParams(k.state.Params)
	if err != nil {
		return nil, err
	}
	fp, ok := r.(*ring.FpCyclotomic)
	if !ok {
		return nil, fmt.Errorf("sssearch: replicated shards require the F_p ring, got %s", r.Name())
	}
	counters := &metrics.Counters{}
	backends := make([]core.ServerAPI, 0, len(groups))
	var closers []io.Closer
	fail := func(err error) (*Session, error) {
		for _, c := range closers {
			c.Close()
		}
		return nil, err
	}
	for s, group := range groups {
		members := make([]core.MultiMember, 0, len(group))
		for j, addr := range group {
			remote, err := client.Dial(addr, counters)
			if err != nil {
				return fail(fmt.Errorf("sssearch: shard %d replica %d: %w", s, j, err))
			}
			closers = append(closers, remote)
			members = append(members, core.MultiMember{X: uint32(j + 1), API: remote})
		}
		ms, err := core.NewMultiServer(fp, threshold, members)
		if err != nil {
			return fail(fmt.Errorf("sssearch: shard %d: %w", s, err))
		}
		backends = append(backends, ms)
	}
	router, err := shard.NewRouter(man.m, backends)
	if err != nil {
		return fail(err)
	}
	sess, err := k.newSessionWithCounters(router, closers, counters)
	if err != nil {
		return fail(err)
	}
	sess.router = router
	return sess, nil
}

func (k *ClientKey) newSession(api core.ServerAPI, closers []io.Closer) (*Session, error) {
	return k.newSessionWithCounters(api, closers, &metrics.Counters{})
}

func (k *ClientKey) newSessionWithCounters(api core.ServerAPI, closers []io.Closer, counters *metrics.Counters) (*Session, error) {
	r, err := ring.FromParams(k.state.Params)
	if err != nil {
		return nil, err
	}
	eng := core.NewEngineShared(r, k.state.Seed, k.state.Mapping, api, counters, k.sharedPads(r))
	return &Session{engine: eng, counters: counters, closers: closers}, nil
}

// Close releases the session, closing every network connection it owns —
// a single remote, all pooled connections, every multi-server member and
// every shard of a routed session alike. The first error is returned,
// but all connections are closed regardless.
func (s *Session) Close() error {
	var first error
	for _, c := range s.closers {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.closers = nil
	return first
}

// SearchOption tunes a single search.
type SearchOption func(*core.Opts)

// WithVerify sets the verification level.
func WithVerify(v VerifyLevel) SearchOption {
	return func(o *core.Opts) { o.Verify = v }
}

// SearchResult is a completed query.
type SearchResult struct {
	// Matches identify the matching elements, in document order.
	Matches []NodeKey
	// Unresolved lists possible extra matches left unverified under
	// VerifyNone.
	Unresolved []NodeKey
	// Stats is the protocol cost of this query.
	Stats Stats
}

// Paths resolves the match keys against a plaintext copy of the document
// (a client-side convenience for display; the server never sees it).
func (r *SearchResult) Paths(doc *Document) []string {
	out := make([]string, 0, len(r.Matches))
	for _, k := range r.Matches {
		n, err := doc.Lookup(k)
		if err != nil {
			out = append(out, "<invalid:"+k.String()+">")
			continue
		}
		out = append(out, n.PathString())
	}
	return out
}

// Search evaluates an XPath expression (e.g. //client, /site//item/name)
// against the shared tree. A query for a tag that never occurs in the
// document returns an empty result.
func (s *Session) Search(expr string, opts ...SearchOption) (*SearchResult, error) {
	q, err := xpath.Parse(expr)
	if err != nil {
		return nil, err
	}
	o := core.Opts{Verify: VerifyResolve}
	for _, fn := range opts {
		fn(&o)
	}
	res, err := s.engine.Query(q, o)
	if err != nil {
		if errors.Is(err, core.ErrUnknownTag) {
			return &SearchResult{}, nil
		}
		return nil, err
	}
	return &SearchResult{
		Matches:    res.Matches,
		Unresolved: res.Unresolved,
		Stats:      res.Stats,
	}, nil
}

// Counters exposes the session's cumulative protocol counters.
func (s *Session) Counters() Stats { return s.counters.Snapshot() }

// ShardCounters exposes the routing tallies of a sharded session
// (per-shard backend calls, cross-shard fan-out per batch). ok is false
// for unsharded sessions.
func (s *Session) ShardCounters() (stats ShardStats, ok bool) {
	if s.router == nil {
		return ShardStats{}, false
	}
	return s.router.Counters().Snapshot(), true
}

// EvaluatePlaintext runs the same XPath expression against a plaintext
// document — the correctness oracle and the "no encryption" baseline.
func EvaluatePlaintext(doc *Document, expr string) ([]string, error) {
	q, err := xpath.Parse(expr)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, n := range q.Evaluate(doc) {
		out = append(out, n.PathString())
	}
	return out, nil
}

// FormatStats renders a Stats snapshot as a short human-readable string.
func FormatStats(s Stats) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "visited %d nodes (%d pruned), %d rounds, %d values",
		s.NodesVisited, s.NodesPruned, s.Rounds, s.ValuesMoved)
	if s.PolysFetched > 0 {
		fmt.Fprintf(&sb, ", %d polynomials (%d B)", s.PolysFetched, s.PolyBytesMoved)
	}
	if s.BytesSent+s.BytesReceived > 0 {
		fmt.Fprintf(&sb, ", wire %d B out / %d B in", s.BytesSent, s.BytesReceived)
	}
	return sb.String()
}
