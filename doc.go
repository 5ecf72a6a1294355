// Package sssearch is a Go implementation of "Using Secret Sharing for
// Searching in Encrypted Data" (Brinkman, Doumen, Jonker — SDM@VLDB 2004):
// searchable encryption for XML documents outsourced to an untrusted
// server, built from polynomial tree encodings and 2-party additive secret
// sharing.
//
// # Model
//
// The data owner translates an XML document into a tree of polynomials
// over a finite quotient ring: each element contributes a linear factor
// (x − map(tag)) multiplied into every ancestor, where map is a private
// injective tag mapping. Every node polynomial is split into a random
// client share (regenerable from a 32-byte seed) and a server share; the
// server stores only its share and learns nothing about tags or structure
// beyond the tree shape.
//
// To search //tag, the client sends the single point a = map(tag); the
// server evaluates its share polynomials at a top-down while the client
// adds its own share values. A non-zero sum kills a whole subtree in one
// comparison, so selective queries touch a small fraction of the tree;
// zero sums identify matches, with an algebraic verification equation
// that also catches a cheating server.
//
// The client prunes silently: it asks nothing below a dead node and sends
// no notice of it. The server's view of a query is two verbs, evaluate
// and fetch. Under additive sharing the server cannot tell a zero sum
// from a non-zero one; a prune notice would tell it, node by node, down
// to the leaves of the last step — the complement of the answer set.
//
// # Quick start
//
//	doc, _ := sssearch.ParseXML(`<customers><client><name/></client></customers>`)
//	bundle, _ := sssearch.Outsource(doc, sssearch.Config{})
//	session, _ := bundle.Connect()          // in-process server
//	res, _ := session.Search("//client")
//	fmt.Println(res.Paths(doc))             // [/customers/client]
//
// The same ClientKey drives remote sessions over TCP (see ServeTCP/Dial)
// and every multi-daemon topology below.
//
// # Deployment topologies
//
// One ClientKey queries any of five server-side shapes; the engine and
// the answers are identical across all of them:
//
//   - Single: one daemon holds the whole share tree
//     (Bundle.Connect in-process, ServerStore.ServeTCP + ClientKey.Dial
//     over TCP).
//   - Pool: one daemon, several pipelined connections — concurrent
//     searches spread across sockets instead of serialising
//     (ClientKey.DialPool).
//   - Replicated (k-of-n): the tree is Shamir-shared across n daemons
//     with threshold k (Bundle.MultiShare + ClientKey.DialMulti); any k
//     answer queries, fewer than k learn nothing even colluding. Adds
//     robustness and read throughput, not capacity — every daemon still
//     stores a full-size tree.
//   - Sharded: the tree is partitioned by NodeKey-prefix ranges across N
//     daemons (Bundle.Shard + ClientKey.DialSharded). A small public
//     manifest maps key ranges to shards; the client scatters each
//     evaluation wave to the owning shards concurrently and gathers the
//     answers in request order. Each daemon stores ~1/N of the
//     polynomials and rejects out-of-range keys, so documents larger
//     than any single host stay servable. Per-shard request and fan-out
//     counters are on Session.ShardCounters.
//   - Sharded × replicated: both at once — partition first, then back
//     every shard with its own k-of-n replica group
//     (ServerStore.ShardWith over MultiShare member stores +
//     ClientKey.DialShardedReplicated). The partition plan is purely
//     shape-driven, so one manifest fits every Shamir member tree.
//
// The `query_fabric` workload of BENCHMARK.json runs the last shape (two
// shards × 2-of-3) and reports `shard.fanout_per_call` and
// `shard.router_self_ms`; for a walk-through of a sharded deployment:
//
//	go run ./examples/sharded
//
// # Concurrency
//
// The query engine is concurrent end-to-end. The wire protocol (version
// 4) has one frame layout, the handshake included, and every frame
// carries a request ID in its header, so one connection carries many
// in-flight requests; the server daemon dispatches decoded requests to a
// bounded worker pool and writes responses as they complete, out of
// order. Every request ends in the same fixed fields: deadline budget,
// trace ID and trace flags. Eval and fetch payloads are positional: a
// request lists its keys as runs of siblings, and the response answers
// key i in place i, naming no key but carrying a digest of the request's
// key list; the package comment of internal/wire has the layouts. A key
// list may expand to only so many keys for the bytes it takes, so a few
// bytes cannot make the daemon allocate much; client.Remote sends a wave
// of siblings past that bound in parts. A peer offering another protocol
// version — 3, the keyed frames, included — or speaking the retired
// legacy framing, is refused at the handshake. On the client side,
// client.Remote routes responses back to callers from a single reader
// goroutine, refuses a response whose digest, answer count or value count
// is not its request's before it decodes the answers, and offers
// context-aware calls (EvalNodesCtx); client.Pool spreads calls across a
// fixed set of connections.
//
// Inside a query, a large evaluation wave (512 keys and up) is two
// concurrent legs that meet at the sum (§4.3 only needs both numbers at
// the very end): the server evaluates its shares while the client
// regenerates and evaluates its own for the keys it asked about, in
// blocks of 32 keys spread over the idle cores. A large tag-recovery
// fetch does the same with the client's share pads. Both helpers are
// joined before the wave returns, on every error path; a smaller wave
// runs its two legs one after the other on the calling goroutine. This
// is why sharing.ShareSource implementations must be safe for concurrent
// use. core.Opts.Parallelism is a different axis — it splits a wave into
// concurrent server batches — and core.MultiServer fans a k-of-n
// deployment out in parallel, Lagrange-combining the per-server summands —
// so adding share servers adds throughput rather than latency
// (`core.multiserver_member_wait_ms` against `core.multiserver_self_ms` on
// `query_fabric`; TestMultiServerSequentialParity pins the concurrent
// fan-out to the sequential one).
//
// Every core.ServerAPI implementation is held to one contract by the
// conformance suite in internal/apitest.
//
// # Cross-session coalescing
//
// Concurrent sessions asking about the same hot subtree used to pay one
// full evaluation pass each. Two transparent layers now merge that work
// (answers stay byte-identical; both are pinned to the ServerAPI
// contract by the conformance suite):
//
//   - Server side, coalesce.Server sits between the daemon's worker pool
//     and the store (a plain Local, a shard.Guard, a Router — anything).
//     It drains whatever Eval frames are queued across ALL connections,
//     merges point-compatible requests into one deduplicated pass in
//     front of the store (identical hot waves take a map-free fast
//     path), and shares the resulting values singleflight-style — one
//     evaluation, every waiting session answered. A
//     failed merged pass replays each request alone, so error semantics
//     are exactly per-request; a pass whose store answered other keys than
//     it was asked fails every request it served. Serving helpers enable it by default
//     (ServeOpts.DisableCoalesce and `sss-server -coalesce=false` turn
//     it off for ablations).
//   - Client side, client.Batcher adds transparent micro-batching to a
//     Remote or Pool: evaluation calls issued while a round trip is in
//     flight merge into the next wire request (flush on size or
//     first-await — a lone query never waits on a batching window).
//     ClientKey.DialPool sessions batch automatically, so a gateway
//     multiplexing many user sessions over one pool sends ~one frame
//     per concurrent wave.
//
// Coalescing tallies (shared passes, absorbed requests, deduplicated
// evaluations) appear in every Stats snapshot next to the cache pairs.
// The `serve_hot` workload of BENCHMARK.json is the one that exercises
// them: `coalesce.dedup_hit_ratio`, `coalesce.requests_per_batch` and
// `coalesce.self_ms` say whether merging happened and what it cost.
//
// # Client share work
//
// The seed-only client of §4.2 regenerates every share it adds, and on
// RingFp that is no longer work worth caching. F_p[x]/(x^{p−1}−1) ≅
// F_p^{p−1} — x^{p−1}−1 splits into distinct linear factors — so a share is
// stored as its value vector (f(1), …, f(p−1)), and the client's pad is
// defined the same way, value by value: c_n(a), the pad of node n at the
// point a, is one block cipher call. A summand costs what a cache probe
// used to, so the three client caches of earlier releases — the per-session
// pad LRU, the per-key shared pad cache with its singleflight front, and
// the (node, point-set) share-eval LRU — are gone, with their knobs
// (ClientKey.SetSharedCache, SharedPadCache.SetBounds and the three
// default sizes). sharing.NewSharedPadCache, SeedClient.SetShareCacheNodes,
// SetCounters and the cache counters remain, inert, only until the
// benchmark stops calling them; the counters read 0.
//
// The key schedule (share stream generation 4, sharing.ShareLabel;
// drbg.PointKeys):
//
//   - K_id and K_a, for every point a ∈ [1, p−1], are AES-256 keys:
//     HMAC-SHA256(seed, "sss/client-share/v4" ‖ 0x01) and
//     HMAC-SHA256(seed, "sss/client-share/v4" ‖ 0x02 ‖ uvarint(a)). A
//     client derives each K_a once, on first use, into a table indexed by
//     a.
//   - A node's tag is the CBC-MAC under K_id of uvarint(len) ‖ path. The
//     encoding is prefix-free, so CBC-MAC is a PRF on it; one block covers
//     every path of up to 15 components below 128.
//   - c_n(a) is the first accepted sample of the chain
//     AES_{K_a}(tag_n[0:12] ‖ r), r = 0, 1, …: w-bit big-endian samples v
//     with w = 8·⌈bitlen p / 8⌉, accepted when v < p·⌊2^w/p⌋ and kept
//     mod p — fastfield's rule, under which field.Rand reading the chain as
//     an io.Reader is the reference sampler. The first sample of block 0 is
//     accepted but once in 2^16 draws on F_257.
//
// Hiding. Every residue has exactly ⌊2^w/p⌋ accepted preimages, so c_n(a)
// is exactly uniform on F_p given a uniform chain, and the chains of
// distinct (node, point) pairs are independent outputs of AES under
// independent keys on distinct inputs (distinct points use distinct keys;
// distinct paths have distinct tags but with probability ≈ 2^−96 over the
// 12 bytes used). A server share is values − pad: a uniform value vector,
// which is a uniform ring element, as the coefficient-form share was. Keying
// by point first is what the parked tag-scoped delegation needs: K_{map(t)}
// alone evaluates every node's pad at the point of tag t and at no other.
// The Z[x]/(r(x)) ring has no value form and keeps share stream v3 — a
// drbg.Deriver.ForNode keystream per node — unchanged.
//
// What the choice cost, measured before it was made (a 2-core Xeon, Go
// 1.24, F_257, a depth-5 key, 2 points, time per node):
//
//	client summand                                         cost
//	pad miss (HMAC + CTR + RandVec) + 2 Horner passes      2.3 µs
//	pad-LRU hit + 2 Horner passes                          0.85 µs
//	share-eval-LRU hit                                     0.10 µs
//	per-node AES key (HMAC + key schedule) + 2 blocks      0.42 µs
//	per-point subkeys, CBC-MAC tag + 2 blocks (chosen)     0.08 µs
//	single key, AES_K(tag ‖ a)                             0.13 µs
//
// The server's two values of a node cost 5 ns as slab reads, against
// 0.21 µs for two eval-LRU hits or 0.85 µs of Horner. The write path pays
// p−1 blocks a node (2.1 µs on F_257, where a coefficient pad was 1.6 µs
// plus the NTT encode), and a block's input is the node's tag, written once,
// so consecutive blocks under consecutive point keys do not wait on each
// other. The `query_fp_tcp` and `serve_hot` workloads of BENCHMARK.json
// measure the read path, `outsource` the write path.
//
// # Concurrency & batching knobs
//
// The serving stack exposes a small set of tuning points; defaults suit
// a mid-size deployment and every knob degrades gracefully to the
// sequential path:
//
//   - core.Opts.Parallelism — splits each per-query evaluation wave
//     into concurrent batches (0 = GOMAXPROCS).
//   - Outsource Config.Parallelism — worker bound of the encode/split
//     tree walks on the write path (byte-identical at every setting).
//   - ClientKey.DialPool size — pipelined connections per session;
//     concurrent searches spread across sockets.
//   - server.Daemon.Workers — concurrently executing requests per
//     pipelined connection (default server.DefaultWorkers).
//   - coalesce.Server.MaxBatchKeys / client.Batcher.MaxBatchKeys —
//     distinct keys per merged pass or wire request; larger drains
//     split into consecutive passes (defaults 8192 / 4096).
//   - server.Local.SetEvalCacheEntries — bound of the (node, point) eval
//     LRU of a Z[x]/(r(x)) store (default server.DefaultEvalCacheEntries,
//     ~64 Ki entries); an F_p store reads values and has no cache.
//   - wire buffer pooling is automatic: frame payloads are built in and
//     recycled through a sync.Pool, and each frame is written with a
//     single Write call.
//
// # Fast path
//
// All F_p hot-path arithmetic runs on a word-sized engine
// (internal/fastfield): Montgomery multiplication over uint64 built on
// bits.Mul64, with the math/big implementation kept as the reference and
// fallback for the Z[x]/(r(x)) ring. On F_p there is little arithmetic
// left on the read path: the server reads a node's value at a, the client
// draws one pad value per (node, point) (see "Client share work"), and the
// engine adds the two. What remains in fastfield is the write path's
// pointwise products, the sampler, the Lagrange combine and the
// coefficient-form engine the reference paths use (multi-point Horner, the
// NTT). ring.SetFast(false) switches the arithmetic to big.Int — the
// reference sampler, the reference encode, the big.Int sums — and computes
// the same value store, so it queries a store written on the fast path.
// Differential tests pin both arithmetic stacks to each other at every
// layer; `queries_per_s` on `query_fp_tcp` (the fast path over a network)
// beside `query_z_local` (the math/big reference ring) is the measured
// pair.
//
// # Data plane
//
// On an F_p ring with the fast path on, a value is a machine word
// everywhere it travels, boxed nowhere: a share is its value vector —
// fixed-width bytes in the store file and in server.Local, []uint64 in
// core.NodePoly.Words on its way to a VerifyFull check — and a scalar — a
// share's value at a query point — is a uint64 (core.NodeEval.Words). An
// evaluation wave crosses the system without allocating per value:
// server.Local writes a call's answers into one slab, wire.AppendEvalResp /
// DecodeEvalResp pack and unpack the words at the bit width of the
// response's largest value — nine bits on F_257, and only the values: the
// answers are positional and a child count is a varint each — into one
// array on the client, which gives answer i the key it asked as key i,
// coalesce.Merger and shard.Router pass the answers on,
// core.MultiServer Lagrange-combines the members' word vectors as they
// arrived, and the client's share source evaluates a block of keys at a
// time into words (sharing.WordSource: the points' keys are looked up once
// per block, then one cipher block per key and point). The engine adds the
// two with fastfield arithmetic and tests the sum with == 0.
//
// The reduce-at-the-wire rule: a word is vouched for only by the evaluator
// that wrote it. A word off the wire is any uint64 a peer chose to send, so
// whoever consumes one reduces it first (the engine before the add, the
// Lagrange combine in its Montgomery product, reconstructPacked for
// fetched vectors); only a store loader, which refuses a value at or above
// p, hands out canonical words.
//
// The big.Int seam remains where a value has no word form, and as the
// reference everywhere else. NodeEval.Big / NodePoly.Big carry an answer
// with a negative or wider-than-a-word value: Z[x]/(r(x)), whose
// evaluations grow with the document; F_p moduli over 62 bits;
// SetFast(false), the differential oracle; and a tampering server, which
// may send anything — the word engine reduces such an answer through
// fastfield.ReduceBig and gets what the big.Int engine's add-then-Mod gets.
// ServerAPI still takes its points as []*big.Int (a handful a wave, packed
// once per call), EvalShares survives as the boxed reference seam over
// EvalShareWords (what a share source that offers nothing else is asked
// through, converting at the seam), and NodeEval.Values and
// NodePoly.Polynomial box on demand for tests and the reference paths.
// The query engine runs one traversal over either value form, chosen once
// per query from the ring and by no option: only the add, the zero test
// and the point solve of eq. (2) know which.
//
// A node, inside a query, is an index into the run's table of the nodes it
// has reached: the root is 0, a node's children are created as consecutive
// entries — their keys in one array — when the traversal first steps down
// from it, and each entry holds the child count a wave learned and one sum
// per distinct point of the query (points are interned by value, so a tag
// two steps name is evaluated once). Nothing on a wave's per-node path
// looks a node up by key, so nothing renders or hashes one; the concurrent
// batches of a wave write the slots of their own nodes and take no lock.
// Across queries, the node-keyed maps — the coalescer's merge index, the
// shard manifest's prefix index — are keyed by the path's compact binary form
// (drbg.NodeKey.AppendBinary, a varint per component, probed as
// m[string(b)] without allocating); NodeKey.String is for error text and
// people. A warmed in-process query allocates under one object per node it
// visits (TestHotQueryAllocationsPerNode gates it at two), where boxed
// scalars and rendered keys cost about 45.
//
// # Share stream
//
// The client "stores only the random seed" (§4.2), so every share pad — one
// per node at Outsource, one per (node, point) a query visits — is
// regenerated. On RingFp a pad is defined by its values (see "Client share
// work" for the key schedule); on RingZ it is a polynomial drawn from the
// node's stream: node key = HMAC-SHA256(seed, label ‖ 0x00 ‖ path), stream =
// the AES-256-CTR keystream under that key with a zero IV (package drbg).
// Both draw through one sampler rule (fastfield.RandVec and Sample on
// words, field.Rand on big.Int): w = 8·⌈bitlen p/8⌉-bit big-endian samples
// v, v < p·⌊2^w/p⌋ accepted and kept mod p. Every residue has exactly
// ⌊2^w/p⌋ accepted preimages, so a pad is exactly uniform and an additive
// share hides its element information-theoretically; acceptance is
// 65535/65536 on F_257 and never below 1/2. A chain's and a stream's bytes
// do not depend on how reads are chunked, so they — not the sampler's read
// sizes — define a pad: the word sampler and the reference sampler
// regenerate the same pads, and a store split on the fast path can be
// queried under SetFast(false).
//
// This is share-stream generation 4 (sharing.ShareLabel): generation 3 drew
// coefficient pads from the per-node keystream on every ring, generation 2
// from an HMAC_DRBG. The store magics carry the generation, older files are
// refused by name (store.ErrOldGeneration) and migrate by re-outsourcing.
//
// # Read path
//
// A query is a sequence of waves, and a protocol round is one wave, not
// one node. Each step evaluates its frontier in one EvalNodes wave per
// tree level (split into concurrent batches under Opts.Parallelism). The
// seed-only client of §4.2 pays for its storage at this point — it
// regenerates every visited node's share from its share stream — and on a
// large wave that work runs beside the server's evaluation of the same
// keys, not after it: the engine computes the summands of the keys it
// requested while EvalNodes is in flight, joins, checks that answer i is
// for key i and adds. Client share arithmetic therefore overlaps wire and
// store_eval: on a single-server path the obs stages of a query over a
// large document (and the benchmark's layer sum) add up to more than its
// wall time by design, and the client's CPU per query is what it was.
// Waves under 512 keys keep the two legs in sequence — the large ones
// carry the gain, and the stages of a small query still sum to its wall
// time. The step then
// applies the §4.3 answer rule: a zero node with no zero child is a
// definite match, a zero node with a zero child is ambiguous and is
// resolved by solving eq. (2), f = (x − t)·∏qᵢ over the node's and its
// children's polynomials, for the node's tag t. That resolution is not a
// rare verification path — a descendant lookup over a deep document
// recovers hundreds of tags — so a step's ambiguous candidates are
// resolved together, in one wave.
//
// On F_p, VerifyResolve resolves them from evaluations (core's
// resolveAtPoints). In F_p[x]/(x^{p−1}−1) evaluation at any a ∈ F_p* is a
// ring homomorphism onto F_p (a^{p−1} = 1 sends the modulus to 0), so
// eq. (2) holds pointwise: f(a) = (a − t)·Q(a) with Q(a) = ∏qᵢ(a), and
// t = a − f(a)/Q(a) wherever Q(a) ≠ 0 — two scalars a node where the
// coefficient solve moves p−1 coefficients, and no transform at all.
// The candidates and their children, deduplicated, are evaluated at two
// fixed points by one ordinary EvalNodes wave (the per-run cache, the
// Parallelism batches, the two-leg overlap and the key-by-key answer
// check of any scan wave); it adds one round and two values a node to a
// query's Stats and nothing to NodesVisited, which counts the traversal.
// t is solved at the first point and must come out the same at the
// second; a disagreement, or a Q(a) = 0, is polyenc.ErrInconsistent
// naming the first failing candidate in wave order, as the coefficient
// path reports it. The choice of points: a node polynomial's roots are
// the tag values of its subtree, so Q(a) ≠ 0 at every node of an honest
// server exactly when no tag maps to a, and there is no retry loop.
// a₁ = p−1 lies outside the tag domain [1, p−2] of every mapping (it is
// the zero divisor Lemma 3 excludes): always free, public, and saying
// nothing. a₂ is a value no tag maps to, drawn under the mapping's HMAC
// key (mapping.FreeValue): a public rule — "the largest free value" —
// would tell the server that every value it skipped is a tag, where a
// keyed draw tells it one value that is not. Both are a function of the
// ring and the mapping alone, fixed when the engine is built (nothing is
// added to Outsource, Save, Load or Dial, and the server learns from a
// resolve wave which nodes are ambiguous, as it did from a fetch). A
// mapping with no free value, or one that leaves the tag domain (the
// paper's own F_5 example maps a tag to p−1), keeps the polynomial path.
// Soundness: the client's pads make every f(aⱼ) and qᵢ(aⱼ) uniform to a
// server that does not hold the client share, so it forges blind. A
// delta δⱼ on f(aⱼ) moves the tag solved at aⱼ by δⱼ/Q(aⱼ), and a wrong
// tag is accepted only if δ₁/Q(a₁) = δ₂/Q(a₂) for two Q(aⱼ) ∈ F_p* it
// cannot see: probability ≤ 1/(p−1) per forged node (1/256 on F_257),
// and every miss is a reported cheat, not a silent one. The bound is
// tight and the assumption necessary — a forger holding the client seed
// computes δⱼ = (t − t′)·Q(aⱼ) and is accepted, a forgery at one point or
// alike at both is refused (core's resolve and wave tests). VerifyResolve
// has always trusted unambiguous matches outright (one forged zero sum
// fabricates a match no check sees), so it never was the level for a
// hostile server: VerifyFull, with the whole identity — all p−1 points —
// on the ambiguous candidates and on every reported match, stays that.
// The digest a positional response carries binds it to its request — a
// confused server, a crossed connection or a store that answered other
// keys is caught — but it does not stop a lying server, which digests
// the request it received as easily as an honest one and can still make a
// sum non-zero and drop a subtree's matches unseen. Catching that takes a
// linear MAC over the store, not a frame field.
//
// Everywhere else — under VerifyFull, on Z[x]/(r(x)) (evaluation there
// maps into Z/r(a)Z, no field: the quotient f(a)/Q(a) need not exist) and
// for the mappings above — tags are resolved from whole shares, which are
// then about nine tenths of a query's bytes (core's recoverNodeTags, one
// path for a step's candidates and for VerifyFull's re-check of every
// match): their (node + children) key sets are deduplicated and fetched
// in chunks of about 1 MiB (a constant derived from the ring's degree
// bound: 1,024 shares on F_257, far under wire.MaxFrameSize), the
// client regenerates a large chunk's share pads while its fetch is in
// flight, the fetch of the next chunk is in flight while the current one is
// solved, and a chunk of more than eight recoveries spreads its solves, in
// blocks of eight, over the idle cores. Rounds per query are therefore
// O(steps), matches and the first reported error keep candidate order, and
// every recovery keeps the full (x − t)·Q = f consistency check that
// catches a lying server. On F_p a fetched share is its value vector and
// the check is eq. (2) pointwise, with no transform: Q(a) = ∏qᵢ(a) at every
// a, the first a with Q(a) ≠ 0 gives t = a − f(a)/Q(a), and
// f(a) = (a − t)·Q(a) is then checked at all p−1 points in one pass
// (polyenc.RecoverTagPacked; RecoverTagValues on big.Int). On Z[x]/(r(x))
// Q is one product of polynomials, its first invertible coefficient gives
// t, and every coefficient equation Q[i-1] − t·Q[i] = f[i] is checked —
// polyenc.RecoverTag, which is also the pointwise solves' oracle on F_p.
// The resolve pipeline allocates per chunk, not per polynomial: a fetch
// response is encoded into a frame sized once and decoded into one
// coefficient slab (poly.WordSlab, never larger than the bytes present),
// the reconstructed sums of a chunk share another, and a block of solves
// shares one scratch product, so a recovery allocates only its result. The
// solve time of each wave is the tag_recover stage of internal/obs; the
// fetch it waited for is the wire's.
// Fetches carry the query's context (core.FetchPolysWithCtx), so a
// sampled query's trace id and deadline budget ride every frame it sends.
//
// On F_p rings a share is its value vector from the store file to the
// eq. (2) check: the loader hands each node a view of its values in the
// file's slab (checked below p), server.Local reads a value or hands the
// vector out as words, the fetch frame carries it bit-packed like an
// evaluation's values — nine bits a value on F_257, a zero tail trimmed,
// which reads back as zeros — core.NodePoly carries
// Words, MultiServer Lagrange-combines the members' words in place and
// the engine adds the client's value pads and checks. The big.Int form
// survives where a value is negative or wider than a word (a tampering
// server) — NodePoly.Big and RecoverTagValues take those — and on
// Z[x]/(r(x)), whose shares are polynomials end to end.
//
// # Outsourcing pipeline
//
// The write half of the protocol — Outsource's encode→split — runs in the
// value form and in parallel on F_p rings. A product of ring elements is
// the pointwise product of their values, so a node's values are
// (a − t)·∏ children's values at every a: no polynomial product, no
// transform, and every leaf of one tag shares one vector (polyenc's
// PackedOnly encode). Each node's pad is drawn at every point and
// subtracted in one word pass into the fixed-width bytes the store keeps
// and the server serves. Both tree walks run on a bounded worker pool
// (Config.Parallelism; the result is byte-identical at every setting
// because every node's pad derives from the node alone), and Outsource
// refuses a document deeper than sharing.MaxDepth, the depth every loader
// accepts. The reference — the big.Int coefficient encode on a
// SetFast(false) ring, evaluated at every point (ring.Values), minus pads
// field.Rand draws, on sharing.SplitSequential's sequential walk — is
// byte-identical, pinned at the split, combine and full Outsource→Search
// levels.
//
// The k-of-n combiner runs on the same engine: core.MultiServer
// precomputes the Lagrange-at-zero basis once per answer set
// (fastfield.LagrangeAtZero) and batch-combines whole value vectors in one
// Montgomery pass, falling back to per-point big.Int interpolation for
// rings without the fast path (the BigCombine ablation keeps the old path
// measurable).
//
// Intentionally still on big.Int: the Z[x]/(r(x)) ring end to end
// (unbounded coefficients). Every F_p ring is word-sized: p is at most
// 2^22.
//
// # Coefficient engine
//
// The coefficient form is the reference now: the big.Int-checked encode
// the value form is tested against, the coefficient solve of eq. (2) that
// pins the pointwise ones, and the conversion between the two forms
// (evaluating everywhere, or the transform below). Its packed products on
// fast F_p rings route through a number-theoretic transform
// (internal/fastfield.NTT): the quotient F_p[x]/(x^{p-1}-1) is
// cyclic convolution of length n = p-1, and F_p^* is cyclic of exactly
// that order, so the field always contains a primitive n-th root of
// unity and the length-n DFT diagonalizes the ring product in-field.
// Per ring the transform state is built lazily on the first
// transform-sized product and cached for the ring's lifetime — at most
// 12n bytes of twiddle tables plus pooled scratch, immutable after
// construction and shared read-only across goroutines. No query and no
// outsourcing on F_p transforms: the transform diagonalizes the ring
// product, and the value form is that diagonal.
//
// The kernel. n = m·2^k with m odd. A power-of-two length (F_257,
// F_65537) is one iterative in-place pass: the source is loaded in
// bit-reversed order, zero-padded on the way and fused with the first
// butterfly stage, and the remaining k-1 stages run over twiddles stored
// stage by stage (so the destination must not overlap the source, and a
// source longer than n panics like a wrong destination length). Odd
// prime factors ≤ 61 are peeled by a recursive decimation with one generic
// butterfly per radix, which leaves m interleaved subsequences for the
// same power-of-two kernel (F_97: 3·2^5, F_12289: 3·2^12). There is one
// transform direction — the inverse is the forward transform read
// backwards, which its 1/n scaling pass does on its way — and one path per
// radix; fastfield's naiveDFT, ring.MulPackedSchoolbook and SetNTT(false)
// are the oracles.
//
// Deferred reduction. In a radix-2 butterfly (a, b) → (a + b·w, a − b·w)
// only the product needs a reduction: a Montgomery product takes any
// 64-bit operand against a canonical one and returns a canonical value,
// so the sums may grow by a multiple of p per stage as long as a word
// holds them. Values entering the stage of half-width h are below h·p;
// the kernel defers exactly when 2^k·p ≤ 2^64 (p below 2^56 at n = 256:
// every in-field ring) and the consumer — the pointwise product, the
// inverse's scaling, or one reducing pass for the public Transform —
// reduces in a multiplication it performs anyway. The 62-bit auxiliary
// primes of the convolution fallback fail the bound and keep every
// butterfly exactly reduced. TestNTTDeferredReductionBound drives the
// largest deferred modulus on the fastest-growing inputs.
//
// Routing rules (ring.MulPackedInto; re-measure with
// BenchmarkMulPackedCutover before touching a constant):
//
//   - When n factors into primes ≤ 61 the transform runs directly over
//     F_p. One transform costs fastfield.TransformCost(n) schoolbook
//     coefficient pairs — half a pair per element and radix-2 stage, r+1
//     per element and odd radix r — and a product routes to it when
//     la·lb reaches 3.5 of those (three transforms plus the pointwise and
//     scaling passes): 3,584 pairs, 60×60, on F_257. Pays 6.6 µs against
//     the schoolbook loop's 154 µs on a full 256×256 product.
//   - When n has a larger prime factor, the engine computes the exact
//     integer convolution through power-of-two NTTs over one or two
//     62-bit auxiliary primes with a CRT lift — still O(n log n), at a
//     higher constant: it engages at 3·m·log₂m pairs for transform
//     length m. Pays 26 µs against 77 µs at 192×192 on F_227.
//   - Multi-factor products (ring.MulPackedProd, a node's coefficient
//     form) transform each factor once and invert once where the ring has
//     an in-field transform, and fold pairwise otherwise.
//
// ring.SetNTT(false) forces every product back to schoolbook (the
// ablation), and SetFast(false) still drops to the big.Int reference;
// differential and fuzz tests pin all three against each other on
// power-of-two (F_257), mixed (F_97, F_769, F_12289) and fallback (F_227,
// F_1283) rings, across each cutover seam.
//
// sharing.MultiSplit's k-of-n Shamir share generation runs in the value
// form and on the same bounded worker pool as Split: one 32-byte mask seed
// is drawn from the caller's rng up front, every node's mask vectors then
// derive from that node's own path-keyed DRBG stream, and the n share
// vectors are built in one vectorized pass per node
// (precomputed evaluation-point powers via ScalarMulAddVec). The
// determinism contract matches Split's: MultiSplitWithOpts is
// byte-identical at every Parallelism setting to MultiSplitSequential,
// the retained big.Int reference walk.
//
// The write path is the `outsource` workload of BENCHMARK.json:
// `outsource_nodes_per_s` end to end, split by layer into
// `xmltree.parse_ms`, `polyenc.encode_ms`, `sharing.split_ms` and
// `store.save_ms` (`sharing.multishare_ms` and
// `fastfield.lagrange_combine_ns_per_value` on `query_fabric` for the
// k-of-n half):
//
//	go run ./benchmark
//
// # Fault tolerance
//
// The serving fabric assumes transports fail and is built so that no
// retry, failover or hedge can ever change an answer: EvalNodes and
// FetchPolys are pure reads over an immutable share tree, and they are
// the only requests the protocol has, so re-issuing a request — on a
// fresh connection, a pool sibling, a shard replica, or a hedged spare —
// can only reproduce the byte-identical result. The error classifier
// (internal/resilience.Retryable) is what keeps that sound: transport
// faults (resets, timeouts, short reads, closed connections) are
// retryable, while semantic errors — the server's actual answer, such as
// an unknown key — are terminal and pass through every layer untouched.
//
// The layers, bottom up:
//
//   - resilience.Policy: per-attempt timeouts, bounded retries with
//     exponential backoff and deterministic jitter, and the hedge delay,
//     one knob set shared by every wrapper.
//   - client.Reliable: an auto-re-dialing session. A broken connection
//     triggers a single-flight background re-dial with handshake resume;
//     the re-dialed server must announce byte-identical ring parameters
//     or the session fails permanently (a swapped backend cannot be
//     silently accepted).
//   - client.Pool: per-member health. Consecutive transport failures
//     eject a member, a background probe re-dials and readmits it, and
//     calls fail over to healthy siblings; when everything is down the
//     typed ErrNoHealthyMembers tells callers the pool itself is gone.
//   - core.MultiServer: setting HedgeDelay launches only k members
//     up front and arms a timer; a straggling primary is covered by a
//     spare instead of stalling the whole fan-out
//     (TestMultiServerHedgedMatchesSingle, TestChaosMultiServerHedged).
//   - shard.NewReplicatedRouter: each shard is a replica group; a
//     sub-batch that fails with a transport-class error is retried
//     against the next replica, while semantic errors return immediately.
//   - Daemon.Shutdown (sss-server -drain): graceful drain — stop
//     accepting, wake idle readers, finish in-flight requests within the
//     deadline, and send each session a Bye so resilient clients re-dial
//     elsewhere instead of timing out. ServeOpts.IdleTimeout
//     (sss-server -idle-timeout) reclaims connections silent between
//     frames.
//
// The whole stack is proved under deterministic fault injection: the
// internal/faultconn wrapper schedules resets, latency spikes, torn and
// silently dropped writes (plus trickled slow reads and stalled writers)
// from a seeded stream, and the chaos conformance suite
// (internal/apitest.Chaos) drives every resilient topology through it,
// asserting byte-identical answers and preserved error semantics
// throughout.
//
// # Overload protection & live operations
//
// A daemon that accepts every request protects nobody: under sustained
// overload the backlog grows without bound and every caller's latency
// grows with it. The serving stack bounds that failure mode end to end:
//
//   - Admission control (ServeOpts.MaxInflight, sss-server
//     -max-inflight, server.Daemon.MaxInflight): one daemon-wide bound
//     on concurrently executing requests. Excess requests are shed
//     immediately with a typed, retryable wire error carrying a
//     retry-after hint — no work done, no queue joined.
//   - Typed shed semantics, per layer: client.Reliable treats a shed as
//     retryable without invalidating the session and honors the
//     retry-after hint; client.Pool does not eject or fail over on
//     sheds (every member fronts the same saturated daemon) and carries
//     one pool-wide circuit breaker; shard routers DO fail a shed
//     sub-batch over to a replica — a different daemon whose admission
//     queue may have room. resilience.Overloaded and
//     resilience.RetryAfter classify the error without importing the
//     wire package.
//   - Circuit breaker (resilience.Breaker): consecutive failures trip
//     the breaker open; calls fail fast until a cooldown, then a single
//     probe decides re-close. Transport faults are neutral — only the
//     server's own answers move the breaker.
//   - Deadline propagation: each request carries its remaining budget;
//     the daemon skips work whose deadline already expired (a typed
//     expiry error, counted in DeadlineSkips) instead of computing
//     answers nobody is waiting for.
//   - Write backpressure: responses flow through a bounded per-
//     connection queue; a peer that stops reading long enough
//     (server.Daemon.WriteStall) is disconnected as a slow consumer
//     rather than pinning buffers forever.
//   - Zero-downtime store reload (Daemon.SwapStore, sss-server -reload
//   - SIGHUP): atomically replace the served share store behind an
//     epoch counter. In-flight requests finish on the store they
//     started on; the replacement must announce byte-identical ring
//     parameters or it is refused. Whole-tree daemons only — shard
//     daemons are fenced to their manifest range and refuse.
//
// All of it is counted (RequestsShed, DeadlineSkips, BreakerTrips,
// StoreSwaps, SlowConsumerCut in every Stats snapshot) and chaos-proved:
// the overload and hot-swap suites drive every resilient topology at
// several times a tiny admission cap and through continuous mid-wave
// store swaps, asserting byte-identical answers throughout.
//
// # Observability
//
// The serving stack is traceable end to end (internal/obs). Nine stages
// of a request's life — client share arithmetic, batcher flush wait, wire
// round trip, daemon admission wait, worker dispatch, coalescer merge
// wait, store evaluation, response writer-queue residency, and the
// client's eq. (2) tag-recovery solves, once per wave — are each timed into a lock-free log-bucketed histogram (atomic buckets, so the
// hot path never takes a lock; snapshots merge exactly, so per-daemon
// histograms aggregate across a fleet).
//
// Tracing is sampled: obs.SetSampleEvery(n) (sss-server -trace-sample)
// marks every nth request with a 64-bit trace id that rides the wire in
// the request's fixed trace fields — an unsampled request pays one
// atomic load and sends a zero id and zero flags, two bytes. The id survives every serving indirection: retried legs, hedged
// spares, pool failovers, shard scatter sub-batches and coalesced merge
// passes all carry the originating request's id, so the daemon-side
// stage breakdown of each leg lands on the one trace. Finished sampled
// spans feed a bounded top-N slow-query log (and, optionally, slog span
// events via obs.SlogSpans).
//
// The live ops surface (Daemon.DebugHandler, sss-server -debug-addr)
// serves /metrics (Prometheus text: every Stats counter plus the stage
// histograms), /healthz (503 once draining — point load-balancer checks
// here), /varz (JSON counters, stage quantiles and the slow-query log
// with per-stage breakdowns) and /debug/pprof. Keep it on loopback or an
// internal interface. `trace.overhead_ratio` in BENCHMARK.json tracks the
// cost of a fully traced run against the untraced one:
//
//	sss-server -store server.sss -debug-addr 127.0.0.1:7071 -trace-sample 100
//	curl -s 127.0.0.1:7071/varz | jq .slow_queries
//
// See benchmark/README.md for the workloads and metrics every performance
// statement above is read from, and `sss figures -list` for the
// paper-vs-measured reproduction of every figure and analytic claim.
package sssearch
