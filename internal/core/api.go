// Package core implements the paper's primary contribution (§4.3): the
// interactive client/server protocol that evaluates XPath-style queries
// over a secret-shared polynomial tree without the server learning the
// data or the query.
//
// The client drives a top-down traversal. For each visited node the server
// evaluates its share polynomial at the query point(s) and returns scalar
// values; the client adds its own (seed-regenerated) share values and tests
// the sum for zero. A non-zero sum proves the subtree contains no match and
// the branch is pruned — the client asks nothing below it, which is the
// source of the scheme's sub-linear work, and sends no notice: the server
// cannot tell a zero sum from a non-zero one, and a list of dead nodes
// would tell it. Zero nodes with no zero child are definite
// answers; other zero nodes are disambiguated by solving eq. (2) for the
// node tag — pointwise, from two more evaluations, on F_p, or at every
// point of the reconstructed value vectors under VerifyFull; coefficient
// by coefficient on reconstructed polynomials (package polyenc) on
// Z[x]/(r(x)).
package core

import (
	"context"
	"fmt"
	"math/big"
	"slices"

	"sssearch/internal/drbg"
	"sssearch/internal/poly"
)

// NodeEval is the server's answer for one node: its share polynomial
// evaluated at each requested point, plus the node's child count (tree
// shape is not hidden from the client — it owns the data).
//
// The values travel as machine words wherever they have a word form — every
// value of a word-sized F_p ring does — so an evaluation wave (server.Local
// → wire → MultiServer combine → the engine's sum) never boxes a scalar. Big
// is set instead, and Words left nil, only for an answer holding a negative
// or wider-than-a-word value (IntQuotient, F_p moduli over 62 bits,
// SetFast(false), a tampering server). Both empty is an answer with no
// values. Read-only once returned, like every answer.
type NodeEval struct {
	Key drbg.NodeKey
	// Words holds one value per requested point, in order; any uint64, not
	// necessarily reduced (consumers reduce: only the evaluator that wrote a
	// word vouches for it, the wire does not). Authoritative when Big is
	// empty.
	Words []uint64
	// Big is the big.Int form; authoritative when non-empty.
	Big         []*big.Int
	NumChildren int
}

// Len is the number of values the answer holds.
func (a NodeEval) Len() int {
	if len(a.Big) > 0 {
		return len(a.Big)
	}
	return len(a.Words)
}

// Values returns the values in the big.Int boundary representation, boxing
// the word form on every call — the reference seam (the big.Int engine,
// Tamperer, tests); the word path never calls it.
func (a NodeEval) Values() []*big.Int {
	if len(a.Big) > 0 {
		return a.Big
	}
	out := make([]*big.Int, len(a.Words))
	for i, v := range a.Words {
		out[i] = new(big.Int).SetUint64(v)
	}
	return out
}

// WordValues returns the values as machine words (read-only: the result may
// be Words itself). ok=false — a negative or wider-than-a-word value —
// sends the caller to Values.
func (a NodeEval) WordValues() (w []uint64, ok bool) {
	if len(a.Big) == 0 {
		return a.Words, true
	}
	w = make([]uint64, len(a.Big))
	for i, v := range a.Big {
		if v.Sign() < 0 || !v.IsUint64() {
			return nil, false
		}
		w[i] = v.Uint64()
	}
	return w, true
}

// NodePoly is the server's answer to a fetch: one node's whole share and
// child count — on F_p its value vector (the value at a = i+1 is entry i),
// on Z[x]/(r(x)) its polynomial.
//
// The share travels as machine words wherever it has a word form — every
// F_p share does — so the fetch path (store → server.Local → wire →
// MultiServer combine → tag recovery) never boxes a value. Big is set
// instead, and Words left nil, only for a share with a negative or
// wider-than-a-word entry (IntQuotient, a tampering server). Both empty is
// the zero share. Read-only once returned, like every answer.
type NodePoly struct {
	Key drbg.NodeKey
	// Words holds the entries in order; not necessarily reduced or trimmed
	// (consumers reduce and read a missing tail as zeros, the codec trims).
	// Authoritative when Big is zero.
	Words []uint64
	// Big is the big.Int form; authoritative when non-zero.
	Big         poly.Poly
	NumChildren int
}

// Polynomial returns the share in the big.Int boundary representation —
// the reference seam; the word path never calls it.
func (a NodePoly) Polynomial() poly.Poly {
	if !a.Big.IsZero() {
		return a.Big
	}
	return poly.NewUint64(a.Words)
}

// WordCoeffs returns the entries as machine words (read-only: the result
// may be Words itself). ok=false — a negative or wider-than-a-word entry —
// sends the caller to Polynomial.
func (a NodePoly) WordCoeffs() (w []uint64, ok bool) {
	if a.Big.IsZero() {
		return a.Words, true
	}
	return a.Big.Uint64Coeffs(nil)
}

// BinarySize is the share's encoded size on the wire.
func (a NodePoly) BinarySize() int {
	if !a.Big.IsZero() {
		return a.Big.BinarySize()
	}
	return poly.WordsSize(a.Words)
}

// ServerAPI is the full server-side capability the protocol needs. It is
// implemented in-process by server.Local, remotely by client.Remote (and
// client.Pool), with retries by resilience.API, across a k-of-n
// deployment by MultiServer, across a partitioned one by shard.Router,
// and by the cross-session request coalescer coalesce.Server over any of
// them.
//
// Implementations must be safe for concurrent calls: concurrent queries
// share one, and MultiServer fans out from multiple goroutines. Answers are
// read-only once returned — batching layers may hand the same value
// objects to several concurrent callers. The conformance suite in internal/apitest checks the contract
// below (including concurrent-call identity); run it against any new
// implementation.
type ServerAPI interface {
	// EvalNodes evaluates the server share of each keyed node at each of
	// the given points, in order. Unknown keys are an error.
	EvalNodes(keys []drbg.NodeKey, points []*big.Int) ([]NodeEval, error)
	// FetchPolys returns the whole server share of each keyed node, in
	// order — what eq. (2) over whole shares needs: VerifyFull,
	// for every ambiguous zero node and every match, and VerifyResolve
	// where tags cannot be resolved from evaluations (Z[x]/(r(x)), a
	// mapping with no free value). Whole shares are then most of a query's
	// bytes, and the engine asks for a whole step's candidates in a few
	// large calls, see recoverNodeTags.
	FetchPolys(keys []drbg.NodeKey) ([]NodePoly, error)
	// Prune is never called by the engine, and no implementation keeps
	// per-query state for it to release: a query's view of the server is
	// EvalNodes and FetchPolys. Every implementation returns nil; the
	// method is kept only until the benchmark's tap stops forwarding it.
	Prune(keys []drbg.NodeKey) error
}

// answer is an answer to a ServerAPI call: a NodeEval or a NodePoly.
type answer[T any] interface {
	*T
	answerKey() drbg.NodeKey
}

func (a *NodeEval) answerKey() drbg.NodeKey { return a.Key }
func (a *NodePoly) answerKey() drbg.NodeKey { return a.Key }

// CheckAnswered checks answers against the ServerAPI contract: one answer
// per key asked, in order, for that key. Its error is worded to follow the
// name of whoever answered: "… returned 2 answers for 3 keys", "…
// answered for /1 where /0 was asked".
func CheckAnswered[T any, A answer[T]](keys []drbg.NodeKey, answers []T) error {
	if len(answers) != len(keys) {
		return fmt.Errorf("returned %d answers for %d keys", len(answers), len(keys))
	}
	for i := range answers {
		if k := A(&answers[i]).answerKey(); !slices.Equal(k, keys[i]) {
			return fmt.Errorf("answered for %s where %s was asked", k, keys[i])
		}
	}
	return nil
}

// CtxEvaler is the optional context-aware extension of ServerAPI.
// Implementations that propagate deadlines or trace spans (client.Remote,
// Pool, resilience.API, MultiServer, shard.Router, coalesce.Server)
// expose EvalNodesCtx; callers reach it through EvalNodesWithCtx so that
// plain ServerAPI implementations keep working unchanged. Kept separate
// from ServerAPI because the in-process reference servers are
// deliberately context-free.
type CtxEvaler interface {
	EvalNodesCtx(ctx context.Context, keys []drbg.NodeKey, points []*big.Int) ([]NodeEval, error)
}

// EvalNodesWithCtx evaluates via api, forwarding ctx when api supports
// it. This is how observability context (deadline budget, trace span)
// survives the ctx-free ServerAPI seams between layers.
func EvalNodesWithCtx(ctx context.Context, api ServerAPI, keys []drbg.NodeKey, points []*big.Int) ([]NodeEval, error) {
	if ce, ok := api.(CtxEvaler); ok {
		return ce.EvalNodesCtx(ctx, keys, points)
	}
	return api.EvalNodes(keys, points)
}

// CtxFetcher is CtxEvaler's counterpart for polynomial fetches, exposed
// by the same context-propagating implementations.
type CtxFetcher interface {
	FetchPolysCtx(ctx context.Context, keys []drbg.NodeKey) ([]NodePoly, error)
}

// FetchPolysWithCtx fetches via api, forwarding ctx when api supports it,
// so a sampled query's trace ID and deadline budget ride its fetch frames
// too.
func FetchPolysWithCtx(ctx context.Context, api ServerAPI, keys []drbg.NodeKey) ([]NodePoly, error) {
	if cf, ok := api.(CtxFetcher); ok {
		return cf.FetchPolysCtx(ctx, keys)
	}
	return api.FetchPolys(keys)
}

// VerifyLevel controls how much the client re-checks the server.
type VerifyLevel int

const (
	// VerifyNone trusts evaluations and resolves nothing. Ambiguous nodes
	// (zero sum with a zero child) are reported as Unresolved — maximum
	// bandwidth savings, the paper's trusted-server mode.
	VerifyNone VerifyLevel = iota
	// VerifyResolve solves eq. (2) for the tag of each ambiguous node and
	// of no other, exactly enough to compute the complete answer set: on
	// F_p from the node's and its children's values at two fixed points
	// no tag maps to (two scalars a node, cross-checked; a blind forgery
	// passes with probability ≤ 1/(p−1), see resolveAtPoints), on
	// Z[x]/(r(x)) and for a mapping with no free value from their fetched
	// polynomials. Unambiguous matches are trusted. The default.
	VerifyResolve
	// VerifyFull additionally re-derives the tag of every reported match
	// via eq. (2)'s overdetermined system — at all p−1 points on F_p, every
	// coefficient on Z[x]/(r(x)) — detecting a lying server (§4.3: "we now
	// have at least a way to check the answer").
	VerifyFull
)

func (v VerifyLevel) String() string {
	switch v {
	case VerifyNone:
		return "none"
	case VerifyResolve:
		return "resolve"
	case VerifyFull:
		return "full"
	default:
		return "invalid"
	}
}
