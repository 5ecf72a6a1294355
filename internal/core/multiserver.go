package core

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"time"

	"sssearch/internal/drbg"
	"sssearch/internal/fastfield"
	"sssearch/internal/metrics"
	"sssearch/internal/poly"
	"sssearch/internal/ring"
	"sssearch/internal/shamir"
)

// This file implements the client-side fan-out for the paper's §4.2
// k-of-n extension: every node polynomial's server part is Shamir-shared
// across n servers (sharing.MultiSplit), and the client together with any
// k of them can answer queries. MultiServer queries the share servers
// CONCURRENTLY and Lagrange-combines their scalar summands, so adding
// servers adds throughput (the slowest of k round trips) instead of
// latency (the sum of k round trips).

// MultiMember is one share server in a k-of-n deployment: its Shamir
// evaluation point and any ServerAPI transport (in-process Local over a
// sharing.ServerShare tree, a remote client.Remote, …).
type MultiMember struct {
	X   uint32
	API ServerAPI
}

// MultiServer fans one logical ServerAPI out over k-of-n share servers.
// EvalNodes and FetchPolys succeed as long as at least k members answer;
// the combined summands are exactly what a single-server deployment would
// have returned, so the query engine is oblivious to the fan-out.
//
// Safe for concurrent use if the member APIs are.
type MultiServer struct {
	ring    *ring.FpCyclotomic
	k       int
	members []MultiMember

	// HedgeDelay, when positive, switches the concurrent fan-out to
	// hedged requests: only the first k members are queried immediately,
	// and a spare member is launched each time the delay elapses without
	// k answers (or immediately when a member fails). With a delay set
	// just above the healthy-path latency, a slow or hung member costs
	// one hedge delay instead of its full stall — the tail-tolerance
	// trade from "The Tail at Scale" — while the fault-free path sends
	// k instead of n requests. Zero keeps the fire-all fan-out.
	//
	// Hedging never changes answers: every member computes the same
	// deterministic function of its share tree, and reads are idempotent,
	// so which k members answer affects only the Lagrange basis, not the
	// reconstructed summand.
	HedgeDelay time.Duration

	// Counters, when non-nil, receives hedging telemetry: HedgesFired
	// counts spares launched by the delay timer, HedgesWon counts spares
	// whose answers were used in reconstruction.
	Counters *metrics.Counters

	// BigCombine disables the fastfield Lagrange combiner and
	// reconstructs every summand with per-point big.Int interpolation
	// (shamir.InterpolateAt) — the pre-fastfield behavior, kept as a
	// benchmark baseline and differential-test reference. Rings without
	// the word-sized fast path (>62-bit moduli, SetFast(false)) take
	// that path regardless.
	BigCombine bool
}

// NewMultiServer wraps n member servers with reconstruction threshold k.
// Multi-server mode requires the F_p ring (Shamir needs a field); member
// X points must be distinct and non-zero.
func NewMultiServer(r *ring.FpCyclotomic, k int, members []MultiMember) (*MultiServer, error) {
	if r == nil {
		return nil, errors.New("core: nil ring")
	}
	if k < 1 || k > len(members) {
		return nil, fmt.Errorf("core: threshold %d with %d members", k, len(members))
	}
	seen := make(map[uint32]bool, len(members))
	for _, m := range members {
		if m.X == 0 {
			return nil, errors.New("core: member share point x=0 is forbidden")
		}
		if seen[m.X] {
			return nil, fmt.Errorf("core: duplicate member share point x=%d", m.X)
		}
		seen[m.X] = true
		if m.API == nil {
			return nil, errors.New("core: nil member API")
		}
	}
	return &MultiServer{ring: r, k: k, members: members}, nil
}

// Members returns the number of member servers.
func (m *MultiServer) Members() int { return len(m.members) }

// Threshold returns the reconstruction threshold k.
func (m *MultiServer) Threshold() int { return m.k }

// memberCall runs one call against every member concurrently and returns
// the first k successful results, alongside the X points of the members
// that produced them. It returns as soon as k members have answered (or
// n-k+1 have failed) — a hung member must not block an
// otherwise-answerable query; its straggler goroutine drains into a
// buffered channel. Fails only when fewer than k members can succeed.
func memberCall[T any](m *MultiServer, call func(MultiMember) (T, error)) ([]T, []uint32, error) {
	if m.HedgeDelay > 0 && m.k < len(m.members) {
		return hedgedCall(m, call)
	}
	vals := make([]T, 0, m.k)
	xs := make([]uint32, 0, m.k)
	var firstErr error
	type memberResult struct {
		idx int
		val T
		err error
	}
	ch := make(chan memberResult, len(m.members))
	for i, mem := range m.members {
		go func(i int, mem MultiMember) {
			v, err := call(mem)
			ch <- memberResult{idx: i, val: v, err: err}
		}(i, mem)
	}
	failures := 0
	for range m.members {
		r := <-ch
		if r.err != nil {
			failures++
			if firstErr == nil {
				firstErr = r.err
			}
			if failures > len(m.members)-m.k {
				return nil, nil, fmt.Errorf("core: only %d of %d member servers answered (need %d): %w",
					len(vals), len(m.members), m.k, firstErr)
			}
			continue
		}
		vals = append(vals, r.val)
		xs = append(xs, m.members[r.idx].X)
		if len(vals) == m.k {
			return vals, xs, nil
		}
	}
	return nil, nil, fmt.Errorf("core: only %d of %d member servers answered (need %d): %w",
		len(vals), len(m.members), m.k, firstErr)
}

// hedgedCall is the hedged-request fan-out: launch the first k members,
// then one spare per elapsed hedge delay (or immediately on a member
// failure), until k members have answered. Stragglers — hedged-against
// members that answer late — drain into the buffered channel. Fails,
// like the fire-all path, once more than n-k members have failed.
func hedgedCall[T any](m *MultiServer, call func(MultiMember) (T, error)) ([]T, []uint32, error) {
	n := len(m.members)
	type memberResult struct {
		idx int
		val T
		err error
	}
	ch := make(chan memberResult, n)
	hedged := make([]bool, n) // spares launched by the timer, not by failover
	launched := 0
	launch := func(byTimer bool) {
		i := launched
		launched++
		hedged[i] = byTimer
		mem := m.members[i]
		go func() {
			v, err := call(mem)
			ch <- memberResult{idx: i, val: v, err: err}
		}()
	}
	for launched < m.k {
		launch(false)
	}
	timer := time.NewTimer(m.HedgeDelay)
	defer timer.Stop()

	vals := make([]T, 0, m.k)
	xs := make([]uint32, 0, m.k)
	var firstErr error
	failures := 0
	for {
		select {
		case r := <-ch:
			if r.err != nil {
				failures++
				if firstErr == nil {
					firstErr = r.err
				}
				if failures > n-m.k {
					return nil, nil, fmt.Errorf("core: only %d of %d member servers answered (need %d): %w",
						len(vals), n, m.k, firstErr)
				}
				if launched < n {
					launch(false) // immediate failover: no point waiting out the delay
				}
				continue
			}
			vals = append(vals, r.val)
			xs = append(xs, m.members[r.idx].X)
			if hedged[r.idx] && m.Counters != nil {
				m.Counters.AddHedgesWon(1)
			}
			if len(vals) == m.k {
				return vals, xs, nil
			}
		case <-timer.C:
			if launched < n {
				launch(true)
				if m.Counters != nil {
					m.Counters.AddHedgesFired(1)
				}
			}
			if launched < n {
				timer.Reset(m.HedgeDelay)
			}
		}
	}
}

// lagrange builds the fastfield interpolation-at-zero basis for the
// answering members' share points, or returns nil when the combine must
// run on the big.Int path (no word-sized fast path, the BigCombine
// ablation, or share points degenerate mod p).
func (m *MultiServer) lagrange(xs []uint32) *fastfield.Lagrange {
	if m.BigCombine {
		return nil
	}
	ff := m.ring.Fast()
	if ff == nil {
		return nil
	}
	xs64 := make([]uint64, len(xs))
	for i, x := range xs {
		xs64[i] = uint64(x)
	}
	lag, err := ff.LagrangeAtZero(xs64)
	if err != nil {
		return nil
	}
	return lag
}

// EvalNodes implements ServerAPI: fan the request out, then reconstruct
// each server summand f_rest(a) = Σ_j λ_j·share_j(a) via Lagrange
// interpolation at zero. On fast-path rings the λ_j basis is precomputed
// once per answer set and every node's value vector is combined in a
// single Montgomery pass; rings without the fast path fall back to
// per-point shamir.InterpolateAt.
func (m *MultiServer) EvalNodes(keys []drbg.NodeKey, points []*big.Int) ([]NodeEval, error) {
	return m.EvalNodesCtx(context.Background(), keys, points)
}

// EvalNodesCtx implements CtxEvaler: every member leg — including hedged
// spares and failovers — runs under the caller's ctx, so all legs of a
// sampled query carry the same trace ID to their daemons.
func (m *MultiServer) EvalNodesCtx(ctx context.Context, keys []drbg.NodeKey, points []*big.Int) ([]NodeEval, error) {
	per, xs, err := memberCall(m, func(mem MultiMember) ([]NodeEval, error) {
		answers, err := EvalNodesWithCtx(ctx, mem.API, keys, points)
		if err != nil {
			return nil, fmt.Errorf("core: member %d: %w", mem.X, err)
		}
		// Answers are combined by position: one for another key would be
		// summed into a value the engine cannot tell from an honest one.
		if err := CheckAnswered(keys, answers); err != nil {
			return nil, fmt.Errorf("core: member %d %w", mem.X, err)
		}
		for _, a := range answers {
			if a.Len() != len(points) {
				return nil, fmt.Errorf("core: member %d returned %d values for %d points", mem.X, a.Len(), len(points))
			}
		}
		return answers, nil
	})
	if err != nil {
		return nil, err
	}
	lag := m.lagrange(xs)
	ff := m.ring.Fast()
	np := len(points)
	// The fast path combines the members' word vectors as they arrived (the
	// Montgomery product reduces unreduced words) into one slab for the
	// call; scratch holds the reduced words of a member answer that has no
	// word form.
	var slab, scratch []uint64
	var rows [][]uint64
	if lag != nil {
		slab = make([]uint64, len(keys)*np)
		rows = make([][]uint64, len(per))
	}
	zero := big.NewInt(0)
	f := m.ring.Field()
	out := make([]NodeEval, len(keys))
	for i, key := range keys {
		nch := per[0][i].NumChildren
		for j := 1; j < len(per); j++ {
			if per[j][i].NumChildren != nch {
				return nil, fmt.Errorf("core: member servers disagree on the child count of %s", key)
			}
		}
		out[i] = NodeEval{Key: key, NumChildren: nch}
		if lag != nil {
			for j := range per {
				if len(per[j][i].Big) == 0 {
					rows[j] = per[j][i].Words
					continue
				}
				if scratch == nil {
					scratch = make([]uint64, len(per)*np)
				}
				rows[j] = scratch[j*np : (j+1)*np]
				for pi, v := range per[j][i].Big {
					rows[j][pi] = ff.ReduceBig(v)
				}
			}
			out[i].Words = slab[i*np : (i+1)*np : (i+1)*np]
			lag.CombineVec(out[i].Words, rows)
			continue
		}
		vals := make([][]*big.Int, len(per))
		for j := range per {
			vals[j] = per[j][i].Values()
		}
		out[i].Big = make([]*big.Int, np)
		shares := make([]shamir.Share, len(per))
		for pi := range points {
			for j := range per {
				shares[j] = shamir.Share{X: xs[j], Y: vals[j][pi]}
			}
			if out[i].Big[pi], err = shamir.InterpolateAt(f, shares, zero, m.k); err != nil {
				return nil, fmt.Errorf("core: combining evaluations of %s: %w", key, err)
			}
		}
	}
	return out, nil
}

// FetchPolys implements ServerAPI: reconstruct the single-server share
// polynomial coefficient-wise (Lagrange at zero is linear, so it commutes
// with the coefficient view). On fast-path rings all coefficients of a
// node combine in one Montgomery pass straight over the members' word
// vectors (the Montgomery product reduces unreduced words, so nothing is
// copied first); a member polynomial without a word form sends that node
// to the big.Int path.
func (m *MultiServer) FetchPolys(keys []drbg.NodeKey) ([]NodePoly, error) {
	return m.FetchPolysCtx(context.Background(), keys)
}

// FetchPolysCtx implements CtxFetcher: every member leg runs under the
// caller's ctx, as in EvalNodesCtx.
func (m *MultiServer) FetchPolysCtx(ctx context.Context, keys []drbg.NodeKey) ([]NodePoly, error) {
	per, xs, err := memberCall(m, func(mem MultiMember) ([]NodePoly, error) {
		answers, err := FetchPolysWithCtx(ctx, mem.API, keys)
		if err != nil {
			return nil, fmt.Errorf("core: member %d: %w", mem.X, err)
		}
		if err := CheckAnswered(keys, answers); err != nil {
			return nil, fmt.Errorf("core: member %d %w", mem.X, err)
		}
		return answers, nil
	})
	if err != nil {
		return nil, err
	}
	lag := m.lagrange(xs)
	rows := make([][]uint64, len(per))
	out := make([]NodePoly, len(keys))
	for i, key := range keys {
		nch := per[0][i].NumChildren
		for j := range per {
			if per[j][i].NumChildren != nch {
				return nil, fmt.Errorf("core: member servers disagree on the child count of %s", key)
			}
		}
		if lag != nil {
			packed := true
			maxLen := 0
			for j := range per {
				row, ok := per[j][i].WordCoeffs()
				if !ok {
					packed = false
					break
				}
				rows[j] = row
				if len(row) > maxLen {
					maxLen = len(row)
				}
			}
			if packed {
				dst := make([]uint64, maxLen)
				lag.CombineVec(dst, rows)
				out[i] = NodePoly{Key: key, Words: dst, NumChildren: nch}
				continue
			}
		}
		p, err := m.combinePolyBig(key, per, xs, i)
		if err != nil {
			return nil, err
		}
		out[i] = NodePoly{Key: key, Big: p, NumChildren: nch}
	}
	return out, nil
}

// combinePolyBig is the big.Int coefficient-wise reconstruction of one
// node's share polynomial — the fallback and ablation path.
func (m *MultiServer) combinePolyBig(key drbg.NodeKey, per [][]NodePoly, xs []uint32, i int) (poly.Poly, error) {
	zero := big.NewInt(0)
	f := m.ring.Field()
	polys := make([]poly.Poly, len(per))
	maxLen := 0
	for j := range per {
		polys[j] = per[j][i].Polynomial()
		if l := polys[j].Len(); l > maxLen {
			maxLen = l
		}
	}
	coeffs := make([]*big.Int, maxLen)
	shares := make([]shamir.Share, len(per))
	for c := 0; c < maxLen; c++ {
		for j := range per {
			shares[j] = shamir.Share{X: xs[j], Y: polys[j].Coeff(c)}
		}
		v, err := shamir.InterpolateAt(f, shares, zero, m.k)
		if err != nil {
			return poly.Poly{}, fmt.Errorf("core: combining polynomial of %s: %w", key, err)
		}
		coeffs[c] = v
	}
	return poly.New(coeffs...), nil
}

// Prune implements ServerAPI; kept only until the benchmark's tap stops
// forwarding it.
func (m *MultiServer) Prune([]drbg.NodeKey) error { return nil }

var _ ServerAPI = (*MultiServer)(nil)
