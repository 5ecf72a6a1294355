package contentindex

import (
	"errors"
	"fmt"
	"math/big"
	"strings"

	"sssearch/internal/drbg"
	"sssearch/internal/metrics"
	"sssearch/internal/ring"
	"sssearch/internal/sharing"
)

// Searcher is the client side of a content search deployment: the hasher
// key, the share seed, and the payload master key. The server side is the
// share tree (from sharing.Split over the Build tree) plus the
// PayloadStore.
type Searcher struct {
	ring     ring.Ring
	hasher   *Hasher
	shares   *sharing.SeedClient
	payKey   []byte
	counters *metrics.Counters
}

// NewSearcher assembles the client state. counters may be nil.
func NewSearcher(r ring.Ring, h *Hasher, seed drbg.Seed, payloadMaster []byte, counters *metrics.Counters) *Searcher {
	if counters == nil {
		counters = &metrics.Counters{}
	}
	return &Searcher{
		ring:     r,
		hasher:   h,
		shares:   sharing.NewSeedClient(r, seed),
		payKey:   append([]byte(nil), payloadMaster...),
		counters: counters,
	}
}

// Counters exposes protocol statistics.
func (s *Searcher) Counters() *metrics.Counters { return s.counters }

// Result is a completed word search.
type Result struct {
	// Matches are nodes whose own text certainly contains a word hashing
	// to the query point AND whose decrypted payload contains the word
	// (hash collisions filtered out).
	Matches []drbg.NodeKey
	// IndexCandidates counts nodes the index flagged before payload
	// filtering (matches + collisions + ambiguous containers).
	IndexCandidates int
	// PayloadBytes counts encrypted payload bytes fetched for filtering.
	PayloadBytes int
	Stats        metrics.Snapshot
}

// Search finds the document nodes whose text contains word, using the
// polynomial index for pruning and the encrypted payloads for exact
// filtering (the paper's "index to the encrypted data" flow).
func (s *Searcher) Search(word string, serverTree *sharing.Tree, payloads *PayloadStore) (*Result, error) {
	if serverTree == nil || serverTree.Root == nil {
		return nil, errors.New("contentindex: nil server tree")
	}
	before := s.counters.Snapshot()
	point := s.hasher.Point(word)
	mod, err := s.ring.EvalModulus(point)
	if err != nil {
		return nil, fmt.Errorf("contentindex: point: %w", err)
	}
	needle := strings.ToLower(word)

	// Phase 1: pruned descent over the index.
	type frame struct {
		key  drbg.NodeKey
		node *sharing.Node
	}
	var zeroNodes []frame
	queue := []frame{{drbg.NodeKey{}, serverTree.Root}}
	for len(queue) > 0 {
		f := queue[0]
		queue = queue[1:]
		s.counters.AddNodesVisited(1)
		s.counters.AddNodesEvaluated(1)
		s.counters.AddValuesMoved(1)
		sv, err := serverTree.Eval(s.ring, f.node, point)
		if err != nil {
			return nil, err
		}
		cv, err := s.shares.EvalShare(f.key, point)
		if err != nil {
			return nil, err
		}
		sum := new(big.Int).Add(sv, cv)
		sum.Mod(sum, mod)
		if sum.Sign() != 0 {
			s.counters.AddPruned(1)
			continue // dead branch: no word hash below
		}
		zeroNodes = append(zeroNodes, f)
		for i, c := range f.node.Children {
			queue = append(queue, frame{f.key.Child(uint32(i)), c})
		}
	}

	// Phase 2: every zero node MAY own the word (no Theorem-1 verification
	// exists for hashed content) — fetch and filter its payload.
	res := &Result{IndexCandidates: len(zeroNodes)}
	for _, f := range zeroNodes {
		blob, err := payloads.Fetch(f.key)
		if err != nil {
			return nil, err
		}
		res.PayloadBytes += len(blob)
		text, err := DecryptPayload(s.payKey, blob)
		if err != nil {
			return nil, err
		}
		for _, w := range Words(text) {
			if w == needle {
				res.Matches = append(res.Matches, f.key)
				break
			}
		}
	}
	res.Stats = s.counters.Snapshot().Sub(before)
	return res, nil
}
