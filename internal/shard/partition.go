package shard

import (
	"errors"
	"fmt"
	"sort"

	"sssearch/internal/drbg"
	"sssearch/internal/sharing"
)

// The planner cuts the share tree into disjoint subtree ranges and
// assigns them to shards balanced by node count. It is purely
// shape-driven and fully deterministic (ties broken by document order),
// so planning any share tree of a document — including every Shamir
// member tree, which all mirror the document shape — yields the same
// manifest, and re-planning is reproducible across hosts.

// expansionFactor is how many frontier subtrees the planner aims for per
// shard before assigning: more, smaller ranges pack flatter, at the cost
// of a larger manifest.
const expansionFactor = 4

// frontierItem is one candidate subtree range during planning.
type frontierItem struct {
	key  drbg.NodeKey
	node *sharing.Node
	size int
}

// subtreeSize counts the nodes under n (inclusive).
func subtreeSize(n *sharing.Node, memo map[*sharing.Node]int) int {
	total := 1
	for _, c := range n.Children {
		total += subtreeSize(c, memo)
	}
	memo[n] = total
	return total
}

// Plan computes a manifest partitioning the shape of tree across n
// shards. The root region above the cut (the "spine" every query enters
// through) stays on shard 0 via the catch-all root entry; the frontier
// subtrees below it are assigned largest-first to the least-loaded shard.
func Plan(tree *sharing.Tree, n int) (*Manifest, error) {
	if tree == nil || tree.Root == nil {
		return nil, errors.New("shard: nil tree")
	}
	if n < 1 {
		return nil, fmt.Errorf("shard: cannot partition into %d shards", n)
	}
	if n == 1 {
		return &Manifest{Shards: 1, Entries: []Entry{{Prefix: drbg.NodeKey{}, Shard: 0}}}, nil
	}
	memo := make(map[*sharing.Node]int)
	total := subtreeSize(tree.Root, memo)

	// Grow the frontier by repeatedly exploding the largest subtree into
	// its children until there are enough ranges to balance, the largest
	// range is already small enough, or nothing expandable remains. The
	// expansion budget terminates pathological shapes (e.g. a pure path,
	// where exploding never widens the frontier).
	var frontier []frontierItem
	for i, c := range tree.Root.Children {
		frontier = append(frontier, frontierItem{
			key: drbg.NodeKey{uint32(i)}, node: c, size: memo[c],
		})
	}
	sizeGoal := (total + 2*n - 1) / (2 * n)
	for budget := expansionFactor * 4 * n; budget > 0; budget-- {
		if len(frontier) >= expansionFactor*n {
			break
		}
		// Largest expandable subtree, document order on ties.
		best := -1
		for i, it := range frontier {
			if len(it.node.Children) == 0 || it.size <= 1 {
				continue
			}
			if best < 0 || it.size > frontier[best].size ||
				(it.size == frontier[best].size && keyLess(it.key, frontier[best].key)) {
				best = i
			}
		}
		if best < 0 || frontier[best].size <= sizeGoal {
			break
		}
		it := frontier[best]
		frontier = append(frontier[:best], frontier[best+1:]...)
		for i, c := range it.node.Children {
			frontier = append(frontier, frontierItem{
				key: it.key.Child(uint32(i)), node: c, size: memo[c],
			})
		}
	}

	// Largest-first greedy assignment onto the least-loaded shard. Shard 0
	// starts pre-loaded with the spine (everything above the frontier).
	sort.Slice(frontier, func(i, j int) bool {
		if frontier[i].size != frontier[j].size {
			return frontier[i].size > frontier[j].size
		}
		return keyLess(frontier[i].key, frontier[j].key)
	})
	loads := make([]int, n)
	spine := total
	for _, it := range frontier {
		spine -= it.size
	}
	loads[0] = spine
	man := &Manifest{Shards: n, Entries: []Entry{{Prefix: drbg.NodeKey{}, Shard: 0}}}
	for _, it := range frontier {
		target := 0
		for s := 1; s < n; s++ {
			if loads[s] < loads[target] {
				target = s
			}
		}
		loads[target] += it.size
		man.Entries = append(man.Entries, Entry{Prefix: it.key, Shard: target})
	}
	return man, nil
}

// keyLess orders node keys in document (preorder) order.
func keyLess(a, b drbg.NodeKey) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// PartitionWithManifest materializes the per-shard trees of an existing
// plan: each shard receives a full-shape copy of tree (so NodeKey lookups
// navigate identically everywhere) in which only its owned nodes carry
// the real share — foreign nodes hold none and are rejected by the serving
// Guard. Value vectors are shared read-only with the source tree, never
// copied.
func PartitionWithManifest(tree *sharing.Tree, man *Manifest) ([]*sharing.Tree, error) {
	if tree == nil || tree.Root == nil {
		return nil, errors.New("shard: nil tree")
	}
	if err := man.Validate(); err != nil {
		return nil, err
	}
	var build func(n *sharing.Node, key drbg.NodeKey) []*sharing.Node
	build = func(n *sharing.Node, key drbg.NodeKey) []*sharing.Node {
		copies := make([]*sharing.Node, man.Shards)
		owner := man.Owner(key)
		for s := range copies {
			copies[s] = &sharing.Node{}
			if len(n.Children) > 0 {
				copies[s].Children = make([]*sharing.Node, len(n.Children))
			}
		}
		copies[owner].Poly = n.Poly
		copies[owner].Vals = n.Vals
		for i, c := range n.Children {
			for s, cc := range build(c, key.Child(uint32(i))) {
				copies[s].Children[i] = cc
			}
		}
		return copies
	}
	roots := build(tree.Root, drbg.NodeKey{})
	out := make([]*sharing.Tree, man.Shards)
	for s, r := range roots {
		out[s] = &sharing.Tree{Root: r, Width: tree.Width}
	}
	return out, nil
}

// Partition plans a manifest for n shards and materializes the per-shard
// trees in one step.
func Partition(tree *sharing.Tree, n int) ([]*sharing.Tree, *Manifest, error) {
	man, err := Plan(tree, n)
	if err != nil {
		return nil, nil, err
	}
	trees, err := PartitionWithManifest(tree, man)
	if err != nil {
		return nil, nil, err
	}
	return trees, man, nil
}

// OwnedNodes counts the nodes of tree owned by shard id under man — the
// shard's real storage load (its tree retains the full shape, but foreign
// nodes are empty).
func OwnedNodes(tree *sharing.Tree, man *Manifest, id int) int {
	count := 0
	tree.Walk(func(key drbg.NodeKey, _ *sharing.Node) bool {
		if man.Owner(key) == id {
			count++
		}
		return true
	})
	return count
}
