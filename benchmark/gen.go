package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"sssearch/internal/xmltree"
)

// docSize is the (items, people, auctions) triple of one auction document.
type docSize struct{ Items, People, Auctions int }

// Document sizes against the program's three cache bounds (16,384 shared
// pad nodes; 65,536 entries in each of the two eval LRUs): large exceeds all
// of them on the 24-query list, medium holds its 3-query hot list inside
// all of them.
var (
	sizeLarge  = docSize{2000, 1250, 1250} // ~20k nodes
	sizeMedium = docSize{800, 500, 500}    // ~8k nodes
	sizeSmall  = docSize{320, 200, 200}    // ~3.2k nodes
	sizeSmoke  = docSize{50, 30, 30}       // ~500 nodes
)

// genAuction builds an XMark-style auction-site document:
//
//	site/regions/{africa,asia,europe}/item/{name,category,description?}
//	site/people/person/{name,emailaddress,watches?/watch+}
//	site/open_auctions/open_auction/{initial,bidder*/increase,current,itemref}
//
// It is the benchmark's own copy of the shape internal/workload.Auction
// produces, so edits to that package cannot move the benchmark's inputs.
// Unlike that generator it draws no structural coin: every optional part
// occurs in a fixed share of its parents (the shares that generator's coins
// average to) and the seed only decides which parents get it, by shuffling.
// Two seeds therefore give different documents with identical tag counts,
// so a metric's spread across seeds is measurement noise, not a change of
// input size. Attributes and text are carried for the parser's sake; the
// encoder reads only the element tree.
func genAuction(size docSize, seed int64) *xmltree.Node {
	rng := rand.New(rand.NewSource(seed))
	// dealt returns n draws that cycle through pattern, in seeded order.
	dealt := func(n int, pattern []int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = pattern[i%len(pattern)]
		}
		rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	site := xmltree.NewNode("site")

	regions := site.AddChild("regions")
	var region []*xmltree.Node
	for _, name := range []string{"africa", "asia", "europe"} {
		region = append(region, regions.AddChild(name))
	}
	itemRegion := dealt(size.Items, []int{0, 1, 2})
	described := dealt(size.Items, []int{1, 0})
	for i := 0; i < size.Items; i++ {
		item := region[itemRegion[i]].AddChild("item")
		item.SetAttr("id", fmt.Sprintf("item%d", i))
		item.AddChild("name").Text = fmt.Sprintf("lot %d", rng.Intn(1<<20))
		item.AddChild("category").Text = fmt.Sprintf("c%d", rng.Intn(64))
		if described[i] == 1 {
			item.AddChild("description").Text = "as new"
		}
	}

	people := site.AddChild("people")
	watching := dealt(size.People, []int{1, 0, 0})
	// 1, 2 and 3 watches in the shares 3 : 4 : 2.
	watches := dealt(size.People, []int{1, 2, 3, 2, 1, 2, 3, 2, 1})
	for i := 0; i < size.People; i++ {
		person := people.AddChild("person")
		person.SetAttr("id", fmt.Sprintf("person%d", i))
		person.AddChild("name").Text = fmt.Sprintf("p%d", rng.Intn(1<<20))
		person.AddChild("emailaddress").Text = fmt.Sprintf("p%d@example.org", i)
		if watching[i] == 1 {
			list := person.AddChild("watches")
			for w := 0; w < watches[i]; w++ {
				list.AddChild("watch").SetAttr("open_auction", fmt.Sprintf("auction%d", rng.Intn(size.Auctions)))
			}
		}
	}

	open := site.AddChild("open_auctions")
	// 0, 1, 2 and 3 bidders in the shares 8 : 12 : 9 : 3.
	bidders := dealt(size.Auctions, []int{
		0, 1, 2, 1, 0, 2, 1, 3, 0, 1, 2, 1, 0, 2, 1, 2,
		0, 1, 2, 1, 0, 3, 1, 2, 0, 1, 2, 1, 0, 3, 1, 2,
	})
	for i := 0; i < size.Auctions; i++ {
		auction := open.AddChild("open_auction")
		auction.SetAttr("id", fmt.Sprintf("auction%d", i))
		auction.AddChild("initial").Text = fmt.Sprintf("%d.00", 1+rng.Intn(500))
		for b := 0; b < bidders[i]; b++ {
			auction.AddChild("bidder").AddChild("increase").Text = fmt.Sprintf("%d.50", 1+rng.Intn(20))
		}
		auction.AddChild("current").Text = fmt.Sprintf("%d.00", 1+rng.Intn(900))
		auction.AddChild("itemref").SetAttr("item", fmt.Sprintf("item%d", rng.Intn(size.Items)))
	}
	return site
}

// query is one entry of a workload's query list with its oracle answer.
type query struct {
	Expr  string `json:"expr"`
	Class string `json:"class"`
	// want holds the plaintext evaluator's answer as node keys in document
	// order; filled in by buildOracle.
	want [][]uint32
}

// pathStat is one distinct root-to-node tag path and how many nodes have it.
type pathStat struct {
	tags  []string
	count int
}

// docStats collects tag counts, distinct tag paths and distinct
// (parent, child) tag pairs in document order of first appearance.
func docStats(doc *xmltree.Node) (tags map[string]int, paths []pathStat, pairs []pathStat) {
	tags = map[string]int{}
	pathIdx := map[string]int{}
	pairIdx := map[string]int{}
	var walk func(n *xmltree.Node, prefix []string)
	walk = func(n *xmltree.Node, prefix []string) {
		cur := append(append([]string(nil), prefix...), n.Tag)
		tags[n.Tag]++
		ps := strings.Join(cur, "/")
		if i, ok := pathIdx[ps]; ok {
			paths[i].count++
		} else {
			pathIdx[ps] = len(paths)
			paths = append(paths, pathStat{tags: cur, count: 1})
		}
		if len(cur) >= 2 {
			pair := cur[len(cur)-2:]
			pk := pair[0] + "/" + pair[1]
			if i, ok := pairIdx[pk]; ok {
				pairs[i].count++
			} else {
				pairIdx[pk] = len(pairs)
				pairs = append(pairs, pathStat{tags: pair, count: 1})
			}
		}
		for _, c := range n.Children {
			walk(c, cur)
		}
	}
	walk(doc, nil)
	return tags, paths, pairs
}

// spread picks k entries of a sorted slice at evenly spaced ranks, so a
// stratum is sampled across its whole selectivity range and the choice
// depends on the document's statistics, not on the seed.
func spread[T any](sorted []T, k int) []T {
	if len(sorted) <= k {
		return sorted
	}
	out := make([]T, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, sorted[i*(len(sorted)-1)/(k-1)])
	}
	return out
}

// byCount orders path statistics by descending count, ties by name.
func byCount(ps []pathStat) []pathStat {
	out := append([]pathStat(nil), ps...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].count != out[j].count {
			return out[i].count > out[j].count
		}
		return strings.Join(out[i].tags, "/") < strings.Join(out[j].tags, "/")
	})
	return out
}

// buildQueries derives the stratified 24-query list from the document's
// own statistics: 6 rare and 4 common //tag lookups, 6 absolute child
// paths, 4 mixed-axis paths, 2 wildcard steps and 2 parent–child pairs.
// The strata are chosen by rank, so the list depends on the document's
// statistics and not on the seed. A document too small for a stratum
// yields fewer queries (the smoke documents do not).
func buildQueries(doc *xmltree.Node) []query {
	tags, paths, pairs := docStats(doc)

	type tagCount struct {
		tag string
		n   int
	}
	var tc []tagCount
	for t, n := range tags {
		tc = append(tc, tagCount{t, n})
	}
	sort.Slice(tc, func(i, j int) bool {
		if tc[i].n != tc[j].n {
			return tc[i].n < tc[j].n
		}
		return tc[i].tag < tc[j].tag
	})
	var out []query
	add := func(class, expr string) {
		for _, q := range out {
			if q.Expr == expr {
				return
			}
		}
		out = append(out, query{Expr: expr, Class: class})
	}

	nRare, nCommon := 6, 4
	if len(tc) < nRare+nCommon {
		nRare, nCommon = len(tc)/2, len(tc)-len(tc)/2
	}
	for _, t := range tc[:nRare] {
		add("rare", "//"+t.tag)
	}
	for _, t := range tc[len(tc)-nCommon:] {
		add("common", "//"+t.tag)
	}

	// Absolute child paths of depth >= 3, spread over selectivity.
	var deep []pathStat
	for _, p := range paths {
		if len(p.tags) >= 3 {
			deep = append(deep, p)
		}
	}
	deep = byCount(deep)
	for _, p := range spread(deep, 6) {
		add("child_path", "/"+strings.Join(p.tags, "/"))
	}

	// Mixed axes: /root//parent/leaf from paths of depth >= 4 (the
	// descendant step skips at least one level), alternating with //a/b/c.
	var deeper []pathStat
	for _, p := range deep {
		if len(p.tags) >= 4 {
			deeper = append(deeper, p)
		}
	}
	for i, p := range spread(deeper, 4) {
		n := len(p.tags)
		if i%2 == 0 {
			add("mixed", "/"+p.tags[0]+"//"+p.tags[n-2]+"/"+p.tags[n-1])
		} else {
			add("mixed", "//"+p.tags[n-3]+"/"+p.tags[n-2]+"/"+p.tags[n-1])
		}
	}

	// Wildcards: replace the middle step of the most and least common deep
	// paths.
	if len(deeper) > 0 {
		for _, p := range []pathStat{deeper[0], deeper[len(deeper)-1]} {
			steps := append([]string(nil), p.tags...)
			steps[len(steps)/2] = "*"
			add("wildcard", "/"+strings.Join(steps, "/"))
		}
	}

	// Parent–child pairs: the most common pair and the median one.
	sortedPairs := byCount(pairs)
	if len(sortedPairs) > 0 {
		for _, p := range []pathStat{sortedPairs[0], sortedPairs[len(sortedPairs)/2]} {
			add("parent_child", "//"+p.tags[0]+"/"+p.tags[1])
		}
	}

	return out
}

// interleave orders the list round-robin across its strata, so the
// expensive lookups are spread through a pass. The order is part of the
// workload: on a document larger than the caches, what a query finds in
// them depends on the queries before it, so the order is fixed and never
// drawn from the seed.
func interleave(qs []query) []query {
	var classes []string
	byClass := map[string][]query{}
	for _, q := range qs {
		if _, ok := byClass[q.Class]; !ok {
			classes = append(classes, q.Class)
		}
		byClass[q.Class] = append(byClass[q.Class], q)
	}
	out := make([]query, 0, len(qs))
	for len(out) < len(qs) {
		for _, c := range classes {
			if rest := byClass[c]; len(rest) > 0 {
				out = append(out, rest[0])
				byClass[c] = rest[1:]
			}
		}
	}
	return out
}

// ofClass returns the queries of one stratum.
func ofClass(all []query, class string) []query {
	var out []query
	for _, q := range all {
		if q.Class == class {
			out = append(out, q)
		}
	}
	return out
}

// hotQueries picks the 3-query hot list of serve_hot from a full list: one common //tag, one mixed path, one parent–child pair.
func hotQueries(all []query) []query {
	var out []query
	for _, class := range []string{"common", "mixed", "parent_child"} {
		for _, q := range all {
			if q.Class == class {
				out = append(out, q)
				break
			}
		}
	}
	return out
}
