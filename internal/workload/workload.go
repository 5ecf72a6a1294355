// Package workload generates the synthetic documents and query sets the
// experiment harness runs: uniform random trees with controlled shape,
// an XMark-style auction site document, a DBLP-style bibliography, and the
// two shape extremes (chain and flat). All generators are deterministic
// given their seed, so every experiment is reproducible.
package workload

import (
	"fmt"
	"math/rand"

	"sssearch/internal/xmltree"
)

// TreeConfig parameterizes RandomTree.
type TreeConfig struct {
	// Nodes is the target element count (reached within one node).
	Nodes int
	// MaxFanout bounds children per node (>= 1).
	MaxFanout int
	// Vocab is the number of distinct tag names (tags "t0".."t{v-1}").
	Vocab int
	// Seed drives the deterministic generator.
	Seed int64
}

// RandomTree builds a uniform random tree: nodes are attached to a parent
// chosen uniformly among nodes that still have fanout budget, tags drawn
// uniformly from the vocabulary.
func RandomTree(cfg TreeConfig) *xmltree.Node {
	if cfg.Nodes < 1 {
		cfg.Nodes = 1
	}
	if cfg.MaxFanout < 1 {
		cfg.MaxFanout = 4
	}
	if cfg.Vocab < 1 {
		cfg.Vocab = 8
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	tag := func() string { return fmt.Sprintf("t%d", rng.Intn(cfg.Vocab)) }
	root := xmltree.NewNode(tag())
	open := []*xmltree.Node{root}
	for i := 1; i < cfg.Nodes; i++ {
		pi := rng.Intn(len(open))
		parent := open[pi]
		child := parent.AddChild(tag())
		open = append(open, child)
		if len(parent.Children) >= cfg.MaxFanout {
			open[pi] = open[len(open)-1]
			open = open[:len(open)-1]
		}
	}
	return root
}

// Chain builds a degenerate depth-n path t0/t1/.../t{n-1} — the worst case
// for polynomial degree growth in the Z ring (the `coeffgrowth` experiment).
func Chain(n int) *xmltree.Node {
	if n < 1 {
		n = 1
	}
	root := xmltree.NewNode("t0")
	cur := root
	for i := 1; i < n; i++ {
		cur = cur.AddChild(fmt.Sprintf("t%d", i))
	}
	return root
}

// Flat builds a root with n-1 leaf children — maximal fanout, depth 2.
func Flat(n int) *xmltree.Node {
	root := xmltree.NewNode("root")
	for i := 1; i < n; i++ {
		root.AddChild("leaf")
	}
	return root
}

// AuctionConfig parameterizes Auction.
type AuctionConfig struct {
	Items    int
	People   int
	Auctions int
	Seed     int64
}

// Auction builds an XMark-style auction-site document:
//
//	site/regions/{africa,asia,europe}/item/{name,category,description}
//	site/people/person/{name,emailaddress,watches/watch*}
//	site/open_auctions/open_auction/{initial,bidder*/increase,current,itemref}
//
// It is the "realistic workload" of the comparison experiments: a broad
// vocabulary, repeated structures, and tags at very different
// selectivities.
func Auction(cfg AuctionConfig) *xmltree.Node {
	if cfg.Items < 1 {
		cfg.Items = 10
	}
	if cfg.People < 1 {
		cfg.People = 10
	}
	if cfg.Auctions < 1 {
		cfg.Auctions = 10
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	site := xmltree.NewNode("site")

	regions := site.AddChild("regions")
	regionNames := []string{"africa", "asia", "europe"}
	for i := 0; i < cfg.Items; i++ {
		region := regionNames[rng.Intn(len(regionNames))]
		var rn *xmltree.Node
		for _, c := range regions.Children {
			if c.Tag == region {
				rn = c
				break
			}
		}
		if rn == nil {
			rn = regions.AddChild(region)
		}
		item := rn.AddChild("item")
		item.AddChild("name")
		item.AddChild("category")
		if rng.Intn(2) == 0 {
			item.AddChild("description")
		}
	}

	people := site.AddChild("people")
	for i := 0; i < cfg.People; i++ {
		person := people.AddChild("person")
		person.AddChild("name")
		person.AddChild("emailaddress")
		if rng.Intn(3) == 0 {
			watches := person.AddChild("watches")
			for w := 0; w < 1+rng.Intn(3); w++ {
				watches.AddChild("watch")
			}
		}
	}

	open := site.AddChild("open_auctions")
	for i := 0; i < cfg.Auctions; i++ {
		auction := open.AddChild("open_auction")
		auction.AddChild("initial")
		for b := 0; b < rng.Intn(4); b++ {
			auction.AddChild("bidder").AddChild("increase")
		}
		auction.AddChild("current")
		auction.AddChild("itemref")
	}
	return site
}

// LibraryConfig parameterizes Library.
type LibraryConfig struct {
	Books    int
	Articles int
	Seed     int64
}

// Library builds a DBLP-style bibliography:
//
//	library/{book,article}/{author+,title,year[,publisher|journal]}
func Library(cfg LibraryConfig) *xmltree.Node {
	if cfg.Books < 1 {
		cfg.Books = 10
	}
	if cfg.Articles < 1 {
		cfg.Articles = 10
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	lib := xmltree.NewNode("library")
	for i := 0; i < cfg.Books; i++ {
		book := lib.AddChild("book")
		for a := 0; a < 1+rng.Intn(3); a++ {
			book.AddChild("author")
		}
		book.AddChild("title")
		book.AddChild("year")
		book.AddChild("publisher")
	}
	for i := 0; i < cfg.Articles; i++ {
		article := lib.AddChild("article")
		for a := 0; a < 1+rng.Intn(4); a++ {
			article.AddChild("author")
		}
		article.AddChild("title")
		article.AddChild("year")
		article.AddChild("journal")
	}
	return lib
}

// QueryClass labels queries by expected selectivity.
type QueryClass string

const (
	// ClassMiss is a tag absent from the document.
	ClassMiss QueryClass = "miss"
	// ClassRare matches ~1% of elements or less.
	ClassRare QueryClass = "rare"
	// ClassCommon matches a large fraction of elements.
	ClassCommon QueryClass = "common"
)

// TagQuery is one generated element-lookup workload item.
type TagQuery struct {
	Tag     string
	Class   QueryClass
	Matches int
}

// ClassifyTags buckets a document's tags (plus one guaranteed miss) into
// selectivity classes for the pruning experiment.
func ClassifyTags(doc *xmltree.Node) []TagQuery {
	stats := xmltree.ComputeStats(doc)
	var out []TagQuery
	for tag, count := range stats.TagCounts {
		// Common = at least average frequency for the vocabulary.
		cls := ClassRare
		if count*stats.DistinctTags >= stats.Elements {
			cls = ClassCommon
		}
		out = append(out, TagQuery{Tag: tag, Class: cls, Matches: count})
	}
	out = append(out, TagQuery{Tag: "zz-absent-tag", Class: ClassMiss, Matches: 0})
	return out
}
