// Content search: the extension sketched in the paper's conclusion (§5) —
// searching the text BETWEEN the tags with a non-invertible hashed
// polynomial index, coupled with independently encrypted payloads.
//
//	"the data polynomials can be used as an index to the encrypted data"
//
//	go run ./examples/content-search
package main

import (
	"crypto/sha256"
	"fmt"
	"log"
	"slices"

	"sssearch/internal/contentindex"
	"sssearch/internal/drbg"
	"sssearch/internal/ring"
	"sssearch/internal/sharing"
	"sssearch/internal/xmltree"
)

const notes = `<notebook>
  <entry><title>polynomial secret sharing</title>
    <body>shamir splits a secret into shares using random polynomials</body></entry>
  <entry><title>encrypted search</title>
    <body>evaluate shared polynomials to search without decrypting</body></entry>
  <entry><title>groceries</title>
    <body>coffee beans and oat milk</body></entry>
</notebook>`

func main() {
	doc, err := xmltree.ParseString(notes)
	if err != nil {
		log.Fatal(err)
	}

	// Client-side secrets: word-hash key, share seed, payload key.
	r := ring.MustIntQuotient(1, 0, 1)
	hasher := contentindex.NewHasher(r, []byte("hash-key"))
	seed := drbg.Seed(sha256.Sum256([]byte("content-seed")))
	payloadKey := []byte("payload-master-key")

	// Build the content polynomial tree and split it; encrypt payloads.
	tree, err := contentindex.Build(r, doc, hasher)
	if err != nil {
		log.Fatal(err)
	}
	serverTree, err := sharing.Split(tree, seed)
	if err != nil {
		log.Fatal(err)
	}
	payloads, err := contentindex.EncryptPayloads(payloadKey, doc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("server holds %d share polynomials + %d encrypted payloads; no keys\n\n",
		serverTree.Count(), payloads.Count())

	searcher := contentindex.NewSearcher(r, hasher, seed, payloadKey, nil)
	for _, word := range []string{"polynomials", "shamir", "coffee", "quantum"} {
		res, err := searcher.Search(word, serverTree, payloads)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("search %q: %d hit(s)\n", word, len(res.Matches))
		for _, k := range res.Matches {
			n, _ := doc.Lookup(k)
			fmt.Printf("  %s: %q\n", n.PathString(), n.Text)
		}
		fmt.Printf("  index narrowed %d nodes → %d candidates; %d payload bytes fetched\n\n",
			doc.Count(), res.IndexCandidates, res.PayloadBytes)

		// Cross-check against the plaintext: the nodes whose own text
		// holds the word, in document order.
		var want []string
		doc.Walk(func(n *xmltree.Node) bool {
			if slices.Contains(contentindex.Words(n.Text), word) {
				want = append(want, n.Key().String())
			}
			return true
		})
		var got []string
		for _, k := range res.Matches {
			got = append(got, k.String())
		}
		if !slices.Equal(got, want) {
			log.Fatalf("search %q: matches %v, the plaintext %v", word, got, want)
		}
	}
	fmt.Println("all searches agree with the plaintext ✓")
	fmt.Println("note: the word hash is one-way — unlike tags, content matches cannot be")
	fmt.Println("verified algebraically (Theorem 1 does not apply); the decrypted payloads")
	fmt.Println("provide the exact filter, as §5 proposes.")
}
