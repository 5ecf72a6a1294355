// Outsourced catalog: a library ships its catalog to an untrusted storage
// provider and queries it over TCP — the paper's deployment scenario.
//
// The example runs both sides in one process for convenience but they
// communicate only through the real wire protocol over a TCP socket, and
// the server half holds nothing but its additive shares.
//
//	go run ./examples/outsourced-catalog
package main

import (
	"fmt"
	"log"
	"net"

	"sssearch"
)

const catalog = `<library>
  <shelf id="crypto">
    <book><title/><author/><author/><year/></book>
    <book><title/><author/><year/></book>
  </shelf>
  <shelf id="databases">
    <book><title/><author/><year/></book>
    <journal><title/><volume/></journal>
  </shelf>
  <office>
    <book><title/><author/></book>
  </office>
</library>`

func main() {
	doc, err := sssearch.ParseXML(catalog)
	if err != nil {
		log.Fatal(err)
	}

	// --- data owner side: encode and split -----------------------------
	bundle, err := sssearch.Outsource(doc, sssearch.Config{
		Kind: sssearch.RingZ,
		R:    []int64{1, 1, 0, 1}, // x^3 + x + 1, a degree-3 modulus
	})
	if err != nil {
		log.Fatal(err)
	}

	// --- storage provider side: serve the share store ------------------
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	daemon, err := bundle.Server.ServeTCP(l)
	if err != nil {
		log.Fatal(err)
	}
	defer daemon.Close()
	fmt.Printf("provider: serving %d share polynomials (%s) on %s\n",
		bundle.Server.NodeCount(), bundle.Server.RingName(), l.Addr())

	// --- client side: connect with the key and query -------------------
	session, err := bundle.Key.Dial(l.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer session.Close()

	queries := []string{
		"//book",           // all books anywhere
		"//shelf/book",     // books on shelves (not the office copy)
		"//journal",        // rare tag
		"/library//author", // every author
		"//shelf//year",    // years under shelves
	}
	for _, q := range queries {
		res, err := session.Search(q, sssearch.WithVerify(sssearch.VerifyFull))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nquery %s\n", q)
		for _, p := range res.Paths(doc) {
			fmt.Printf("  %s\n", p)
		}
		fmt.Printf("  [%s]\n", sssearch.FormatStats(res.Stats))
		want, err := sssearch.EvaluatePlaintext(doc, q)
		if err != nil {
			log.Fatal(err)
		}
		if fmt.Sprint(res.Paths(doc)) != fmt.Sprint(want) {
			log.Fatalf("MISMATCH: plaintext %v", want)
		}
	}
	fmt.Printf("\ncumulative wire traffic: %d B sent, %d B received\n",
		session.Counters().BytesSent, session.Counters().BytesReceived)
	fmt.Println("every answer re-verified against eq. (2) — a lying provider would have been caught")
}
