// Quickstart: outsource a document, query it, verify against plaintext.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"sssearch"
)

const doc = `<customers>
  <client><name/></client>
  <client><name/></client>
</customers>`

func main() {
	// 1. Parse the document (the paper's figure 1 example).
	d, err := sssearch.ParseXML(doc)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Outsource: encode the element tree as polynomials over
	//    Z[x]/(x^2+1), split into client + server shares. The bundle's
	//    server half holds no secrets; the client key is 32 bytes of seed
	//    plus the private tag mapping.
	bundle, err := sssearch.Outsource(d, sssearch.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("server store: %s, %d nodes, %d bytes (no secrets inside)\n",
		bundle.Server.RingName(), bundle.Server.NodeCount(), bundle.Server.ByteSize())

	// 3. Query. The server only ever sees the opaque point map(client) and
	//    which subtrees died; it learns neither the tag nor the answer.
	session, err := bundle.Connect()
	if err != nil {
		log.Fatal(err)
	}
	defer session.Close()

	for _, expr := range []string{"//client", "//name", "/customers/client/name", "//absent"} {
		res, err := session.Search(expr)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-25s → %v\n", expr, res.Paths(d))
		fmt.Printf("%25s   %s\n", "", sssearch.FormatStats(res.Stats))

		// Cross-check against the plaintext evaluator.
		want, err := sssearch.EvaluatePlaintext(d, expr)
		if err != nil {
			log.Fatal(err)
		}
		if fmt.Sprint(res.Paths(d)) != fmt.Sprint(want) {
			log.Fatalf("MISMATCH: plaintext %v", want)
		}
	}
	fmt.Println("all queries agree with the plaintext oracle ✓")
}
