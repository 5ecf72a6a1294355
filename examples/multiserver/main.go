// Multi-server deployment: the paper's §4.2 extension. The server part of
// every node polynomial is Shamir-shared coefficient-wise across n
// storage providers with threshold k; the client plus ANY k providers can
// answer queries, and fewer than k providers learn nothing at all — even
// colluding.
//
// Because Lagrange reconstruction is linear and evaluation is linear in
// the coefficients, the client recombines *scalar evaluations* directly:
// the per-query traffic stays one value per node per provider.
//
//	go run ./examples/multiserver
package main

import (
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	"log"
	"math/big"

	"sssearch/internal/drbg"
	"sssearch/internal/mapping"
	"sssearch/internal/polyenc"
	"sssearch/internal/ring"
	"sssearch/internal/sharing"
	"sssearch/internal/xmltree"
)

const doc = `<grid>
  <site><sensor/><sensor/></site>
  <site><sensor/><actuator/></site>
  <hub><sensor/></hub>
</grid>`

func main() {
	const k, n = 2, 3 // any 2 of 3 providers suffice

	d, err := xmltree.ParseString(doc)
	if err != nil {
		log.Fatal(err)
	}
	// Multi-server mode needs the F_p ring (Shamir wants a field).
	fp := ring.MustFp(257)
	m, err := mapping.New(fp.MaxTag(), []byte("multiserver-demo"))
	if err != nil {
		log.Fatal(err)
	}
	enc, err := polyenc.Encode(fp, d, m)
	if err != nil {
		log.Fatal(err)
	}
	seed := drbg.Seed(sha256.Sum256([]byte("multiserver-demo-seed")))
	providers, err := sharing.MultiSplit(enc, seed, k, n, rand.Reader)
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range providers {
		fmt.Printf("provider %d holds %d share polynomials (%d bytes); alone it learns nothing\n",
			p.X, p.Tree.Count(), p.Tree.ByteSize())
	}

	// Query //sensor: evaluate at map(sensor) with TWO of the three
	// providers (provider 2 is offline).
	point, _ := m.Value("sensor")
	client := sharing.NewSeedClient(fp, seed)
	available := []sharing.ServerShare{providers[0], providers[2]}
	fmt.Printf("\nquery //sensor → point %v, using providers {1, 3} (provider 2 offline)\n", point)

	matches := 0
	enc.Walk(func(key drbg.NodeKey, node *polyenc.Node) bool {
		evals := make([]sharing.ServerEval, 0, k)
		for _, p := range available {
			sn, err := p.Tree.Lookup(key)
			if err != nil {
				log.Fatal(err)
			}
			v, err := p.Tree.Eval(fp, sn, point)
			if err != nil {
				log.Fatal(err)
			}
			evals = append(evals, sharing.ServerEval{X: p.X, Value: v})
		}
		sum, err := sharing.MultiReconstructEval(fp, client, key, point, evals, k)
		if err != nil {
			log.Fatal(err)
		}
		target, _ := d.Lookup(key)
		if sum.Sign() == 0 {
			fmt.Printf("  %-18s sum=0  (subtree contains a sensor)\n", target.PathString())
			if target.Tag == "sensor" {
				matches++
			}
			return true
		}
		fmt.Printf("  %-18s sum=%v (dead branch, pruned)\n", target.PathString(), sum)
		return false // prune: don't descend
	})
	fmt.Printf("\n%d sensors found with %d-of-%d reconstruction ✓\n", matches, k, n)

	// Sanity: a single provider's evaluation is NOT the share sum — below
	// threshold nothing reconstructs.
	single := []sharing.ServerEval{{X: providers[0].X, Value: big.NewInt(0)}}
	if _, err := sharing.CombineServerEvals(fp, single, k); err == nil {
		log.Fatal("sub-threshold reconstruction should have failed")
	}
	fmt.Println("sub-threshold reconstruction correctly refused ✓")
}
