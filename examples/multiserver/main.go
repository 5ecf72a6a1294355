// Multi-server deployment: the paper's §4.2 extension. The server part of
// every node's share — its value vector — is Shamir-shared value-wise
// across n storage providers with threshold k; the client plus ANY k
// providers can answer queries, and fewer than k providers learn nothing
// at all — even colluding.
//
// Because Lagrange reconstruction is linear and evaluation at a point
// reads one value, the client recombines *scalar evaluations* directly:
// the per-query traffic stays one value per node per provider. The query
// runs through core.MultiServer, the fan-out a deployment uses, over
// in-process providers.
//
//	go run ./examples/multiserver
package main

import (
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"log"
	"math/big"
	"slices"

	"sssearch/internal/core"
	"sssearch/internal/drbg"
	"sssearch/internal/mapping"
	"sssearch/internal/polyenc"
	"sssearch/internal/ring"
	"sssearch/internal/server"
	"sssearch/internal/sharing"
	"sssearch/internal/xmltree"
	"sssearch/internal/xpath"
)

const doc = `<grid>
  <site><sensor/><sensor/></site>
  <site><sensor/><actuator/></site>
  <hub><sensor/></hub>
</grid>`

// offline is a provider that is down: it holds its share but answers no
// evaluation and no fetch.
type offline struct{ core.ServerAPI }

var errOffline = errors.New("provider offline")

func (offline) EvalNodes([]drbg.NodeKey, []*big.Int) ([]core.NodeEval, error) {
	return nil, errOffline
}
func (offline) FetchPolys([]drbg.NodeKey) ([]core.NodePoly, error) { return nil, errOffline }

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
	members := make([]core.MultiMember, n)
	for i, p := range providers {
		fmt.Printf("provider %d holds %d shares (%d bytes); alone it learns nothing\n",
			p.X, p.Tree.Count(), p.Tree.ByteSize())
		local, err := server.NewLocal(fp, p.Tree)
		if err != nil {
			log.Fatal(err)
		}
		members[i] = core.MultiMember{X: p.X, API: local}
	}

	// Query //sensor with provider 2 offline: the other two answer.
	members[1].API = offline{members[1].API}
	ms, err := core.NewMultiServer(fp, k, members)
	if err != nil {
		log.Fatal(err)
	}
	eng := core.NewEngine(fp, seed, m, ms, nil)
	fmt.Printf("\nquery //sensor, provider 2 offline\n")
	res, err := eng.Lookup("sensor", core.Opts{Verify: core.VerifyResolve})
	if err != nil {
		log.Fatal(err)
	}
	var want []drbg.NodeKey
	for _, node := range xpath.MustParse("//sensor").Evaluate(d) {
		want = append(want, node.Key())
	}
	for _, key := range res.Matches {
		target, err := d.Lookup(key)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %s\n", target.PathString())
	}
	if !slices.EqualFunc(res.Matches, want, func(a, b drbg.NodeKey) bool { return a.String() == b.String() }) {
		log.Fatalf("matches %v, the plaintext answer is %v", res.Matches, want)
	}
	fmt.Printf("%d sensors found with %d-of-%d reconstruction in %d rounds, %d values ✓\n",
		len(res.Matches), k, n, res.Stats.Rounds, res.Stats.ValuesMoved)

	// Below threshold nothing reconstructs: with provider 3 offline as
	// well, the query is refused rather than answered from one share.
	members[2].API = offline{members[2].API}
	below, err := core.NewMultiServer(fp, k, members)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := core.NewEngine(fp, seed, m, below, nil).Lookup("sensor", core.Opts{}); !errors.Is(err, errOffline) {
		log.Fatalf("sub-threshold query returned %v, want a refusal", err)
	}
	fmt.Println("sub-threshold query correctly refused ✓")
}
