// Anonymous voting: the paper's §3 worked example of secure multi-party
// computation, which motivates the search scheme's secret-sharing design.
//
// Nine board members vote on a motion. Each shares its vote with a random
// degree-(t-1) polynomial — no trusted third party, and no party ever sees
// another's vote. Any t members open the tally. A second round runs the
// veto (Π) variant: one "no" zeroes the product.
//
//	go run ./examples/voting
package main

import (
	"crypto/rand"
	"fmt"
	"log"
	"math/big"

	"sssearch/internal/field"
	"sssearch/internal/shamir"
)

func main() {
	f, err := field.NewUint64(10007)
	if err != nil {
		log.Fatal(err)
	}
	const members, threshold = 9, 4
	scheme, err := shamir.NewScheme(f, threshold, members)
	if err != nil {
		log.Fatal(err)
	}

	// Majority vote: f(x1..x9) = Σ xi.
	ballots := []*big.Int{
		big.NewInt(1), big.NewInt(0), big.NewInt(1),
		big.NewInt(1), big.NewInt(1), big.NewInt(0),
		big.NewInt(1), big.NewInt(1), big.NewInt(0),
	}
	res, err := shamir.MajorityVote(scheme, ballots, []int{0, 3, 5, 8}, rand.Reader)
	if err != nil {
		log.Fatal(err)
	}
	tally := new(big.Int)
	for _, b := range ballots {
		tally.Add(tally, b)
	}
	if res.Value.Cmp(tally) != 0 {
		log.Fatalf("opened tally %v, the ballots sum to %v", res.Value, tally)
	}
	fmt.Printf("majority vote: %v of %d in favour", res.Value, members)
	if res.Value.Int64() > members/2 {
		fmt.Println(" — motion PASSES")
	} else {
		fmt.Println(" — motion FAILS")
	}
	fmt.Printf("  %d point-to-point share messages, %d shares opened, zero votes revealed\n",
		res.MessagesSent, res.OpeningShares)

	// Veto vote: f(x1..x4) = Π xi over a 4-member committee.
	committee := []*big.Int{big.NewInt(1), big.NewInt(1), big.NewInt(1), big.NewInt(1)}
	vetoScheme, err := shamir.NewScheme(f, 2, 4)
	if err != nil {
		log.Fatal(err)
	}
	v, err := shamir.VetoVote(vetoScheme, committee, rand.Reader)
	if err != nil {
		log.Fatal(err)
	}
	if v.Value.Cmp(big.NewInt(1)) != 0 {
		log.Fatalf("veto round 1: product %v, want 1", v.Value)
	}
	fmt.Printf("\nveto round 1 (all consent): product = %v → approved\n", v.Value)

	committee[2] = big.NewInt(0) // one silent veto
	v, err = shamir.VetoVote(vetoScheme, committee, rand.Reader)
	if err != nil {
		log.Fatal(err)
	}
	if v.Value.Sign() != 0 {
		log.Fatalf("veto round 2: product %v, want 0", v.Value)
	}
	fmt.Printf("veto round 2 (one member vetoes): product = %v → blocked\n", v.Value)
	fmt.Println("nobody learns WHO vetoed — only that someone did")
}
