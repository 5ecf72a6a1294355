package sharing

import (
	"bytes"
	"crypto/sha256"
	"math/big"
	"testing"

	"sssearch/internal/ring"
	"sssearch/internal/shamir"
)

// maskRng returns a fresh reader yielding the same 32 mask-seed bytes on
// every call, so repeated MultiShare invocations draw identical mask
// streams and their outputs are comparable byte for byte.
func maskRng(label string) *bytes.Reader {
	sum := sha256.Sum256([]byte(label))
	return bytes.NewReader(sum[:])
}

// TestMultiSplitParallelismDeterminism is the MultiSplit determinism
// contract: the parallel packed walk at Parallelism 1, 2 and 8 must
// reproduce the sequential big.Int reference byte for byte — per-node
// mask streams leave no schedule-dependent state, and the vectorized
// share arithmetic (ScalarMulAddVec over precomputed point powers) must
// agree with the reference's coefficient-wise Horner evaluation.
func TestMultiSplitParallelismDeterminism(t *testing.T) {
	r := ring.MustFp(257)
	const k, n = 3, 5
	for _, nodes := range []int{1, 17, 230} {
		enc, seed := parallelFixture(t, r, nodes, int64(nodes)*5+7, "multi-par-det")
		ref, err := MultiSplitSequential(enc, seed, k, n, maskRng("multi-det"))
		if err != nil {
			t.Fatal(err)
		}
		want := make([][]byte, n)
		for j, s := range ref {
			if want[j], err = s.Tree.MarshalBinary(); err != nil {
				t.Fatal(err)
			}
		}
		for _, par := range []int{1, 2, 8} {
			shares, err := MultiSplitWithOpts(enc, seed, k, n, maskRng("multi-det"), MultiOpts{Parallelism: par})
			if err != nil {
				t.Fatalf("nodes=%d par=%d: %v", nodes, par, err)
			}
			for j, s := range shares {
				if s.X != uint32(j+1) {
					t.Fatalf("share %d has X=%d", j, s.X)
				}
				got, err := s.Tree.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want[j]) {
					t.Fatalf("nodes=%d Parallelism=%d: server %d tree differs from sequential reference", nodes, par, j)
				}
			}
		}
	}
}

// TestMultiShareThresholdProperty: any k of the n parallel-generated
// share trees must Shamir-reconstruct the underlying rest share at every
// node (value-wise), tying the vectorized share generation back to the
// scheme it implements.
func TestMultiShareThresholdProperty(t *testing.T) {
	r := ring.MustFp(31)
	const k, n = 2, 4
	enc, seed := parallelFixture(t, r, 25, 11, "multi-thresh")
	rest, err := Split(enc, seed)
	if err != nil {
		t.Fatal(err)
	}
	shares, err := MultiShare(r, rest, k, n, maskRng("thresh"))
	if err != nil {
		t.Fatal(err)
	}
	f := r.Field()
	// Walk via the rest tree's shape (all server trees share it).
	var check func(path []int)
	var lookup func(tr *Tree, path []int) *Node
	lookup = func(tr *Tree, path []int) *Node {
		cur := tr.Root
		for _, i := range path {
			cur = cur.Children[i]
		}
		return cur
	}
	check = func(path []int) {
		restNode := lookup(rest, path)
		for i := 0; i < r.DegreeBound(); i++ {
			// Reconstruct value i from servers {0, 2} (a non-trivial
			// k-subset).
			pts := []shamir.Share{
				{X: shares[0].X, Y: value(shares[0].Tree, lookup(shares[0].Tree, path), i)},
				{X: shares[2].X, Y: value(shares[2].Tree, lookup(shares[2].Tree, path), i)},
			}
			got, err := shamir.InterpolateAt(f, pts, big.NewInt(0), k)
			if err != nil {
				t.Fatal(err)
			}
			if want := value(rest, restNode, i); got.Cmp(want) != 0 {
				t.Fatalf("path %v value %d: reconstructed %s, want %s", path, i, got, want)
			}
		}
		for ci := range restNode.Children {
			check(append(append([]int{}, path...), ci))
		}
	}
	check(nil)
}

// TestMultiShareFastOffFallback: with the fast path off MultiShare takes
// the sequential big.Int walk, which draws its masks one field.Rand at a
// time. The shares must reconstruct the rest tree, and they are the very
// trees the fast path builds: two masks per node come off one stream, F_31
// rejects one sample in 32, so this also holds the bulk sampler to reading
// exactly the samples it is missing after a rejection — one byte more and
// the second mask would start elsewhere.
func TestMultiShareFastOffFallback(t *testing.T) {
	r := ring.MustFp(31)
	enc, seed := parallelFixture(t, r, 12, 3, "multi-fastoff")
	rest, err := Split(enc, seed)
	if err != nil {
		t.Fatal(err)
	}
	const k, n = 3, 4
	fast, err := MultiShare(r, rest, k, n, maskRng("fastoff"))
	if err != nil {
		t.Fatal(err)
	}
	r.SetFast(false)
	defer r.SetFast(true)
	shares, err := MultiShare(r, rest, k, n, maskRng("fastoff"))
	if err != nil {
		t.Fatal(err)
	}
	for j := range shares {
		got, _ := shares[j].Tree.MarshalBinary()
		want, _ := fast[j].Tree.MarshalBinary()
		if !bytes.Equal(got, want) {
			t.Fatalf("server %d: the fast-off share tree differs from the fast-path one", j)
		}
	}
	f := r.Field()
	for i := 0; i < r.DegreeBound(); i++ {
		pts := make([]shamir.Share, 3)
		for j := range pts {
			pts[j] = shamir.Share{X: shares[j+1].X, Y: value(shares[j+1].Tree, shares[j+1].Tree.Root, i)}
		}
		got, err := shamir.InterpolateAt(f, pts, big.NewInt(0), k)
		if err != nil {
			t.Fatal(err)
		}
		if want := value(rest, rest.Root, i); got.Cmp(want) != 0 {
			t.Fatalf("fast-off value %d: reconstructed %s, want %s", i, got, want)
		}
	}
}

// value is node n's value i as a big.Int.
func value(t *Tree, n *Node, i int) *big.Int { return new(big.Int).SetUint64(t.Value(n, i)) }
