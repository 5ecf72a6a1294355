package core_test

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"sssearch/internal/core"
	"sssearch/internal/drbg"
	"sssearch/internal/mapping"
	"sssearch/internal/poly"
	"sssearch/internal/polyenc"
	"sssearch/internal/ring"
	"sssearch/internal/server"
	"sssearch/internal/sharing"
	"sssearch/internal/xmltree"
	"sssearch/internal/xpath"
)

// fetchCounter counts FetchPolys calls at the engine's ServerAPI seam.
type fetchCounter struct {
	core.ServerAPI
	fetches atomic.Int64
}

func (c *fetchCounter) FetchPolys(keys []drbg.NodeKey) ([]core.NodePoly, error) {
	c.fetches.Add(1)
	return c.ServerAPI.FetchPolys(keys)
}

// waveStack is one outsourced document with an engine per chunk budget
// over the same server tree and seed.
type waveStack struct {
	doc  *xmltree.Node
	m    *mapping.Map
	seed drbg.Seed
	r    ring.Ring
	srv  *server.Local
}

func newWaveStack(t *testing.T, r ring.Ring, doc *xmltree.Node, vocab []string, seedByte byte) *waveStack {
	t.Helper()
	m, err := mapping.New(r.MaxTag(), []byte("wave"))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AssignAll(vocab); err != nil {
		t.Fatal(err)
	}
	enc, err := polyenc.Encode(r, doc, m)
	if err != nil {
		t.Fatal(err)
	}
	seed := testSeed(seedByte)
	tree, err := sharing.Split(enc, seed)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.NewLocal(r, tree)
	if err != nil {
		t.Fatal(err)
	}
	return &waveStack{doc: doc, m: m, seed: seed, r: r, srv: srv}
}

// engine builds an engine over api with the given chunk budget (0 keeps
// the ring's own).
func (s *waveStack) engine(api core.ServerAPI, budget int) *core.Engine {
	eng := core.NewEngine(s.r, s.seed, s.m, api, nil)
	if budget > 0 {
		core.SetChunkPolys(eng, budget)
	}
	return eng
}

func keyStrings(keys []drbg.NodeKey) string {
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = k.String()
	}
	return strings.Join(out, " ")
}

// TestWaveMatchesPerCandidatePath pins the wave-batched tag recovery to
// the per-candidate path it replaced (a chunk budget of 1: one fetch per
// recovery), on both rings, with the fast path on and off, at every verify
// level: same matches, same unresolved set, same number of recoveries —
// and FetchPolys calls bounded by the number of steps, not of candidates.
func TestWaveMatchesPerCandidatePath(t *testing.T) {
	slowFp := ring.MustFp(101)
	slowFp.SetFast(false)
	rings := []struct {
		name string
		r    ring.Ring
	}{
		{"Fp", ring.MustFp(101)},
		{"FpFastOff", slowFp},
		{"Z", ring.MustIntQuotient(1, 0, 1)},
	}
	vocab := []string{"a", "b"} // two tags, deep nesting: most zero nodes are ambiguous
	queries := []string{"//a", "//b", "//a//b", "//a/b", "//b//a//b", "//a/*"}
	levels := []core.VerifyLevel{core.VerifyNone, core.VerifyResolve, core.VerifyFull}
	maxRecovered := int64(0)
	for ri, rc := range rings {
		rng := rand.New(rand.NewSource(77))
		for trial := 0; trial < 2; trial++ {
			doc := randomDoc(rng, 5, 3, vocab)
			st := newWaveStack(t, rc.r, doc, vocab, byte(80+10*ri+trial))
			for _, qs := range queries {
				q := xpath.MustParse(qs)
				for _, level := range levels {
					name := fmt.Sprintf("%s/trial%d/%s/%s", rc.name, trial, qs, level)
					perCand := &fetchCounter{ServerAPI: st.srv}
					ref, err := st.engine(perCand, 1).Query(q, core.Opts{Verify: level})
					if err != nil {
						t.Fatalf("%s: per-candidate path: %v", name, err)
					}
					if level != core.VerifyNone && !sameSet(keySet(ref.Matches), oracleKeys(doc, q)) {
						t.Fatalf("%s: per-candidate path disagrees with the plaintext oracle", name)
					}
					if got := perCand.fetches.Load(); got != ref.Stats.TagsRecovered {
						t.Fatalf("%s: budget 1 made %d fetches for %d recoveries", name, got, ref.Stats.TagsRecovered)
					}
					if ref.Stats.TagsRecovered > maxRecovered {
						maxRecovered = ref.Stats.TagsRecovered
					}
					for _, budget := range []int{0, 6} {
						counted := &fetchCounter{ServerAPI: st.srv}
						res, err := st.engine(counted, budget).Query(q, core.Opts{Verify: level})
						if err != nil {
							t.Fatalf("%s budget %d: %v", name, budget, err)
						}
						if keyStrings(res.Matches) != keyStrings(ref.Matches) {
							t.Fatalf("%s budget %d: matches %s, per-candidate %s", name, budget, keyStrings(res.Matches), keyStrings(ref.Matches))
						}
						if keyStrings(res.Unresolved) != keyStrings(ref.Unresolved) {
							t.Fatalf("%s budget %d: unresolved %s, per-candidate %s", name, budget, keyStrings(res.Unresolved), keyStrings(ref.Unresolved))
						}
						if res.Stats.TagsRecovered != ref.Stats.TagsRecovered {
							t.Fatalf("%s budget %d: %d recoveries, per-candidate %d", name, budget, res.Stats.TagsRecovered, ref.Stats.TagsRecovered)
						}
						if res.Stats.PolysFetched > ref.Stats.PolysFetched {
							t.Fatalf("%s budget %d: fetched %d polynomials, per-candidate %d", name, budget, res.Stats.PolysFetched, ref.Stats.PolysFetched)
						}
						if level == core.VerifyNone && counted.fetches.Load() != 0 {
							t.Fatalf("%s: VerifyNone fetched polynomials", name)
						}
						// One wave per step plus VerifyFull's; at the ring's own
						// budget these small waves are one fetch each.
						if waves := int64(len(q.Steps()) + 1); budget == 0 && counted.fetches.Load() > waves {
							t.Fatalf("%s: %d FetchPolys calls for %d steps (%d recoveries)", name, counted.fetches.Load(), len(q.Steps()), res.Stats.TagsRecovered)
						}
					}
				}
			}
		}
	}
	if maxRecovered < 8 {
		t.Fatalf("largest wave recovered %d tags: the parallel solve (8 and up) never ran", maxRecovered)
	}
}

// TestWaveNamesTheTamperedCandidate: a server that corrupts one child
// polynomial inside a batched wave is caught by the eq. (2) consistency
// check, and the error names the candidate whose recovery failed — the
// first one in candidate order that uses the polynomial.
func TestWaveNamesTheTamperedCandidate(t *testing.T) {
	// A chain of nested <a> elements: //a makes every inner node ambiguous,
	// so they are all recovered in one wave.
	const depth = 12
	xml := strings.Repeat("<a>", depth) + "<b/>" + strings.Repeat("</a>", depth)
	doc, err := xmltree.ParseString(xml)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []ring.Ring{ring.MustFp(101), ring.MustIntQuotient(1, 0, 1)} {
		st := newWaveStack(t, r, doc, []string{"a", "b"}, 90)
		// Corrupt the polynomial of the chain node at depth 7. It is the child
		// of the node at depth 6 — recovered first — and a candidate itself.
		target := make(drbg.NodeKey, 7)
		parent := drbg.NodeKey(make([]uint32, 6))
		tam := &server.Tamperer{Inner: st.srv, CorruptPolyAt: target}
		counted := &fetchCounter{ServerAPI: tam}
		_, err := st.engine(counted, 0).Lookup("a", core.Opts{Verify: core.VerifyResolve})
		if !errors.Is(err, polyenc.ErrInconsistent) {
			t.Fatalf("%s: tampered wave returned %v, want ErrInconsistent", r.Name(), err)
		}
		if want := "resolving " + parent.String() + ":"; !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: error %q does not name the first failing candidate (%q)", r.Name(), err, want)
		}
		if tam.PolyTampered == 0 || counted.fetches.Load() != 1 {
			t.Fatalf("%s: tampered %d polynomials in %d fetches, want one wave", r.Name(), tam.PolyTampered, counted.fetches.Load())
		}
	}
}

// wideServer re-represents one node's polynomial without changing its
// residue: it adds a multiple of p (one far wider than a word, or a
// negative one) to the constant coefficient, so the answer has no word
// form.
type wideServer struct {
	core.ServerAPI
	at    string
	delta *big.Int
	hits  int
}

func (w *wideServer) FetchPolys(keys []drbg.NodeKey) ([]core.NodePoly, error) {
	out, err := w.ServerAPI.FetchPolys(keys)
	if err != nil {
		return nil, err
	}
	for i := range out {
		if out[i].Key.String() == w.at {
			out[i] = core.NodePoly{Key: out[i].Key, Big: out[i].Polynomial().Add(poly.New(w.delta)), NumChildren: out[i].NumChildren}
			w.hits++
		}
	}
	return out, nil
}

// shareCounter counts which form the engine asks the share source for:
// Share is the big.Int path, PackedShare the word path.
type shareCounter struct {
	*sharing.SeedClient
	big, packed atomic.Int64
}

func (s *shareCounter) Share(key drbg.NodeKey) (poly.Poly, error) {
	s.big.Add(1)
	return s.SeedClient.Share(key)
}

func (s *shareCounter) PackedShare(key drbg.NodeKey) ([]uint64, bool, error) {
	s.packed.Add(1)
	return s.SeedClient.PackedShare(key)
}

// TestWaveOutOfWordCoefficientTakesBigIntPath: a polynomial with a
// coefficient that is negative or wider than a word sends exactly the
// recoveries that use it through the big.Int path, which reduces it; the
// rest of the wave stays on words and the answer is unchanged.
func TestWaveOutOfWordCoefficientTakesBigIntPath(t *testing.T) {
	const depth = 10
	doc, err := xmltree.ParseString(strings.Repeat("<a>", depth) + "<b/>" + strings.Repeat("</a>", depth))
	if err != nil {
		t.Fatal(err)
	}
	r := ring.MustFp(101)
	st := newWaveStack(t, r, doc, []string{"a", "b"}, 91)
	q := xpath.MustParse("//a")
	want := oracleKeys(doc, q)

	run := func(api core.ServerAPI) (*core.Result, *shareCounter) {
		shares := &shareCounter{SeedClient: sharing.NewSeedClient(r, st.seed)}
		res, err := core.NewEngineWithShares(r, shares, st.m, api, nil).Query(q, core.Opts{Verify: core.VerifyFull})
		if err != nil {
			t.Fatal(err)
		}
		if !sameSet(keySet(res.Matches), want) {
			t.Fatalf("matches %v, want %v", res.Matches, want)
		}
		return res, shares
	}
	_, clean := run(st.srv)
	if clean.big.Load() != 0 || clean.packed.Load() == 0 {
		t.Fatalf("clean wave asked for %d big.Int shares and %d packed ones, want words only", clean.big.Load(), clean.packed.Load())
	}
	p := big.NewInt(101)
	for name, delta := range map[string]*big.Int{
		"wide":     new(big.Int).Lsh(p, 70),
		"negative": new(big.Int).Neg(p),
	} {
		wide := &wideServer{ServerAPI: st.srv, at: drbg.NodeKey(make([]uint32, 4)).String(), delta: delta}
		_, shares := run(wide)
		if wide.hits == 0 {
			t.Fatalf("%s: the wide server never fired", name)
		}
		// The node at depth 4 is in two key sets per wave (its own and its
		// parent's): (1+1)+(1+1) polynomials, in the resolve wave and again in
		// the VerifyFull wave.
		if got := shares.big.Load(); got != 8 {
			t.Fatalf("%s: %d big.Int share reconstructions, want 8 (two recoveries of two polynomials, twice)", name, got)
		}
		if shares.packed.Load() == 0 {
			t.Fatalf("%s: the rest of the wave left the word path", name)
		}
	}
}
