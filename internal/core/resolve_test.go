package core_test

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"sssearch/internal/core"
	"sssearch/internal/drbg"
	"sssearch/internal/paperdata"
	"sssearch/internal/poly"
	"sssearch/internal/polyenc"
	"sssearch/internal/ring"
	"sssearch/internal/server"
	"sssearch/internal/sharing"
	"sssearch/internal/xmltree"
	"sssearch/internal/xpath"
)

// chainDoc is depth nested <a> elements around one <b/>: under //a the
// inner depth−1 nodes are ambiguous (each has a zero child) and the
// innermost one is definite. The deduplicated resolve set — the ambiguous
// nodes and their children — is the whole chain: depth nodes.
func chainDoc(t testing.TB, depth int) *xmltree.Node {
	t.Helper()
	doc, err := xmltree.ParseString(strings.Repeat("<a>", depth) + "<b/>" + strings.Repeat("</a>", depth))
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestResolveAtPointsDifferential pins the point path (VerifyResolve on
// F_p) to the polynomial path (VerifyFull) and both to the plaintext
// evaluator, over random deep trees and every XPath shape, on small and
// large moduli, with the word fast path on and off: same matches, no
// polynomial fetched, and the same tag recoveries — VerifyFull makes the
// resolve wave's and one more per reported match.
func TestResolveAtPointsDifferential(t *testing.T) {
	vocab := []string{"a", "b", "c"} // few tags, deep nesting: most zero nodes are ambiguous
	queries := []string{"//a", "//b", "//a//b", "//a/b", "//b//a//b", "//a/*", "/a//a", "//*/a", "//c/a//a", "/*/*/b"}
	for ci, c := range []struct {
		p                  uint64
		fast               bool
		depth, fan, trials int
	}{
		{11, true, 5, 3, 2}, {11, false, 4, 3, 2},
		{101, true, 5, 3, 2}, {101, false, 4, 3, 2},
		{257, true, 5, 3, 2}, {257, false, 3, 3, 2},
		// p−1 coefficients a polynomial: one small tree keeps -race fast.
		{12289, true, 3, 3, 1},
		{65537, true, 2, 3, 1},
	} {
		r := ring.MustFp(c.p)
		r.SetFast(c.fast)
		rng := rand.New(rand.NewSource(int64(1900 + ci)))
		resolved := int64(0)
		for trial := 0; trial < c.trials; trial++ {
			doc := randomDoc(rng, c.depth, c.fan, vocab)
			for doc.Count() < 4*c.depth { // the generator may stop at the root
				doc = randomDoc(rng, c.depth, c.fan, vocab)
			}
			st := newWaveStack(t, r, doc, vocab, byte(160+2*ci+trial))
			counted := &callCounter{ServerAPI: st.srv}
			eng := st.engine(counted, 0)
			if core.ResolvePoints(eng) == nil {
				t.Fatalf("F_%d: the engine has no resolve points", c.p)
			}
			for _, qs := range queries {
				name := fmt.Sprintf("F_%d fast=%v trial %d %s", c.p, c.fast, trial, qs)
				q := xpath.MustParse(qs)
				want := oracleKeys(doc, q)
				atPoints, err := eng.Query(q, core.Opts{Verify: core.VerifyResolve})
				if err != nil {
					t.Fatalf("%s: point path: %v", name, err)
				}
				if counted.fetches.Load() != 0 || atPoints.Stats.PolysFetched != 0 || atPoints.Stats.PolyBytesMoved != 0 {
					t.Fatalf("%s: the point path fetched polynomials (%d calls, %d polynomials)", name, counted.fetches.Load(), atPoints.Stats.PolysFetched)
				}
				fromPolys, err := st.engine(st.srv, 0).Query(q, core.Opts{Verify: core.VerifyFull})
				if err != nil {
					t.Fatalf("%s: polynomial path: %v", name, err)
				}
				if !sameSet(keySet(atPoints.Matches), want) || len(atPoints.Unresolved) != 0 {
					t.Fatalf("%s: point path matches %s (unresolved %s), oracle %v\ndoc: %s", name, keyStrings(atPoints.Matches), keyStrings(atPoints.Unresolved), want, doc)
				}
				if keyStrings(fromPolys.Matches) != keyStrings(atPoints.Matches) {
					t.Fatalf("%s: polynomial path matches %s, point path %s", name, keyStrings(fromPolys.Matches), keyStrings(atPoints.Matches))
				}
				if got, want := atPoints.Stats.TagsRecovered, fromPolys.Stats.TagsRecovered-int64(len(fromPolys.Matches)); got != want {
					t.Fatalf("%s: point path recovered %d tags, polynomial path %d before its re-check", name, got, want)
				}
				if atPoints.Stats.NodesVisited != fromPolys.Stats.NodesVisited || atPoints.Stats.NodesPruned != fromPolys.Stats.NodesPruned {
					t.Fatalf("%s: point path visited %d nodes and pruned %d, polynomial path %d and %d", name,
						atPoints.Stats.NodesVisited, atPoints.Stats.NodesPruned, fromPolys.Stats.NodesVisited, fromPolys.Stats.NodesPruned)
				}
				resolved += atPoints.Stats.TagsRecovered
			}
		}
		if resolved == 0 {
			t.Fatalf("F_%d fast=%v: no query had an ambiguous candidate", c.p, c.fast)
		}
	}
}

// protocolCounts is the part of a query's Stats the protocol decides (the
// cache tallies depend on what earlier queries left behind).
type protocolCounts struct {
	Rounds, NodesVisited, NodesPruned, NodesEvaluated, ValuesMoved int64
	TagsRecovered, PolysFetched, PolyBytesMoved, VerifyFailures    int64
}

func countsOf(res *core.Result) protocolCounts {
	s := res.Stats
	return protocolCounts{s.Rounds, s.NodesVisited, s.NodesPruned, s.NodesEvaluated, s.ValuesMoved,
		s.TagsRecovered, s.PolysFetched, s.PolyBytesMoved, s.VerifyFailures}
}

// TestResolveWaveCounters: a resolve wave is one round that goes back to
// nodes the step has already visited. It adds two values per node of the
// step's deduplicated resolve set to NodesEvaluated and ValuesMoved and
// nothing to NodesVisited — the paper's efficiency metric counts the
// traversal — and nothing else moves, also when the wave is split into
// concurrent batches. Z[x]/(r) keeps the polynomial path and fetches what
// it always fetched: the resolve set, once, in one call; VerifyFull on F_p
// recovers the same tags from polynomials and re-derives every match. The
// chain of 200 is the worst case for tag resolution (every node but the
// innermost is ambiguous, every polynomial fills the ring) and is what no
// other test reaches.
func TestResolveWaveCounters(t *testing.T) {
	for _, depth := range []int64{12, 200} {
		if depth > 12 && testing.Short() {
			continue
		}
		doc := chainDoc(t, int(depth))
		lookup := func(st *waveStack, api core.ServerAPI, level core.VerifyLevel, parallelism int) protocolCounts {
			t.Helper()
			res, err := st.engine(api, 0).Lookup("a", core.Opts{Verify: level, Parallelism: parallelism})
			if err != nil {
				t.Fatal(err)
			}
			if matches, unresolved := int64(len(res.Matches)), int64(len(res.Unresolved)); matches+unresolved != depth || (level != core.VerifyNone && unresolved != 0) {
				t.Fatalf("depth %d at %s: %d matches and %d unresolved", depth, level, matches, unresolved)
			}
			return countsOf(res)
		}
		zst := newWaveStack(t, ring.MustIntQuotient(1, 0, 1), doc, []string{"a", "b"}, 170)
		counted := &callCounter{ServerAPI: zst.srv}
		zscan, zres := lookup(zst, zst.srv, core.VerifyNone, 0), lookup(zst, counted, core.VerifyResolve, 0)
		if counted.fetches.Load() != 1 || zres.PolysFetched != depth || zres.TagsRecovered != depth-1 {
			t.Fatalf("Z[x]/(r): %d fetches of %d polynomials for %d recoveries, want 1, %d and %d",
				counted.fetches.Load(), zres.PolysFetched, zres.TagsRecovered, depth, depth-1)
		}
		if zres.NodesVisited != zscan.NodesVisited || zres.ValuesMoved != zscan.ValuesMoved {
			t.Fatalf("Z[x]/(r): resolving visited %d nodes and moved %d values, the scan alone %d and %d",
				zres.NodesVisited, zres.ValuesMoved, zscan.NodesVisited, zscan.ValuesMoved)
		}
		st := newWaveStack(t, ring.MustFp(257), doc, []string{"a", "b"}, 171)
		for _, parallelism := range []int{0, 4} {
			want, got := lookup(st, st.srv, core.VerifyNone, parallelism), lookup(st, st.srv, core.VerifyResolve, parallelism)
			want.Rounds++
			want.NodesEvaluated += 2 * depth
			want.ValuesMoved += 2 * depth
			want.TagsRecovered = depth - 1
			if got != want {
				t.Fatalf("parallelism %d: resolve counts\n%+v\nwant the scan's plus one round of 2×%d values\n%+v", parallelism, got, depth, want)
			}
			if got.NodesVisited != zres.NodesVisited || got.NodesPruned != zres.NodesPruned || got.TagsRecovered != zres.TagsRecovered {
				t.Fatalf("parallelism %d: visited %d, pruned %d, recovered %d; the polynomial path %d, %d, %d", parallelism,
					got.NodesVisited, got.NodesPruned, got.TagsRecovered, zres.NodesVisited, zres.NodesPruned, zres.TagsRecovered)
			}
			if full := lookup(st, st.srv, core.VerifyFull, parallelism); full.TagsRecovered != got.TagsRecovered+depth {
				t.Fatalf("parallelism %d: VerifyFull recovered %d tags, want the resolve wave's %d and one per match", parallelism, full.TagsRecovered, got.TagsRecovered)
			}
		}
	}
}

// TestResolveConsistentForgeryNeedsTheSeed: the soundness bound of the
// point path is tight, and its assumption is the one stated. A wrong tag
// t′ is accepted exactly when the forged deltas satisfy δⱼ = (t − t′)·Q(aⱼ)
// at both points, and Q(aⱼ) — the children's polynomials evaluated there —
// takes the client share to compute: a forger holding the seed makes the
// root of //a disappear from the answer without an error, where the blind
// forgeries of TestWaveNamesTheTamperedCandidate are refused. VerifyFull
// never asks at the resolve points and is not fooled.
func TestResolveConsistentForgeryNeedsTheSeed(t *testing.T) {
	doc := chainDoc(t, 6)
	r := ring.MustFp(101)
	st := newWaveStack(t, r, doc, []string{"a", "b"}, 180)
	q := xpath.MustParse("//a")
	want := oracleKeys(doc, q)
	root, child := drbg.NodeKey{}, drbg.NodeKey{0}
	tag, _ := st.m.Value("a")
	wrong, _ := st.m.Value("b")

	// Q = the root's one child, reconstructed with the client seed.
	served, err := st.srv.FetchPolys([]drbg.NodeKey{child})
	if err != nil {
		t.Fatal(err)
	}
	pad, err := sharing.NewSeedClient(r, st.seed).Share(child)
	if err != nil {
		t.Fatal(err)
	}
	q0 := r.Add(pad, served[0].Polynomial())
	tam := &server.Tamperer{Inner: st.srv, CorruptValueAt: root, ValueDelta: func(pt *big.Int) *big.Int {
		if pt.Cmp(tag) == 0 {
			return nil // the scan stays honest
		}
		qa, err := r.Eval(q0, pt)
		if err != nil {
			t.Error(err)
			return nil
		}
		return qa.Mul(qa, new(big.Int).Sub(tag, wrong)) // (t − t′)·Q(a)
	}}
	res, err := st.engine(tam, 0).Query(q, core.Opts{Verify: core.VerifyResolve})
	if err != nil {
		t.Fatalf("the consistent forgery was refused: %v", err)
	}
	if tam.ValueTampered.Load() != 1 {
		t.Fatalf("forged %d answers, want the root's in the resolve wave", tam.ValueTampered.Load())
	}
	delete(want, root.String())
	if !sameSet(keySet(res.Matches), want) {
		t.Fatalf("matches %s, want the oracle's without the root", keyStrings(res.Matches))
	}
	want[root.String()] = true
	full, err := st.engine(tam, 0).Query(q, core.Opts{Verify: core.VerifyFull})
	if err != nil {
		t.Fatal(err)
	}
	if !sameSet(keySet(full.Matches), want) || tam.ValueTampered.Load() != 1 {
		t.Fatalf("VerifyFull: matches %s after %d forged answers, want the oracle's and no new forgery", keyStrings(full.Matches), tam.ValueTampered.Load())
	}
}

// TestResolveFallsBackToPolynomials: where the point path has no sound
// pair of points the engine has none, and VerifyResolve resolves from
// polynomials as it always did — a mapping that uses every value of the tag
// domain (p−2 distinct tags on F_11), one that leaves the domain (the
// paper's F_5 example maps name to p−1) and Z[x]/(r), where evaluation is
// not a homomorphism onto a field.
func TestResolveFallsBackToPolynomials(t *testing.T) {
	// Three nested <a> and the eight other tags F_11 has room for.
	var full strings.Builder
	full.WriteString("<a><a><a>")
	vocab := []string{"a"}
	for i := 1; i <= 8; i++ {
		fmt.Fprintf(&full, "<t%d/>", i)
		vocab = append(vocab, fmt.Sprintf("t%d", i))
	}
	full.WriteString("</a></a></a>")
	fullDoc, err := xmltree.ParseString(full.String())
	if err != nil {
		t.Fatal(err)
	}
	f11 := ring.MustFp(11)
	full11 := newWaveStack(t, f11, fullDoc, vocab, 182)
	fullZ := newWaveStack(t, ring.MustIntQuotient(1, 0, 1), fullDoc, vocab, 183)
	paperEng, _ := setup(t, paperdata.FpRing(), paperdata.Document(), paperdata.MappingFp(), 181, true)
	for _, tc := range []struct {
		name  string
		eng   *core.Engine
		doc   *xmltree.Node
		query string
		polys int64 // the deduplicated resolve set
	}{
		{"noFreeValue/F_11", full11.engine(full11.srv, 0), fullDoc, "//a", 3},
		{"tagOutsideDomain/F_5", paperEng, paperdata.Document(), "//client", 3},
		{"Z", fullZ.engine(fullZ.srv, 0), fullDoc, "//a", 3},
	} {
		if pts := core.ResolvePoints(tc.eng); pts != nil {
			t.Fatalf("%s: the engine resolves at %v", tc.name, pts)
		}
		q := xpath.MustParse(tc.query)
		res, err := tc.eng.Query(q, core.Opts{Verify: core.VerifyResolve})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !sameSet(keySet(res.Matches), oracleKeys(tc.doc, q)) {
			t.Fatalf("%s: matches %s disagree with the plaintext oracle", tc.name, keyStrings(res.Matches))
		}
		if res.Stats.PolysFetched != tc.polys || res.Stats.TagsRecovered == 0 {
			t.Fatalf("%s: fetched %d polynomials for %d recoveries, want %d", tc.name, res.Stats.PolysFetched, res.Stats.TagsRecovered, tc.polys)
		}
	}
	// One tag fewer leaves one value free, and the point path takes over
	// with the same answer.
	lessDoc, err := xmltree.ParseString(strings.Replace(full.String(), "<t8/>", "", 1))
	if err != nil {
		t.Fatal(err)
	}
	less := newWaveStack(t, f11, lessDoc, vocab[:8], 182)
	eng := less.engine(less.srv, 0)
	if pts := core.ResolvePoints(eng); len(pts) != 2 || pts[0].Int64() != 10 {
		t.Fatalf("eight tags on F_11: resolve points %v, want p−1 and the one free value", pts)
	} else if _, used := less.m.Tag(pts[1]); used || pts[1].Sign() <= 0 || pts[1].Cmp(f11.MaxTag()) > 0 {
		t.Fatalf("eight tags on F_11: second resolve point %s is a tag's or outside [1, p−2]", pts[1])
	}
	q := xpath.MustParse("//a")
	res, err := eng.Query(q, core.Opts{Verify: core.VerifyResolve})
	if err != nil {
		t.Fatal(err)
	}
	if !sameSet(keySet(res.Matches), oracleKeys(lessDoc, q)) || res.Stats.PolysFetched != 0 || res.Stats.TagsRecovered != 2 {
		t.Fatalf("eight tags on F_11: matches %s, %d polynomials, %d recoveries", keyStrings(res.Matches), res.Stats.PolysFetched, res.Stats.TagsRecovered)
	}
}

// TestResolveAtPointsConcurrentQueries runs concurrent queries, their
// waves split into Parallelism batches, through one Tamperer that counts
// an answer of every wave (a zero delta: forged in name only). The
// answers must be right and the race detector quiet.
func TestResolveAtPointsConcurrentQueries(t *testing.T) {
	doc := wideDoc(t, 64)
	st := newWaveStack(t, ring.MustFp(257), doc, []string{"r", "a", "b"}, 184)
	q := xpath.MustParse("//a")
	want := oracleKeys(doc, q)
	tam := &server.Tamperer{Inner: st.srv, CorruptValueAt: drbg.NodeKey{0}, ValueDelta: func(*big.Int) *big.Int { return new(big.Int) }}
	eng := st.engine(tam, 0)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		level := []core.VerifyLevel{core.VerifyResolve, core.VerifyFull}[g%2]
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := eng.Query(q, core.Opts{Verify: level, Parallelism: 4})
			if err != nil {
				t.Error(err)
			} else if !sameSet(keySet(res.Matches), want) {
				t.Errorf("%s: matches disagree with the plaintext oracle", level)
			}
		}()
	}
	wg.Wait()
	// /0 is an ambiguous <a>: scanned once and resolved once per query.
	if got := tam.ValueTampered.Load(); got < 4 {
		t.Fatalf("the tamperer counted %d answers over four queries", got)
	}
}

// FuzzResolveAtPoints checks the point solve of eq. (2) against the
// coefficient solve, polyenc.RecoverTag, on arbitrary (f, children,
// points), in the direction that is a theorem: evaluation at a ∈ F_p* is a
// ring homomorphism, so whenever the coefficient identity f = (x − t)·∏qᵢ
// holds, the point solve returns the same t at every pair of points where
// ∏qᵢ does not vanish — equivalently, whenever it refuses at such a pair,
// the coefficient solve refuses too. (The converse is not a theorem: two
// point equations cannot see a corruption that vanishes at both points,
// which is the soundness bound doc.go states.) Where ∏qᵢ vanishes at a
// point the solve must refuse: no honest polynomial has a root there.
func FuzzResolveAtPoints(f *testing.F) {
	f.Add(uint8(2), uint16(7), uint16(100), uint16(55), uint16(0), uint16(0), []byte{2, 1, 3, 9, 1, 4, 4})
	f.Add(uint8(3), uint16(255), uint16(256), uint16(1), uint16(0), uint16(0), []byte{3, 0, 1, 1, 1, 1, 1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add(uint8(1), uint16(3), uint16(10), uint16(4), uint16(5), uint16(2), []byte{1, 2, 8, 1, 1})
	f.Add(uint8(0), uint16(2), uint16(4), uint16(3), uint16(0), uint16(0), []byte{0})
	rings := []*ring.FpCyclotomic{ring.MustFp(5), ring.MustFp(11), ring.MustFp(101), ring.MustFp(257)}
	f.Fuzz(func(t *testing.T, which uint8, tag, a1, a2, corrupt, at uint16, data []byte) {
		r := rings[int(which)%len(rings)]
		p := r.P().Uint64()
		n := r.DegreeBound()
		// data: the child count, then per child a length byte and that many
		// coefficient bytes; what data cannot supply is zero.
		next := func() uint64 {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return uint64(b)
		}
		children := make([]poly.Poly, next()%5)
		for i := range children {
			coeffs := make([]uint64, 1+next()%uint64(min(n, 8)))
			for j := range coeffs {
				coeffs[j] = next() % p
			}
			children[i] = poly.NewUint64(coeffs)
		}
		q := r.One()
		for _, c := range children {
			q = r.Mul(q, c)
		}
		// f = (x − tag)·∏qᵢ, plus corrupt·x^at.
		fpoly := r.Mul(r.Linear(new(big.Int).SetUint64(uint64(tag)%p)), q)
		if c := uint64(corrupt) % p; c != 0 {
			mono := make([]uint64, 1+int(at)%n)
			mono[len(mono)-1] = c
			fpoly = r.Add(fpoly, poly.NewUint64(mono))
		}
		want, coeffErr := polyenc.RecoverTag(r, fpoly, children)

		points := []*big.Int{new(big.Int).SetUint64(1 + uint64(a1)%(p-1)), new(big.Int).SetUint64(1 + uint64(a2)%(p-1))}
		eval := func(g poly.Poly) []*big.Int {
			out := make([]*big.Int, len(points))
			for j, a := range points {
				v, err := r.Eval(g, a)
				if err != nil {
					t.Fatal(err)
				}
				out[j] = v
			}
			return out
		}
		kids := make([][]*big.Int, len(children))
		for i, c := range children {
			kids[i] = eval(c)
		}
		got, pointErr := core.SolveAtPoints(r, points, eval(fpoly), kids)
		for _, qa := range eval(q) {
			if qa.Sign() == 0 {
				if !errors.Is(pointErr, polyenc.ErrInconsistent) {
					t.Fatalf("∏qᵢ vanishes at one of %v and the point solve returned (%v, %v)", points, got, pointErr)
				}
				return
			}
		}
		if pointErr != nil && !errors.Is(pointErr, polyenc.ErrInconsistent) {
			t.Fatalf("point solve failed with %v, want ErrInconsistent", pointErr)
		}
		if coeffErr == nil && (pointErr != nil || got.Cmp(want) != 0) {
			t.Fatalf("F_%d at %v: the coefficient solve accepts tag %s, the point solve returned (%v, %v)", p, points, want, got, pointErr)
		}
	})
}
