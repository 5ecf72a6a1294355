package core_test

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"sssearch/internal/core"
	"sssearch/internal/drbg"
	"sssearch/internal/mapping"
	"sssearch/internal/paperdata"
	"sssearch/internal/polyenc"
	"sssearch/internal/ring"
	"sssearch/internal/server"
	"sssearch/internal/sharing"
	"sssearch/internal/xmltree"
	"sssearch/internal/xpath"
)

func testSeed(b byte) drbg.Seed {
	var s drbg.Seed
	for i := range s {
		s[i] = b
	}
	return s
}

// setup builds the full pipeline for a document: encode → split → local
// server → engine.
func setup(t testing.TB, r ring.Ring, doc *xmltree.Node, m *mapping.Map, seedByte byte, allowOverflow bool) (*core.Engine, *server.Local) {
	t.Helper()
	enc, err := polyenc.EncodeWithOpts(r, doc, m, polyenc.Opts{AllowTagOverflow: allowOverflow})
	if err != nil {
		t.Fatal(err)
	}
	seed := testSeed(seedByte)
	srvTree, err := sharing.Split(enc, seed)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.NewLocal(r, srvTree)
	if err != nil {
		t.Fatal(err)
	}
	return core.NewEngine(r, seed, m, srv, nil), srv
}

func keySet(keys []drbg.NodeKey) map[string]bool {
	out := map[string]bool{}
	for _, k := range keys {
		out[k.String()] = true
	}
	return out
}

func oracleKeys(root *xmltree.Node, q *xpath.Query) map[string]bool {
	out := map[string]bool{}
	for _, n := range q.Evaluate(root) {
		out[n.Key().String()] = true
	}
	return out
}

// TestPaperQueryClientFp runs the paper's running example end to end in
// F_5[x]/(x^4-1) (figures 3 and 5): //client must return exactly the two
// client nodes, with the root ambiguous until resolved.
func TestPaperQueryClientFp(t *testing.T) {
	doc := paperdata.Document()
	eng, _ := setup(t, paperdata.FpRing(), doc, paperdata.MappingFp(), 1, true)
	res, err := eng.Lookup("client", core.Opts{Verify: core.VerifyResolve})
	if err != nil {
		t.Fatal(err)
	}
	got := keySet(res.Matches)
	if len(got) != 2 || !got["/0"] || !got["/1"] {
		t.Fatalf("matches = %v", res.Matches)
	}
	if len(res.Unresolved) != 0 {
		t.Fatalf("unresolved = %v", res.Unresolved)
	}
	// The root was ambiguous (zero with zero children) → one tag recovery.
	if res.Stats.TagsRecovered < 1 {
		t.Error("expected at least one tag recovery for the ambiguous root")
	}
	// The name leaves are dead branches → pruned.
	if res.Stats.NodesPruned != 2 {
		t.Errorf("pruned = %d, want 2 (the name leaves)", res.Stats.NodesPruned)
	}
}

// TestPaperQueryClientZ is the same over Z[x]/(x^2+1) (figures 4 and 6).
func TestPaperQueryClientZ(t *testing.T) {
	doc := paperdata.Document()
	eng, _ := setup(t, paperdata.ZRing(), doc, paperdata.Mapping(nil), 2, false)
	res, err := eng.Lookup("client", core.Opts{Verify: core.VerifyResolve})
	if err != nil {
		t.Fatal(err)
	}
	got := keySet(res.Matches)
	if len(got) != 2 || !got["/0"] || !got["/1"] {
		t.Fatalf("matches = %v", res.Matches)
	}
}

// TestPaperQueryVerifyNone reproduces the trusted-mode semantics: the two
// clients are definite, the root stays unresolved, and no polynomial is
// ever transferred.
func TestPaperQueryVerifyNone(t *testing.T) {
	doc := paperdata.Document()
	eng, _ := setup(t, paperdata.ZRing(), doc, paperdata.Mapping(nil), 3, false)
	res, err := eng.Lookup("client", core.Opts{Verify: core.VerifyNone})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 2 {
		t.Fatalf("matches = %v", res.Matches)
	}
	if len(res.Unresolved) != 1 || res.Unresolved[0].String() != "/" {
		t.Fatalf("unresolved = %v, want the root", res.Unresolved)
	}
	if res.Stats.PolysFetched != 0 || res.Stats.PolyBytesMoved != 0 {
		t.Error("VerifyNone must not fetch polynomials")
	}
}

// TestQueryMissRootPrune: querying a tag absent from the document dies at
// the root with a single evaluation — the best-case pruning.
func TestQueryMissRootPrune(t *testing.T) {
	doc := paperdata.Document()
	m := paperdata.Mapping(nil)
	if _, err := m.Assign("ghost"); err != nil {
		t.Fatal(err)
	}
	eng, _ := setup(t, paperdata.ZRing(), doc, m, 4, false)
	res, err := eng.Lookup("ghost", core.Opts{Verify: core.VerifyResolve})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 0 || len(res.Unresolved) != 0 {
		t.Fatal("ghost tag matched")
	}
	if res.Stats.NodesVisited != 1 {
		t.Errorf("visited %d nodes, want 1 (root only)", res.Stats.NodesVisited)
	}
	if res.Stats.NodesPruned != 1 {
		t.Errorf("pruned %d, want 1", res.Stats.NodesPruned)
	}
}

// TestServerViewHasTwoVerbs: what the server sees of a query is EvalNodes
// and FetchPolys, one call a round, and nothing else. Pruning is the client
// not asking: a prune notice would list the nodes whose sums were non-zero,
// which additive sharing hides from the server. The counts are the ones the
// tests above pin (the two name leaves die under //client; a miss dies at
// the root), on both rings, whichever way tags are resolved.
func TestServerViewHasTwoVerbs(t *testing.T) {
	doc := paperdata.Document()
	vocab := []string{"customers", "client", "name", "ghost"}
	queries := []struct {
		expr            string
		visited, pruned int64
	}{
		{"//client", 5, 2},
		{"//ghost", 1, 1},
		{"/customers/client/name", 9, 0},
		{"/customers//name", 7, 0},
		{"//client/*", 5, 2},
	}
	for ri, r := range []ring.Ring{ring.MustFp(257), ring.MustIntQuotient(1, 0, 1)} {
		st := newWaveStack(t, r, doc, vocab, byte(30+ri))
		for _, qc := range queries {
			q := xpath.MustParse(qc.expr)
			for _, level := range []core.VerifyLevel{core.VerifyResolve, core.VerifyFull} {
				name := fmt.Sprintf("%s %s %s", r.Name(), qc.expr, level)
				view := &callCounter{ServerAPI: st.srv}
				res, err := st.engine(view, 0).Query(q, core.Opts{Verify: level, Parallelism: 1})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if n := view.prunes.Load(); n != 0 {
					t.Errorf("%s: the engine sent %d prune notices", name, n)
				}
				if calls := view.evals.Load() + view.fetches.Load(); calls != res.Stats.Rounds {
					t.Errorf("%s: %d evaluation and %d fetch calls in %d rounds", name, view.evals.Load(), view.fetches.Load(), res.Stats.Rounds)
				}
				if res.Stats.NodesVisited != qc.visited || res.Stats.NodesPruned != qc.pruned {
					t.Errorf("%s: visited %d, pruned %d, want %d and %d", name, res.Stats.NodesVisited, res.Stats.NodesPruned, qc.visited, qc.pruned)
				}
				if !sameSet(keySet(res.Matches), oracleKeys(doc, q)) || len(res.Unresolved) != 0 {
					t.Errorf("%s: matches %v (unresolved %v), oracle %v", name, res.Matches, res.Unresolved, oracleKeys(doc, q))
				}
			}
		}
	}
}

func TestUnknownTagError(t *testing.T) {
	eng, _ := setup(t, paperdata.ZRing(), paperdata.Document(), paperdata.Mapping(nil), 5, false)
	_, err := eng.Lookup("never-mapped", core.Opts{})
	if err == nil {
		t.Fatal("unmapped tag accepted")
	}
}

// randomDoc builds a random tree over a fixed vocabulary.
func randomDoc(rng *rand.Rand, depth, fan int, vocab []string) *xmltree.Node {
	n := xmltree.NewNode(vocab[rng.Intn(len(vocab))])
	if depth > 0 {
		for i := 0; i < rng.Intn(fan+1); i++ {
			n.AppendChild(randomDoc(rng, depth-1, fan, vocab))
		}
	}
	return n
}

// TestOracleAgreementLookup: for random documents and every vocabulary tag,
// the encrypted lookup must return exactly the plaintext //tag result.
func TestOracleAgreementLookup(t *testing.T) {
	vocab := []string{"a", "b", "c", "d", "e"}
	rings := []ring.Ring{ring.MustFp(101), ring.MustIntQuotient(1, 0, 1)}
	rng := rand.New(rand.NewSource(2024))
	for _, r := range rings {
		for trial := 0; trial < 6; trial++ {
			doc := randomDoc(rng, 4, 3, vocab)
			m, _ := mapping.New(r.MaxTag(), []byte(fmt.Sprintf("t%d", trial)))
			eng, _ := setup(t, r, doc, m, byte(10+trial), false)
			for _, tag := range vocab {
				q := xpath.MustParse("//" + tag)
				want := oracleKeys(doc, q)
				res, err := eng.Query(q, core.Opts{Verify: core.VerifyResolve})
				if err != nil {
					if _, mapped := m.Value(tag); !mapped {
						continue // tag absent from this doc: ErrUnknownTag is correct
					}
					t.Fatalf("%s //%s: %v", r.Name(), tag, err)
				}
				got := keySet(res.Matches)
				if len(res.Unresolved) != 0 {
					t.Fatalf("%s //%s: unresolved left under VerifyResolve", r.Name(), tag)
				}
				if !sameSet(got, want) {
					t.Fatalf("%s //%s: got %v want %v\ndoc: %s", r.Name(), tag, got, want, doc)
				}
			}
		}
	}
}

// TestOracleAgreementPathQueries: multi-step queries with both axes and
// wildcards agree with the plaintext evaluator.
func TestOracleAgreementPathQueries(t *testing.T) {
	vocab := []string{"a", "b", "c"}
	rng := rand.New(rand.NewSource(99))
	queries := []string{
		"//a//b", "//a/b", "/a/b/c", "//b//c", "//a/*/c", "/*/b", "//a//b//c",
	}
	rings := []ring.Ring{ring.MustFp(101), ring.MustIntQuotient(1, 0, 1)}
	for _, r := range rings {
		for trial := 0; trial < 5; trial++ {
			doc := randomDoc(rng, 4, 3, vocab)
			m, _ := mapping.New(r.MaxTag(), []byte(fmt.Sprintf("p%d", trial)))
			// Pre-assign the whole vocabulary so queries never hit
			// ErrUnknownTag even for absent tags.
			stats := xmltree.ComputeStats(doc)
			_ = stats
			eng, _ := setup(t, r, doc, m, byte(30+trial), false)
			if err := m.AssignAll(vocab); err != nil {
				t.Fatal(err)
			}
			for _, qs := range queries {
				q := xpath.MustParse(qs)
				want := oracleKeys(doc, q)
				res, err := eng.Query(q, core.Opts{Verify: core.VerifyResolve})
				if err != nil {
					t.Fatalf("%s %s: %v", r.Name(), qs, err)
				}
				got := keySet(res.Matches)
				if !sameSet(got, want) {
					t.Fatalf("%s %s:\n got %v\nwant %v\ndoc: %s", r.Name(), qs, got, want, doc)
				}
			}
		}
	}
}

// TestVerifyNoneSuperset: under VerifyNone, matches ∪ unresolved must cover
// the oracle for single-step queries, and matches alone must be a subset.
func TestVerifyNoneSupersetLookup(t *testing.T) {
	vocab := []string{"a", "b"}
	rng := rand.New(rand.NewSource(55))
	r := ring.MustIntQuotient(1, 0, 1)
	for trial := 0; trial < 10; trial++ {
		doc := randomDoc(rng, 4, 3, vocab)
		m, _ := mapping.New(r.MaxTag(), []byte(fmt.Sprintf("v%d", trial)))
		eng, _ := setup(t, r, doc, m, byte(60+trial), false)
		for _, tag := range vocab {
			if _, ok := m.Value(tag); !ok {
				continue
			}
			q := xpath.MustParse("//" + tag)
			want := oracleKeys(doc, q)
			res, err := eng.Query(q, core.Opts{Verify: core.VerifyNone})
			if err != nil {
				t.Fatal(err)
			}
			matched := keySet(res.Matches)
			for k := range matched {
				if !want[k] {
					t.Fatalf("//%s: false positive %s", tag, k)
				}
			}
			union := keySet(append(append([]drbg.NodeKey{}, res.Matches...), res.Unresolved...))
			for k := range want {
				if !union[k] {
					t.Fatalf("//%s: missed true match %s", tag, k)
				}
			}
		}
	}
}

func sameSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// TestVerifyFullCatchesPolyTampering: a server that corrupts a fetched
// polynomial must be detected by the eq. (3) redundancy.
func TestVerifyFullCatchesPolyTampering(t *testing.T) {
	doc := paperdata.Document()
	r := paperdata.ZRing()
	m := paperdata.Mapping(nil)
	enc, err := polyenc.Encode(r, doc, m)
	if err != nil {
		t.Fatal(err)
	}
	seed := testSeed(70)
	srvTree, _ := sharing.Split(enc, seed)
	inner, _ := server.NewLocal(r, srvTree)
	tam := &server.Tamperer{Inner: inner, CorruptPolyAt: drbg.NodeKey{}}
	eng := core.NewEngine(r, seed, m, tam, nil)
	_, err = eng.Lookup("client", core.Opts{Verify: core.VerifyResolve})
	if err == nil {
		t.Fatal("tampered root polynomial not detected")
	}
	if tam.PolyTampered.Load() == 0 {
		t.Fatal("tamperer never fired — test is vacuous")
	}
}

// TestVerifyFullCatchesValueTampering: a forged zero evaluation that
// fabricates a definite match is caught by VerifyFull's re-derivation.
func TestVerifyFullCatchesValueTampering(t *testing.T) {
	// Document where 'b' is a leaf under root 'a': query //b, tamper the
	// OTHER leaf 'c' so it fakes a zero and becomes a fake definite match.
	doc, err := xmltree.ParseString(`<a><b/><c/></a>`)
	if err != nil {
		t.Fatal(err)
	}
	r := ring.MustIntQuotient(1, 0, 1)
	m, _ := mapping.New(r.MaxTag(), []byte("tamper"))
	enc, err := polyenc.Encode(r, doc, m)
	if err != nil {
		t.Fatal(err)
	}
	seed := testSeed(71)
	srvTree, _ := sharing.Split(enc, seed)
	inner, _ := server.NewLocal(r, srvTree)

	// Find the value the honest server returns for node /1 ('c') at
	// point map(b), and tamper it into a zero sum.
	bPoint, _ := m.Value("b")
	mod, err := r.EvalModulus(bPoint)
	if err != nil {
		t.Fatal(err)
	}
	client := sharing.NewSeedClient(r, seed)
	cv, _ := client.EvalShare(drbg.NodeKey{1}, bPoint)
	honest, _ := inner.EvalNodes([]drbg.NodeKey{{1}}, []*big.Int{bPoint})
	// delta such that (cv + honest + delta) ≡ 0 (mod mod)
	sum := new(big.Int).Add(cv, honest[0].Values()[0])
	delta := new(big.Int).Neg(sum)
	delta.Mod(delta, mod)

	forger := &server.Tamperer{Inner: inner, CorruptValueAt: drbg.NodeKey{1}, ValueDelta: func(*big.Int) *big.Int { return delta }}
	eng := core.NewEngine(r, seed, m, forger, nil)
	// VerifyNone happily reports the forged match.
	res, err := eng.Lookup("b", core.Opts{Verify: core.VerifyNone})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 2 {
		t.Fatalf("forgery did not land: matches = %v", res.Matches)
	}
	// VerifyFull re-derives tags and catches the lie.
	if _, err := eng.Lookup("b", core.Opts{Verify: core.VerifyFull}); err == nil {
		t.Fatal("forged match not detected by VerifyFull")
	}
}

// TestPruningFractionDeepTree: on a wide tree where the target tag lives in
// one small subtree, the protocol must touch far fewer nodes than the tree
// holds (the §5 "only a small portion of the tree has to be examined").
func TestPruningFractionDeepTree(t *testing.T) {
	root := xmltree.NewNode("root")
	// 10 dead subtrees of 11 nodes each.
	for i := 0; i < 10; i++ {
		sub := root.AddChild("dead")
		for j := 0; j < 10; j++ {
			sub.AddChild("filler")
		}
	}
	// One live subtree holding the needle.
	live := root.AddChild("live")
	live.AddChild("needle")
	total := root.Count() // 1 + 10*11 + 2 = 113

	r := ring.MustFp(1009)
	m, _ := mapping.New(r.MaxTag(), []byte("prune"))
	eng, _ := setup(t, r, root, m, 80, false)
	res, err := eng.Lookup("needle", core.Opts{Verify: core.VerifyResolve})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 1 {
		t.Fatalf("matches = %v", res.Matches)
	}
	// Visited: root + 11 children + needle + needle's (no) children = 13.
	if res.Stats.NodesVisited >= int64(total)/4 {
		t.Errorf("visited %d of %d nodes — pruning ineffective", res.Stats.NodesVisited, total)
	}
}

func BenchmarkLookupPaperDoc(b *testing.B) {
	eng, _ := setup(b, paperdata.ZRing(), paperdata.Document(), paperdata.Mapping(nil), 1, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Lookup("client", core.Opts{Verify: core.VerifyResolve}); err != nil {
			b.Fatal(err)
		}
	}
}
