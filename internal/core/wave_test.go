package core_test

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sssearch/internal/core"
	"sssearch/internal/drbg"
	"sssearch/internal/mapping"
	"sssearch/internal/obs"
	"sssearch/internal/poly"
	"sssearch/internal/polyenc"
	"sssearch/internal/ring"
	"sssearch/internal/server"
	"sssearch/internal/sharing"
	"sssearch/internal/xmltree"
	"sssearch/internal/xpath"
)

// callCounter counts the calls of each verb at the engine's ServerAPI seam:
// the server's whole view of a query, by kind.
type callCounter struct {
	core.ServerAPI
	evals, fetches, prunes atomic.Int64
}

func (c *callCounter) EvalNodes(keys []drbg.NodeKey, points []*big.Int) ([]core.NodeEval, error) {
	c.evals.Add(1)
	return c.ServerAPI.EvalNodes(keys, points)
}

func (c *callCounter) FetchPolys(keys []drbg.NodeKey) ([]core.NodePoly, error) {
	c.fetches.Add(1)
	return c.ServerAPI.FetchPolys(keys)
}

func (c *callCounter) Prune(keys []drbg.NodeKey) error {
	c.prunes.Add(1)
	return c.ServerAPI.Prune(keys)
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
// The polynomial wave is the path of VerifyFull everywhere and of
// VerifyResolve on Z[x]/(r); VerifyResolve on F_p resolves from evaluations
// (resolve_test.go) and must fetch nothing at any budget.
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
					polys := level == core.VerifyFull || level == core.VerifyResolve && rc.name == "Z"
					perCand := &callCounter{ServerAPI: st.srv}
					ref, err := st.engine(perCand, 1).Query(q, core.Opts{Verify: level})
					if err != nil {
						t.Fatalf("%s: per-candidate path: %v", name, err)
					}
					if level != core.VerifyNone && !sameSet(keySet(ref.Matches), oracleKeys(doc, q)) {
						t.Fatalf("%s: per-candidate path disagrees with the plaintext oracle", name)
					}
					if got := perCand.fetches.Load(); polys && got != ref.Stats.TagsRecovered {
						t.Fatalf("%s: budget 1 made %d fetches for %d recoveries", name, got, ref.Stats.TagsRecovered)
					}
					if polys && ref.Stats.TagsRecovered > maxRecovered {
						maxRecovered = ref.Stats.TagsRecovered
					}
					for _, budget := range []int{0, 6} {
						counted := &callCounter{ServerAPI: st.srv}
						eng, observed := st.engine(counted, budget), &obs.Observer{}
						eng.SetObserver(observed)
						began := time.Now()
						res, err := eng.Query(q, core.Opts{Verify: level})
						wall := time.Since(began)
						if err != nil {
							t.Fatalf("%s budget %d: %v", name, budget, err)
						}
						// The tag_recover stage sees each wave once — at the
						// ring's own budget a wave is one fetch — and only its
						// solve time, which the query's wall time contains.
						solved := observed.Stage(obs.StageTagRecover).Snapshot()
						if polys && budget == 0 && solved.Count != uint64(counted.fetches.Load()) {
							t.Fatalf("%s: %d tag_recover observations for %d waves", name, solved.Count, counted.fetches.Load())
						}
						if (solved.Count > 0) != (res.Stats.TagsRecovered > 0) || time.Duration(solved.Sum) > wall {
							t.Fatalf("%s budget %d: tag_recover observed %d waves, %v, for %d recoveries in %v",
								name, budget, solved.Count, time.Duration(solved.Sum), res.Stats.TagsRecovered, wall)
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
						if !polys && (counted.fetches.Load() != 0 || res.Stats.PolysFetched != 0 || res.Stats.PolyBytesMoved != 0) {
							t.Fatalf("%s budget %d: %d FetchPolys calls, %d polynomials, %d B at a level that needs none",
								name, budget, counted.fetches.Load(), res.Stats.PolysFetched, res.Stats.PolyBytesMoved)
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
	if maxRecovered <= 8 {
		t.Fatalf("largest wave recovered %d tags: the parallel solve (more than 8) never ran", maxRecovered)
	}
}

// TestWaveNamesTheTamperedCandidate: a server that corrupts what it returns
// for one child inside a batched wave is caught by the consistency check,
// and the error names the candidate whose recovery failed — the first one
// in candidate order that uses the answer. On the polynomial path (Z[x]/(r)
// and VerifyFull) the lie is a corrupted polynomial and eq. (2)'s
// coefficient identity catches it; on the point path (VerifyResolve on
// F_p) it is a forged value, at one resolve point only or alike at both,
// and the two points' disagreement on the tag catches it.
func TestWaveNamesTheTamperedCandidate(t *testing.T) {
	// A chain of nested <a> elements: //a makes every inner node ambiguous,
	// so they are all recovered in one wave.
	doc := chainDoc(t, 12)
	// Corrupt the chain node at depth 7. It is the child of the node at
	// depth 6 — recovered first — and a candidate itself.
	target := make(drbg.NodeKey, 7)
	parent := drbg.NodeKey(make([]uint32, 6))
	fp, z := ring.MustFp(101), ring.MustIntQuotient(1, 0, 1)
	top := big.NewInt(100) // p−1, the first resolve point
	one := big.NewInt(1)
	for _, tc := range []struct {
		name  string
		r     ring.Ring
		level core.VerifyLevel
		// delta shapes a value forgery (nil: corrupt the polynomial instead);
		// it is handed the query point so that the scan stays honest.
		delta func(query, point *big.Int) *big.Int
	}{
		{"polyOnZResolve", z, core.VerifyResolve, nil},
		{"polyOnFpFull", fp, core.VerifyFull, nil},
		{"valueAtFirstPointOnly", fp, core.VerifyResolve, func(_, pt *big.Int) *big.Int {
			if pt.Cmp(top) == 0 {
				return one
			}
			return nil
		}},
		{"valueAtSecondPointOnly", fp, core.VerifyResolve, func(query, pt *big.Int) *big.Int {
			if pt.Cmp(top) != 0 && pt.Cmp(query) != 0 {
				return one
			}
			return nil
		}},
		{"valueAlikeAtBothPoints", fp, core.VerifyResolve, func(query, pt *big.Int) *big.Int {
			if pt.Cmp(query) != 0 {
				return one
			}
			return nil
		}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			st := newWaveStack(t, tc.r, doc, []string{"a", "b"}, 90)
			query, _ := st.m.Value("a")
			tam := &server.Tamperer{Inner: st.srv}
			if tc.delta == nil {
				tam.CorruptPolyAt = target
			} else {
				tam.CorruptValueAt = target
				tam.ValueDelta = func(pt *big.Int) *big.Int { return tc.delta(query, pt) }
			}
			counted := &callCounter{ServerAPI: tam}
			_, err := st.engine(counted, 0).Lookup("a", core.Opts{Verify: tc.level})
			if !errors.Is(err, polyenc.ErrInconsistent) {
				t.Fatalf("tampered wave returned %v, want ErrInconsistent", err)
			}
			if want := "resolving " + parent.String() + ":"; !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not name the first failing candidate (%q)", err, want)
			}
			if tc.delta == nil {
				if tam.PolyTampered.Load() == 0 || counted.fetches.Load() != 1 {
					t.Fatalf("tampered %d polynomials in %d fetches, want one wave", tam.PolyTampered.Load(), counted.fetches.Load())
				}
			} else if tam.ValueTampered.Load() != 1 || counted.fetches.Load() != 0 {
				t.Fatalf("forged %d answers and fetched %d times, want one forged answer of one resolve wave and no fetch", tam.ValueTampered.Load(), counted.fetches.Load())
			}
		})
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

// packedMulti is what every share source of the package offers and the
// engine type-asserts for.
type packedMulti interface {
	sharing.MultiPointSource
	sharing.PackedShareSource
}

// waveTap sits on both seams of an engine — ServerAPI and share source —
// and logs what crosses them: every EvalNodes wave (keys, in order) and
// every EvalShares key, in call order. It can fail either leg, and in
// lockstep mode it imposes the sequential schedule the overlapped wave
// replaced: no share of a wave is evaluated until the wave's server call
// has returned.
type waveTap struct {
	core.ServerAPI
	packedMulti

	mu       sync.Mutex
	cond     *sync.Cond
	waves    [][]string // EvalNodes key strings, one entry per wave with points
	evals    []string   // EvalShares key strings in call order
	answered int        // keys of waves the server has answered (lockstep)
	lockstep bool

	// serverErr fails every EvalNodes below the root's wave — once the
	// share leg has been seen computing there when awaitShares is set.
	serverErr   error
	awaitShares bool
	sharesSeen  chan struct{} // closed by the first EvalShares below the root
	seenOnce    sync.Once
	// shareErrs fails EvalShares on the keyed nodes; noPacked makes
	// PackedShare report no packed form for them, packedErr makes it fail.
	shareErrs map[string]error
	noPacked  map[string]bool
	packedErr map[string]error
	bigShares atomic.Int64
}

func newWaveTap(api core.ServerAPI, src packedMulti) *waveTap {
	t := &waveTap{ServerAPI: api, packedMulti: src, sharesSeen: make(chan struct{})}
	t.cond = sync.NewCond(&t.mu)
	return t
}

func (w *waveTap) EvalNodes(keys []drbg.NodeKey, points []*big.Int) ([]core.NodeEval, error) {
	if len(points) > 0 {
		ks := make([]string, len(keys))
		for i, k := range keys {
			ks[i] = k.String()
		}
		w.mu.Lock()
		w.waves = append(w.waves, ks)
		w.mu.Unlock()
	}
	if w.serverErr != nil && len(keys[0]) > 0 {
		if w.awaitShares {
			select {
			case <-w.sharesSeen:
			case <-time.After(10 * time.Second):
				return nil, errors.New("no share was evaluated while the server call was in flight")
			}
		}
		return nil, w.serverErr
	}
	out, err := w.ServerAPI.EvalNodes(keys, points)
	if len(points) > 0 {
		w.mu.Lock()
		w.answered += len(keys)
		w.mu.Unlock()
		w.cond.Broadcast()
	}
	return out, err
}

func (w *waveTap) EvalShares(key drbg.NodeKey, points []*big.Int) ([]*big.Int, error) {
	if len(key) > 0 {
		w.seenOnce.Do(func() { close(w.sharesSeen) })
	}
	ks := key.String()
	w.mu.Lock()
	n := len(w.evals)
	w.evals = append(w.evals, ks)
	// One EvalShares per key per wave: call n belongs to an answered wave
	// exactly when n keys or more have been answered.
	for w.lockstep && n >= w.answered {
		w.cond.Wait()
	}
	w.mu.Unlock()
	if err := w.shareErrs[ks]; err != nil {
		return nil, err
	}
	return w.packedMulti.EvalShares(key, points)
}

func (w *waveTap) PackedShare(key drbg.NodeKey) ([]uint64, bool, error) {
	ks := key.String()
	if err := w.packedErr[ks]; err != nil {
		return nil, false, err
	}
	if w.noPacked[ks] {
		return nil, false, nil
	}
	return w.packedMulti.PackedShare(key)
}

func (w *waveTap) Share(key drbg.NodeKey) (poly.Poly, error) {
	w.bigShares.Add(1)
	return w.packedMulti.Share(key)
}

// evalsByWave cuts the EvalShares log at the wave sizes and returns each
// wave's keys sorted — the multiset the wave evaluated. Waves are
// sequential and join both legs, so the log has no interleaving to undo.
func (w *waveTap) evalsByWave(t *testing.T) [][]string {
	t.Helper()
	var out [][]string
	off := 0
	for wi, wave := range w.waves {
		if off+len(wave) > len(w.evals) {
			t.Fatalf("wave %d asked the server about %d keys, the share source saw %d calls in all", wi, len(wave), len(w.evals)-off)
		}
		got := append([]string(nil), w.evals[off:off+len(wave)]...)
		sort.Strings(got)
		out = append(out, got)
		off += len(wave)
	}
	if off != len(w.evals) {
		t.Fatalf("%d EvalShares calls beyond the %d the waves account for", len(w.evals)-off, off)
	}
	return out
}

// wideDoc is a three-level document: width subtrees under the root,
// alternating <a><b/><a/></a> (ambiguous for //a) and <b><a/></b>. At
// overlappedWidth every evaluation wave below the root and the
// tag-recovery chunks of //a are large enough to run as two legs.
const overlappedWidth = 600 // the engine's overlapMinKeys, with room

func wideDoc(t *testing.T, width int) *xmltree.Node {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < width; i++ {
		if i%2 == 0 {
			sb.WriteString("<a><b/><a/></a>")
		} else {
			sb.WriteString("<b><a/></b>")
		}
	}
	sb.WriteString("</r>")
	doc, err := xmltree.ParseString(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// shareSourceKinds are the three kinds of client share source.
var shareSourceKinds = []string{"SeedClient", "SharedPadCache", "StaticSource"}

// shareSource builds one kind of client share source over the stack, fresh
// (cold caches) on every call.
func (s *waveStack) shareSource(t *testing.T, kind string) packedMulti {
	t.Helper()
	switch kind {
	case "SeedClient":
		return sharing.NewSeedClient(s.r, s.seed)
	case "SharedPadCache":
		return sharing.NewSharedPadCache(s.r, s.seed).NewClient()
	}
	clientTree, err := sharing.Materialize(s.r, s.seed, s.srv.Tree())
	if err != nil {
		t.Fatal(err)
	}
	static, err := sharing.NewStaticSource(s.r, clientTree)
	if err != nil {
		t.Fatal(err)
	}
	return static
}

// TestOverlappedWaveMatchesSequential pins the two-leg wave to the
// sequential one it replaced: the reference run is held in lockstep on one
// core (server call, then the shares, in batch order), the overlapped runs
// are free at GOMAXPROCS 1, 2 and 8. Same matches, same unresolved set,
// same Stats, and every wave evaluates the share of exactly the keys it
// asked the server about, once each.
func TestOverlappedWaveMatchesSequential(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	doc := wideDoc(t, overlappedWidth)
	vocab := []string{"r", "a", "b"}
	queries := [][]string{{"//a", "//a/b", "/r/*/a"}, {"//a", "/r/b/a"}}
	for ri, r := range []ring.Ring{ring.MustFp(257), ring.MustIntQuotient(1, 0, 1)} {
		st := newWaveStack(t, r, doc, vocab, byte(120+ri))
		for _, qs := range queries[ri] {
			q := xpath.MustParse(qs)
			want := oracleKeys(doc, q)
			run := func(src packedMulti, procs int, lockstep bool) (*core.Result, *waveTap) {
				runtime.GOMAXPROCS(procs)
				tap := newWaveTap(st.srv, src)
				tap.lockstep = lockstep
				res, err := core.NewEngineWithShares(r, tap, st.m, tap, nil).Query(q, core.Opts{Verify: core.VerifyFull})
				if err != nil {
					t.Fatalf("%s %s procs %d lockstep %v: %v", r.Name(), qs, procs, lockstep, err)
				}
				return res, tap
			}
			for _, name := range shareSourceKinds {
				ref, refTap := run(st.shareSource(t, name), 1, true)
				if !sameSet(keySet(ref.Matches), want) {
					t.Fatalf("%s %s %s: sequential reference disagrees with the plaintext oracle", r.Name(), qs, name)
				}
				// On one core in lockstep the share calls are the batch, in order.
				var asked []string
				for _, wave := range refTap.waves {
					asked = append(asked, wave...)
				}
				if !slices.Equal(refTap.evals, asked) {
					t.Fatalf("%s %s %s: sequential reference evaluated shares of\n%v\nthe waves asked about\n%v", r.Name(), qs, name, refTap.evals, asked)
				}
				refWaves := refTap.evalsByWave(t)
				for _, procs := range []int{1, 2, 8} {
					res, tap := run(st.shareSource(t, name), procs, false)
					id := fmt.Sprintf("%s %s %s GOMAXPROCS %d", r.Name(), qs, name, procs)
					if keyStrings(res.Matches) != keyStrings(ref.Matches) || keyStrings(res.Unresolved) != keyStrings(ref.Unresolved) {
						t.Fatalf("%s: matches %s unresolved %s, sequential %s / %s", id, keyStrings(res.Matches), keyStrings(res.Unresolved), keyStrings(ref.Matches), keyStrings(ref.Unresolved))
					}
					if res.Stats != ref.Stats {
						t.Fatalf("%s: stats\n%+v\nsequential\n%+v", id, res.Stats, ref.Stats)
					}
					waves := tap.evalsByWave(t)
					if len(waves) != len(refWaves) {
						t.Fatalf("%s: %d waves, sequential %d", id, len(waves), len(refWaves))
					}
					for wi := range waves {
						if !slices.Equal(waves[wi], refWaves[wi]) {
							t.Fatalf("%s: wave %d evaluated shares of %v, sequential %v", id, wi, waves[wi], refWaves[wi])
						}
					}
				}
			}
		}
	}
}

// settledGoroutines polls until the goroutine count is back at (or under)
// base: a helper that has handed over its result may not have exited yet.
func settledGoroutines(base int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

// TestOverlappedWaveErrors: whichever leg fails, the wave reports the
// error the sequential wave reported — the server's first, else the share
// source's at the lowest key in wave order — and no helper goroutine
// outlives the call.
func TestOverlappedWaveErrors(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(4)
	doc := wideDoc(t, 2*overlappedWidth)
	r := ring.MustFp(257)
	st := newWaveStack(t, r, doc, []string{"r", "a", "b"}, 130)
	srvErr := errors.New("injected server fault")
	// The second wave of //a holds the root's children — two legs, the
	// client's in blocks.
	early, late := drbg.NodeKey{5}, drbg.NodeKey{1100}
	earlyErr, lateErr := errors.New("injected share fault at /5"), errors.New("injected share fault at /1100")
	cases := []struct {
		name  string
		setup func(*waveTap)
		want  error
	}{
		{"serverWhileSharesCompute", func(w *waveTap) { w.serverErr, w.awaitShares = srvErr, true }, srvErr},
		{"shareAtOneKey", func(w *waveTap) { w.shareErrs = map[string]error{late.String(): lateErr} }, lateErr},
		{"shareAtTwoKeysInTwoBlocks", func(w *waveTap) {
			w.shareErrs = map[string]error{late.String(): lateErr, early.String(): earlyErr}
		}, earlyErr},
		{"bothLegs", func(w *waveTap) {
			w.serverErr, w.awaitShares = srvErr, true
			w.shareErrs = map[string]error{early.String(): earlyErr}
		}, srvErr},
	}
	for _, tc := range cases {
		tap := newWaveTap(st.srv, sharing.NewSeedClient(r, st.seed))
		tc.setup(tap)
		eng := core.NewEngineWithShares(r, tap, st.m, tap, nil)
		base := runtime.NumGoroutine()
		_, err := eng.Lookup("a", core.Opts{})
		if !errors.Is(err, tc.want) {
			t.Fatalf("%s: error %v, want %v", tc.name, err, tc.want)
		}
		if n := settledGoroutines(base); n > base {
			t.Fatalf("%s: %d goroutines after the failed query, %d before it", tc.name, n, base)
		}
	}
}

// unfaithfulServer answers an evaluation wave of two keys or more in
// another order, or for a key nobody asked about.
type unfaithfulServer struct {
	core.ServerAPI
	substitute drbg.NodeKey // nil: swap the first two answers instead
}

func (u *unfaithfulServer) EvalNodes(keys []drbg.NodeKey, points []*big.Int) ([]core.NodeEval, error) {
	out, err := u.ServerAPI.EvalNodes(keys, points)
	if err != nil || len(out) < 2 {
		return out, err
	}
	out = append([]core.NodeEval(nil), out...)
	if u.substitute != nil {
		out[1].Key = u.substitute
	} else {
		out[0], out[1] = out[1], out[0]
	}
	return out, nil
}

// TestWaveRejectsMisaddressedAnswers: the client's summands are computed
// for the keys it asked about, so an answer in another order, or for
// another key, is refused by name instead of being cached under the wrong
// node (or surfacing later as a missing cached sum).
func TestWaveRejectsMisaddressedAnswers(t *testing.T) {
	doc := wideDoc(t, 6)
	for _, r := range []ring.Ring{ring.MustFp(257), ring.MustIntQuotient(1, 0, 1)} {
		st := newWaveStack(t, r, doc, []string{"r", "a", "b"}, 140)
		for name, srv := range map[string]*unfaithfulServer{
			"reordered":   {ServerAPI: st.srv},
			"substituted": {ServerAPI: st.srv, substitute: drbg.NodeKey{4}},
		} {
			_, err := st.engine(srv, 0).Lookup("a", core.Opts{})
			if err == nil {
				t.Fatalf("%s %s: the query succeeded", r.Name(), name)
			}
			// The root's children are the first wave of two keys or more: the
			// reordered one fails at /0, the substituted one at /1.
			first, second := drbg.NodeKey{0}, drbg.NodeKey{1}
			if msg := err.Error(); !strings.Contains(msg, "where "+first.String()+" was asked") && !strings.Contains(msg, "where "+second.String()+" was asked") {
				t.Fatalf("%s %s: error %q does not name the key that was asked", r.Name(), name, err)
			}
		}
	}
}

// TestWavePadFailureTakesBigIntPath: a key whose pad could not be
// regenerated beside the fetch — the source failed on it, or has no packed
// form for it — sends exactly the recoveries that use it through the
// big.Int path, which asks the source again; the rest of the chunk stays
// on words and the answer is unchanged. Under VerifyFull: on F_p the
// polynomial wave is its path alone.
func TestWavePadFailureTakesBigIntPath(t *testing.T) {
	doc := wideDoc(t, overlappedWidth)
	r := ring.MustFp(257)
	st := newWaveStack(t, r, doc, []string{"r", "a", "b"}, 150)
	q := xpath.MustParse("//a")
	want := oracleKeys(doc, q)
	victim := drbg.NodeKey{4, 1} // the <a> child of an ambiguous <a>: in one key set
	for name, setup := range map[string]func(*waveTap){
		"clean":       func(*waveTap) {},
		"noPackedFor": func(w *waveTap) { w.noPacked = map[string]bool{victim.String(): true} },
		"packedFails": func(w *waveTap) { w.packedErr = map[string]error{victim.String(): errors.New("injected pad fault")} },
	} {
		tap := newWaveTap(st.srv, sharing.NewSeedClient(r, st.seed))
		setup(tap)
		res, err := core.NewEngineWithShares(r, tap, st.m, tap, nil).Query(q, core.Opts{Verify: core.VerifyFull})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !sameSet(keySet(res.Matches), want) {
			t.Fatalf("%s: matches %v, want %v", name, res.Matches, want)
		}
		// The recovery of /4 uses three polynomials — /4, /4/0 and /4/1 — in
		// the resolve wave and again in the VerifyFull wave, which also
		// re-derives the match /4/1 from its own polynomial.
		wantBig := int64(3 + 3 + 1)
		if name == "clean" {
			wantBig = 0
		}
		if got := tap.bigShares.Load(); got != wantBig {
			t.Fatalf("%s: %d big.Int share reconstructions, want %d", name, got, wantBig)
		}
	}
}
