package experiments

import (
	"fmt"
	"io"
	"math"
	"time"

	"sssearch/internal/core"
	"sssearch/internal/naive"
	"sssearch/internal/ring"
	"sssearch/internal/swp"
	"sssearch/internal/workload"
	"sssearch/internal/xpath"
)

func init() {
	register(Experiment{
		ID: "storage", Ref: "§5 storage analysis",
		Title: "measured storage vs the paper's n·log p / n(p-1)·log p / n(d+1)·log(pn) formulas",
		Run:   runStorage,
	})
	register(Experiment{
		ID: "pruning", Ref: "§4.3/§5 efficiency claim",
		Title: "fraction of the tree examined per query, by selectivity class",
		Run:   runPruning,
	})
	register(Experiment{
		ID: "compare", Ref: "related-work comparison",
		Title: "secret-sharing search vs SWP linear scan vs download-all vs plaintext",
		Run:   runCompare,
	})
	register(Experiment{
		ID: "trusted", Ref: "§4.3 trusted-server shortcut",
		Title: "bandwidth at each verification level",
		Run:   runTrusted,
	})
	register(Experiment{
		ID: "seedonly", Ref: "§4.2 seed-only client",
		Title: "client storage and per-query cost: seed-only vs materialized shares",
		Run:   runSeedOnly,
	})
	register(Experiment{
		ID: "multiserver", Ref: "§4.2 k-of-n extension",
		Title: "multi-server Shamir sharing: storage blowup and evaluation reconstruction",
		Run:   runMultiServer,
	})
	register(Experiment{
		ID: "coeffgrowth", Ref: "§5 Z-coefficient growth",
		Title: "coefficient bit-length vs document depth: Z[x]/(r) grows, F_p stays flat",
		Run:   runCoeffGrowth,
	})
	register(Experiment{
		ID: "advanced", Ref: "§4.3 advanced querying",
		Title: "multi-point lookahead vs left-to-right path evaluation",
		Run:   runAdvanced,
	})
}

func runStorage(w io.Writer, cfg Config) error {
	sizes := []int{100, 500, 2000}
	if cfg.Quick {
		sizes = []int{50, 150}
	}
	const vocab = 20
	const p = 31 // prime > vocab+2 keeps tags in [1, p-2]
	t := &Table{Headers: []string{
		"n", "plaintext B", "Fp store B", "Fp formula B", "Z store B", "Z formula B", "Fp/plain", "Z/plain"}}
	for _, n := range sizes {
		doc := workload.RandomTree(workload.TreeConfig{Nodes: n, MaxFanout: 5, Vocab: vocab, Seed: int64(n)})
		plainBytes := len(doc.String())

		fpRing := ring.MustFp(p)
		fp, err := buildPipeline(fpRing, doc, fmt.Sprintf("storage-fp-%d", n))
		if err != nil {
			return err
		}
		fpBytes := fp.serverTree.ByteSize()

		zRing := ring.MustIntQuotient(1, 0, 1)
		z, err := buildPipeline(zRing, doc, fmt.Sprintf("storage-z-%d", n))
		if err != nil {
			return err
		}
		zBytes := z.serverTree.ByteSize()

		// Paper formulas (§5), in bytes. In the paper's notation p is the
		// number of distinct tag names for the plaintext case and the field
		// prime for the F_p case; d = deg r.
		logV := math.Log2(vocab)
		logP := math.Log2(p)
		d := float64(zRing.DegreeBound())
		fpFormula := float64(n) * float64(p-1) * logP / 8
		zFormula := float64(n) * (d + 1) * math.Log2(float64(vocab)*float64(n)) / 8
		_ = logV
		t.Add(n, plainBytes, fpBytes, int(fpFormula), zBytes, int(zFormula),
			float64(fpBytes)/float64(plainBytes), float64(zBytes)/float64(plainBytes))

		// Shape check: encrypted storage strictly dominates plaintext.
		if fpBytes <= plainBytes/4 {
			return fmt.Errorf("Fp storage implausibly small: %d vs plaintext %d", fpBytes, plainBytes)
		}
	}
	t.Render(w)
	fmt.Fprintln(w, "(Z formula uses the paper's pessimistic n·log(vocab·n) coefficient bound; measured")
	fmt.Fprintln(w, " coefficients track per-subtree size, so the measured column sits below the bound.)")
	return nil
}

func runPruning(w io.Writer, cfg Config) error {
	sizes := []int{200, 1000, 5000}
	if cfg.Quick {
		sizes = []int{100, 300}
	}
	t := &Table{Headers: []string{"n", "class", "tag", "matches", "visited", "visited/n", "pruned"}}
	for _, n := range sizes {
		doc := workload.RandomTree(workload.TreeConfig{Nodes: n, MaxFanout: 4, Vocab: 25, Seed: int64(n) * 3})
		r := ring.MustFp(1009)
		p, err := buildPipeline(r, doc, fmt.Sprintf("pruning-%d", n))
		if err != nil {
			return err
		}
		queries := workload.ClassifyTags(doc)
		// Pre-assign the miss tag so the query reaches the server.
		if _, err := p.mapping.Assign("zz-absent-tag"); err != nil {
			return err
		}
		// One representative per class: the rarest, the commonest, the miss.
		byClass := map[workload.QueryClass]workload.TagQuery{}
		for _, q := range queries {
			cur, ok := byClass[q.Class]
			switch q.Class {
			case workload.ClassRare:
				if !ok || q.Matches < cur.Matches {
					byClass[q.Class] = q
				}
			case workload.ClassCommon:
				if !ok || q.Matches > cur.Matches {
					byClass[q.Class] = q
				}
			default:
				byClass[q.Class] = q
			}
		}
		for _, cls := range []workload.QueryClass{workload.ClassMiss, workload.ClassRare, workload.ClassCommon} {
			q, ok := byClass[cls]
			if !ok {
				continue
			}
			res, err := p.engine.Lookup(q.Tag, core.Opts{Verify: core.VerifyResolve})
			if err != nil {
				return fmt.Errorf("lookup %s: %w", q.Tag, err)
			}
			if len(res.Matches) != q.Matches {
				return fmt.Errorf("n=%d //%s: %d matches, oracle %d", n, q.Tag, len(res.Matches), q.Matches)
			}
			frac := float64(res.Stats.NodesVisited) / float64(n)
			t.Add(n, string(cls), q.Tag, q.Matches, res.Stats.NodesVisited, frac, res.Stats.NodesPruned)
			if cls == workload.ClassMiss && res.Stats.NodesVisited != 1 {
				return fmt.Errorf("miss query visited %d nodes, want 1", res.Stats.NodesVisited)
			}
		}
	}
	t.Render(w)
	fmt.Fprintln(w, "(miss queries die at the root; rare tags examine a small tree fraction — the §5 claim)")
	return nil
}

func runCompare(w io.Writer, cfg Config) error {
	items, people, auctions := 200, 150, 100
	if cfg.Quick {
		items, people, auctions = 30, 20, 15
	}
	doc := workload.Auction(workload.AuctionConfig{Items: items, People: people, Auctions: auctions, Seed: 5})
	n := doc.Count()
	fmt.Fprintf(w, "auction document: %d elements\n", n)

	queries := []string{"person", "watch", "bidder", "zz-absent-tag"}
	zRing := ring.MustIntQuotient(1, 0, 1)
	sss, err := buildPipeline(zRing, doc, "compare-sss")
	if err != nil {
		return err
	}
	if _, err := sss.mapping.Assign("zz-absent-tag"); err != nil {
		return err
	}
	swpClient := swp.NewClient([]byte("compare-swp"))
	swpIndex, err := swpClient.BuildIndex(doc)
	if err != nil {
		return err
	}
	naiveKey := []byte("compare-naive")
	naiveStore, err := naive.Encrypt(naiveKey, doc)
	if err != nil {
		return err
	}

	t := &Table{Headers: []string{"query", "scheme", "time/query", "nodes touched", "bytes moved", "matches"}}
	for _, tag := range queries {
		oracle := xpath.MustParse("//" + tag).Evaluate(doc)

		// Plaintext baseline.
		start := time.Now()
		got := xpath.MustParse("//" + tag).Evaluate(doc)
		t.Add("//"+tag, "plaintext", time.Since(start).String(), n, 0, len(got))

		// Secret-sharing search.
		start = time.Now()
		res, err := sss.engine.Lookup(tag, core.Opts{Verify: core.VerifyResolve})
		if err != nil {
			return err
		}
		el := time.Since(start)
		sssBytes := res.Stats.PolyBytesMoved + res.Stats.ValuesMoved*8
		t.Add("", "secret-sharing", el.String(), res.Stats.NodesVisited, sssBytes, len(res.Matches))
		if len(res.Matches) != len(oracle) {
			return fmt.Errorf("//%s: sss %d matches, oracle %d", tag, len(res.Matches), len(oracle))
		}

		// SWP linear scan.
		start = time.Now()
		sres := swpIndex.Search(swpClient.Trapdoor(tag))
		el = time.Since(start)
		t.Add("", "swp-linear", el.String(), sres.TokensScanned, sres.TokensScanned*32, len(sres.Matches))
		if len(sres.Matches) != len(oracle) {
			return fmt.Errorf("//%s: swp %d matches, oracle %d", tag, len(sres.Matches), len(oracle))
		}

		// Download-everything.
		start = time.Now()
		nres, err := naive.Query(naiveKey, naiveStore, xpath.MustParse("//"+tag))
		if err != nil {
			return err
		}
		el = time.Since(start)
		t.Add("", "download-all", el.String(), n, nres.BytesMoved, len(nres.Matches))
	}
	t.Render(w)
	fmt.Fprintln(w, "(selective queries: secret-sharing touches a fraction of nodes; SWP always scans n;")
	fmt.Fprintln(w, " download-all moves the whole store per query)")
	return nil
}

func runTrusted(w io.Writer, cfg Config) error {
	items := 100
	if cfg.Quick {
		items = 20
	}
	doc := workload.Auction(workload.AuctionConfig{Items: items, People: items, Auctions: items, Seed: 9})
	z := ring.MustIntQuotient(1, 0, 1)
	p, err := buildPipeline(z, doc, "trusted")
	if err != nil {
		return err
	}
	t := &Table{Headers: []string{"verify level", "matches", "unresolved", "values", "polys", "poly bytes"}}
	for _, lvl := range []core.VerifyLevel{core.VerifyNone, core.VerifyResolve, core.VerifyFull} {
		res, err := p.engine.Lookup("item", core.Opts{Verify: lvl})
		if err != nil {
			return err
		}
		t.Add(lvl.String(), len(res.Matches), len(res.Unresolved),
			res.Stats.ValuesMoved, res.Stats.PolysFetched, res.Stats.PolyBytesMoved)
		if lvl == core.VerifyNone && res.Stats.PolyBytesMoved != 0 {
			return fmt.Errorf("trusted mode moved polynomial bytes")
		}
	}
	t.Render(w)
	fmt.Fprintln(w, "(the paper: trusting the server \"reduces bandwidth and increases efficiency but decreases security\")")
	return nil
}

func runSeedOnly(w io.Writer, cfg Config) error {
	n := 2000
	if cfg.Quick {
		n = 200
	}
	doc := workload.RandomTree(workload.TreeConfig{Nodes: n, MaxFanout: 4, Vocab: 15, Seed: 77})
	z := ring.MustIntQuotient(1, 0, 1)
	p, err := buildPipeline(z, doc, "seedonly")
	if err != nil {
		return err
	}
	// Seed-only: regenerate shares for every node once.
	client := p.engine
	_ = client
	seedClient := p.serverTree
	_ = seedClient

	sc := newSeedTimer(p)
	regenTime, err := sc.timeSeedOnly()
	if err != nil {
		return err
	}
	matTime, matBytes, err := sc.timeMaterialized()
	if err != nil {
		return err
	}
	t := &Table{Headers: []string{"client mode", "client storage B", "share access (all nodes)"}}
	t.Add("seed-only (the paper's §4.2 mode)", 32, regenTime.String())
	t.Add("materialized tree", matBytes, matTime.String())
	t.Render(w)
	fmt.Fprintf(w, "(storage ratio %dx; the seed-only client trades CPU for a 32-byte secret)\n", matBytes/32)
	return nil
}

func runMultiServer(w io.Writer, cfg Config) error {
	n := 300
	if cfg.Quick {
		n = 60
	}
	return multiServerRun(w, n)
}

func runCoeffGrowth(w io.Writer, cfg Config) error {
	depths := []int{4, 8, 16, 32}
	if cfg.Quick {
		depths = []int{4, 8, 12}
	}
	z := ring.MustIntQuotient(1, 0, 1)
	fp := ring.MustFp(101)
	t := &Table{Headers: []string{"chain depth", "Z max coeff bits", "Fp max coeff bits"}}
	prev := 0
	for _, d := range depths {
		doc := workload.Chain(d)
		zp, err := buildPipeline(z, doc, fmt.Sprintf("growth-z-%d", d))
		if err != nil {
			return err
		}
		fpp, err := buildPipeline(fp, doc, fmt.Sprintf("growth-fp-%d", d))
		if err != nil {
			return err
		}
		zBits := zp.encoded.MaxCoeffBits()
		fpBits := fpp.encoded.MaxCoeffBits()
		t.Add(d, zBits, fpBits)
		if zBits <= prev {
			return fmt.Errorf("Z coefficients did not grow at depth %d", d)
		}
		prev = zBits
		if fpBits > 7 {
			return fmt.Errorf("Fp coefficients exceed field size")
		}
	}
	t.Render(w)
	fmt.Fprintln(w, "(§5: Z[x]/(r) coefficients \"can get quite large for large trees\"; F_p stays bounded)")
	return nil
}

func runAdvanced(w io.Writer, cfg Config) error {
	items := 150
	if cfg.Quick {
		items = 25
	}
	doc := workload.Auction(workload.AuctionConfig{Items: items, People: items, Auctions: items, Seed: 21})
	z := ring.MustIntQuotient(1, 0, 1)
	p, err := buildPipeline(z, doc, "advanced")
	if err != nil {
		return err
	}
	queries := []string{"//person/watches/watch", "//open_auction/bidder/increase", "//regions//item/description"}
	t := &Table{Headers: []string{"query", "mode", "nodes visited", "values moved", "matches"}}
	for _, qs := range queries {
		q := xpath.MustParse(qs)
		withLook, err := p.engine.Query(q, core.Opts{Verify: core.VerifyResolve})
		if err != nil {
			return err
		}
		without, err := p.engine.Query(q, core.Opts{Verify: core.VerifyResolve, DisableLookahead: true})
		if err != nil {
			return err
		}
		if len(withLook.Matches) != len(without.Matches) {
			return fmt.Errorf("%s: lookahead changed the answer (%d vs %d)",
				qs, len(withLook.Matches), len(without.Matches))
		}
		t.Add(qs, "whole-query-at-once", withLook.Stats.NodesVisited, withLook.Stats.ValuesMoved, len(withLook.Matches))
		t.Add("", "left-to-right", without.Stats.NodesVisited, without.Stats.ValuesMoved, len(without.Matches))
	}
	t.Render(w)
	fmt.Fprintln(w, "(§4.3: evaluating the whole query at once filters elements \"in a very early stage\")")
	return nil
}
