package main

import (
	"math/rand"
	"time"

	"sssearch/internal/drbg"
	"sssearch/internal/fastfield"
	"sssearch/internal/poly"
	"sssearch/internal/polyenc"
	"sssearch/internal/ring"
	"sssearch/internal/sharing"
	"sssearch/internal/wire"
	"sssearch/internal/xmltree"
)

// A direct-call kernel is timed in kernelBatches batches of about
// batchTime each, and the median batch is reported: the sandbox slows down
// in bursts of a second or so, which a mean over one stretch absorbs whole.
const (
	kernelBatches = 5
	batchTime     = 8 * time.Millisecond
)

// perCallNS returns the time of one call of fn: after one untimed call
// (which builds lazily initialised tables) it sizes a batch to about
// batchTime and takes the median of the batches' mean call times.
func perCallNS(fn func()) float64 {
	fn()
	start := time.Now()
	fn()
	one := time.Since(start)
	calls := 1
	if one < batchTime {
		calls = int(batchTime/(one+1)) + 1
	}
	batches := make([]float64, kernelBatches)
	for b := range batches {
		start := time.Now()
		for c := 0; c < calls; c++ {
			fn()
		}
		batches[b] = float64(time.Since(start)) / float64(calls)
	}
	return median(batches)
}

// kernelMetrics times direct calls into single layers on the workload's
// own data: the tag recoveries and wire frames its queries produced, its
// own ring and its own share seed. A layer the workload does not execute
// reads 0.
func kernelMetrics(in *inputs, topo *tracedTopo) map[string]float64 {
	m := map[string]float64{
		"polyenc.recover_tag_us":                  0,
		"ring.mulprod_us":                         0,
		"fastfield.ntt_transform_us":              0,
		"fastfield.evalmany_ns_per_coeff":         0,
		"fastfield.lagrange_combine_ns_per_value": 0,
		"sharing.pad_regen_us":                    0,
		"wire.encode_eval_resp_us":                0,
		"wire.decode_eval_resp_us":                0,
		"wire.decode_fetch_resp_us":               0,
	}
	c := topo.clients[0]
	fp, _ := topo.ring.(*ring.FpCyclotomic)
	fast := fp != nil && fp.Fast() != nil

	// Tag recovery on the (node, children) sets the workload recovered.
	if recoveries := c.calls.fetchKeys; len(recoveries) > 0 {
		var run func()
		if fast {
			sets := make([][][]uint64, 0, len(recoveries))
			for _, keys := range recoveries {
				if set := packedSet(topo.enc, keys); set != nil {
					sets = append(sets, set)
				}
			}
			run = func() {
				for _, set := range sets {
					_, _ = polyenc.RecoverTagPacked(fp, set[0], set[1:])
				}
			}
		} else {
			sets := make([][]poly.Poly, 0, len(recoveries))
			for _, keys := range recoveries {
				if set := polySet(topo.enc, keys); set != nil {
					sets = append(sets, set)
				}
			}
			run = func() {
				for _, set := range sets {
					_, _ = polyenc.RecoverTag(topo.ring, set[0], set[1:])
				}
			}
		}
		m["polyenc.recover_tag_us"] = perCallNS(run) / float64(len(recoveries)) / 1e3
	}

	// Cold pad regeneration: a seed client with its cache off.
	cold := sharing.NewSeedClient(topo.ring, in.cfgSeed)
	cold.SetShareCacheNodes(0)
	keys := sampleKeys(in.doc, in.nodes, 128)
	m["sharing.pad_regen_us"] = perCallNS(func() {
		for _, k := range keys {
			if fast {
				_, _, _ = cold.PackedShare(k)
			} else {
				_, _ = cold.Share(k)
			}
		}
	}) / float64(len(keys)) / 1e3

	if fast {
		ff := fp.Fast()
		n := fp.DegreeBound()
		rng := rand.New(rand.NewSource(in.seed))
		p := fp.P().Uint64()
		vec := func(n int) []uint64 {
			v := make([]uint64, n)
			for i := range v {
				v[i] = rng.Uint64() % p
			}
			return v
		}
		a, b, c4, d := vec(n), vec(n), vec(n), vec(n)
		m["ring.mulprod_us"] = perCallNS(func() { _ = fp.MulPackedProd(a, b, c4, d) }) / 1e3

		if ntt, err := fastfield.NewNTT(ff, n); err == nil {
			dst := make([]uint64, n)
			m["fastfield.ntt_transform_us"] = perCallNS(func() { ntt.Transform(dst, a, false) }) / 1e3
		}

		xs := []uint64{3}
		xsMont := make([]uint64, 1)
		ff.MFormVec(xsMont, xs)
		out := make([]uint64, 1)
		m["fastfield.evalmany_ns_per_coeff"] = perCallNS(func() { ff.EvalMany(a, xsMont, out) }) / float64(n)

		if in.spec.Topo == topoFabric {
			if lag, err := ff.LagrangeAtZero([]uint64{1, 2}); err == nil {
				const values = 4096
				rows := [][]uint64{vec(values), vec(values)}
				dst := make([]uint64, values)
				m["fastfield.lagrange_combine_ns_per_value"] = perCallNS(func() { lag.CombineVec(dst, rows) }) / values
			}
		}
	}

	// Codec calls on frames the workload's connection carried.
	if f := c.frames; f != nil && len(f.evalAnswers) > 0 {
		resp := wire.EvalResp{ID: 1, Answers: f.evalAnswers}
		buf := wire.AppendEvalResp(nil, resp)
		m["wire.encode_eval_resp_us"] = perCallNS(func() { buf = wire.AppendEvalResp(buf[:0], resp) }) / 1e3
		m["wire.decode_eval_resp_us"] = perCallNS(func() { _, _ = wire.DecodeEvalResp(buf) }) / 1e3
		if len(f.fetchAnswers) > 0 {
			if fbuf, err := wire.AppendFetchResp(nil, wire.FetchResp{ID: 1, Answers: f.fetchAnswers[0]}); err == nil {
				m["wire.decode_fetch_resp_us"] = perCallNS(func() { _, _ = wire.DecodeFetchResp(fbuf) }) / 1e3
			}
		}
	}
	return m
}

// packedSet looks up the packed polynomials of a node and its children in
// the encoded tree; nil if a key does not resolve.
func packedSet(enc *polyenc.Tree, keys []drbg.NodeKey) [][]uint64 {
	set := make([][]uint64, len(keys))
	for i, k := range keys {
		n, err := enc.Lookup(k)
		if err != nil {
			return nil
		}
		set[i] = n.Packed
	}
	return set
}

func polySet(enc *polyenc.Tree, keys []drbg.NodeKey) []poly.Poly {
	set := make([]poly.Poly, len(keys))
	for i, k := range keys {
		n, err := enc.Lookup(k)
		if err != nil {
			return nil
		}
		set[i] = n.Polynomial()
	}
	return set
}

// sampleKeys returns up to n node keys spread evenly over the document in
// document order.
func sampleKeys(doc *xmltree.Node, total, n int) []drbg.NodeKey {
	stride := total / n
	if stride < 1 {
		stride = 1
	}
	var out []drbg.NodeKey
	i := 0
	doc.Walk(func(node *xmltree.Node) bool {
		if i%stride == 0 && len(out) < n {
			out = append(out, node.Key())
		}
		i++
		return true
	})
	return out
}
