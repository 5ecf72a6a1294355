package sharing

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"io"
	"math/big"
	"math/bits"
	"sync"

	"sssearch/internal/drbg"
	"sssearch/internal/fastfield"
	"sssearch/internal/field"
	"sssearch/internal/ring"
)

// ShareLabel is the domain-separation label of the client pads on F_p, and
// its version is the share-stream generation: a change to how a pad is
// drawn changes every pad and takes a new label, so that pads of two
// generations never silently mix. The store magics move with it (package
// store). v1 read an HMAC_DRBG per coefficient, v2 in bulk; v3 drew the
// coefficients from a per-node AES-CTR keystream; v4 was the value form,
// one chain per (node, point) under a key per point.
//
// v5 reads a node's pads off one keystream under one key (see
// drbg.PointKeys): with w = ⌈bitlen p / 8⌉ and s = ⌊16/w⌋ samples a
// block, c_n(a), the pad of node n at the point a = i+1, is the w-byte
// big-endian sample at offset 16·⌊i/s⌋ + w·(i mod s) of the node's
// keystream — a block's 16 − s·w spare bytes are unused — when the
// sampler accepts it: v < p·⌊2^{8w}/p⌋, kept mod p, the rule of
// fastfield.RandVec and field.Rand. A rejected sample falls back to its
// own stream: the sample followed by the chain of (n, a) under K_a, which
// field.Rand reads as an io.Reader — the reference sampler.
const ShareLabel = "sss/client-share/v5"

// coeffShareLabel labels the coefficient pads of the rings without a value
// form (Z[x]/(r(x))): share stream v3, a drbg.Deriver.ForNode keystream per
// node.
const coeffShareLabel = "sss/client-share/v3"

// pads is the value-domain pad generator of one seed over one F_p ring.
// Safe for concurrent use.
type pads struct {
	f    *field.Field
	n    int // the points 1 … n
	keys *drbg.PointKeys
	// k is K, every node's keystream key, and point(a) is K_a: fields so
	// that a test can script them.
	k     cipher.Block
	point func(a uint64) cipher.Block
	// The layout: w bytes a sample, s samples a block, nblk blocks a node:
	// the blocks seq = 0 … nblk−1 of its keystream.
	w, s, nblk int
	seq        []uint32
	// The sampler: accept v < limit, then v mod p is fastmod(v, m, p),
	// with m = ⌈2^64/p⌉ — exact for v and p below 2^32, and the ring
	// bounds p by 2^22 (w ≤ 3).
	p, limit, m uint64

	scratch sync.Pool // *padScratch: a node's tag and keystream
	evals   sync.Pool // *evalScratch: EvalShareWords' per-call state
}

func newPads(fp *ring.FpCyclotomic, seed drbg.Seed) *pads {
	n := fp.DegreeBound()
	keys := drbg.NewPointKeys(seed, ShareLabel, n)
	p := fp.P().Uint64()
	w := (bits.Len64(p) + 7) / 8
	s := aes.BlockSize / w
	pd := &pads{
		f: fp.Field(), n: n, keys: keys, k: keys.Node(), point: keys.Point,
		w: w, s: s, nblk: (n + s - 1) / s,
		p: p, limit: 1<<(8*w) - (1<<(8*w))%p, m: ^uint64(0)/p + 1,
	}
	pd.seq = make([]uint32, pd.nblk)
	for j := range pd.seq {
		pd.seq[j] = uint32(j)
	}
	pd.scratch.New = func() any {
		// Four bytes of slack let every sample load as one 32-bit word.
		return &padScratch{ks: make([]byte, pd.nblk*aes.BlockSize+4)}
	}
	pd.evals.New = func() any { return new(evalScratch) }
	return pd
}

// padScratch is one worker's pad scratch. Whatever a block cipher
// encrypts escapes to the heap, so the tag and the keystream live here and
// are reused, node after node.
type padScratch struct {
	tag [aes.BlockSize]byte
	ks  []byte
}

// keystream returns scratch holding the node's tag and whole keystream;
// the caller puts it back.
func (p *pads) keystream(key drbg.NodeKey) *padScratch {
	sc := p.scratch.Get().(*padScratch)
	p.keys.Tag(&sc.tag, key)
	drbg.Blocks(p.k, &sc.tag, p.seq, sc.ks)
	return sc
}

// fastmod is v mod p for v, p < 2^32, given m = ⌈2^64/p⌉.
func fastmod(v, m, p uint64) uint64 {
	hi, _ := bits.Mul64(m*v, p)
	return hi
}

// sampleAt is the w-byte big-endian sample at ks[off:], which extends at
// least four bytes past off.
func sampleAt(ks []byte, off int, shift uint) uint64 {
	return uint64(binary.BigEndian.Uint32(ks[off:]) >> shift)
}

// split is the write kernel: it writes the node's share, vals − pad, at
// width w into dst, drawing the pads through the word sampler in the pass
// that subtracts and packs them. For an accepted sample x the share is
// (v + limit − x) mod p — limit is a multiple of p, and the sum stays
// below 2^{8w} + p — one fastmod. The pass takes every sample as accepted
// and notes whether one was not; the rare node with a rejected sample
// then has those values mended from their fallback chains, so the pass
// itself calls nothing. Two-byte samples (F_257 … F_65521), eight a block
// and no spare bytes, take a loop of their own: the general loop keeps
// more values live than there are registers and spills them, and on F_257
// the short loop splits a node ~1.4× faster (BenchmarkSplitPerNode) and
// raises the benchmark's outsource_nodes_per_s by ~14 %.
func (p *pads) split(ff *fastfield.Field, dst []byte, vals []uint64, key drbg.NodeKey) {
	sc := p.keystream(key)
	ks, w, s, shift := sc.ks, p.w, p.s, uint(32-8*p.w)
	q, limit, m := p.p, p.limit, p.m
	top := uint64(0) // the largest sample
	if w == 2 {
		ks, dst := ks[:2*len(vals)], dst[:2*len(vals)]
		for i, v := range vals {
			x := uint64(ks[2*i])<<8 | uint64(ks[2*i+1])
			top = max(top, x)
			d := fastmod(v+limit-x, m, q)
			dst[2*i], dst[2*i+1] = byte(d), byte(d>>8)
		}
	} else {
		for i, at := 0, 0; i < len(vals); at += aes.BlockSize {
			for off := at; off < at+s*w && i < len(vals); off, i = off+w, i+1 {
				x := sampleAt(ks, off, shift)
				top = max(top, x)
				putValue(dst, w, i, fastmod(vals[i]+limit-x, m, q))
			}
		}
	}
	if top >= limit {
		p.mend(ff, sc, len(vals), func(i int, pad uint64) {
			putValue(dst, w, i, ff.Sub(vals[i], pad))
		})
	}
	p.scratch.Put(sc)
}

// words writes the node's pad at every point into dst through the word
// sampler: the write kernel's pass without the subtraction.
func (p *pads) words(ff *fastfield.Field, dst []uint64, key drbg.NodeKey) {
	sc := p.keystream(key)
	ks, w, s, shift := sc.ks, p.w, p.s, uint(32-8*p.w)
	q, limit, m := p.p, p.limit, p.m
	top := uint64(0)
	for i, at := 0, 0; i < len(dst); at += aes.BlockSize {
		for off := at; off < at+s*w && i < len(dst); off, i = off+w, i+1 {
			x := sampleAt(ks, off, shift)
			top = max(top, x)
			dst[i] = fastmod(x, m, q)
		}
	}
	if top >= limit {
		p.mend(ff, sc, len(dst), func(i int, pad uint64) { dst[i] = pad })
	}
	p.scratch.Put(sc)
}

// mend calls set with the pad of every one of the first n points whose
// sample in sc's keystream is rejected, drawn from its fallback chain.
func (p *pads) mend(ff *fastfield.Field, sc *padScratch, n int, set func(i int, pad uint64)) {
	shift := uint(32 - 8*p.w)
	for i := 0; i < n; i++ {
		j, off := p.locate(i)
		if sampleAt(sc.ks, int(j)*aes.BlockSize+off, shift) >= p.limit {
			set(i, p.fallback(ff, &sc.tag, i))
		}
	}
}

// fallback is the word sampler's pad at the point a = i+1 of the node
// tagged tag, whose keystream sample was rejected: the first sample of the
// chain of (n, a) under K_a that RandVec accepts. That is what field.Rand
// draws after rejecting the keystream sample. About one sample in 2^16 on
// F_257 comes here.
func (p *pads) fallback(ff *fastfield.Field, tag *[aes.BlockSize]byte, i int) uint64 {
	var v [1]uint64
	_ = ff.RandVec(drbg.NewChain(p.point(uint64(i+1)), tag), v[:]) // a chain never fails
	return v[0]
}

// locate returns where the sample of the point a = i+1 sits: block j of
// the node's keystream, at offset off within it.
func (p *pads) locate(i int) (j uint32, off int) {
	return uint32(i / p.s), p.w * (i % p.s)
}

// refVector is the node's pad at every point through the reference
// sampler: its keystream read as a chain, and field.Rand at each point.
func (p *pads) refVector(key drbg.NodeKey) []uint64 {
	tag := new([aes.BlockSize]byte)
	p.keys.Tag(tag, key)
	ks := make([]byte, p.nblk*aes.BlockSize)
	_, _ = io.ReadFull(drbg.NewChain(p.k, tag), ks) // a chain never fails
	out := make([]uint64, p.n)
	for i := range out {
		j, off := p.locate(i)
		at := int(j)*aes.BlockSize + off
		out[i] = p.refSample(ks[at:at+p.w], tag, uint64(i+1)).Uint64()
	}
	return out
}

// refPad is the node's pad at the point a through the reference sampler,
// from the one keystream block that holds a's sample.
func (p *pads) refPad(tag *[aes.BlockSize]byte, a uint64) *big.Int {
	j, off := p.locate(int(a - 1))
	blk := make([]byte, aes.BlockSize)
	drbg.Blocks(p.k, tag, []uint32{j}, blk)
	return p.refSample(blk[off:off+p.w], tag, a)
}

// refSample is the reference sampler at the point a: field.Rand reading
// the sample, then the chain of (n, a) under K_a.
func (p *pads) refSample(sample []byte, tag *[aes.BlockSize]byte, a uint64) *big.Int {
	v, _ := p.f.Rand(io.MultiReader(bytes.NewReader(sample), &lazyChain{p: p, a: a, tag: tag})) // never fails
	return v
}

// lazyChain is the chain of (n, a) under K_a, started — and K_a derived —
// on the first read.
type lazyChain struct {
	p   *pads
	a   uint64
	tag *[aes.BlockSize]byte
	c   *drbg.Chain
}

func (l *lazyChain) Read(b []byte) (int, error) {
	if l.c == nil {
		l.c = drbg.NewChain(l.p.point(l.a), l.tag)
	}
	return l.c.Read(b)
}

// evalScratch is EvalShareWords' state for one call: the distinct blocks
// its points read, where each point's sample sits among them, and a key's
// tag and blocks.
type evalScratch struct {
	tag [aes.BlockSize]byte
	js  []uint32 // the distinct keystream blocks the points read
	at  []int    // point j's sample is at ks[at[j]:]
	a   []uint64 // point j, packed
	ks  []byte   // the blocks js of one key, plus slack
}

// evalPlan returns scratch laid out for the points; the caller puts it
// back.
func (p *pads) evalPlan(fp *ring.FpCyclotomic, points []*big.Int) (*evalScratch, error) {
	e := p.evals.Get().(*evalScratch)
	e.js, e.at, e.a = e.js[:0], e.at[:0], e.a[:0]
	for _, pt := range points {
		x, err := fp.PackPoint(pt)
		if err != nil {
			p.evals.Put(e)
			return nil, err
		}
		j, off := p.locate(int(x - 1))
		slot := 0
		for slot < len(e.js) && e.js[slot] != j {
			slot++
		}
		if slot == len(e.js) {
			e.js = append(e.js, j)
		}
		e.at = append(e.at, slot*aes.BlockSize+off)
		e.a = append(e.a, x)
	}
	if need := len(e.js)*aes.BlockSize + 4; cap(e.ks) < need {
		e.ks = make([]byte, need)
	}
	e.ks = e.ks[:cap(e.ks)]
	return e, nil
}

// eval writes the pads of the node at the plan's points into dst: one
// keystream block a point, or one for several in the same block.
func (p *pads) eval(ff *fastfield.Field, e *evalScratch, key drbg.NodeKey, dst []uint64) {
	p.keys.Tag(&e.tag, key)
	drbg.Blocks(p.k, &e.tag, e.js, e.ks)
	shift := uint(32 - 8*p.w)
	for j, at := range e.at {
		if x := sampleAt(e.ks, at, shift); x < p.limit {
			dst[j] = fastmod(x, p.m, p.p)
		} else {
			dst[j] = p.fallback(ff, &e.tag, int(e.a[j]-1))
		}
	}
}
