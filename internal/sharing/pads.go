package sharing

import (
	"crypto/aes"
	"crypto/cipher"
	"math/big"

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
// coefficients from a per-node AES-CTR keystream. v4 is the value form:
// c_n(a), the pad of node n at the point a, is the first sample the
// sampler accepts from the chain of (n, a) under the key schedule of
// drbg.PointKeys — v < p·⌊2^w/p⌋ over w = 8·⌈bitlen p / 8⌉-bit big-endian
// samples, kept mod p, the rule of fastfield.RandVec and field.Rand.
const ShareLabel = "sss/client-share/v4"

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
}

func newPads(fp *ring.FpCyclotomic, seed drbg.Seed) *pads {
	n := fp.DegreeBound()
	return &pads{f: fp.Field(), n: n, keys: drbg.NewPointKeys(seed, ShareLabel, n)}
}

// padBuf is a caller's pad scratch: a node tag and a cipher block. A block
// cipher is an interface, so whatever it encrypts escapes; one buffer per
// block of keys keeps that off the per-value path.
type padBuf struct {
	tag, blk [aes.BlockSize]byte
}

// padWord is c_n(a) through the word sampler, for the node tagged buf.tag
// and the point key b: the first sample of the chain's first block, which
// is accepted but for one draw in 2^16 on F_257 (never less than half of
// them); otherwise the whole chain from its start through
// fastfield.RandVec, which rejects that sample again and reads on.
func padWord(ff *fastfield.Field, b cipher.Block, buf *padBuf) uint64 {
	drbg.FirstBlock(b, &buf.tag, &buf.blk)
	if v, ok := ff.Sample(buf.blk[:]); ok {
		return v
	}
	var v [1]uint64
	_ = ff.RandVec(drbg.NewChain(b, &buf.tag), v[:]) // a chain never fails
	return v[0]
}

// padBig is c_n(a) through the reference sampler: field.Rand reading the
// chain.
func padBig(f *field.Field, b cipher.Block, tag *[aes.BlockSize]byte) *big.Int {
	v, _ := f.Rand(drbg.NewChain(b, tag)) // a chain never fails
	return v
}

// vector returns the node's pad at every point a = 1 … p−1: through the
// word sampler when ff is non-nil, the reference sampler otherwise.
func (p *pads) vector(key drbg.NodeKey, ff *fastfield.Field) []uint64 {
	buf := new(padBuf)
	p.keys.Tag(&buf.tag, key)
	out := make([]uint64, p.n)
	for i := range out {
		b := p.keys.Point(uint64(i + 1))
		if ff != nil {
			out[i] = padWord(ff, b, buf)
		} else {
			out[i] = padBig(p.f, b, &buf.tag).Uint64()
		}
	}
	return out
}

// pointKeys looks up the key of every point, in order.
func (p *pads) pointKeys(fp *ring.FpCyclotomic, points []*big.Int) ([]cipher.Block, error) {
	out := make([]cipher.Block, len(points))
	for j, a := range points {
		x, err := fp.PackPoint(a)
		if err != nil {
			return nil, err
		}
		out[j] = p.keys.Point(x)
	}
	return out, nil
}
