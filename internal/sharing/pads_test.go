package sharing

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"math/big"
	"sync/atomic"
	"testing"

	"sssearch/internal/drbg"
	"sssearch/internal/ring"
)

// samplerPrimes are the rings the sampler-exactness tests cover: one-byte
// samples (F_5, F_17, F_251: 256 mod 251 = 5), two-byte ones with a
// one-in-2^16 reject (F_257) and with a deep reject band (F_12289: 65536
// mod 12289 = 4091), and three-byte ones (F_65537), where w does not
// divide 16 and a keystream block holds five samples and a spare byte.
var samplerPrimes = []uint64{5, 17, 251, 257, 12289, 65537}

// refPrefix is how many points of a ring the reference sampler is asked
// for: all of them but on F_65537, whose 65,536 big.Int draws a node
// would dominate the package's test time.
func refPrefix(p uint64) int { return int(min(p-1, 1200)) }

// refPads is the node's pads at the points 1 … count through the
// reference sampler, one point at a time.
func refPads(pd *pads, key drbg.NodeKey, count int) []uint64 {
	tag := new([aes.BlockSize]byte)
	pd.keys.Tag(tag, key)
	out := make([]uint64, count)
	for i := range out {
		out[i] = pd.refPad(tag, uint64(i+1)).Uint64()
	}
	return out
}

// checkSamplers holds every sampler of the node to the reference one:
// the word kernel's pads (words), its shares of a zero vector (split), a
// query's summands (eval, at a spread of points including two in one
// block) and the reference vector, against field.Rand one point at a
// time.
func checkSamplers(t *testing.T, fp *ring.FpCyclotomic, pd *pads, key drbg.NodeKey) {
	t.Helper()
	p := fp.P().Uint64()
	want := refPads(pd, key, refPrefix(p))
	ff := fp.Fast()
	got := make([]uint64, pd.n)
	pd.words(ff, got, key)
	share := make([]byte, pd.n*pd.w)
	pd.split(ff, share, make([]uint64, pd.n), key)
	var ref []uint64
	if pd.n <= 12288 {
		ref = pd.refVector(key)
	}
	for i, v := range want {
		if got[i] != v {
			t.Fatalf("F_%d node %s point %d: word sampler %d, field.Rand %d", p, key, i+1, got[i], v)
		}
		if s := getValue(share, pd.w, i); (s+v)%p != 0 {
			t.Fatalf("F_%d node %s point %d: the write kernel subtracted %d, the pad is %d", p, key, i+1, (p-s)%p, v)
		}
		if ref != nil && ref[i] != v {
			t.Fatalf("F_%d node %s point %d: reference vector %d, field.Rand %d", p, key, i+1, ref[i], v)
		}
	}
	var points []*big.Int
	for a := uint64(1); a < uint64(len(want)); a += 1 + uint64(len(want))/40 {
		// a, its neighbour (most often in the same block) and a again as p + a.
		points = append(points, new(big.Int).SetUint64(a), new(big.Int).SetUint64(a+1), new(big.Int).SetUint64(a+p))
	}
	e, err := pd.evalPlan(fp, points)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]uint64, len(points))
	pd.eval(ff, e, key, row)
	for j, a := range points {
		if x := a.Uint64() % p; row[j] != got[x-1] {
			t.Fatalf("F_%d node %s point %d: a query's summand %d, the pad %d", p, key, x, row[j], got[x-1])
		}
	}
}

// TestPointPadMatchesReference: the word sampler and field.Rand, reading
// the same v5 keystream and fallback chains, draw the same pads — at every
// point of F_5 … F_12289 and the head of F_65537, on nodes of one and of
// several tag blocks.
func TestPointPadMatchesReference(t *testing.T) {
	keys := []drbg.NodeKey{nil, {0}, {3, 1, 4}, make(drbg.NodeKey, 20)}
	for _, p := range samplerPrimes {
		fp := ring.MustFp(p)
		pd := newPads(fp, testSeed(byte(p)))
		for _, key := range keys {
			checkSamplers(t, fp, pd, key)
		}
	}
}

// scripted is a block cipher whose chain starts with the given blocks and
// continues with real AES blocks, so a scripted rejection is always
// followed by an accepted sample eventually. It ignores the tag, so it
// scripts every node's chain alike.
type scripted struct {
	blocks [][aes.BlockSize]byte
	rest   cipher.Block
	used   atomic.Int64 // Encrypt calls
}

func newScripted(blocks ...[aes.BlockSize]byte) *scripted {
	rest, _ := aes.NewCipher(make([]byte, 32))
	return &scripted{blocks: blocks, rest: rest}
}

func (s *scripted) BlockSize() int          { return aes.BlockSize }
func (s *scripted) Decrypt(dst, src []byte) { panic("unused") }
func (s *scripted) Encrypt(dst, src []byte) {
	s.used.Add(1)
	if r := binary.BigEndian.Uint32(src[12:]); int(r) < len(s.blocks) {
		copy(dst, s.blocks[r][:])
		return
	}
	s.rest.Encrypt(dst, src)
}

// allReject is a block of samples that every ring here rejects: 0xFF…
// is at or above p·⌊2^{8w}/p⌋ for every w, as p never divides 2^{8w}.
func allReject() (b [aes.BlockSize]byte) {
	for i := range b {
		b[i] = 0xFF
	}
	return b
}

// rejectAll scripts a whole keystream of the ring's pads: every sample of
// every block is rejected, so every pad falls back to its chain.
func rejectAll(pd *pads) *scripted {
	blocks := make([][aes.BlockSize]byte, pd.nblk)
	for i := range blocks {
		blocks[i] = allReject()
	}
	return newScripted(blocks...)
}

// TestPointPadRetryChain: a keystream whose every sample is rejected
// sends every point down its fallback chain, where the word sampler draws
// what field.Rand draws: the first accepted sample of the chain's second
// block when its first is rejected too, or later ones.
func TestPointPadRetryChain(t *testing.T) {
	for _, p := range samplerPrimes {
		fp := ring.MustFp(p)
		pd := newPads(fp, testSeed(3))
		pd.k = rejectAll(pd)
		checkSamplers(t, fp, pd, drbg.NodeKey{1, 2})
		second := [aes.BlockSize]byte{0x12, 0x34, 0x56}
		for _, chain := range []*scripted{
			newScripted(allReject(), second),
			newScripted(allReject(), allReject(), allReject()),
		} {
			pd.point = func(uint64) cipher.Block { return chain }
			checkSamplers(t, fp, pd, drbg.NodeKey{1, 2})
		}
		// The retry is taken: the chain's second block's first sample decides.
		// (Where w does not divide 16 a chain sample straddles its blocks.)
		if aes.BlockSize%pd.w != 0 {
			continue
		}
		var v uint64
		for _, c := range second[:pd.w] {
			v = v<<8 | uint64(c)
		}
		chain := newScripted(allReject(), second)
		pd.point = func(uint64) cipher.Block { return chain }
		got := make([]uint64, pd.n)
		pd.words(fp.Fast(), got, drbg.NodeKey{1, 2})
		for i, g := range got {
			if g != v%p {
				t.Fatalf("F_%d point %d: retry drew %d, the chain's second block's first sample is %d", p, i+1, g, v%p)
			}
		}
	}
}

// TestSplitFallbackMatchesSequential: on an all-reject keystream every
// pad of every node comes from its fallback chain, and Split at every
// Parallelism still matches SplitSequential byte for byte, and a seed
// client on the same keystream regenerates the pads Split subtracted.
func TestSplitFallbackMatchesSequential(t *testing.T) {
	for _, p := range []uint64{17, 257, 12289} {
		fp := ring.MustFp(p)
		nodes := 60
		if p == 12289 {
			nodes = 6
		}
		enc, seed := parallelFixture(t, fp, nodes, 11, "fallback")
		ref := newSplitter(fp, seed, false)
		ref.pads.k = rejectAll(ref.pads)
		want, err := ref.sequential(enc.Root)
		if err != nil {
			t.Fatal(err)
		}
		wantBytes, _ := want.MarshalBinary()
		for _, par := range []int{1, 2, 8} {
			s := newSplitter(fp, seed, true)
			s.pads.k = rejectAll(s.pads)
			got, err := s.split(enc.Root, par)
			if err != nil {
				t.Fatal(err)
			}
			if gotBytes, _ := got.MarshalBinary(); !bytes.Equal(gotBytes, wantBytes) {
				t.Fatalf("F_%d par %d: the fallback split differs from the sequential reference", p, par)
			}
		}
		c := NewSeedClient(fp, seed)
		c.pads.k = rejectAll(c.pads)
		want.Walk(func(key drbg.NodeKey, n *Node) bool {
			pad, _, err := c.PackedShare(key)
			if err != nil {
				t.Fatal(err)
			}
			orig, err := enc.Lookup(key)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range fp.Values(orig.Poly) {
				if (want.Value(n, i)+pad[i])%p != v {
					t.Fatalf("F_%d node %s point %d: client + server is not the encoded value", p, key, i+1)
				}
			}
			return true
		})
	}
}

// TestPointPadPreimages: over every value of a w-byte sample, the word
// sampler accepts exactly p·⌊2^{8w}/p⌋ of them — it reads no fallback
// chain — and every residue exactly ⌊2^{8w}/p⌋ times, the exact
// uniformity the hiding argument rests on; what it accepts is the sample
// mod p.
func TestPointPadPreimages(t *testing.T) {
	for _, p := range []uint64{5, 17, 251, 257} {
		fp := ring.MustFp(p)
		pd := newPads(fp, testSeed(9))
		tripwire, keys := newScripted(), pd.point
		pd.point = func(a uint64) cipher.Block {
			if a == 1 {
				return tripwire
			}
			return keys(a)
		}
		w := uint(8 * pd.w)
		counts := make([]uint64, p)
		accepted := uint64(0)
		got := make([]uint64, pd.n)
		for v := uint64(0); v < 1<<w; v++ {
			var b [aes.BlockSize]byte
			for i := uint(0); i < w/8; i++ {
				b[i] = byte(v >> (w - 8 - 8*i))
			}
			pd.k = newScripted(b) // the rest of block 0 is zeros: accepted
			before := tripwire.used.Load()
			pd.words(fp.Fast(), got, nil)
			if tripwire.used.Load() != before {
				continue
			}
			if got[0] != v%p {
				t.Fatalf("F_%d: sample %d gave %d", p, v, got[0])
			}
			counts[got[0]]++
			accepted++
		}
		per := (uint64(1) << w) / p
		if accepted != p*per {
			t.Fatalf("F_%d: %d of 2^%d samples accepted, want %d", p, accepted, w, p*per)
		}
		for r, c := range counts {
			if c != per {
				t.Fatalf("F_%d: residue %d has %d preimages, want %d", p, r, c, per)
			}
		}
	}
}

// shareStreamKAT is the first 16 pads of share stream v5 on F_257 for the
// seed testSeed(0x5A) and the node /3/1/4/1/5: the values every stored
// F_257 share depends on.
var shareStreamKAT = []uint64{162, 161, 23, 241, 77, 72, 118, 67, 210, 100, 173, 88, 22, 208, 21, 47}

// TestShareStreamKnownAnswer pins the v5 layout: the word sampler and the
// reference sampler both regenerate the recorded pads.
func TestShareStreamKnownAnswer(t *testing.T) {
	fp := ring.MustFp(257)
	pd := newPads(fp, testSeed(0x5A))
	key := drbg.NodeKey{3, 1, 4, 1, 5}
	got := make([]uint64, pd.n)
	pd.words(fp.Fast(), got, key)
	ref := refPads(pd, key, len(shareStreamKAT))
	for i, want := range shareStreamKAT {
		if got[i] != want || ref[i] != want {
			t.Fatalf("point %d: word sampler %d, reference %d, want %d: stored shares would no longer reconstruct", i+1, got[i], ref[i], want)
		}
	}
}

// FuzzPointPad drives the word sampler and field.Rand over scripted
// streams — any first block of every node keystream, any first block of
// every fallback chain, then real AES — on a ring chosen by the input:
// they must draw the same pads. The named corpus entries script block 0
// of the keystream (first) and of each fallback chain (second).
func FuzzPointPad(f *testing.F) {
	ff := allReject()
	f.Add(uint8(0), ff[:], []byte{1, 2, 3})
	f.Add(uint8(3), ff[:], ff[:])
	f.Add(uint8(4), []byte{0xEF, 0xFF}, []byte{0xCF, 0xFE, 0x00})
	f.Add(uint8(5), []byte{0xFF, 0x00, 0xFF, 0xFF, 0xFF, 0xFF}, []byte{0xFF, 0x00, 0xFE})
	rings := make([]*ring.FpCyclotomic, len(samplerPrimes))
	for i, p := range samplerPrimes {
		rings[i] = ring.MustFp(p)
	}
	f.Fuzz(func(t *testing.T, which uint8, first, second []byte) {
		fp := rings[int(which)%len(rings)]
		var b1, b2 [aes.BlockSize]byte
		copy(b1[:], first)
		copy(b2[:], second)
		pd := newPads(fp, testSeed(which))
		pd.k = newScripted(b1)
		chain := newScripted(b2)
		pd.point = func(uint64) cipher.Block { return chain }
		checkSamplers(t, fp, pd, drbg.NodeKey{7})
	})
}
