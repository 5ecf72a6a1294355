package sharing

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"math/big"
	"testing"

	"sssearch/internal/drbg"
	"sssearch/internal/field"
	"sssearch/internal/ring"
)

// samplerPrimes are the rings the sampler-exactness tests cover: one-byte
// samples (F_5, F_11, F_101), two-byte ones with a one-in-2^16 reject
// (F_257) and with a deep reject band (F_12289: 65536 mod 12289 = 4091).
var samplerPrimes = []uint64{5, 11, 101, 257, 12289}

// TestPointPadMatchesReference: the word sampler and field.Rand, reading
// the same (node, point) chain, draw the same pad — at every point of
// F_5, F_11 and F_101 and a spread of F_257 and F_12289, on nodes of one
// and of several tag blocks.
func TestPointPadMatchesReference(t *testing.T) {
	keys := []drbg.NodeKey{nil, {0}, {3, 1, 4}, make(drbg.NodeKey, 20)}
	for _, p := range samplerPrimes {
		fp := ring.MustFp(p)
		pd := newPads(fp, testSeed(byte(p)))
		buf := new(padBuf)
		for _, key := range keys {
			pd.keys.Tag(&buf.tag, key)
			for a := uint64(1); a < p; a += 1 + p/300 {
				b := pd.keys.Point(a)
				if got, want := padWord(fp.Fast(), b, buf), padBig(fp.Field(), b, &buf.tag); want.Cmp(new(big.Int).SetUint64(got)) != 0 {
					t.Fatalf("F_%d node %s point %d: word sampler %d, field.Rand %s", p, key, a, got, want)
				}
			}
		}
	}
}

// scripted is a block cipher whose chain starts with the given blocks and
// continues with real AES blocks, so a scripted rejection is always
// followed by an accepted sample eventually.
type scripted struct {
	blocks [][aes.BlockSize]byte
	rest   cipher.Block
}

func newScripted(blocks ...[aes.BlockSize]byte) *scripted {
	rest, _ := aes.NewCipher(make([]byte, 32))
	return &scripted{blocks: blocks, rest: rest}
}

func (s *scripted) BlockSize() int          { return aes.BlockSize }
func (s *scripted) Decrypt(dst, src []byte) { panic("unused") }
func (s *scripted) Encrypt(dst, src []byte) {
	if r := binary.BigEndian.Uint32(src[12:]); int(r) < len(s.blocks) {
		copy(dst, s.blocks[r][:])
		return
	}
	s.rest.Encrypt(dst, src)
}

// allReject is a block of samples that every ring here rejects: 0xFF…
// is at or above p·⌊2^w/p⌋ for w = 8 and w = 16 alike.
func allReject() (b [aes.BlockSize]byte) {
	for i := range b {
		b[i] = 0xFF
	}
	return b
}

// TestPointPadRetryChain: a first block whose every sample is rejected
// sends the word sampler down the chain, where it draws what field.Rand
// draws: the first accepted sample of the second block (or later ones).
func TestPointPadRetryChain(t *testing.T) {
	for _, p := range samplerPrimes {
		fp := ring.MustFp(p)
		second := [aes.BlockSize]byte{0x12, 0x34, 0x56}
		for _, b := range []*scripted{
			newScripted(allReject(), second),
			newScripted(allReject(), allReject(), allReject()),
		} {
			buf := new(padBuf)
			got := padWord(fp.Fast(), b, buf)
			if want := padBig(fp.Field(), b, &buf.tag); want.Uint64() != got {
				t.Fatalf("F_%d: after a rejected block the word sampler drew %d, field.Rand %s", p, got, want)
			}
		}
		// The retry is taken: the second block's first sample decides.
		sb := (fp.P().BitLen() + 7) / 8
		var v uint64
		for _, c := range second[:sb] {
			v = v<<8 | uint64(c)
		}
		if got := padWord(fp.Fast(), newScripted(allReject(), second), new(padBuf)); got != v%p {
			t.Fatalf("F_%d: retry drew %d, the second block's first sample is %d", p, got, v%p)
		}
	}
}

// TestPointPadPreimages: over every value of a w-bit first sample, the
// word sampler accepts exactly p·⌊2^w/p⌋ of them and every residue exactly
// ⌊2^w/p⌋ times — the exact uniformity the hiding argument rests on — and
// what it accepts is the sample mod p.
func TestPointPadPreimages(t *testing.T) {
	for _, p := range []uint64{5, 11, 101, 257} {
		fp := ring.MustFp(p)
		w := uint(8 * ((fp.P().BitLen() + 7) / 8))
		counts := make([]uint64, p)
		accepted := uint64(0)
		for v := uint64(0); v < 1<<w; v++ {
			var b [aes.BlockSize]byte
			for i := uint(0); i < w/8; i++ {
				b[i] = byte(v >> (w - 8 - 8*i))
			}
			got, ok := fp.Fast().Sample(b[:])
			if !ok {
				continue
			}
			if got != v%p {
				t.Fatalf("F_%d: sample %d gave %d", p, v, got)
			}
			if pad := padWord(fp.Fast(), newScripted(b), new(padBuf)); pad != got {
				t.Fatalf("F_%d: an accepted first sample %d gave the pad %d", p, v, pad)
			}
			counts[got]++
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

// FuzzPointPad drives the word sampler and field.Rand over the same
// scripted chain — any first and second block, then real AES — on a ring
// chosen by the input: they must draw the same pad.
func FuzzPointPad(f *testing.F) {
	ff := allReject()
	f.Add(uint8(0), ff[:], []byte{1, 2, 3})
	f.Add(uint8(3), ff[:], ff[:])
	f.Add(uint8(4), []byte{0xEF, 0xFF}, []byte{0xCF, 0xFE, 0x00})
	f.Add(uint8(1), []byte{0xFA}, []byte{})
	f.Fuzz(func(t *testing.T, which uint8, first, second []byte) {
		p := samplerPrimes[int(which)%len(samplerPrimes)]
		fp := ring.MustFp(p)
		var b1, b2 [aes.BlockSize]byte
		copy(b1[:], first)
		copy(b2[:], second)
		b := newScripted(b1, b2)
		buf := new(padBuf)
		got := padWord(fp.Fast(), b, buf)
		want, err := field.MustNew(p).Rand(drbg.NewChain(b, &buf.tag))
		if err != nil || want.Uint64() != got {
			t.Fatalf("F_%d: word sampler %d, field.Rand %v (%v)", p, got, want, err)
		}
	})
}
