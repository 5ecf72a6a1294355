package drbg

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"testing"
)

// refDRBG is HMAC_DRBG written straight from SP 800-90A over crypto/hmac,
// one hmac.New per call: the construction the Generator's two owned digests
// must reproduce bit for bit (every stored share depends on the stream).
type refDRBG struct{ k, v []byte }

func refMAC(k []byte, parts ...[]byte) []byte {
	m := hmac.New(sha256.New, k)
	for _, p := range parts {
		m.Write(p)
	}
	return m.Sum(nil)
}

func newRef(seed Seed, personalization []byte) *refDRBG {
	r := &refDRBG{k: make([]byte, sha256.Size), v: bytes.Repeat([]byte{0x01}, sha256.Size)}
	r.update(append(seed[:], personalization...))
	return r
}

func (r *refDRBG) update(data []byte) {
	r.k = refMAC(r.k, r.v, []byte{0x00}, data)
	r.v = refMAC(r.k, r.v)
	if len(data) == 0 {
		return
	}
	r.k = refMAC(r.k, r.v, []byte{0x01}, data)
	r.v = refMAC(r.k, r.v)
}

func (r *refDRBG) read(p []byte) {
	for len(p) > 0 {
		r.v = refMAC(r.k, r.v)
		p = p[copy(p, r.v):]
	}
	r.update(nil)
}

// katReads is a read pattern that crosses block boundaries, repeats the
// bulk-then-refill shape of fastfield.RandVec and includes an empty read.
var katReads = []int{1, 31, 32, 33, 512, 128, 128, 0, 5}

// katDigest is SHA-256 over the bytes of katStream as the one-hmac.New-per-
// call generator of PR 1–12 produced them.
const katDigest = "6e6af1cb4fa452a8525ce51f3241ca3b25705eb913f6db073fe99469137916db"

func katStream(h hash.Hash, read func(g *Generator, b []byte)) {
	g := New(testSeed(7), []byte("kat"))
	for _, n := range katReads {
		b := make([]byte, n)
		read(g, b)
		h.Write(b)
	}
	d := NewDeriver(testSeed(8), "sss/client-share/v2")
	for i := uint32(0); i < 50; i++ {
		b := make([]byte, 100)
		read(d.ForNode(NodeKey{i, i * 7, 3}), b)
		h.Write(b)
	}
}

func TestStreamKnownAnswer(t *testing.T) {
	h := sha256.New()
	katStream(h, func(g *Generator, b []byte) { g.Read(b) })
	if got := hex.EncodeToString(h.Sum(nil)); got != katDigest {
		t.Fatalf("stream digest %s, want %s: stored shares would no longer reconstruct", got, katDigest)
	}
}

func TestStreamMatchesReferenceHMACDRBG(t *testing.T) {
	for seed := byte(0); seed < 4; seed++ {
		for _, pers := range [][]byte{nil, []byte("p"), bytes.Repeat([]byte("long personalization "), 9)} {
			g, r := New(testSeed(seed), pers), newRef(testSeed(seed), pers)
			for _, n := range katReads {
				got, want := make([]byte, n), make([]byte, n)
				g.Read(got)
				r.read(want)
				if !bytes.Equal(got, want) {
					t.Fatalf("seed %d, personalization %q, read of %d: generator and reference HMAC_DRBG differ", seed, pers, n)
				}
			}
		}
	}
}

// TestReadDoesNotAllocate: the share-pad path draws ~1 KiB per node in five
// reads; none of them may leave garbage behind.
func TestReadDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	g := New(testSeed(1), nil)
	if _, ok := g.inner.(binaryAppender); !ok {
		t.Skip("digests of this toolchain marshal into a fresh slice (no AppendBinary before Go 1.24)")
	}
	buf := make([]byte, 512)
	if n := testing.AllocsPerRun(100, func() { g.Read(buf) }); n != 0 {
		t.Fatalf("Read allocates %.0f objects per call", n)
	}
}
