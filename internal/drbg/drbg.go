// Package drbg provides a deterministic random bit generator (HMAC-SHA256,
// after NIST SP 800-90A's HMAC_DRBG construction) with hierarchical,
// path-keyed derivation.
//
// The scheme's client keeps only a 32-byte seed (§4.2 of the paper: "store
// only the random seed with which the random polynomials were generated").
// Derivation by node path lets the client regenerate the share of any single
// tree node in O(path length) work, without materialising the whole tree and
// without any per-node state.
package drbg

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"strconv"
	"strings"
)

// SeedSize is the seed length in bytes.
const SeedSize = 32

// Seed is the client's sole secret for share regeneration.
type Seed [SeedSize]byte

// NewSeed draws a fresh random seed from crypto/rand.
func NewSeed() (Seed, error) {
	var s Seed
	if _, err := io.ReadFull(rand.Reader, s[:]); err != nil {
		return Seed{}, fmt.Errorf("drbg: generating seed: %w", err)
	}
	return s, nil
}

// SeedFromBytes builds a Seed from exactly SeedSize bytes.
func SeedFromBytes(b []byte) (Seed, error) {
	var s Seed
	if len(b) != SeedSize {
		return s, fmt.Errorf("drbg: seed must be %d bytes, got %d", SeedSize, len(b))
	}
	copy(s[:], b)
	return s, nil
}

// SeedFromString parses a hex-encoded seed.
func SeedFromString(h string) (Seed, error) {
	b, err := hex.DecodeString(h)
	if err != nil {
		return Seed{}, fmt.Errorf("drbg: bad seed hex: %w", err)
	}
	return SeedFromBytes(b)
}

// String returns the hex encoding of the seed.
func (s Seed) String() string { return hex.EncodeToString(s[:]) }

// Generator is a deterministic stream of pseudo-random bytes. It implements
// io.Reader. A Generator is NOT safe for concurrent use; derive independent
// generators per goroutine instead.
type Generator struct {
	k [sha256.Size]byte
	v [sha256.Size]byte

	// HMAC(k, ·) is computed on two SHA-256 digests the generator owns for
	// its whole life, not through crypto/hmac: one share pad re-keys seven
	// times, and an hmac.New per key costs two digests, two pads and two
	// marshalled states — most of what a cold query would allocate.
	// istate and ostate are the digests' states after absorbing k^ipad and
	// k^opad, restored at the start of every HMAC instead of re-hashing
	// the pads. The output stream is bit-identical to HMAC_DRBG over
	// crypto/hmac (pinned by the tests).
	inner, outer   hash.Hash
	keyed          bool // istate and ostate belong to the current k
	istate, ostate []byte
	// Backing store and scratch live here because anything handed to a
	// hash.Hash method escapes.
	istore, ostore [stateCap]byte
	pad            [sha256.BlockSize]byte
	sum            [sha256.Size]byte
}

// stateCap holds a marshalled SHA-256 state (108 bytes) with room to spare.
const stateCap = 128

// binaryAppender is encoding.BinaryAppender (Go 1.24), spelled out so older
// toolchains build; their digests marshal into a fresh slice instead.
type binaryAppender interface {
	AppendBinary(b []byte) ([]byte, error)
}

// Domain-separation bytes of the HMAC_DRBG update function.
var sep0, sep1 = []byte{0x00}, []byte{0x01}

// New instantiates a generator from seed and an optional personalization
// string (domain separation between independent uses of the same seed).
func New(seed Seed, personalization []byte) *Generator {
	g := &Generator{inner: sha256.New(), outer: sha256.New()}
	for i := range g.v {
		g.v[i] = 0x01
	}
	// k starts all zero.
	g.update(append(seed[:], personalization...))
	return g
}

// keyedState absorbs k xor the HMAC pad byte into h and returns h's state,
// marshalled into store where the toolchain can. crypto/sha256 digests have
// marshalled since Go 1.10; one that does not is a broken build.
func (g *Generator) keyedState(h hash.Hash, padByte byte, store []byte) []byte {
	for i := range g.pad {
		g.pad[i] = padByte
	}
	for i, b := range g.k {
		g.pad[i] ^= b
	}
	h.Reset()
	h.Write(g.pad[:])
	var state []byte
	var err error
	if a, ok := h.(binaryAppender); ok {
		state, err = a.AppendBinary(store)
	} else {
		state, err = h.(encoding.BinaryMarshaler).MarshalBinary()
	}
	if err != nil {
		panic("drbg: saving SHA-256 state: " + err.Error())
	}
	return state
}

// restore puts h back into a state keyedState saved.
func restore(h hash.Hash, state []byte) {
	if err := h.(encoding.BinaryUnmarshaler).UnmarshalBinary(state); err != nil {
		panic("drbg: restoring SHA-256 state: " + err.Error())
	}
}

// hmacK is HMAC-SHA256(k, a || b || c).
func (g *Generator) hmacK(a, b, c []byte) (out [sha256.Size]byte) {
	if !g.keyed {
		g.istate = g.keyedState(g.inner, 0x36, g.istore[:0])
		g.ostate = g.keyedState(g.outer, 0x5c, g.ostore[:0])
		g.keyed = true
	}
	restore(g.inner, g.istate)
	g.inner.Write(a)
	g.inner.Write(b)
	g.inner.Write(c)
	digest := g.inner.Sum(g.sum[:0])
	restore(g.outer, g.ostate)
	g.outer.Write(digest)
	copy(out[:], g.outer.Sum(g.sum[:0]))
	return out
}

// update is the HMAC_DRBG state-update function.
func (g *Generator) update(data []byte) {
	g.k = g.hmacK(g.v[:], sep0, data)
	g.keyed = false
	g.v = g.hmacK(g.v[:], nil, nil)
	if len(data) == 0 {
		return
	}
	g.k = g.hmacK(g.v[:], sep1, data)
	g.keyed = false
	g.v = g.hmacK(g.v[:], nil, nil)
}

// Read fills p with deterministic pseudo-random bytes. It never fails.
func (g *Generator) Read(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		g.v = g.hmacK(g.v[:], nil, nil)
		c := copy(p, g.v[:])
		p = p[c:]
	}
	g.update(nil)
	return n, nil
}

var _ io.Reader = (*Generator)(nil)

// NodeKey identifies a tree node by its path of child indices from the
// root (the root itself is the empty path).
type NodeKey []uint32

// String renders a NodeKey like "/0/2/1" ("/" for the root).
func (k NodeKey) String() string {
	if len(k) == 0 {
		return "/"
	}
	var sb strings.Builder
	for _, c := range k {
		sb.WriteByte('/')
		sb.WriteString(strconv.FormatUint(uint64(c), 10))
	}
	return sb.String()
}

// Deriver produces independent per-node generators from one seed. It is
// safe for concurrent use (each call builds fresh state).
type Deriver struct {
	seed  Seed
	label []byte
}

// NewDeriver builds a Deriver with a domain-separation label (e.g.
// "sss/client-share/v1").
func NewDeriver(seed Seed, label string) *Deriver {
	return &Deriver{seed: seed, label: []byte(label)}
}

// ForNode returns a fresh deterministic generator for a node path. Distinct
// paths yield computationally independent streams; the same path always
// yields the identical stream.
func (d *Deriver) ForNode(key NodeKey) *Generator {
	// Unambiguous path encoding: varint length, then varint components.
	enc := make([]byte, 0, 8+len(key)*5+len(d.label))
	enc = append(enc, d.label...)
	enc = append(enc, 0x00)
	enc = binary.AppendUvarint(enc, uint64(len(key)))
	for _, c := range key {
		enc = binary.AppendUvarint(enc, uint64(c))
	}
	return New(d.seed, enc)
}

// Child extends a node key by one step. The receiver is not modified.
func (k NodeKey) Child(i uint32) NodeKey {
	out := make(NodeKey, len(k)+1)
	copy(out, k)
	out[len(k)] = i
	return out
}

// ErrShortSeed reports malformed seed material.
var ErrShortSeed = errors.New("drbg: short seed")
