// Package drbg provides the scheme's deterministic random bit generator:
// a 32-byte seed, and from it one independent byte stream per tree node,
// derived by node path.
//
// The scheme's client keeps only the seed (§4.2 of the paper: "store
// only the random seed with which the random polynomials were generated").
// Derivation by node path lets the client regenerate the share of any single
// tree node in O(path length) work, without materialising the whole tree and
// without any per-node state.
//
// A node's stream is the AES-256-CTR keystream, zero IV, under the key
// HMAC-SHA256(seed, label ‖ 0x00 ‖ path): one HMAC per node and one AES
// block per 16 bytes, and bytes that do not depend on how the reader
// chunks its reads. That is what a coefficient pad (the Z ring) draws
// from.
//
// A value-form pad is read off the node's chain under one key instead
// (PointKeys): the blocks AES_K(tag ‖ j) of a node tag, several point
// samples a block. A client writes a node's whole keystream in one call
// (Blocks), and what it adds to one server value is one AES block; a
// rejected sample falls back to a chain under a key of its point.
package drbg

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
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

// Stream is one node's share stream: the AES-256-CTR keystream under the
// node key with a zero IV, block i being AES(key, i) for the 128-bit
// big-endian counter i. Its bytes do not depend on how reads are chunked,
// so what a consumer draws is defined by the stream alone. It implements
// io.Reader and never fails. A Stream is NOT safe for concurrent use;
// derive one per goroutine instead.
type Stream struct {
	ctr cipher.Stream
}

// Read fills p with the next len(p) keystream bytes.
func (s *Stream) Read(p []byte) (int, error) {
	clear(p)
	s.ctr.XORKeyStream(p, p)
	return len(p), nil
}

var _ io.Reader = (*Stream)(nil)

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

// AppendBinary appends the key's compact binary form, one unsigned varint
// per component, to dst. A varint ends where its continuation bit clears,
// so distinct keys have distinct forms and a node's form extends its
// parent's: the form is what node-keyed maps are keyed by —
// m[string(k.AppendBinary(buf[:0]))] allocates nothing, where String
// renders decimal digits into a fresh string — and String is for people.
func (k NodeKey) AppendBinary(dst []byte) []byte {
	for _, c := range k {
		dst = binary.AppendUvarint(dst, uint64(c))
	}
	return dst
}

// Deriver produces independent per-node streams from one seed. It is safe
// for concurrent use (each call builds fresh state).
type Deriver struct {
	// HMAC-SHA256 under the seed, spelled out on sha256.Sum256 so that a
	// node key allocates nothing (crypto/hmac costs seven objects per key,
	// more than the rest of a pad):
	// inner is the seed's ipad block followed by the label, the fixed head
	// of every message; outer is its opad block.
	inner []byte
	outer [sha256.BlockSize]byte
}

// NewDeriver builds a Deriver with a domain-separation label (e.g.
// "sss/client-share/v3").
func NewDeriver(seed Seed, label string) *Deriver {
	d := &Deriver{inner: make([]byte, sha256.BlockSize, sha256.BlockSize+len(label))}
	for i := range d.outer {
		d.inner[i], d.outer[i] = 0x36, 0x5c
	}
	for i, b := range seed {
		d.inner[i] ^= b
		d.outer[i] ^= b
	}
	d.inner = append(d.inner, label...)
	return d
}

// block returns the AES-256 cipher keyed with HMAC-SHA256(seed, label ‖
// msg).
func (d *Deriver) block(msg []byte) cipher.Block {
	// The constant capacity keeps messages of usual length on the stack.
	buf := append(append(make([]byte, 0, 256), d.inner...), msg...)
	var outer [sha256.BlockSize + sha256.Size]byte
	copy(outer[:], d.outer[:])
	digest := sha256.Sum256(buf)
	copy(outer[sha256.BlockSize:], digest[:])
	key := sha256.Sum256(outer[:])
	block, err := aes.NewCipher(key[:])
	if err != nil {
		panic("drbg: AES-256 refused a 32-byte key: " + err.Error())
	}
	return block
}

// ForNode returns a fresh deterministic stream for a node path, keyed with
// HMAC-SHA256(seed, label ‖ 0x00 ‖ path). Distinct paths yield
// computationally independent streams; the same path always yields the
// identical stream.
func (d *Deriver) ForNode(key NodeKey) *Stream {
	// Unambiguous path encoding: varint length, then varint components.
	var buf [64]byte
	msg := key.AppendBinary(binary.AppendUvarint(append(buf[:0], 0x00), uint64(len(key))))
	var iv [aes.BlockSize]byte
	return &Stream{ctr: cipher.NewCTR(d.block(msg), iv[:])}
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
