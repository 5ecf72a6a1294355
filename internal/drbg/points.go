package drbg

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"sync/atomic"
)

// PointKeys is the key schedule of a value-domain share stream. Over F_p a
// share is the vector of its values at the points a = 1 … n, so a pad is
// defined point by point, one short block chain per (node, point):
//
//   - K_id and every K_a are AES-256 keys: HMAC-SHA256(seed, label ‖ 0x01)
//     and HMAC-SHA256(seed, label ‖ 0x02 ‖ uvarint(a));
//   - a node's tag is the CBC-MAC under K_id of uvarint(len) ‖ path (the
//     varint path encoding of ForNode), zero-padded to whole blocks. The
//     encoding is prefix-free, so the padded messages are too and CBC-MAC
//     is a PRF on them;
//   - the chain of (node, a) is AES_{K_a}(tag[0:12] ‖ r) for r = 0, 1, …,
//     r a 32-bit big-endian counter (see Chain).
//
// Keying by point first is what lets a point's key be handed out alone. A
// client derives each K_a once, on first use, into a table indexed by a;
// a summand is then one block under it. Safe for concurrent use.
type PointKeys struct {
	d    *Deriver
	id   cipher.Block
	keys []atomic.Pointer[pointKey] // keys[a−1] holds K_a once derived
}

type pointKey struct{ cipher.Block }

// NewPointKeys builds the key schedule of the points 1 … n under label.
func NewPointKeys(seed Seed, label string, n int) *PointKeys {
	d := NewDeriver(seed, label)
	return &PointKeys{d: d, id: d.block([]byte{0x01}), keys: make([]atomic.Pointer[pointKey], n)}
}

// Point returns K_a, for 1 ≤ a ≤ n.
func (k *PointKeys) Point(a uint64) cipher.Block {
	slot := &k.keys[a-1]
	if pk := slot.Load(); pk != nil {
		return pk.Block
	}
	var buf [binary.MaxVarintLen64 + 1]byte
	// A racing derivation computes the same key: the first one stored wins.
	slot.CompareAndSwap(nil, &pointKey{k.d.block(binary.AppendUvarint(append(buf[:0], 0x02), a))})
	return slot.Load().Block
}

// Tag writes into tag the node's tag — the CBC-MAC under K_id of its
// encoded path — cut to the 12 bytes the chains use and followed by a
// zero counter: block 0's input of every chain of the node. One block of
// MAC covers a path of up to 15 components below 128. Whatever a block
// cipher encrypts escapes to the heap, so the caller provides the buffer
// and reuses it.
func (k *PointKeys) Tag(tag *[aes.BlockSize]byte, key NodeKey) {
	var buf [64]byte
	msg := key.AppendBinary(binary.AppendUvarint(buf[:0], uint64(len(key))))
	clear(tag[:])
	for len(msg) > 0 {
		var blk [aes.BlockSize]byte
		msg = msg[copy(blk[:], msg):]
		for i := range tag {
			tag[i] ^= blk[i]
		}
		k.id.Encrypt(tag[:], tag[:])
	}
	clear(tag[12:])
}

// Chain is the byte chain of one (node, point) pair: block r is
// AES_{K_a}(tag[0:12] ‖ r), r a 32-bit big-endian counter from 0 (see
// Tag). A pad is
// the first sample of it the sampler accepts; read as an io.Reader it is
// what the reference sampler draws from. Read never fails. A Chain is not
// safe for concurrent use.
type Chain struct {
	b   cipher.Block
	in  [aes.BlockSize]byte // tag[0:12] ‖ the next block's counter
	out [aes.BlockSize]byte
	off int // out[off:] is not read yet
}

// NewChain starts the chain of the node tagged tag under the point key b.
func NewChain(b cipher.Block, tag *[aes.BlockSize]byte) *Chain {
	c := &Chain{b: b, off: aes.BlockSize}
	copy(c.in[:12], tag[:12])
	return c
}

// FirstBlock writes block 0 of the chain into dst: what a word sampler
// draws from before it falls back to the chain. The input is tag itself,
// never written here, so a loop over points does not wait on it.
func FirstBlock(b cipher.Block, tag, dst *[aes.BlockSize]byte) {
	b.Encrypt(dst[:], tag[:])
}

// Read fills p with the next len(p) bytes of the chain.
func (c *Chain) Read(p []byte) (int, error) {
	for n := 0; n < len(p); {
		if c.off == len(c.out) {
			c.b.Encrypt(c.out[:], c.in[:])
			binary.BigEndian.PutUint32(c.in[12:], binary.BigEndian.Uint32(c.in[12:])+1)
			c.off = 0
		}
		m := copy(p[n:], c.out[c.off:])
		c.off += m
		n += m
	}
	return len(p), nil
}
