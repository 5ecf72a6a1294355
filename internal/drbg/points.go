package drbg

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"sync/atomic"
)

// PointKeys is the key schedule of a value-domain share stream. Over F_p a
// share is the vector of its values at the points a = 1 … n, and a node's
// pad is read off one keystream per node, under one key:
//
//   - K, K_id and every K_a are AES-256 keys: HMAC-SHA256(seed, label ‖
//     0x03), HMAC-SHA256(seed, label ‖ 0x01) and HMAC-SHA256(seed, label ‖
//     0x02 ‖ uvarint(a));
//   - a node's tag is the CBC-MAC under K_id of uvarint(len) ‖ path (the
//     varint path encoding of ForNode), zero-padded to whole blocks. The
//     encoding is prefix-free, so the padded messages are too and CBC-MAC
//     is a PRF on them;
//   - the node's keystream is the chain AES_K(tag[0:12] ‖ j) for j = 0, 1,
//     …, j a 32-bit big-endian counter (see Chain). The samples of every
//     point sit side by side in it;
//   - the chain of (node, a) under K_a is where a sample the sampler
//     rejects falls back to.
//
// A client derives K and K_id at construction and each K_a once, on first
// use, into a table indexed by a. Safe for concurrent use.
type PointKeys struct {
	d    *Deriver
	id   cipher.Block
	node cipher.Block
	keys []atomic.Pointer[pointKey] // keys[a−1] holds K_a once derived
}

type pointKey struct{ cipher.Block }

// NewPointKeys builds the key schedule of the points 1 … n under label.
func NewPointKeys(seed Seed, label string, n int) *PointKeys {
	d := NewDeriver(seed, label)
	return &PointKeys{
		d:    d,
		id:   d.block([]byte{0x01}),
		node: d.block([]byte{0x03}),
		keys: make([]atomic.Pointer[pointKey], n),
	}
}

// Node returns K, the key of every node's keystream.
func (k *PointKeys) Node() cipher.Block { return k.node }

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
	var buf [80]byte
	msg := key.AppendBinary(binary.AppendUvarint(buf[:0], uint64(len(key))))
	// Zero-pad to whole blocks. The bytes past msg are zero already — buf's,
	// or those append clears when it grows a slice.
	if n := (len(msg) + aes.BlockSize - 1) &^ (aes.BlockSize - 1); n <= cap(msg) {
		msg = msg[:n]
	} else {
		msg = append(msg, make([]byte, n-len(msg))...)
	}
	var lo, hi uint64 // the chaining value, in little-endian words
	for ; len(msg) > 0; msg = msg[aes.BlockSize:] {
		binary.LittleEndian.PutUint64(tag[:8], lo^binary.LittleEndian.Uint64(msg[:8]))
		binary.LittleEndian.PutUint64(tag[8:], hi^binary.LittleEndian.Uint64(msg[8:16]))
		k.id.Encrypt(tag[:], tag[:])
		lo, hi = binary.LittleEndian.Uint64(tag[:8]), binary.LittleEndian.Uint64(tag[8:])
	}
	binary.LittleEndian.PutUint32(tag[12:], 0)
}

// NodeChain returns the node's keystream: the chain of its tag under K.
func (k *PointKeys) NodeChain(key NodeKey) *Chain {
	c := &Chain{b: k.node, off: aes.BlockSize}
	k.Tag(&c.in, key)
	return c
}

// Chain is the byte chain of a node tag under one key: block j is
// AES_b(tag[0:12] ‖ j), j a 32-bit big-endian counter from 0 (see Tag).
// Under K it is a node's keystream, under K_a the fallback of its sample
// at a; read as an io.Reader it is what the reference sampler draws from.
// Read never fails. A Chain is not safe for concurrent use.
type Chain struct {
	b   cipher.Block
	in  [aes.BlockSize]byte // tag[0:12] ‖ the next block's counter
	out [aes.BlockSize]byte
	off int // out[off:] is not read yet
}

// NewChain starts the chain of the node tagged tag under the key b.
func NewChain(b cipher.Block, tag *[aes.BlockSize]byte) *Chain {
	c := &Chain{b: b, off: aes.BlockSize}
	copy(c.in[:12], tag[:12])
	return c
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

// putInput writes the block input tag[0:12] ‖ j into in, the tag given as
// its little-endian words lo (bytes 0–7) and mid (8–11).
func putInput(in []byte, lo uint64, mid, j uint32) {
	_ = in[15]
	binary.LittleEndian.PutUint64(in, lo)
	binary.LittleEndian.PutUint32(in[8:], mid)
	binary.BigEndian.PutUint32(in[12:], j)
}

// Blocks writes block js[i] of the chain of the node tagged tag under b
// into dst[16i : 16i+16], for every i: a node's whole keystream when js is
// 0 … n−1, or the blocks a query's points read. It writes every block's
// input before it encrypts the first (in place), so no Encrypt reads a
// counter stored just before it.
func Blocks(b cipher.Block, tag *[aes.BlockSize]byte, js []uint32, dst []byte) {
	lo, mid := binary.LittleEndian.Uint64(tag[:8]), binary.LittleEndian.Uint32(tag[8:12])
	for i, j := range js {
		putInput(dst[i*aes.BlockSize:(i+1)*aes.BlockSize], lo, mid, j)
	}
	for i := range js {
		blk := dst[i*aes.BlockSize : (i+1)*aes.BlockSize]
		b.Encrypt(blk, blk)
	}
}
