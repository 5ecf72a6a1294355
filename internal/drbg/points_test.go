package drbg

import (
	"bytes"
	"crypto/aes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sync"
	"testing"
)

// refPointChain is the first n bytes of the chain of (key, a) written
// straight from the definition: K_id and K_a through crypto/hmac, the tag
// as a CBC-MAC over the zero-padded uvarint(len) ‖ path, and block r the
// encryption of tag[0:12] ‖ r.
func refPointChain(seed Seed, label string, key NodeKey, a uint64, n int) []byte {
	return refChain(seed, label, binary.AppendUvarint([]byte{0x02}, a), key, n)
}

// refNodeStream is refPointChain for the node keystream: the chain under
// K = HMAC-SHA256(seed, label ‖ 0x03).
func refNodeStream(seed Seed, label string, key NodeKey, n int) []byte {
	return refChain(seed, label, []byte{0x03}, key, n)
}

// refChain is the first n bytes of the chain of key under the AES key
// HMAC-SHA256(seed, label ‖ sub).
func refChain(seed Seed, label string, sub []byte, key NodeKey, n int) []byte {
	keyed := func(msg []byte) []byte {
		mac := hmac.New(sha256.New, seed[:])
		mac.Write([]byte(label))
		mac.Write(msg)
		return mac.Sum(nil)
	}
	id, err := aes.NewCipher(keyed([]byte{0x01}))
	if err != nil {
		panic(err)
	}
	chainKey, err := aes.NewCipher(keyed(sub))
	if err != nil {
		panic(err)
	}
	msg := binary.AppendUvarint(nil, uint64(len(key)))
	for _, c := range key {
		msg = binary.AppendUvarint(msg, uint64(c))
	}
	for len(msg)%aes.BlockSize != 0 {
		msg = append(msg, 0)
	}
	tag := make([]byte, aes.BlockSize)
	for i := 0; i < len(msg); i += aes.BlockSize {
		for j := range tag {
			tag[j] ^= msg[i+j]
		}
		id.Encrypt(tag, tag)
	}
	clear(tag[12:])
	var out []byte
	for r := uint32(0); len(out) < n; r++ {
		var in, blk [aes.BlockSize]byte
		copy(in[:12], tag[:12])
		binary.BigEndian.PutUint32(in[12:], r)
		chainKey.Encrypt(blk[:], in[:])
		out = append(out, blk[:]...)
	}
	return out[:n]
}

// chain reads n bytes of the chain of (key, a) in the katReads pattern
// (block-crossing, bulk and empty reads).
func chain(k *PointKeys, key NodeKey, a uint64, n int) []byte {
	var tag [aes.BlockSize]byte
	k.Tag(&tag, key)
	return readPattern(NewChain(k.Point(a), &tag), n)
}

// readPattern reads n bytes of c in the katReads pattern.
func readPattern(c *Chain, n int) []byte {
	var got []byte
	for len(got) < n {
		for _, m := range katReads {
			b := make([]byte, m)
			c.Read(b)
			got = append(got, b...)
		}
	}
	return got[:n]
}

// readChain is chain, checking that Blocks writes the chain's blocks.
func readChain(t *testing.T, k *PointKeys, key NodeKey, a uint64, n int) []byte {
	t.Helper()
	got := chain(k, key, a, max(n, 3*aes.BlockSize))
	var tag [aes.BlockSize]byte
	k.Tag(&tag, key)
	head := make([]byte, 3*aes.BlockSize)
	Blocks(k.Point(a), &tag, []uint32{0, 1, 2}, head)
	if !bytes.Equal(head, got[:len(head)]) {
		t.Fatalf("key %v point %d: Blocks 0, 1, 2 are not the chain's head", key, a)
	}
	Blocks(k.Point(a), &tag, []uint32{2, 0}, head[:2*aes.BlockSize])
	if !bytes.Equal(head[:aes.BlockSize], got[2*aes.BlockSize:3*aes.BlockSize]) || !bytes.Equal(head[aes.BlockSize:2*aes.BlockSize], got[:aes.BlockSize]) {
		t.Fatalf("key %v point %d: Blocks are not the chain's blocks", key, a)
	}
	return got[:n]
}

// TestPointChainMatchesReference: every stored value share depends on the
// key schedule reproducing its definition byte for byte — paths of one
// block and of several, small and large points, any label.
func TestPointChainMatchesReference(t *testing.T) {
	keys := []NodeKey{nil, {0}, {1, 2}, {12}, {256, 1 << 31, 7, 0, 0, 3}, make(NodeKey, 40)}
	for seed := byte(0); seed < 3; seed++ {
		for _, label := range []string{"", "sss/client-share/v4"} {
			k := NewPointKeys(testSeed(seed), label, 1<<20)
			for _, key := range keys {
				for _, a := range []uint64{1, 2, 127, 128, 256, 1 << 20} {
					if got, want := readChain(t, k, key, a, 100), refPointChain(testSeed(seed), label, key, a, 100); !bytes.Equal(got, want) {
						t.Fatalf("seed %d label %q key %v point %d: the chain differs from its definition", seed, label, key, a)
					}
				}
			}
		}
	}
}

// TestNodeKeystreamMatchesReference: the share stream v5 keystream of a
// node — NodeChain read in the katReads pattern, and Blocks after the
// node's tag, in order and not — reproduces its definition byte for byte.
func TestNodeKeystreamMatchesReference(t *testing.T) {
	long := make(NodeKey, 30) // 151 bytes of path: past Tag's buffer
	for i := range long {
		long[i] = 1<<31 + uint32(i)
	}
	keys := []NodeKey{nil, {0}, {1, 2}, {256, 1 << 31, 7, 0, 0, 3}, make(NodeKey, 40), long}
	for seed := byte(0); seed < 3; seed++ {
		for _, label := range []string{"", "sss/client-share/v5"} {
			k := NewPointKeys(testSeed(seed), label, 0)
			for _, key := range keys {
				want := refNodeStream(testSeed(seed), label, key, 40*aes.BlockSize)
				if got := readPattern(k.NodeChain(key), len(want)); !bytes.Equal(got, want) {
					t.Fatalf("seed %d label %q key %v: NodeChain differs from its definition", seed, label, key)
				}
				var tag [aes.BlockSize]byte
				k.Tag(&tag, key)
				got := make([]byte, len(want))
				seq := make([]uint32, len(want)/aes.BlockSize)
				for j := range seq {
					seq[j] = uint32(j)
				}
				Blocks(k.Node(), &tag, seq, got)
				if !bytes.Equal(got, want) {
					t.Fatalf("seed %d label %q key %v: the keystream differs from its definition", seed, label, key)
				}
				Blocks(k.Node(), &tag, []uint32{39, 7, 7}, got[:3*aes.BlockSize])
				for i, j := range []int{39, 7, 7} {
					if !bytes.Equal(got[i*aes.BlockSize:(i+1)*aes.BlockSize], want[j*aes.BlockSize:(j+1)*aes.BlockSize]) {
						t.Fatalf("seed %d label %q key %v: Blocks[%d] is not block %d", seed, label, key, i, j)
					}
				}
			}
		}
	}
}

// pointKATDigest is SHA-256 over the chains of pointKAT.
const pointKATDigest = "421e60e6fcca1a28b02380cc7821f0c418b03c5b21c65244d15bc78124f4f75a"

func pointKAT(t *testing.T) string {
	h := sha256.New()
	k := NewPointKeys(testSeed(8), "sss/client-share/v4", 256)
	for i := uint32(0); i < 50; i++ {
		h.Write(readChain(t, k, NodeKey{i, i * 7, 3}, uint64(1+i*5), 40))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestPointChainKnownAnswer(t *testing.T) {
	if got := pointKAT(t); got != pointKATDigest {
		t.Fatalf("chain digest %s, want %s: stored shares would no longer reconstruct", got, pointKATDigest)
	}
}

// TestPointKeysDistinct: distinct points, nodes and labels give distinct
// chains.
func TestPointKeysDistinct(t *testing.T) {
	k := NewPointKeys(testSeed(5), "a", 8)
	other := NewPointKeys(testSeed(5), "b", 8)
	seen := map[string]string{}
	for _, key := range []NodeKey{nil, {0}, {0, 0}, {1, 2}, {12}} {
		for a := uint64(1); a <= 8; a++ {
			for name, keys := range map[string]*PointKeys{"a": k, "b": other} {
				c := string(readChain(t, keys, key, a, 32))
				id := name + key.String() + string(rune('0'+a))
				if prev, dup := seen[c]; dup {
					t.Fatalf("chains %s and %s coincide", prev, id)
				}
				seen[c] = id
			}
		}
	}
}

// TestPointKeysConcurrent: point keys are derived on first use by whoever
// asks first; every caller must see the key a lone caller gets.
func TestPointKeysConcurrent(t *testing.T) {
	want := NewPointKeys(testSeed(4), "concurrent", 64)
	k := NewPointKeys(testSeed(4), "concurrent", 64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < 64; j++ {
				a := uint64((j+w*7)%64 + 1)
				if !bytes.Equal(chain(k, NodeKey{uint32(j)}, a, 20), chain(want, NodeKey{uint32(j)}, a, 20)) {
					t.Errorf("worker %d: point %d differs under concurrency", w, a)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
