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
	point, err := aes.NewCipher(keyed(binary.AppendUvarint([]byte{0x02}, a)))
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
		point.Encrypt(blk[:], in[:])
		out = append(out, blk[:]...)
	}
	return out[:n]
}

// chain reads n bytes of the chain of (key, a) in the katReads pattern
// (block-crossing, bulk and empty reads).
func chain(k *PointKeys, key NodeKey, a uint64, n int) []byte {
	var tag [aes.BlockSize]byte
	k.Tag(&tag, key)
	c := NewChain(k.Point(a), &tag)
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

// readChain is chain, checking that FirstBlock is the chain's head.
func readChain(t *testing.T, k *PointKeys, key NodeKey, a uint64, n int) []byte {
	t.Helper()
	got := chain(k, key, a, max(n, aes.BlockSize))
	var tag, first [aes.BlockSize]byte
	k.Tag(&tag, key)
	FirstBlock(k.Point(a), &tag, &first)
	if !bytes.Equal(first[:], got[:aes.BlockSize]) {
		t.Fatalf("key %v point %d: FirstBlock is not the chain's first block", key, a)
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
