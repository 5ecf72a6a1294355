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

// refStream is a node's share stream written straight from its definition:
// the node key through crypto/hmac over label ‖ 0x00 ‖ path, and the
// keystream one counter block at a time through cipher.Block.Encrypt, block
// i being the encryption of first+i as a 128-bit big-endian integer. The
// definition has first = 0; every stored share depends on Deriver.ForNode
// reproducing these bytes.
func refStream(seed Seed, label string, key NodeKey, first uint64, n int) []byte {
	msg := append([]byte(label), 0x00)
	msg = binary.AppendUvarint(msg, uint64(len(key)))
	for _, c := range key {
		msg = binary.AppendUvarint(msg, uint64(c))
	}
	mac := hmac.New(sha256.New, seed[:])
	mac.Write(msg)
	block, err := aes.NewCipher(mac.Sum(nil))
	if err != nil {
		panic(err)
	}
	out := make([]byte, 0, n+aes.BlockSize)
	for i := uint64(0); len(out) < n; i++ {
		var ctr, ks [aes.BlockSize]byte
		binary.BigEndian.PutUint64(ctr[8:], first+i)
		block.Encrypt(ks[:], ctr[:])
		out = append(out, ks[:]...)
	}
	return out[:n]
}

// katReads is a read pattern that crosses AES blocks, repeats the
// bulk-then-refill shape of fastfield.RandVec and includes an empty read.
var katReads = []int{1, 31, 32, 33, 512, 128, 128, 0, 5}

// katDigest is SHA-256 over the bytes of katStream under share stream v3.
const katDigest = "5d86e801b5ce767ceb7ba6bae973e1517d7da133c968f9a8eb884e1b8a4ff2a7"

func katStream() string {
	h := sha256.New()
	g := NewDeriver(testSeed(7), "kat").ForNode(nil)
	for _, n := range katReads {
		b := make([]byte, n)
		g.Read(b)
		h.Write(b)
	}
	d := NewDeriver(testSeed(8), "sss/client-share/v3")
	for i := uint32(0); i < 50; i++ {
		b := make([]byte, 100)
		d.ForNode(NodeKey{i, i * 7, 3}).Read(b)
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestStreamKnownAnswer(t *testing.T) {
	if got := katStream(); got != katDigest {
		t.Fatalf("stream digest %s, want %s: stored shares would no longer reconstruct", got, katDigest)
	}
}

func TestStreamMatchesReference(t *testing.T) {
	keys := []NodeKey{nil, {0}, {1, 2}, {12}, {256, 1 << 31, 7, 0, 0, 3}}
	total := 0
	for _, n := range katReads {
		total += n
	}
	for seed := byte(0); seed < 4; seed++ {
		for _, label := range []string{"", "p", "sss/client-share/v3", string(bytes.Repeat([]byte("long label "), 30))} {
			d := NewDeriver(testSeed(seed), label)
			for _, key := range keys {
				// One stream read in the katReads pattern against one
				// reference run: chunking and definition at once.
				want := refStream(testSeed(seed), label, key, 0, total)
				g := d.ForNode(key)
				var got []byte
				for _, n := range katReads {
					b := make([]byte, n)
					g.Read(b)
					got = append(got, b...)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("seed %d, label %q, key %v: stream differs from its definition: stored shares would no longer reconstruct", seed, label, key)
				}
				// The comparison has teeth: a counter that starts one off
				// is a different stream.
				if bytes.Equal(got, refStream(testSeed(seed), label, key, 1, total)) {
					t.Fatalf("seed %d, label %q, key %v: stream also matches a counter perturbed by one", seed, label, key)
				}
			}
		}
	}
}

// TestReadDoesNotAllocate: a share pad is one bulk read and, rarely, a
// refill; neither may leave garbage behind.
func TestReadDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	g := stream(1, "alloc")
	buf := make([]byte, 512)
	if n := testing.AllocsPerRun(100, func() { g.Read(buf) }); n != 0 {
		t.Fatalf("Read allocates %.0f objects per call", n)
	}
}

// TestForNodeConcurrent: a Deriver is shared by every worker of a split and
// every session of a client; ForNode from many goroutines at once must give
// each the stream a lone caller gets (run under -race -count=10 in CI).
func TestForNodeConcurrent(t *testing.T) {
	d := NewDeriver(testSeed(4), "concurrent")
	const workers, keys = 8, 64
	want := make([][]byte, keys)
	for i := range want {
		want[i] = make([]byte, 100)
		d.ForNode(NodeKey{uint32(i), 5}).Read(want[i])
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got := make([]byte, 100)
			for j := 0; j < keys; j++ {
				i := (j + w*7) % keys
				d.ForNode(NodeKey{uint32(i), 5}).Read(got)
				if !bytes.Equal(got, want[i]) {
					t.Errorf("worker %d: stream of node %d differs under concurrency", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
