package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/big"
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"sssearch/internal/drbg"
	"sssearch/internal/mapping"
	"sssearch/internal/paperdata"
	"sssearch/internal/polyenc"
	"sssearch/internal/ring"
	"sssearch/internal/server"
	"sssearch/internal/sharing"
	"sssearch/internal/workload"
)

// splitRandom outsources a 200-node random document.
func splitRandom(t *testing.T, r ring.Ring) *sharing.Tree {
	t.Helper()
	doc := workload.RandomTree(workload.TreeConfig{Nodes: 200, MaxFanout: 4, Vocab: 6, Seed: 5})
	m, err := mapping.New(r.MaxTag(), []byte("store-words"))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := polyenc.Encode(r, doc, m)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := sharing.Split(enc, testSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func storeBytes(t testing.TB, r ring.Ring, tree *sharing.Tree) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteServer(&buf, r, tree); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSaveLoadSaveByteIdentical: a loaded store saves back to the very
// bytes it was loaded from, and a tree loaded for an F_p ring holds every
// node's values as a view into the file — the one slab is what the server
// reads, nothing is decoded into words.
func TestSaveLoadSaveByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name   string
		r      ring.Ring
		values bool
	}{
		{"Fp", ring.MustFp(11), true},
		{"Z", paperdata.ZRing(), false},
	} {
		first := storeBytes(t, tc.r, splitRandom(t, tc.r))
		_, loaded, err := ReadServer(first)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		lo, hi := uintptr(unsafe.Pointer(&first[0])), uintptr(unsafe.Pointer(&first[len(first)-1]))
		loaded.Walk(func(key drbg.NodeKey, n *sharing.Node) bool {
			if (n.Vals != nil) != tc.values {
				t.Fatalf("%s: node %s loaded with values = %v, want %v", tc.name, key, n.Vals != nil, tc.values)
			}
			if at := uintptr(unsafe.Pointer(unsafe.SliceData(n.Vals))); n.Vals != nil && (at < lo || at > hi) {
				t.Fatalf("%s: node %s holds a copy of its values, not a view into the file", tc.name, key)
			}
			return true
		})
		if second := storeBytes(t, tc.r, loaded); !bytes.Equal(second, first) {
			t.Fatalf("%s: save → load → save changed the file (%d vs %d bytes)", tc.name, len(second), len(first))
		}
	}
}

// serverFile seals a server store around hand-written tree bytes.
func serverFile(t testing.TB, r ring.Ring, tree []byte) []byte {
	params, err := r.Params().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	body := append([]byte(nil), serverMagic...)
	body = binary.AppendUvarint(body, uint64(len(params)))
	body = append(append(body, params...), tree...)
	return seal(body)
}

// seal appends the CRC a store file ends in.
func seal(body []byte) []byte {
	return binary.BigEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
}

// valueTree writes a value-form tree: nodes, width, the shape, then the
// slab.
func valueTree(nodes, width uint64, shape []uint64, slab []byte) []byte {
	b := binary.AppendUvarint(nil, nodes)
	b = binary.AppendUvarint(b, width)
	for _, c := range shape {
		b = binary.AppendUvarint(b, c)
	}
	return append(b, slab...)
}

// chain is the shape of a path of n nodes, each holding a share.
func chain(n int) []uint64 {
	shape := make([]uint64, n)
	for i := range shape {
		shape[i] = 1<<1 | 1
	}
	shape[n-1] = 1
	return shape
}

// hostileTree is a tree encoding that a loader must refuse, and the ring
// it is read for.
type hostileTree struct {
	r    ring.Ring
	tree []byte
}

// hostileTrees are the tree encodings a loader must refuse with
// ErrBadFormat, by what is wrong with them. F_5 takes one byte a value and
// four values a node; the deep chain is F_101's, 100 bytes a node and
// 410 KB in all.
func hostileTrees() map[string]hostileTree {
	f5 := ring.MustFp(5)
	two := []uint64{1<<1 | 1, 1}
	slab := []byte{0, 1, 2, 3, 4, 3, 2, 1}
	deep := sharing.MaxDepth + 1
	return map[string]hostileTree{
		"value at p":              {f5, valueTree(2, 1, two, []byte{0, 1, 2, 3, 4, 3, 5, 1})},
		"value above p":           {f5, valueTree(2, 1, two, []byte{0xFF, 1, 2, 3, 4, 3, 2, 1})},
		"width of another ring":   {f5, valueTree(2, 2, two, append(slab, slab...))},
		"coefficient width on Fp": {f5, valueTree(2, 0, two, []byte{0, 0})},
		"value width on Z":        {paperdata.ZRing(), valueTree(2, 1, two, slab)},
		"truncated slab":          {f5, valueTree(2, 1, two, slab[:7])},
		"child count above nodes": {f5, valueTree(2, 1, []uint64{2<<1 | 1, 1}, slab)},
		"nodes beyond the root":   {f5, valueTree(3, 1, []uint64{1<<1 | 1, 1, 1}, append(slab, 0, 0, 0, 0))},
		"node count above bytes":  {f5, valueTree(1<<20, 1, two, slab)},
		"deeper than MaxDepth":    {ring.MustFp(101), valueTree(uint64(deep), 1, chain(deep), make([]byte, 100*deep))},
	}
}

// hostileServerFiles are the hostile trees as server store files with
// valid checksums.
func hostileServerFiles(t testing.TB) map[string][]byte {
	files := make(map[string][]byte)
	for name, h := range hostileTrees() {
		files[name] = serverFile(t, h.r, h.tree)
	}
	return files
}

// TestLoadKeepsNonCanonicalPolysOffTheWordPath: a store file may hold any
// bytes, and server.Local serves stored values as they are — so a value at
// or above p (a non-canonical residue) must never load, at any width and
// wherever it sits in the slab. Every value below p loads, and the loaded
// store serves the values that were written. A shard store holding the
// same slab is refused and accepted alike.
func TestLoadKeepsNonCanonicalPolysOffTheWordPath(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for _, tc := range []struct {
		p     uint64
		nodes int   // a chain whose second node holds nothing
		at    []int // the values set, by index into the slab; −1 is the last
	}{
		// Width 1: every byte at three places.
		{11, 201, []int{0, 457, -1}},
		// Width 2 on the word path: the four lanes of the first word, a lane
		// of each other word of the kernel's first 32-byte block, and the
		// first value of the next node.
		{257, 5, []int{0, 1, 2, 3, 5, 10, 15, 256, -1}},
		// Width 2 on the word path, 1572 bytes: the last two values are a
		// tail shorter than a word.
		{263, 4, []int{0, 3, -2, -1}},
		// Width 2 with p above 2¹⁵: the scalar path.
		{65521, 3, []int{0, 1, 2, 3, -1}},
		// Width 3.
		{65537, 3, []int{0, 1, -1}},
	} {
		fp := ring.MustFp(tc.p)
		w, per := sharing.ValueWidth(fp), fp.DegreeBound()
		shape := chain(tc.nodes)
		shape[1] &^= 1
		slab := make([]byte, (tc.nodes-1)*per*w)
		value := func(i int) uint64 {
			v := uint64(0)
			for j := w - 1; j >= 0; j-- {
				v = v<<8 | uint64(slab[i*w+j])
			}
			return v
		}
		put := func(i int, v uint64) {
			for j := 0; j < w; j++ {
				slab[i*w+j] = byte(v >> (8 * j))
			}
		}
		for i := 0; i < len(slab)/w; i++ {
			put(i, uint64(rng.Int63n(int64(tc.p))))
		}
		load := func() []error {
			tree := valueTree(uint64(tc.nodes), uint64(w), shape, slab)
			_, _, errServer := ReadServer(serverFile(t, fp, tree))
			_, _, _, _, errShard := ReadShard(shardFile(t, fp, oneShard(), 0, tree))
			return []error{errServer, errShard}
		}
		values := []uint64{0, tc.p - 1, tc.p, tc.p + 1, 0x7FFF, 0x8000, 0xFFFF, 1<<(8*w) - 1}
		if w == 1 {
			values = values[:0]
			for v := uint64(0); v < 0x100; v++ {
				values = append(values, v)
			}
		}
		for _, at := range tc.at {
			if at < 0 {
				at += len(slab) / w
			}
			was := value(at)
			for _, v := range values {
				if v >= 1<<(8*w) {
					continue
				}
				put(at, v)
				for file, err := range load() {
					if v < tc.p && err != nil {
						t.Fatalf("F_%d, file %d: value %d at slab value %d refused: %v", tc.p, file, v, at, err)
					}
					if v >= tc.p && (!errors.Is(err, ErrBadFormat) || !strings.Contains(err.Error(), "at or above p")) {
						t.Fatalf("F_%d, file %d: value %d at slab value %d: %v, want ErrBadFormat naming it", tc.p, file, v, at, err)
					}
				}
			}
			put(at, was)
		}

		_, loaded, err := ReadServer(serverFile(t, fp, valueTree(uint64(tc.nodes), uint64(w), shape, slab)))
		if err != nil {
			t.Fatal(err)
		}
		local, err := server.NewLocal(fp, loaded)
		if err != nil {
			t.Fatal(err)
		}
		points := []*big.Int{big.NewInt(1), big.NewInt(int64(tc.p - 1))}
		var keys []drbg.NodeKey
		loaded.Walk(func(k drbg.NodeKey, _ *sharing.Node) bool { keys = append(keys, k); return true })
		answers, err := local.EvalNodes(keys, points)
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range keys {
			for j, a := range points {
				held := max(len(k)-1, 0) // the slab skips the second node
				want := value(held*per + int(a.Int64()-1))
				if len(k) == 1 {
					want = 0
				}
				if answers[i].Words[j] != want {
					t.Fatalf("F_%d, node %s at %s: the loaded store serves %d, %d was written", tc.p, k, a, answers[i].Words[j], want)
				}
			}
		}
	}
}

// TestReadServerRefusesHostileFiles: every malformed shape and slab, under
// a valid checksum, is a plain ErrBadFormat — never a panic, never a
// recursion as deep as the file. A chain exactly MaxDepth long loads.
func TestReadServerRefusesHostileFiles(t *testing.T) {
	for name, file := range hostileServerFiles(t) {
		if _, _, err := ReadServer(file); !errors.Is(err, ErrBadFormat) {
			t.Fatalf("%s: %v, want ErrBadFormat", name, err)
		}
	}
	depth := sharing.MaxDepth
	_, tree, err := ReadServer(serverFile(t, ring.MustFp(101), valueTree(uint64(depth), 1, chain(depth), make([]byte, 100*depth))))
	if err != nil {
		t.Fatalf("a chain of MaxDepth nodes: %v", err)
	}
	if tree.Count() != depth {
		t.Fatalf("a chain of MaxDepth nodes loaded as %d", tree.Count())
	}
}

// FuzzReadServer feeds the server-store loader anything, both as a whole
// file and sealed with a matching checksum so that the fuzzer reaches the
// tree decoder. It must never panic, and what it accepts must be a
// servable tree: canonical values, an answer for the root, a re-marshal.
// The seeds are valid stores of both rings and every hostile file.
func FuzzReadServer(f *testing.F) {
	for _, r := range []ring.Ring{ring.MustFp(7), ring.MustFp(257), paperdata.ZRing()} {
		f.Add(storeBytes(f, r, buildTree(f, r)))
	}
	for _, file := range hostileServerFiles(f) {
		if len(file) < 1<<16 {
			f.Add(file)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, file := range [][]byte{data, seal(append([]byte(nil), data...))} {
			r, tree, err := ReadServer(file)
			if err != nil {
				if !errors.Is(err, ErrBadFormat) {
					t.Fatalf("refused without ErrBadFormat: %v", err)
				}
				continue
			}
			if fp, ok := r.(*ring.FpCyclotomic); ok {
				tree.Walk(func(_ drbg.NodeKey, n *sharing.Node) bool {
					for i := 0; n.Vals != nil && i < fp.DegreeBound(); i++ {
						if tree.Value(n, i) >= fp.P().Uint64() {
							t.Fatalf("accepted a value at or above p")
						}
					}
					return true
				})
			}
			local, err := server.NewLocal(r, tree)
			if err != nil {
				t.Fatal(err)
			}
			_, _ = local.EvalNodes([]drbg.NodeKey{{}}, []*big.Int{big.NewInt(1)})
			if _, err := tree.MarshalBinary(); err != nil {
				t.Fatalf("an accepted tree does not marshal: %v", err)
			}
		}
	})
}
