package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"sssearch/internal/drbg"
	"sssearch/internal/mapping"
	"sssearch/internal/paperdata"
	"sssearch/internal/polyenc"
	"sssearch/internal/ring"
	"sssearch/internal/shard"
	"sssearch/internal/sharing"
	"sssearch/internal/workload"
)

func shardFixture(t *testing.T) (ring.Ring, []*sharing.Tree, *shard.Manifest) {
	t.Helper()
	r := ring.MustFp(257)
	doc := workload.RandomTree(workload.TreeConfig{Nodes: 60, MaxFanout: 3, Vocab: 6, Seed: 7})
	m, err := mapping.New(r.MaxTag(), []byte("store-shard-test"))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := polyenc.Encode(r, doc, m)
	if err != nil {
		t.Fatal(err)
	}
	var seed drbg.Seed
	seed[0] = 0x11
	tree, err := sharing.Split(enc, seed)
	if err != nil {
		t.Fatal(err)
	}
	trees, man, err := shard.Partition(tree, 3)
	if err != nil {
		t.Fatal(err)
	}
	return r, trees, man
}

func TestShardStoreRoundTrip(t *testing.T) {
	r, trees, man := shardFixture(t)
	path := filepath.Join(t.TempDir(), "shard1.sss")
	if err := SaveShard(path, r, trees[1], man, 1); err != nil {
		t.Fatal(err)
	}
	gr, gt, gm, id, err := LoadShard(path)
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 {
		t.Errorf("shard id = %d, want 1", id)
	}
	if gr.Name() != r.Name() {
		t.Errorf("ring = %s, want %s", gr.Name(), r.Name())
	}
	if gm.Shards != man.Shards || !reflect.DeepEqual(gm.Entries, man.Entries) {
		t.Errorf("manifest mismatch: %+v vs %+v", gm.Entries, man.Entries)
	}
	wantBytes, _ := trees[1].MarshalBinary()
	gotBytes, _ := gt.MarshalBinary()
	if !reflect.DeepEqual(wantBytes, gotBytes) {
		t.Error("tree round trip differs")
	}
}

func TestShardStoreCorruptionAndSniff(t *testing.T) {
	r, trees, man := shardFixture(t)
	path := filepath.Join(t.TempDir(), "shard0.sss")
	if err := SaveShard(path, r, trees[0], man, 0); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !IsShardStore(data) {
		t.Error("sniff failed on a shard store")
	}
	// A regular server store is not sniffed as a shard store.
	serverPath := filepath.Join(t.TempDir(), "server.sss")
	if err := SaveServer(serverPath, r, trees[0]); err != nil {
		t.Fatal(err)
	}
	serverData, err := os.ReadFile(serverPath)
	if err != nil {
		t.Fatal(err)
	}
	if IsShardStore(serverData) {
		t.Error("server store sniffed as shard store")
	}
	// Bit flips anywhere must fail the checksum.
	for _, i := range []int{1, len(data) / 2, len(data) - 2} {
		corrupt := append([]byte(nil), data...)
		corrupt[i] ^= 0x40
		if _, _, _, _, err := ReadShard(corrupt); !errors.Is(err, ErrBadFormat) {
			t.Errorf("flip at %d: err = %v, want ErrBadFormat", i, err)
		}
	}
	// An id outside the embedded manifest is rejected.
	if err := SaveShard(path, r, trees[0], man, 9); err == nil {
		t.Error("out-of-manifest shard id accepted")
	}
}

func TestManifestFileRoundTrip(t *testing.T) {
	_, _, man := shardFixture(t)
	path := filepath.Join(t.TempDir(), "routing.ssm")
	if err := SaveManifest(path, man); err != nil {
		t.Fatal(err)
	}
	got, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Shards != man.Shards || !reflect.DeepEqual(got.Entries, man.Entries) {
		t.Errorf("manifest mismatch: %+v vs %+v", got.Entries, man.Entries)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)/2] ^= 0x01
	if _, err := ReadManifest(corrupt); !errors.Is(err, ErrBadFormat) {
		t.Errorf("corrupt manifest err = %v, want ErrBadFormat", err)
	}
	if _, err := ReadManifest(serverMagic); !errors.Is(err, ErrBadFormat) {
		t.Errorf("wrong magic err = %v, want ErrBadFormat", err)
	}
}

// oneShard is the manifest of a deployment of one shard.
func oneShard() *shard.Manifest {
	return &shard.Manifest{Shards: 1, Entries: []shard.Entry{{Prefix: drbg.NodeKey{}, Shard: 0}}}
}

// shardFile seals a shard store around a shard id and hand-written tree
// bytes.
func shardFile(t testing.TB, r ring.Ring, man *shard.Manifest, id uint64, tree []byte) []byte {
	manBytes, err := man.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	params, err := r.Params().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	body := binary.AppendUvarint(append([]byte(nil), shardMagic...), id)
	body = binary.AppendUvarint(body, uint64(len(manBytes)))
	body = append(body, manBytes...)
	body = binary.AppendUvarint(body, uint64(len(params)))
	body = append(append(body, params...), tree...)
	return seal(body)
}

// hostileShardFiles are shard stores with valid checksums that ReadShard
// must refuse with ErrBadFormat: every hostile tree, and a valid tree
// under a shard id outside its manifest — one past the last shard, and
// 2⁶³, which is negative as an int.
func hostileShardFiles(t testing.TB) map[string][]byte {
	files := make(map[string][]byte)
	for name, h := range hostileTrees() {
		files[name] = shardFile(t, h.r, oneShard(), 0, h.tree)
	}
	tree := valueTree(2, 1, []uint64{1<<1 | 1, 1}, []byte{0, 1, 2, 3, 4, 3, 2, 1})
	files["shard id past the manifest"] = shardFile(t, ring.MustFp(5), oneShard(), 1, tree)
	files["shard id of 2^63"] = shardFile(t, ring.MustFp(5), oneShard(), 1<<63, tree)
	return files
}

// TestReadShardRefusesHostileFiles: every malformed tree and every shard
// id outside the manifest, under a valid checksum, is a plain
// ErrBadFormat. The same tree under shard id 0 loads.
func TestReadShardRefusesHostileFiles(t *testing.T) {
	for name, file := range hostileShardFiles(t) {
		if _, _, _, id, err := ReadShard(file); !errors.Is(err, ErrBadFormat) {
			t.Fatalf("%s: shard %d, %v, want ErrBadFormat", name, id, err)
		}
	}
	tree := valueTree(2, 1, []uint64{1<<1 | 1, 1}, []byte{0, 1, 2, 3, 4, 3, 2, 1})
	if _, _, _, id, err := ReadShard(shardFile(t, ring.MustFp(5), oneShard(), 0, tree)); err != nil || id != 0 {
		t.Fatalf("a valid shard 0: shard %d, %v", id, err)
	}
}

// FuzzReadShard feeds the shard-store loader anything, both as a whole
// file and sealed with a matching checksum so that the fuzzer reaches the
// manifest and tree decoders. It must never panic, and what it accepts
// must hold only values below p and a shard id inside its manifest. The
// seeds are valid shard stores of F_7, F_257 and Z and every hostile file.
func FuzzReadShard(f *testing.F) {
	for _, r := range []ring.Ring{ring.MustFp(7), ring.MustFp(257), paperdata.ZRing()} {
		trees, man, err := shard.Partition(buildTree(f, r), 2)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteShard(&buf, r, trees[1], man, 1); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, file := range hostileShardFiles(f) {
		if len(file) < 1<<16 {
			f.Add(file)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, file := range [][]byte{data, seal(append([]byte(nil), data...))} {
			r, tree, man, id, err := ReadShard(file)
			if err != nil {
				if !errors.Is(err, ErrBadFormat) {
					t.Fatalf("refused without ErrBadFormat: %v", err)
				}
				continue
			}
			if id < 0 || id >= man.Shards {
				t.Fatalf("accepted shard id %d of a manifest of %d", id, man.Shards)
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
		}
	})
}
