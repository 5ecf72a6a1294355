package store

import (
	"bytes"
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"testing"

	"sssearch/internal/drbg"
	"sssearch/internal/mapping"
	"sssearch/internal/paperdata"
	"sssearch/internal/polyenc"
	"sssearch/internal/ring"
	"sssearch/internal/sharing"
)

func testSeed(b byte) drbg.Seed {
	var s drbg.Seed
	for i := range s {
		s[i] = b
	}
	return s
}

func buildTree(t testing.TB, r ring.Ring) *sharing.Tree {
	t.Helper()
	m := paperdata.Mapping(r.MaxTag())
	enc, err := polyenc.Encode(r, paperdata.Document(), m)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := sharing.Split(enc, testSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestServerRoundTripBothRings(t *testing.T) {
	dir := t.TempDir()
	rings := []ring.Ring{ring.MustFp(11), paperdata.ZRing()}
	for i, r := range rings {
		tree := buildTree(t, r)
		path := filepath.Join(dir, "srv", "store.sss")
		os.MkdirAll(filepath.Dir(path), 0o755)
		if err := SaveServer(path, r, tree); err != nil {
			t.Fatal(err)
		}
		r2, tree2, err := LoadServer(path)
		if err != nil {
			t.Fatalf("ring %d: %v", i, err)
		}
		if r2.Name() != r.Name() {
			t.Errorf("ring changed: %s vs %s", r2.Name(), r.Name())
		}
		if tree2.Count() != tree.Count() {
			t.Error("node count changed")
		}
		b1, _ := tree.MarshalBinary()
		b2, _ := tree2.MarshalBinary()
		if string(b1) != string(b2) {
			t.Error("tree bytes changed")
		}
	}
}

func TestServerCorruptionDetected(t *testing.T) {
	r := paperdata.ZRing()
	tree := buildTree(t, r)
	path := filepath.Join(t.TempDir(), "s.sss")
	if err := SaveServer(path, r, tree); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	// Flip one byte mid-file.
	data[len(data)/2] ^= 0x01
	if _, _, err := ReadServer(data); err == nil {
		t.Fatal("corruption not detected")
	}
	// Truncated.
	if _, _, err := ReadServer(data[:10]); err == nil {
		t.Fatal("truncation not detected")
	}
	// Wrong magic.
	if _, _, err := ReadServer([]byte("NOTASTORE123")); err == nil {
		t.Fatal("bad magic not detected")
	}
	// Trailing bytes break the checksum by construction; splice extra bytes
	// before the CRC to simulate.
	good, _ := os.ReadFile(path)
	bad := append(append([]byte{}, good[:len(good)-4]...), 0xAA)
	bad = append(bad, good[len(good)-4:]...)
	if _, _, err := ReadServer(bad); err == nil {
		t.Fatal("spliced bytes not detected")
	}
}

func TestClientRoundTrip(t *testing.T) {
	m, _ := mapping.New(big.NewInt(1000), []byte("secret"))
	m.AssignAll([]string{"customers", "client", "name"})
	st := &ClientState{
		Seed:    testSeed(9),
		Params:  paperdata.ZRing().Params(),
		Mapping: m,
	}
	path := filepath.Join(t.TempDir(), "client.sss")
	if err := SaveClient(path, st); err != nil {
		t.Fatal(err)
	}
	// Secret material must not be world-readable.
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Mode().Perm() != 0o600 {
		t.Errorf("client state mode = %v, want 0600", info.Mode().Perm())
	}
	got, err := LoadClient(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != st.Seed {
		t.Error("seed changed")
	}
	if got.Params.Kind != ring.KindIntQuotient {
		t.Error("params changed")
	}
	if got.Mapping.Len() != 3 {
		t.Error("mapping lost")
	}
	v1, _ := m.Value("client")
	v2, ok := got.Mapping.Value("client")
	if !ok || v1.Cmp(v2) != 0 {
		t.Error("mapping values changed")
	}
}

// TestClientRestoresMappingKey: the file does not carry the mapping's
// assignment key, and a keyless map draws values anyone can compute.
// ReadClient restores with the seed — the key Outsource uses unless told
// another — so a default-configured client draws after a reload what it
// drew before it: the same free value, the same value for a new tag, and
// neither is what the empty key draws. Existing assignments are untouched.
func TestClientRestoresMappingKey(t *testing.T) {
	seed := testSeed(11)
	tags := []string{"site", "regions", "item", "name"}
	m, _ := mapping.New(ring.MustFp(257).MaxTag(), seed[:])
	m.AssignAll(tags)
	var buf bytes.Buffer
	if err := WriteClient(&buf, &ClientState{Seed: seed, Params: ring.MustFp(257).Params(), Mapping: m}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadClient(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := m.MarshalBinary()
	var keyless mapping.Map
	if err := keyless.UnmarshalBinary(mb); err != nil {
		t.Fatal(err)
	}
	for _, tag := range tags {
		want, _ := m.Value(tag)
		if v, ok := got.Mapping.Value(tag); !ok || v.Cmp(want) != 0 {
			t.Fatalf("tag %q: restored value %v, was %s", tag, v, want)
		}
	}
	before, _ := m.FreeValue()
	after, ok := got.Mapping.FreeValue()
	public, _ := keyless.FreeValue()
	if !ok || after.Cmp(before) != 0 {
		t.Fatalf("free value %v after the reload, %s before it", after, before)
	}
	if after.Cmp(public) == 0 {
		t.Fatalf("the restored map draws the keyless map's free value %s", public)
	}
	// Four draws under each key: all four agreeing is a 1-in-255⁴ accident.
	same := true
	for i := 0; i < 4; i++ {
		tag := fmt.Sprintf("new%d", i)
		want, _ := m.Assign(tag)
		v, err := got.Mapping.Assign(tag)
		if err != nil || v.Cmp(want) != 0 {
			t.Fatalf("new tag %q: %v (%v) after the reload, %s before it", tag, v, err, want)
		}
		pub, _ := keyless.Assign(tag)
		same = same && pub.Cmp(v) == 0
	}
	if same {
		t.Fatal("the restored map assigns new tags as the keyless map does")
	}
}

func TestClientCorruptionDetected(t *testing.T) {
	m, _ := mapping.New(big.NewInt(100), nil)
	st := &ClientState{Seed: testSeed(2), Params: ring.MustFp(11).Params(), Mapping: m}
	path := filepath.Join(t.TempDir(), "c.sss")
	if err := SaveClient(path, st); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	data[12] ^= 0xFF
	if _, err := ReadClient(data); err == nil {
		t.Fatal("corruption not detected")
	}
	if _, err := ReadClient(nil); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestSaveErrors(t *testing.T) {
	if err := SaveServer(filepath.Join(t.TempDir(), "x"), nil, nil); err == nil {
		t.Error("nil inputs accepted")
	}
	if err := SaveClient(filepath.Join(t.TempDir(), "y"), nil); err == nil {
		t.Error("nil state accepted")
	}
	// Unwritable directory.
	r := paperdata.ZRing()
	tree := buildTree(t, r)
	if err := SaveServer("/nonexistent-dir/sub/f.sss", r, tree); err == nil {
		t.Error("unwritable path accepted")
	}
}

// TestQueryAfterReload: a server store loaded from disk must serve queries
// identically (exercised further in the integration tests).
func TestQueryAfterReload(t *testing.T) {
	r := paperdata.ZRing()
	tree := buildTree(t, r)
	path := filepath.Join(t.TempDir(), "reload.sss")
	if err := SaveServer(path, r, tree); err != nil {
		t.Fatal(err)
	}
	r2, tree2, err := LoadServer(path)
	if err != nil {
		t.Fatal(err)
	}
	// Evaluate one node before/after and compare.
	a := big.NewInt(2)
	n1, _ := tree.Lookup(drbg.NodeKey{0})
	n2, _ := tree2.Lookup(drbg.NodeKey{0})
	v1, err := tree.Eval(r, n1, a)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := tree2.Eval(r2, n2, a)
	if err != nil {
		t.Fatal(err)
	}
	if v1.Cmp(v2) != 0 {
		t.Error("evaluation changed after reload")
	}
}
