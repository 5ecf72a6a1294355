package store

import (
	"bytes"
	"errors"
	"math/big"
	"strings"
	"testing"

	"sssearch/internal/mapping"
)

// TestOldGenerationRefused: every file that carries shares or the seed is
// tied to the share-stream generation, and a loader handed an older one
// says so by name instead of "bad magic" — including the shard store, whose
// magic had stayed behind at 1 and so loaded, then silently failed to
// cancel. A digit this build does not know yet, or another stem, stays a
// plain ErrBadFormat.
func TestOldGenerationRefused(t *testing.T) {
	r, trees, man := shardFixture(t)
	var server, client, shardFile bytes.Buffer
	if err := WriteServer(&server, r, trees[0]); err != nil {
		t.Fatal(err)
	}
	m, _ := mapping.New(big.NewInt(1000), []byte("secret"))
	m.AssignAll([]string{"a"})
	if err := WriteClient(&client, &ClientState{Seed: testSeed(3), Params: r.Params(), Mapping: m}); err != nil {
		t.Fatal(err)
	}
	if err := WriteShard(&shardFile, r, trees[0], man, 0); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		kind  string
		file  []byte
		digit int    // offset of the generation digit in the magic
		last  string // the magic this kind carried before the move
		read  func([]byte) error
	}{
		{"server", server.Bytes(), 7, "SSSTORE2", func(b []byte) error { _, _, err := ReadServer(b); return err }},
		{"client", client.Bytes(), 6, "SSCLNT2\x00", func(b []byte) error { _, err := ReadClient(b); return err }},
		{"shard", shardFile.Bytes(), 6, "SSSHRD1\x00", func(b []byte) error { _, _, _, _, err := ReadShard(b); return err }},
	} {
		if err := tc.read(tc.file); err != nil {
			t.Fatalf("%s: current generation refused: %v", tc.kind, err)
		}
		if tc.file[tc.digit] != '3' {
			t.Fatalf("%s: magic %q is not at generation 3", tc.kind, tc.file[:8])
		}
		for g := byte('1'); g < '3'; g++ {
			old := append([]byte(nil), tc.file...)
			old[tc.digit] = g
			err := tc.read(old)
			if !errors.Is(err, ErrOldGeneration) || !errors.Is(err, ErrBadFormat) {
				t.Fatalf("%s generation %c: %v, want ErrOldGeneration wrapping ErrBadFormat", tc.kind, g, err)
			}
			if want := "generation-" + string(g) + " file, re-outsource to migrate"; !strings.Contains(err.Error(), want) {
				t.Fatalf("%s generation %c: %q does not say %q", tc.kind, g, err, want)
			}
		}
		// The bare magic of the previous release, as a truncated file.
		if err := tc.read([]byte(tc.last)); !errors.Is(err, ErrOldGeneration) {
			t.Fatalf("%s: magic %q alone: %v, want ErrOldGeneration", tc.kind, tc.last, err)
		}
		for _, mutate := range []func(b []byte){
			func(b []byte) { b[tc.digit] = '4' },
			func(b []byte) { b[tc.digit] = '0' },
			func(b []byte) { b[0] = 'X'; b[tc.digit] = '2' },
		} {
			bad := append([]byte(nil), tc.file...)
			mutate(bad)
			if err := tc.read(bad); !errors.Is(err, ErrBadFormat) || errors.Is(err, ErrOldGeneration) {
				t.Fatalf("%s magic %q: %v, want a plain ErrBadFormat", tc.kind, bad[:8], err)
			}
		}
	}
	// sss-server sniffs the kind before it loads: an older shard file must
	// still reach ReadShard to be named.
	if !IsShardStore([]byte("SSSHRD1\x00")) || IsShardStore(server.Bytes()) {
		t.Fatal("IsShardStore must match the shard stem at any generation and nothing else")
	}
}
