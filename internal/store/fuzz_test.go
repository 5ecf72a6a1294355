package store

import (
	"bytes"
	"math/rand"
	"testing"

	"sssearch/internal/mapping"
	"sssearch/internal/paperdata"
)

// The store readers parse attacker-reachable files (a malicious provider
// could hand back anything): they must never panic, and any mutation of a
// valid file must be rejected by the CRC. FuzzReadServer (words_test.go)
// covers the server store.

func TestReadClientNeverPanics(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for i := 0; i < 3000; i++ {
		data := make([]byte, r.Intn(300))
		r.Read(data)
		ReadClient(data) // must not panic
	}
	m, _ := mapping.New(nil, []byte("fz"))
	if err := m.AssignAll([]string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	st := &ClientState{Seed: testSeed(3), Params: paperdata.ZRing().Params(), Mapping: m}
	var buf bytes.Buffer
	if err := WriteClient(&buf, st); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	for i := 0; i < 500; i++ {
		mutated := append([]byte(nil), valid...)
		mutated[r.Intn(len(mutated))] ^= byte(1 << r.Intn(8))
		if _, err := ReadClient(mutated); err == nil {
			t.Fatal("mutated client state accepted")
		}
	}
}
