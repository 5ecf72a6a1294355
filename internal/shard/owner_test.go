package shard

import (
	"math/rand"
	"testing"

	"sssearch/internal/drbg"
)

// ownerOracle is Owner by its definition: the shard of the longest entry
// prefix of key, the root entry's when none other matches.
func ownerOracle(m *Manifest, key drbg.NodeKey) int {
	best, owner := -1, 0
	for _, e := range m.Entries {
		if keyHasPrefix(key, e.Prefix) && len(e.Prefix) > best {
			best, owner = len(e.Prefix), e.Shard
		}
	}
	return owner
}

// keyHasPrefix reports whether key starts with prefix.
func keyHasPrefix(key, prefix drbg.NodeKey) bool {
	if len(prefix) > len(key) {
		return false
	}
	for i, c := range prefix {
		if key[i] != c {
			return false
		}
	}
	return true
}

// TestOwnerMatchesLongestPrefixOracle: on random manifests — nested
// prefixes, components on both sides of the one-byte varint and beyond 2^14,
// entries deeper than the keys and keys deeper than every entry — Owner,
// which probes the index with the key's binary prefixes, names the shard the
// longest-prefix definition names.
func TestOwnerMatchesLongestPrefixOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	component := func() uint32 {
		switch rng.Intn(4) {
		case 0:
			return uint32(rng.Intn(3))
		case 1:
			return uint32(126 + rng.Intn(4)) // around the one-byte varint's end
		case 2:
			return uint32(16382 + rng.Intn(4)) // around the two-byte one's
		}
		return rng.Uint32()
	}
	for trial := 0; trial < 200; trial++ {
		m := &Manifest{Shards: 1 + rng.Intn(6), Entries: []Entry{{Prefix: drbg.NodeKey{}, Shard: 0}}}
		seen := map[string]bool{"/": true}
		var keys []drbg.NodeKey
		for len(m.Entries) < 1+rng.Intn(12) {
			// Extend an entry already there, or start from the root.
			prefix := append(drbg.NodeKey(nil), m.Entries[rng.Intn(len(m.Entries))].Prefix...)
			for d := 1 + rng.Intn(3); d > 0; d-- {
				prefix = append(prefix, component())
			}
			if seen[prefix.String()] {
				continue
			}
			seen[prefix.String()] = true
			m.Entries = append(m.Entries, Entry{Prefix: prefix, Shard: rng.Intn(m.Shards)})
			// Keys at, above, below and beside the entry.
			keys = append(keys, prefix, prefix[:len(prefix)-1], prefix.Child(component()), prefix.Child(component()).Child(0),
				append(append(drbg.NodeKey(nil), prefix[:len(prefix)-1]...), prefix[len(prefix)-1]+1))
		}
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, drbg.NodeKey{}, drbg.NodeKey{component()}, make(drbg.NodeKey, 100))
		for _, key := range keys {
			if got, want := m.Owner(key), ownerOracle(m, key); got != want {
				t.Fatalf("trial %d: Owner(%s) = %d, the longest prefix among %v says %d", trial, key, got, m.Entries, want)
			}
		}
	}
}

// TestOwnerAllocatesNothing: routing a key renders nothing and boxes
// nothing, whatever the key's depth against the entries'.
func TestOwnerAllocatesNothing(t *testing.T) {
	m := &Manifest{Shards: 3, Entries: []Entry{
		{Prefix: drbg.NodeKey{}, Shard: 0},
		{Prefix: drbg.NodeKey{4}, Shard: 1},
		{Prefix: drbg.NodeKey{4, 70000, 2}, Shard: 2},
		{Prefix: drbg.NodeKey{9, 1}, Shard: 1},
	}}
	keys := []drbg.NodeKey{{}, {4}, {4, 70000, 2, 5, 5, 5, 5, 5}, {9, 1, 3}, {7, 7, 7}, make(drbg.NodeKey, 40)}
	want := []int{0, 1, 2, 1, 0, 0}
	m.Owner(keys[0]) // builds the index
	for i, key := range keys {
		key := key
		if got := m.Owner(key); got != want[i] {
			t.Fatalf("Owner(%s) = %d, want %d", key, got, want[i])
		}
		if n := testing.AllocsPerRun(100, func() { m.Owner(key) }); n != 0 {
			t.Fatalf("Owner(%s) allocated %v times", key, n)
		}
	}
}
