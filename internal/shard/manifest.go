// Package shard partitions one document's share tree across multiple
// daemons by subtree — the capacity-scaling complement to the paper's
// §4.2 Shamir replication. A deterministic planner cuts the tree into
// NodeKey-prefix ranges recorded in a small Manifest; each shard daemon
// serves only its ranges (rejecting out-of-range keys), and a client-side
// Router implements core.ServerAPI by scattering each request batch to
// the owning shards and gathering the answers back in request order, so
// the query engine runs unchanged against a partitioned deployment.
//
// Sharding composes with replication: each shard's backend can itself be
// a k-of-n core.MultiServer, giving a 2-D (partition × replica)
// deployment. Because the partition is purely shape-driven, one manifest
// planned from any share tree of a document applies to every Shamir
// member tree of the same document.
package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"sssearch/internal/drbg"
)

// manifestVersion is the manifest wire-format generation.
const manifestVersion = 1

// maxManifestEntries bounds accepted manifests (defense against corrupt
// or hostile inputs driving huge allocations).
const maxManifestEntries = 1 << 20

// Entry assigns the subtree rooted at Prefix to one shard. Longest prefix
// wins, so nested entries carve exceptions out of enclosing ranges.
type Entry struct {
	Prefix drbg.NodeKey
	Shard  int
}

// Manifest is the routing table of a sharded deployment: which shard owns
// which NodeKey-prefix range. A valid manifest always contains a root
// (empty-prefix) entry, so every key has an owner. Manifests are
// immutable after construction/unmarshalling; Owner is safe for
// concurrent use.
type Manifest struct {
	// Shards is the number of shards keys are routed to; owners are in
	// [0, Shards).
	Shards int
	// Entries are the prefix assignments, longest-prefix-match semantics.
	Entries []Entry

	// index maps a prefix in binary form (drbg.NodeKey.AppendBinary) to its
	// shard; maxDepth is the longest prefix in it.
	indexOnce sync.Once
	index     map[string]int
	maxDepth  int
	rootOwner int
}

// Validate checks structural invariants: at least one shard, a root
// entry, owners in range and no duplicate prefixes.
func (m *Manifest) Validate() error {
	if m == nil {
		return errors.New("shard: nil manifest")
	}
	if m.Shards < 1 {
		return fmt.Errorf("shard: manifest with %d shards", m.Shards)
	}
	seen := make(map[string]bool, len(m.Entries))
	root := false
	for _, e := range m.Entries {
		if e.Shard < 0 || e.Shard >= m.Shards {
			return fmt.Errorf("shard: entry %s assigned to shard %d of %d", e.Prefix, e.Shard, m.Shards)
		}
		ks := e.Prefix.String()
		if seen[ks] {
			return fmt.Errorf("shard: duplicate manifest entry for %s", e.Prefix)
		}
		seen[ks] = true
		if len(e.Prefix) == 0 {
			root = true
		}
	}
	if !root {
		return errors.New("shard: manifest lacks a root entry (some keys would have no owner)")
	}
	return nil
}

// buildIndex materializes the prefix → shard lookup map once.
func (m *Manifest) buildIndex() {
	m.index = make(map[string]int, len(m.Entries))
	for _, e := range m.Entries {
		m.index[string(e.Prefix.AppendBinary(nil))] = e.Shard
		m.maxDepth = max(m.maxDepth, len(e.Prefix))
		if len(e.Prefix) == 0 {
			m.rootOwner = e.Shard
		}
	}
	// An unvalidated manifest without a root entry leaves rootOwner 0,
	// routing unmatched keys to shard 0 so a guard or store lookup
	// produces the real error.
}

// Owner returns the shard that owns key: the entry with the longest
// prefix of key. On a validated manifest every key has an owner (the root
// entry is the catch-all). Owner sits on the per-key hot path of both
// the Router and the Guard, so it renders nothing: the key's binary form
// grows one component at a time, as deep as the deepest entry, and the
// index is probed with each prefix in place — the last hit is the longest.
func (m *Manifest) Owner(key drbg.NodeKey) int {
	m.indexOnce.Do(m.buildIndex)
	owner := m.rootOwner
	var buf [64]byte // deeper entries than it holds spill to the heap
	b := buf[:0]
	for _, c := range key[:min(len(key), m.maxDepth)] {
		b = binary.AppendUvarint(b, uint64(c))
		if s, ok := m.index[string(b)]; ok {
			owner = s
		}
	}
	return owner
}

// Binary layout (all varint = unsigned LEB128):
//
//	varint  version (1)
//	varint  nShards
//	varint  nEntries
//	repeat nEntries times:
//	    varint  prefixLen
//	    varint  × prefixLen  path components
//	    varint  shard

// MarshalBinary implements encoding.BinaryMarshaler.
func (m *Manifest) MarshalBinary() ([]byte, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	buf := binary.AppendUvarint(nil, manifestVersion)
	buf = binary.AppendUvarint(buf, uint64(m.Shards))
	buf = binary.AppendUvarint(buf, uint64(len(m.Entries)))
	for _, e := range m.Entries {
		buf = binary.AppendUvarint(buf, uint64(len(e.Prefix)))
		for _, c := range e.Prefix {
			buf = binary.AppendUvarint(buf, uint64(c))
		}
		buf = binary.AppendUvarint(buf, uint64(e.Shard))
	}
	return buf, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *Manifest) UnmarshalBinary(data []byte) error {
	dec, rest, err := DecodeManifest(data)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return errors.New("shard: trailing bytes after manifest")
	}
	m.Shards = dec.Shards
	m.Entries = dec.Entries
	m.indexOnce = sync.Once{}
	m.index = nil
	m.maxDepth, m.rootOwner = 0, 0
	return nil
}

// DecodeManifest decodes one manifest from the front of data, returning
// the remaining bytes.
func DecodeManifest(data []byte) (*Manifest, []byte, error) {
	next := func() (uint64, error) {
		v, k := binary.Uvarint(data)
		if k <= 0 {
			return 0, errors.New("shard: truncated manifest")
		}
		data = data[k:]
		return v, nil
	}
	version, err := next()
	if err != nil {
		return nil, nil, err
	}
	if version != manifestVersion {
		return nil, nil, fmt.Errorf("shard: unsupported manifest version %d", version)
	}
	shards, err := next()
	if err != nil {
		return nil, nil, err
	}
	n, err := next()
	if err != nil {
		return nil, nil, err
	}
	if n > maxManifestEntries {
		return nil, nil, fmt.Errorf("shard: entry count %d exceeds limit", n)
	}
	m := &Manifest{Shards: int(shards), Entries: make([]Entry, 0, n)}
	for i := uint64(0); i < n; i++ {
		plen, err := next()
		if err != nil {
			return nil, nil, err
		}
		if plen > uint64(len(data)) { // each component needs ≥ 1 byte
			return nil, nil, errors.New("shard: prefix length exceeds available bytes")
		}
		prefix := make(drbg.NodeKey, plen)
		for j := range prefix {
			c, err := next()
			if err != nil {
				return nil, nil, err
			}
			if c > 1<<32-1 {
				return nil, nil, fmt.Errorf("shard: path component %d out of range", c)
			}
			prefix[j] = uint32(c)
		}
		s, err := next()
		if err != nil {
			return nil, nil, err
		}
		m.Entries = append(m.Entries, Entry{Prefix: prefix, Shard: int(s)})
	}
	if err := m.Validate(); err != nil {
		return nil, nil, err
	}
	return m, data, nil
}
