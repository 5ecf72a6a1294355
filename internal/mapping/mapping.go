// Package mapping implements the scheme's private mapping function
// map: tagnames → Z (§4.1 of the paper). The mapping must be
//
//   - injective (Theorems 1–2 recover tags uniquely only then),
//   - private to the client ("the mapping function should be private to
//     avoid the server to see the query"),
//   - restricted to [1, p-2] in the F_p ring: p-1 is the zero divisor
//     excluded by Lemma 3, and 0 would break evaluation of reduced
//     polynomials (a^{p-1} = 1 needs a ≠ 0).
//
// Values are assigned pseudorandomly from an HMAC-keyed draw so that the
// assignment is deterministic given the client's secret key — two runs over
// the same vocabulary agree — while revealing nothing about the tag to
// anyone without the key.
package mapping

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"sort"
	"sync"
)

// DefaultUnboundedMax is the tag domain bound used when the ring imposes
// none (the Z[x]/(r(x)) case): values are drawn from [1, 2^31].
var DefaultUnboundedMax = new(big.Int).Lsh(big.NewInt(1), 31)

// Map is an injective, invertible tag-name mapping. Safe for concurrent use.
type Map struct {
	mu     sync.RWMutex
	key    []byte
	maxTag *big.Int // inclusive upper bound, >= 1
	byName map[string]*big.Int
	byVal  map[string]string // canonical decimal string → tag
}

// New creates an empty mapping with values in [1, maxTag]. A nil maxTag
// selects DefaultUnboundedMax. secret keys the deterministic assignment;
// it must be private to the client.
func New(maxTag *big.Int, secret []byte) (*Map, error) {
	if maxTag == nil {
		maxTag = DefaultUnboundedMax
	}
	if maxTag.Sign() < 1 {
		return nil, errors.New("mapping: empty tag domain")
	}
	return &Map{
		key:    append([]byte(nil), secret...),
		maxTag: new(big.Int).Set(maxTag),
		byName: map[string]*big.Int{},
		byVal:  map[string]string{},
	}, nil
}

// Len returns the number of mapped tags.
func (m *Map) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.byName)
}

// MaxTag returns the inclusive domain bound.
func (m *Map) MaxTag() *big.Int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return new(big.Int).Set(m.maxTag)
}

// Value returns the value for tag, if assigned.
func (m *Map) Value(tag string) (*big.Int, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	v, ok := m.byName[tag]
	if !ok {
		return nil, false
	}
	return new(big.Int).Set(v), true
}

// Tag inverts the mapping: the tag mapped to v, if any.
func (m *Map) Tag(v *big.Int) (string, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	tag, ok := m.byVal[v.String()]
	return tag, ok
}

// Tags returns the mapped tag names, sorted.
func (m *Map) Tags() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, 0, len(m.byName))
	for t := range m.byName {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Assign returns the value for tag, assigning a fresh one on first use.
func (m *Map) Assign(tag string) (*big.Int, error) {
	if tag == "" {
		return nil, errors.New("mapping: empty tag")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if v, ok := m.byName[tag]; ok {
		return new(big.Int).Set(v), nil
	}
	if big.NewInt(int64(len(m.byName))).Cmp(m.maxTag) >= 0 {
		return nil, fmt.Errorf("mapping: tag domain [1,%s] exhausted (%d tags)", m.maxTag, len(m.byName))
	}
	for ctr := uint64(0); ; ctr++ {
		v := m.draw(tag, ctr)
		if _, taken := m.byVal[v.String()]; taken {
			continue
		}
		m.byName[tag] = v
		m.byVal[v.String()] = tag
		return new(big.Int).Set(v), nil
	}
}

// AssignAll assigns every tag in the slice (idempotently).
func (m *Map) AssignAll(tags []string) error {
	for _, t := range tags {
		if _, err := m.Assign(t); err != nil {
			return err
		}
	}
	return nil
}

// SetExplicit pins tag to a specific value (used to reproduce the paper's
// fixed example mapping). Fails on collisions or out-of-domain values.
func (m *Map) SetExplicit(tag string, v *big.Int) error {
	if tag == "" {
		return errors.New("mapping: empty tag")
	}
	if v.Sign() < 1 || v.Cmp(m.maxTag) > 0 {
		return fmt.Errorf("mapping: value %s outside domain [1,%s]", v, m.maxTag)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if old, ok := m.byName[tag]; ok {
		if old.Cmp(v) == 0 {
			return nil
		}
		return fmt.Errorf("mapping: tag %q already mapped to %s", tag, old)
	}
	if other, taken := m.byVal[v.String()]; taken {
		return fmt.Errorf("mapping: value %s already used by tag %q", v, other)
	}
	vc := new(big.Int).Set(v)
	m.byName[tag] = vc
	m.byVal[vc.String()] = tag
	return nil
}

// freeLabel prefixes the draws of FreeValue. No XML name contains U+0000,
// so no tag's draws can coincide with them.
const freeLabel = "\x00free"

// FreeValue returns a value of [1, maxTag] that no tag maps to, drawn
// through the assignment key: deterministic for a given key and set of
// assignments, and — unlike a public rule such as "the largest free value",
// which would tell an observer that every value it skipped is a tag —
// saying nothing about the other values to anyone without the key.
// ok=false when every value is assigned.
func (m *Map) FreeValue() (v *big.Int, ok bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if big.NewInt(int64(len(m.byName))).Cmp(m.maxTag) >= 0 {
		return nil, false
	}
	for ctr := uint64(0); ; ctr++ {
		v := m.draw(freeLabel, ctr)
		if _, taken := m.byVal[v.String()]; !taken {
			return v, true
		}
	}
}

// draw produces the ctr-th keyed candidate value for tag, in [1, maxTag].
func (m *Map) draw(tag string, ctr uint64) *big.Int {
	mac := hmac.New(sha256.New, m.key)
	mac.Write([]byte(tag))
	var ctrBuf [8]byte
	binary.BigEndian.PutUint64(ctrBuf[:], ctr)
	mac.Write(ctrBuf[:])
	digest := mac.Sum(nil)
	v := new(big.Int).SetBytes(digest)
	v.Mod(v, m.maxTag) // [0, maxTag)
	return v.Add(v, big.NewInt(1))
}
