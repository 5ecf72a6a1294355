package mapping

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
)

// Binary layout:
//
//	varint  len(maxTag bytes); bytes maxTag
//	varint  nEntries
//	repeat: varint len(tag); bytes tag; varint len(value bytes); bytes value
//
// The HMAC key is deliberately NOT serialized: a persisted mapping is a
// complete dictionary, and the key is only needed to assign new tags and to
// draw a free value. Callers restore it with the original secret
// (RestoreWithSecret; package store does, with the client seed).

const (
	maxTagBytes   = 1 << 10
	maxTagNameLen = 1 << 16
	maxEntries    = 1 << 24
)

// MarshalBinary implements encoding.BinaryMarshaler.
func (m *Map) MarshalBinary() ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	buf := make([]byte, 0, 64+len(m.byName)*24)
	mt := m.maxTag.Bytes()
	buf = binary.AppendUvarint(buf, uint64(len(mt)))
	buf = append(buf, mt...)
	buf = binary.AppendUvarint(buf, uint64(len(m.byName)))
	// Deterministic order: sorted tags.
	tags := make([]string, 0, len(m.byName))
	for t := range m.byName {
		tags = append(tags, t)
	}
	sortStrings(tags)
	for _, t := range tags {
		buf = binary.AppendUvarint(buf, uint64(len(t)))
		buf = append(buf, t...)
		vb := m.byName[t].Bytes()
		buf = binary.AppendUvarint(buf, uint64(len(vb)))
		buf = append(buf, vb...)
	}
	return buf, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. The restored map
// has no assignment key: Assign of *new* tags and FreeValue still work but
// draw under an empty key, values anyone can compute, so restore alongside
// the original secret via RestoreWithSecret wherever either is used.
func (m *Map) UnmarshalBinary(data []byte) error {
	restored, err := unmarshal(data, nil)
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.key = restored.key
	m.maxTag = restored.maxTag
	m.byName = restored.byName
	m.byVal = restored.byVal
	return nil
}

// RestoreWithSecret rebuilds a mapping from its serialized form plus the
// original assignment secret.
func RestoreWithSecret(data, secret []byte) (*Map, error) {
	return unmarshal(data, secret)
}

func unmarshal(data, secret []byte) (*Map, error) {
	l, k := binary.Uvarint(data)
	if k <= 0 || l > maxTagBytes {
		return nil, errors.New("mapping: bad maxTag length")
	}
	data = data[k:]
	if uint64(len(data)) < l {
		return nil, errors.New("mapping: truncated maxTag")
	}
	maxTag := new(big.Int).SetBytes(data[:l])
	data = data[l:]
	if maxTag.Sign() < 1 {
		return nil, errors.New("mapping: invalid maxTag")
	}
	n, k := binary.Uvarint(data)
	if k <= 0 || n > maxEntries {
		return nil, errors.New("mapping: bad entry count")
	}
	data = data[k:]
	out, err := New(maxTag, secret)
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < n; i++ {
		tl, k := binary.Uvarint(data)
		if k <= 0 || tl > maxTagNameLen {
			return nil, errors.New("mapping: bad tag length")
		}
		data = data[k:]
		if uint64(len(data)) < tl {
			return nil, errors.New("mapping: truncated tag")
		}
		tag := string(data[:tl])
		data = data[tl:]
		vl, k := binary.Uvarint(data)
		if k <= 0 || vl > maxTagBytes {
			return nil, errors.New("mapping: bad value length")
		}
		data = data[k:]
		if uint64(len(data)) < vl {
			return nil, errors.New("mapping: truncated value")
		}
		v := new(big.Int).SetBytes(data[:vl])
		data = data[vl:]
		if err := out.SetExplicit(tag, v); err != nil {
			return nil, fmt.Errorf("mapping: restoring %q: %w", tag, err)
		}
	}
	if len(data) != 0 {
		return nil, errors.New("mapping: trailing bytes")
	}
	return out, nil
}

// sortStrings is a tiny insertion sort to avoid importing sort twice in the
// hot path — vocabulary sizes are small.
func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
