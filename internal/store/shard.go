package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"sssearch/internal/ring"
	"sssearch/internal/shard"
	"sssearch/internal/sharing"
)

// This file persists the sharded-deployment artifacts:
//
//   - shard stores ("SSSHRD5\0" files, at the share-stream generation
//     of store.go): one shard's slice of a partitioned share tree — shard
//     id + routing manifest + ring parameters + tree — everything a
//     daemon needs to serve the shard and reject out-of-range keys;
//   - routing manifests ("SSMANF1\0" files): the manifest alone, the
//     public routing table a client needs to scatter queries.
//
// Both follow the store conventions: versioned magic, length-checked
// fields, trailing CRC32, atomic writes.

var (
	shardMagic    = []byte("SSSHRD5\x00")
	manifestMagic = []byte("SSMANF1\x00")
)

// SaveShard writes one shard store to path (atomically via rename).
func SaveShard(path string, r ring.Ring, tree *sharing.Tree, man *shard.Manifest, id int) error {
	var buf bytes.Buffer
	if err := WriteShard(&buf, r, tree, man, id); err != nil {
		return err
	}
	return atomicWrite(path, buf.Bytes())
}

// WriteShard streams one shard store to w.
func WriteShard(w io.Writer, r ring.Ring, tree *sharing.Tree, man *shard.Manifest, id int) error {
	if r == nil || tree == nil || tree.Root == nil {
		return errors.New("store: nil ring or tree")
	}
	if id < 0 || man == nil || id >= man.Shards {
		return fmt.Errorf("store: shard id %d outside manifest", id)
	}
	manBytes, err := man.MarshalBinary()
	if err != nil {
		return err
	}
	params, err := r.Params().MarshalBinary()
	if err != nil {
		return err
	}
	treeBytes, err := tree.MarshalBinary()
	if err != nil {
		return err
	}
	body := make([]byte, 0, len(shardMagic)+30+len(manBytes)+len(params)+len(treeBytes))
	body = append(body, shardMagic...)
	body = binary.AppendUvarint(body, uint64(id))
	body = binary.AppendUvarint(body, uint64(len(manBytes)))
	body = append(body, manBytes...)
	body = binary.AppendUvarint(body, uint64(len(params)))
	body = append(body, params...)
	body = append(body, treeBytes...)
	var crc [4]byte
	binary.BigEndian.PutUint32(crc[:], crc32.ChecksumIEEE(body))
	if _, err := w.Write(body); err != nil {
		return err
	}
	_, err = w.Write(crc[:])
	return err
}

// LoadShard reads one shard store from path.
func LoadShard(path string) (ring.Ring, *sharing.Tree, *shard.Manifest, int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	return ReadShard(data)
}

// IsShardStore reports whether data begins with the shard-store magic of
// any generation — the sniff sss-server uses to auto-detect what kind of
// file it was handed; ReadShard then refuses an older generation by name.
func IsShardStore(data []byte) bool { return bytes.HasPrefix(data, shardMagic[:len("SSSHRD")]) }

// ReadShard parses one shard store from bytes.
func ReadShard(data []byte) (ring.Ring, *sharing.Tree, *shard.Manifest, int, error) {
	fail := func(err error) (ring.Ring, *sharing.Tree, *shard.Manifest, int, error) {
		return nil, nil, nil, 0, err
	}
	if err := checkMagic(data, shardMagic, len(shardMagic)+4); err != nil {
		return fail(err)
	}
	body, crcBytes := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(crcBytes) {
		return fail(fmt.Errorf("%w: checksum mismatch", ErrBadFormat))
	}
	rest := body[len(shardMagic):]
	id, k := binary.Uvarint(rest)
	if k <= 0 {
		return fail(fmt.Errorf("%w: bad shard id", ErrBadFormat))
	}
	rest = rest[k:]
	mlen, k := binary.Uvarint(rest)
	if k <= 0 || uint64(len(rest)-k) < mlen {
		return fail(fmt.Errorf("%w: bad manifest length", ErrBadFormat))
	}
	rest = rest[k:]
	man := &shard.Manifest{}
	if err := man.UnmarshalBinary(rest[:mlen]); err != nil {
		return fail(fmt.Errorf("%w: manifest: %v", ErrBadFormat, err))
	}
	rest = rest[mlen:]
	plen, k := binary.Uvarint(rest)
	if k <= 0 || uint64(len(rest)-k) < plen {
		return fail(fmt.Errorf("%w: bad params length", ErrBadFormat))
	}
	rest = rest[k:]
	var params ring.Params
	if err := params.UnmarshalBinary(rest[:plen]); err != nil {
		return fail(fmt.Errorf("%w: params: %v", ErrBadFormat, err))
	}
	r, err := ring.FromParams(params)
	if err != nil {
		return fail(fmt.Errorf("%w: ring: %v", ErrBadFormat, err))
	}
	tree, trailing, err := sharing.DecodeTree(r, rest[plen:])
	if err != nil {
		return fail(fmt.Errorf("%w: tree: %v", ErrBadFormat, err))
	}
	if len(trailing) != 0 {
		return fail(fmt.Errorf("%w: trailing bytes", ErrBadFormat))
	}
	if id >= uint64(man.Shards) {
		return fail(fmt.Errorf("%w: shard id %d outside manifest of %d", ErrBadFormat, id, man.Shards))
	}
	return r, tree, man, int(id), nil
}

// SaveManifest writes a routing manifest to path (atomically via rename).
func SaveManifest(path string, man *shard.Manifest) error {
	var buf bytes.Buffer
	if err := WriteManifest(&buf, man); err != nil {
		return err
	}
	return atomicWrite(path, buf.Bytes())
}

// WriteManifest streams a routing manifest to w.
func WriteManifest(w io.Writer, man *shard.Manifest) error {
	manBytes, err := man.MarshalBinary()
	if err != nil {
		return err
	}
	body := make([]byte, 0, len(manifestMagic)+10+len(manBytes))
	body = append(body, manifestMagic...)
	body = binary.AppendUvarint(body, uint64(len(manBytes)))
	body = append(body, manBytes...)
	var crc [4]byte
	binary.BigEndian.PutUint32(crc[:], crc32.ChecksumIEEE(body))
	if _, err := w.Write(body); err != nil {
		return err
	}
	_, err = w.Write(crc[:])
	return err
}

// LoadManifest reads a routing manifest from path.
func LoadManifest(path string) (*shard.Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ReadManifest(data)
}

// ReadManifest parses a routing manifest from bytes.
func ReadManifest(data []byte) (*shard.Manifest, error) {
	if len(data) < len(manifestMagic)+4 || !bytes.HasPrefix(data, manifestMagic) {
		return nil, fmt.Errorf("%w: bad magic", ErrBadFormat)
	}
	body, crcBytes := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(crcBytes) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrBadFormat)
	}
	rest := body[len(manifestMagic):]
	mlen, k := binary.Uvarint(rest)
	if k <= 0 || uint64(len(rest)-k) != mlen {
		return nil, fmt.Errorf("%w: bad manifest length", ErrBadFormat)
	}
	man := &shard.Manifest{}
	if err := man.UnmarshalBinary(rest[k:]); err != nil {
		return nil, fmt.Errorf("%w: manifest: %v", ErrBadFormat, err)
	}
	return man, nil
}
