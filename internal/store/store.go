// Package store persists the scheme's durable artifacts:
//
//   - server share stores: ring parameters + share tree, CRC-protected
//     ("SSSTORE2" files) — what an outsourcing provider keeps on disk;
//   - client state: seed + private tag mapping + ring parameters
//     ("SSCLNT2\0" files) — the client's entire secret material, which is
//     all a client needs to query any number of servers.
//
// Formats are versioned by magic and fully length-checked on load; a
// flipped bit anywhere fails the checksum rather than corrupting queries.
//
// The magic moved from generation 1 to 2 together with
// sharing.ShareLabel: the fast-path bulk sampler changed how seed-derived
// share pads consume the DRBG stream, so a generation-1 client key would
// silently fail to cancel against a generation-1 server store under the
// new derivation. Rejecting the old magic loudly (re-outsource to
// migrate) is deliberate.
package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"sssearch/internal/drbg"
	"sssearch/internal/mapping"
	"sssearch/internal/ring"
	"sssearch/internal/sharing"
)

var (
	serverMagic = []byte("SSSTORE2")
	clientMagic = []byte("SSCLNT2\x00")
)

// ErrBadFormat reports an unrecognized or corrupt file.
var ErrBadFormat = errors.New("store: unrecognized or corrupt file")

// SaveServer writes a server share store to path (atomically via rename).
func SaveServer(path string, r ring.Ring, tree *sharing.Tree) error {
	var buf bytes.Buffer
	if err := WriteServer(&buf, r, tree); err != nil {
		return err
	}
	return atomicWrite(path, buf.Bytes())
}

// WriteServer streams a server share store to w.
func WriteServer(w io.Writer, r ring.Ring, tree *sharing.Tree) error {
	if r == nil || tree == nil || tree.Root == nil {
		return errors.New("store: nil ring or tree")
	}
	params, err := r.Params().MarshalBinary()
	if err != nil {
		return err
	}
	treeBytes, err := tree.MarshalBinary()
	if err != nil {
		return err
	}
	body := make([]byte, 0, len(serverMagic)+10+len(params)+len(treeBytes))
	body = append(body, serverMagic...)
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

// LoadServer reads a server share store from path.
func LoadServer(path string) (ring.Ring, *sharing.Tree, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	return ReadServer(data)
}

// ReadServer parses a server share store from bytes.
func ReadServer(data []byte) (ring.Ring, *sharing.Tree, error) {
	if len(data) < len(serverMagic)+4 || !bytes.HasPrefix(data, serverMagic) {
		return nil, nil, fmt.Errorf("%w: bad magic", ErrBadFormat)
	}
	body, crcBytes := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(crcBytes) {
		return nil, nil, fmt.Errorf("%w: checksum mismatch", ErrBadFormat)
	}
	rest := body[len(serverMagic):]
	plen, k := binary.Uvarint(rest)
	if k <= 0 || uint64(len(rest)-k) < plen {
		return nil, nil, fmt.Errorf("%w: bad params length", ErrBadFormat)
	}
	rest = rest[k:]
	var params ring.Params
	if err := params.UnmarshalBinary(rest[:plen]); err != nil {
		return nil, nil, fmt.Errorf("store: params: %w", err)
	}
	r, err := ring.FromParams(params)
	if err != nil {
		return nil, nil, fmt.Errorf("store: ring: %w", err)
	}
	tree, trailing, err := sharing.DecodeTree(r, rest[plen:])
	if err != nil {
		return nil, nil, fmt.Errorf("store: tree: %w", err)
	}
	if len(trailing) != 0 {
		return nil, nil, fmt.Errorf("%w: trailing bytes", ErrBadFormat)
	}
	return r, tree, nil
}

// ClientState is everything the client must keep secret and durable.
type ClientState struct {
	Seed    drbg.Seed
	Params  ring.Params
	Mapping *mapping.Map
}

// SaveClient writes client state to path with 0600 permissions.
func SaveClient(path string, st *ClientState) error {
	var buf bytes.Buffer
	if err := WriteClient(&buf, st); err != nil {
		return err
	}
	return atomicWriteMode(path, buf.Bytes(), 0o600)
}

// WriteClient streams client state to w.
func WriteClient(w io.Writer, st *ClientState) error {
	if st == nil || st.Mapping == nil {
		return errors.New("store: nil client state")
	}
	params, err := st.Params.MarshalBinary()
	if err != nil {
		return err
	}
	mb, err := st.Mapping.MarshalBinary()
	if err != nil {
		return err
	}
	body := make([]byte, 0, len(clientMagic)+drbg.SeedSize+20+len(params)+len(mb))
	body = append(body, clientMagic...)
	body = append(body, st.Seed[:]...)
	body = binary.AppendUvarint(body, uint64(len(params)))
	body = append(body, params...)
	body = binary.AppendUvarint(body, uint64(len(mb)))
	body = append(body, mb...)
	var crc [4]byte
	binary.BigEndian.PutUint32(crc[:], crc32.ChecksumIEEE(body))
	if _, err := w.Write(body); err != nil {
		return err
	}
	_, err = w.Write(crc[:])
	return err
}

// LoadClient reads client state from path.
func LoadClient(path string) (*ClientState, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ReadClient(data)
}

// ReadClient parses client state from bytes.
func ReadClient(data []byte) (*ClientState, error) {
	if len(data) < len(clientMagic)+drbg.SeedSize+4 || !bytes.HasPrefix(data, clientMagic) {
		return nil, fmt.Errorf("%w: bad magic", ErrBadFormat)
	}
	body, crcBytes := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(crcBytes) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrBadFormat)
	}
	rest := body[len(clientMagic):]
	seed, err := drbg.SeedFromBytes(rest[:drbg.SeedSize])
	if err != nil {
		return nil, err
	}
	rest = rest[drbg.SeedSize:]
	plen, k := binary.Uvarint(rest)
	if k <= 0 || uint64(len(rest)-k) < plen {
		return nil, fmt.Errorf("%w: bad params length", ErrBadFormat)
	}
	rest = rest[k:]
	var params ring.Params
	if err := params.UnmarshalBinary(rest[:plen]); err != nil {
		return nil, err
	}
	rest = rest[plen:]
	mlen, k := binary.Uvarint(rest)
	if k <= 0 || uint64(len(rest)-k) < mlen {
		return nil, fmt.Errorf("%w: bad mapping length", ErrBadFormat)
	}
	rest = rest[k:]
	m := &mapping.Map{}
	if err := m.UnmarshalBinary(rest[:mlen]); err != nil {
		return nil, err
	}
	if len(rest) != int(mlen) {
		return nil, fmt.Errorf("%w: trailing bytes", ErrBadFormat)
	}
	return &ClientState{Seed: seed, Params: params, Mapping: m}, nil
}

func atomicWrite(path string, data []byte) error {
	return atomicWriteMode(path, data, 0o644)
}

func atomicWriteMode(path string, data []byte, mode os.FileMode) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, mode); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
