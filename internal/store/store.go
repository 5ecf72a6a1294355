// Package store persists the scheme's durable artifacts:
//
//   - server share stores: ring parameters + share tree, CRC-protected
//     ("SSSTORE5" files) — what an outsourcing provider keeps on disk;
//   - client state: seed + private tag mapping + ring parameters
//     ("SSCLNT5\0" files) — the client's entire secret material, which is
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
//
// It moved from 2 to 3 the same way, with share stream v3 (an AES-CTR
// keystream per node under exact-uniform wide sampling; see
// sharing.ShareLabel), and this time the shard-store magic moved too: it
// had stayed at 1 through the first bump, so an older shard file loaded
// and then failed to cancel. Every file that holds shares or the seed
// carries the generation digit, and a loader names an older one
// (ErrOldGeneration) instead of calling it a bad magic. Manifests hold
// neither and keep theirs.
//
// Generation 4 stores F_p shares in the evaluation domain (share stream v4,
// sharing.ShareLabel): a node holds its values at a = 1 … p−1, fixed-width
// at ⌈log₂ p⌉ bits in whole bytes — 2 B on F_257, so 512 B a node where a
// generation-3 polynomial took about 770 — and the tree is its shape, then
// one slab of those values (sharing's marshal.go has the layout). The slab
// is what a server serves from: a loaded tree's value vectors are views into
// the file's bytes, an evaluation is a read at offset a−1, and nothing is
// decoded or cached. The loader builds the tree without recursing, and
// refuses with ErrBadFormat a shape deeper than sharing.MaxDepth, a child
// count above the nodes left, a slab width that does not match p, a
// truncated slab and a value at or above p. Z[x]/(r(x)) trees keep their
// polynomials in the same layout.
//
// Generation 5 keeps that layout byte for byte and changes only what the
// values mean: share stream v5 (sharing.ShareLabel) reads a node's pads
// off one keystream under one key, several samples a cipher block, where
// v4 drew each from its own chain under a key per point. A generation-4
// store and key still load as files but no longer cancel, so they are
// refused by name — re-outsource to migrate. The headers keep their
// lengths, so store_bytes_per_node is unchanged.
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
	serverMagic = []byte("SSSTORE5")
	clientMagic = []byte("SSCLNT5\x00")
)

// ErrBadFormat reports an unrecognized or corrupt file.
var ErrBadFormat = errors.New("store: unrecognized or corrupt file")

// ErrOldGeneration reports a well-formed magic of an older share-stream
// generation: the file's shares no longer cancel against anything this
// build derives. It wraps ErrBadFormat.
var ErrOldGeneration = fmt.Errorf("%w: older share-stream generation", ErrBadFormat)

// checkMagic accepts data of at least min bytes that begins with magic (a
// stem, the generation digit, NUL padding). The same stem and padding
// around a lower digit is an older generation, and is reported as one.
func checkMagic(data, magic []byte, min int) error {
	if len(data) >= min && bytes.HasPrefix(data, magic) {
		return nil
	}
	g := len(bytes.TrimRight(magic, "\x00")) - 1
	if len(data) >= len(magic) && bytes.Equal(data[:g], magic[:g]) &&
		bytes.Equal(data[g+1:len(magic)], magic[g+1:]) && '1' <= data[g] && data[g] < magic[g] {
		return fmt.Errorf("%w: generation-%c file, re-outsource to migrate", ErrOldGeneration, data[g])
	}
	return fmt.Errorf("%w: bad magic", ErrBadFormat)
}

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
	if err := checkMagic(data, serverMagic, len(serverMagic)+4); err != nil {
		return nil, nil, err
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
		return nil, nil, fmt.Errorf("%w: params: %v", ErrBadFormat, err)
	}
	r, err := ring.FromParams(params)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: ring: %v", ErrBadFormat, err)
	}
	tree, trailing, err := sharing.DecodeTree(r, rest[plen:])
	if err != nil {
		return nil, nil, fmt.Errorf("%w: tree: %v", ErrBadFormat, err)
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
	if err := checkMagic(data, clientMagic, len(clientMagic)+drbg.SeedSize+4); err != nil {
		return nil, err
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
	// The file does not carry the mapping's assignment key. The seed is the
	// key Outsource uses unless Config.Secret names another, so a
	// default-configured key gets its own back, and any key draws new tags
	// and its free value (mapping.FreeValue) under a secret: a keyless map
	// would make both computable by anyone.
	m, err := mapping.RestoreWithSecret(rest[:mlen], seed[:])
	if err != nil {
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
