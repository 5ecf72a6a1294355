// Package wire defines the binary protocol between the query client and
// the share server: length-prefixed, CRC-protected frames carrying
// evaluation requests, scalar answers and share fetches.
//
// Every frame, the handshake included, has one layout (big-endian):
//
//	magic   uint16  0x5350 ("SP")
//	type    uint8
//	reqid   uint64  request correlation ID (0 in the handshake)
//	length  uint32  payload byte count
//	payload length bytes
//	crc32   uint32  IEEE CRC over type byte + reqid + payload
//
// The request ID in the header lets a connection have many requests in
// flight and responses complete out of order without the transport
// decoding payloads to route them.
//
// All payload integers are unsigned LEB128 varints unless stated otherwise.
//
// # Payloads (protocol version 4)
//
// Requests name their nodes in a key list: the key count N, then sibling
// runs until N keys are written. A run is
//
//	shared  components it shares with the previous run's last key
//	        (the first run shares none)
//	s       suffix length, then s suffix components
//	r       run length, r ≥ 1
//
// and stands for the keys k, k+1, …, k+r−1 in the last component, where k
// is the previous run's last key cut to shared components, then the
// suffix. A wave asks for whole child lists, so a node's children cost one
// run. The encoder shares the whole common prefix and writes maximal runs;
// the decoder reads any encoding of the keys. Before allocating anything
// it refuses a list that expands to more than maxListLen keys or
// maxKeyComponents components in all, a run whose last component would
// pass 2³²−1, and a list whose keys and components together outnumber
// keyListFloor plus keyListPerByte for each byte of the list: a few bytes
// cannot ask for many keys. KeyListFits tells a client whether a list is
// within those bounds; one that is not goes in several requests.
//
//	Eval       id, key list, depth, points (AppendBigs), tail
//	Fetch      id, key list, depth, tail
//	tail       deadline budget (ms, 0 = none), trace ID, trace flags
//	           (bit 0 = sampled; no other bit is defined)
//
// depth is reserved for asking for a subtree beyond the listed keys; 1,
// the keys alone, is the only value accepted.
//
// Responses are positional: answer i is for key i of the request, and no
// key travels back.
//
//	EvalResp   id, n, m, digest, κ, w, n child counts, n·m values
//	FetchResp  id, n, digest, κ, w, n child counts, n value counts, values
//
// n is the answer count and m the values per answer (one per point; 0
// when n is). The digest is eight bytes (big-endian): FNV-1a-64 of the
// request's encoded key list. κ, the count of tags a response carries
// beside its values, is reserved and must be 0. w is the width of every
// value in bits: the
// values follow bit-packed, value j in bits [j·w, (j+1)·w) counted from
// the least significant bit of the first byte, with the bits after the
// last one zero. The encoder sets w to the bit length of the largest
// value, at least 1: 9 for F_257. w = 0 selects the big.Int form instead,
// for a response holding a negative or wider-than-a-word value (Z[x]/(x²+1),
// F_p moduli over 62 bits, a tampering store): an eval answer's values are
// then an AppendBigs list and a fetched share a poly.AppendBinary
// polynomial, each with its own count, which must equal the header's.
//
// The digest binds a response to its request: client.Remote refuses a
// response whose digest, answer count or value count differs from what
// it asked, and only then gives answer i the key it asked as key i. The
// daemon checks that its store answered for exactly the keys asked before
// it encodes, except over a value-form server.Local, which writes the
// frame itself from the key list's runs (KeyRuns, EvalRespWriter).
// Neither stops a lying server, which computes the digest of
// the request it got as easily as an honest one: detecting forged values
// takes a MAC over the store, not a frame field.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/big"
	"slices"

	"sssearch/internal/drbg"
)

// FramedMagic identifies a protocol frame.
const FramedMagic uint16 = 0x5350

// Version is the protocol version a Hello and its HelloAck carry. A peer
// offering any other version is refused, so a later format change can
// refuse old peers. Version 4 made eval and fetch payloads positional.
const Version uint64 = 4

// MaxFrameSize bounds a single frame's payload (16 MiB).
const MaxFrameSize = 16 << 20

// MsgType enumerates frame types.
type MsgType uint8

const (
	// MsgHello opens a session (client → server): varint version.
	MsgHello MsgType = 1
	// MsgHelloAck acknowledges (server → client): varint version,
	// ring params blob.
	MsgHelloAck MsgType = 2
	// MsgEval requests evaluations: id, key list, points.
	MsgEval MsgType = 3
	// MsgEvalResp answers MsgEval positionally: values per key and point.
	MsgEvalResp MsgType = 4
	// MsgFetch requests whole shares: id, key list.
	MsgFetch MsgType = 5
	// MsgFetchResp answers MsgFetch positionally: a share per key.
	MsgFetchResp MsgType = 6
	// Types 7 and 8 are retired: a peer that sends one gets the
	// unexpected-frame error.

	// MsgError reports a server-side failure: varint id, string message.
	MsgError MsgType = 9
	// MsgBye closes the session gracefully.
	MsgBye MsgType = 10
)

func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "Hello"
	case MsgHelloAck:
		return "HelloAck"
	case MsgEval:
		return "Eval"
	case MsgEvalResp:
		return "EvalResp"
	case MsgFetch:
		return "Fetch"
	case MsgFetchResp:
		return "FetchResp"
	case MsgError:
		return "Error"
	case MsgBye:
		return "Bye"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

var (
	// ErrBadMagic signals a stream that is not speaking this protocol.
	ErrBadMagic = errors.New("wire: bad magic")
	// ErrFrameTooLarge signals an oversized frame.
	ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")
	// ErrChecksum signals payload corruption.
	ErrChecksum = errors.New("wire: checksum mismatch")
)

// writeChunks writes header, payload and CRC tail. Frames that fit a
// pooled buffer are assembled and written in ONE w.Write call — one
// syscall and no retained header allocation; oversized frames fall back
// to chunked writes.
func writeChunks(w io.Writer, header []byte, payload []byte, tail [4]byte) (int, error) {
	if len(header)+len(payload)+4 <= maxPooledBuf {
		buf := GetBuf()
		buf = append(buf, header...)
		buf = append(buf, payload...)
		buf = append(buf, tail[:]...)
		n, err := w.Write(buf)
		PutBuf(buf)
		if err != nil {
			return n, fmt.Errorf("wire: writing frame: %w", err)
		}
		return n, nil
	}
	total := 0
	for _, chunk := range [][]byte{header, payload, tail[:]} {
		n, err := w.Write(chunk)
		total += n
		if err != nil {
			return total, fmt.Errorf("wire: writing frame: %w", err)
		}
	}
	return total, nil
}

// FramedFrame is one protocol message: its type, the request ID it
// belongs to (carried in the header so responses can be routed without
// decoding payloads) and its payload.
type FramedFrame struct {
	Type    MsgType
	ReqID   uint64
	Payload []byte
}

// framedHeaderLen is magic(2) + type(1) + reqid(8) + length(4).
const framedHeaderLen = 15

// FramedSize is the number of bytes WriteFramed writes for a payload of n
// bytes.
func FramedSize(n int) int { return framedHeaderLen + n + 4 }

// WriteFramed writes one frame to w. It returns the number of bytes
// written.
func WriteFramed(w io.Writer, f FramedFrame) (int, error) {
	if len(f.Payload) > MaxFrameSize {
		return 0, ErrFrameTooLarge
	}
	var header [framedHeaderLen]byte
	binary.BigEndian.PutUint16(header[0:2], FramedMagic)
	header[2] = byte(f.Type)
	binary.BigEndian.PutUint64(header[3:11], f.ReqID)
	binary.BigEndian.PutUint32(header[11:15], uint32(len(f.Payload)))
	crc := crc32.NewIEEE()
	crc.Write(header[2:11])
	crc.Write(f.Payload)
	var tail [4]byte
	binary.BigEndian.PutUint32(tail[:], crc.Sum32())
	return writeChunks(w, header[:], f.Payload, tail)
}

// ReadAny reads one frame. It returns the frame and the number of bytes
// consumed.
func ReadAny(r io.Reader) (FramedFrame, int, error) {
	var header [framedHeaderLen]byte
	if _, err := io.ReadFull(r, header[:2]); err != nil {
		return FramedFrame{}, 0, err
	}
	if binary.BigEndian.Uint16(header[:2]) != FramedMagic {
		return FramedFrame{}, 2, ErrBadMagic
	}
	rest := header[2:] // type + reqid + length
	if _, err := io.ReadFull(r, rest); err != nil {
		return FramedFrame{}, 2, fmt.Errorf("wire: reading framed header: %w", err)
	}
	length := binary.BigEndian.Uint32(rest[9:13])
	if length > MaxFrameSize {
		return FramedFrame{}, framedHeaderLen, ErrFrameTooLarge
	}
	payload, err := readPayload(r, int(length))
	if err != nil {
		return FramedFrame{}, framedHeaderLen, fmt.Errorf("wire: reading payload: %w", err)
	}
	var tail [4]byte
	if _, err := io.ReadFull(r, tail[:]); err != nil {
		return FramedFrame{}, framedHeaderLen + int(length), fmt.Errorf("wire: reading checksum: %w", err)
	}
	crc := crc32.NewIEEE()
	crc.Write(rest[0:9])
	crc.Write(payload)
	if crc.Sum32() != binary.BigEndian.Uint32(tail[:]) {
		return FramedFrame{}, framedHeaderLen + 4 + int(length), ErrChecksum
	}
	return FramedFrame{
		Type:    MsgType(rest[0]),
		ReqID:   binary.BigEndian.Uint64(rest[1:9]),
		Payload: payload,
	}, framedHeaderLen + 4 + int(length), nil
}

// readPayload reads an n-byte frame payload. One that fits the buffer
// pool lands in a pooled buffer: callers that fully decode it may hand it
// back via PutBuf; callers that retain it (handshake params) simply never
// do. A larger one grows as its bytes arrive, so a header alone cannot
// make the reader allocate MaxFrameSize.
func readPayload(r io.Reader, n int) ([]byte, error) {
	if n <= maxPooledBuf {
		p := GetPayload(n)
		_, err := io.ReadFull(r, p)
		return p, err
	}
	p := make([]byte, 0, maxPooledBuf)
	for len(p) < n {
		if len(p) == cap(p) {
			p = slices.Grow(p, min(len(p), n-len(p)))
		}
		m, err := io.ReadFull(r, p[len(p):min(cap(p), n)])
		p = p[:len(p)+m]
		if err != nil {
			return nil, err
		}
	}
	return p, nil
}

// --- payload codecs -------------------------------------------------------

// maxKeyLen bounds node key depth on decode.
const maxKeyLen = 1 << 16

// maxListLen bounds list lengths on decode, the keys of a key list
// included.
const maxListLen = 1 << 22

// maxKeyComponents bounds the components of all the keys a key list
// expands to (16 MiB of them): with maxListLen it bounds what decoding any
// one request can allocate for its keys.
const maxKeyComponents = 1 << 22

// A key list's keys and components together may number at most
// keyListFloor plus keyListPerByte for each byte of its encoding, so what
// decoding allocates for them grows with the bytes that asked. The floor
// passes any wave of up to 4,096 keys 15 deep, whatever its runs; past
// it, a run of r siblings d deep may expand by r·(d+1) for the few bytes
// it takes only while that stays within keyListPerByte a byte.
const (
	keyListFloor   = 1 << 16
	keyListPerByte = 256
)

// keyListBudget is how many keys and components together a key list of
// size bytes may expand to.
func keyListBudget(size int) uint64 {
	return keyListFloor + keyListPerByte*uint64(size)
}

// KeyListFits reports whether a decoder accepts keys as one request: a
// wave of many siblings deep in the tree asks for more than its few bytes
// may, and a client sends it in parts.
func KeyListFits(keys []drbg.NodeKey) bool {
	n, comps := len(keys), 0
	for _, k := range keys {
		comps += len(k)
	}
	if n > maxListLen || comps > maxKeyComponents {
		return false
	}
	if uint64(n+comps) <= keyListFloor {
		return true
	}
	buf := AppendKeys(GetBuf(), keys)
	fits := uint64(n+comps) <= keyListBudget(len(buf))
	PutBuf(buf)
	return fits
}

// AppendKeys encodes a key list as sibling runs (see the package comment).
func AppendKeys(dst []byte, keys []drbg.NodeKey) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	var prev drbg.NodeKey // the previous run's last key
	for i := 0; i < len(keys); {
		k := keys[i]
		r := 1
		for i+r < len(keys) && follows(keys[i+r], k, r) {
			r++
		}
		shared := 0
		for shared < len(k) && shared < len(prev) && k[shared] == prev[shared] {
			shared++
		}
		dst = binary.AppendUvarint(dst, uint64(shared))
		dst = binary.AppendUvarint(dst, uint64(len(k)-shared))
		for _, c := range k[shared:] {
			dst = binary.AppendUvarint(dst, uint64(c))
		}
		dst = binary.AppendUvarint(dst, uint64(r))
		prev = keys[i+r-1]
		i += r
	}
	return dst
}

// follows reports whether key is k with r added to its last component.
func follows(key, k drbg.NodeKey, r int) bool {
	d := len(k)
	return d > 0 && len(key) == d && uint64(key[d-1]) == uint64(k[d-1])+uint64(r) &&
		slices.Equal(key[:d-1], k[:d-1])
}

// DecodeKeys decodes a key list, returning the bytes after it. The keys
// are capacity-clipped views of one array: decoding takes two
// allocations, whatever the keys.
func DecodeKeys(data []byte) ([]drbg.NodeKey, []byte, error) {
	l, rest, err := readKeyList(data)
	if err != nil {
		return nil, nil, err
	}
	return l.Keys(), rest, nil
}

// KeyRuns is a key list checked but left encoded: a request decoder checks
// the whole frame before anything is allocated for its keys, and a server
// that walks the tree run by run never expands them.
type KeyRuns struct {
	enc      []byte // the list's encoding
	n, comps int    // the keys and components it expands to
}

// readKeyList checks the key list at the front of data and returns it with
// the bytes after it, allocating nothing for its keys.
func readKeyList(data []byte) (KeyRuns, []byte, error) {
	rd, err := newRunReader(data)
	if err != nil {
		return KeyRuns{}, nil, err
	}
	var stack [16]uint32
	key := stack[:0]
	for rd.left > 0 {
		var r int
		if key, r, err = rd.next(key, key); err != nil {
			return KeyRuns{}, nil, err
		}
		toLast(key, r)
	}
	size := len(data) - len(rd.data)
	if uint64(rd.n+rd.comps) > keyListBudget(size) {
		return KeyRuns{}, nil, errors.New("wire: key list expands past what its bytes may ask for")
	}
	return KeyRuns{enc: data[:size], n: rd.n, comps: rd.comps}, rd.data, nil
}

// Len is the number of keys the list expands to.
func (l KeyRuns) Len() int { return l.n }

// Keys decodes the keys, as capacity-clipped views of one array, building
// each run's first key in its place there.
func (l KeyRuns) Keys() []drbg.NodeKey {
	keys := make([]drbg.NodeKey, 0, l.n)
	slab := make([]uint32, 0, l.comps)
	rd, _ := newRunReader(l.enc)
	var last []uint32
	for rd.left > 0 {
		at := len(slab)
		first, r, _ := rd.next(last, slab[at:])
		slab = slab[:at+len(first)]
		keys = append(keys, slab[at:len(slab):len(slab)])
		for j := 1; j < r; j++ {
			at := len(slab)
			slab = append(slab, first...)
			slab[len(slab)-1] += uint32(j)
			keys = append(keys, slab[at:len(slab):len(slab)])
		}
		last = keys[len(keys)-1]
	}
	return keys
}

// Each calls fn with each sibling run of the list, in order: the run's
// first key, a view that fn must not modify or keep past the call, and its
// length r. The run stands for the keys that add 0 … r−1 to first's last
// component; the root, which has no component, is a run of one. Each
// stops at the first error fn returns and returns it.
func (l KeyRuns) Each(fn func(first drbg.NodeKey, r int) error) error {
	rd, _ := newRunReader(l.enc)
	key := make([]uint32, 0, 16)
	for rd.left > 0 {
		var r int
		key, r, _ = rd.next(key, key)
		if err := fn(key, r); err != nil {
			return err
		}
		toLast(key, r)
	}
	return nil
}

// toLast turns the first key of a run of r into its last: the base the
// next run shares a prefix of.
func toLast(first []uint32, r int) {
	if d := len(first); d > 0 {
		first[d-1] += uint32(r - 1)
	}
}

// runReader reads the sibling runs of a key list in order, refusing a
// malformed one and one over the caps.
type runReader struct {
	data     []byte // what is left to read
	left     uint64 // the keys still to read
	n, comps int    // the keys and components read so far
}

func newRunReader(data []byte) (runReader, error) {
	total, k := binary.Uvarint(data)
	if k <= 0 || total > maxListLen {
		return runReader{}, errors.New("wire: bad key count")
	}
	return runReader{data: data[k:], left: total}, nil
}

var errKeyList = errors.New("wire: bad key list")

// next reads the next run and returns its first key and its length. last
// is the previous run's last key (empty before the first), whose prefix
// the run shares; the first key is built in key's storage, grown when it
// does not fit, and key may be last itself.
func (rd *runReader) next(last, key []uint32) ([]uint32, int, error) {
	data := rd.data
	shared, k1 := binary.Uvarint(data)
	if k1 <= 0 || shared > uint64(len(last)) {
		return nil, 0, errKeyList
	}
	s, k2 := binary.Uvarint(data[k1:])
	// A component takes a byte at least: a suffix the bytes cannot hold
	// is refused before it is read.
	if k2 <= 0 || s > uint64(len(data)-k1-k2) || shared+s > maxKeyLen {
		return nil, 0, errKeyList
	}
	data = data[k1+k2:]
	depth := int(shared + s)
	key = slices.Grow(key[:0], depth)[:depth]
	copy(key, last[:shared])
	for i := int(shared); i < depth; i++ {
		c, k := binary.Uvarint(data)
		if k <= 0 || c > 1<<32-1 {
			return nil, 0, errKeyList
		}
		key[i] = uint32(c)
		data = data[k:]
	}
	r, k := binary.Uvarint(data)
	if k <= 0 || r == 0 || r > rd.left || r > 1 && depth == 0 ||
		depth > 0 && uint64(key[depth-1])+r-1 > 1<<32-1 {
		return nil, 0, errors.New("wire: bad key run")
	}
	if uint64(rd.comps)+r*uint64(depth) > maxKeyComponents {
		return nil, 0, errors.New("wire: key list expands past the component cap")
	}
	rd.data, rd.left = data[k:], rd.left-r
	rd.n, rd.comps = rd.n+int(r), rd.comps+int(r)*depth
	return key, int(r), nil
}

// digestOf is the digest a response carries of the keys it answers:
// FNV-1a-64 of their encoded key list.
func digestOf(keys []drbg.NodeKey) uint64 {
	buf := AppendKeys(GetBuf(), keys)
	d := digest(buf)
	PutBuf(buf)
	return d
}

// digest is FNV-1a-64 of b, as hash/fnv computes it.
func digest(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

// AppendBig encodes a signed big.Int (sign byte + magnitude).
func AppendBig(dst []byte, v *big.Int) []byte {
	switch v.Sign() {
	case 0:
		return append(dst, 0)
	case 1:
		dst = append(dst, 1)
	default:
		dst = append(dst, 2)
	}
	b := v.Bytes()
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// maxBigBytes bounds a big.Int magnitude on decode (1 MiB).
const maxBigBytes = 1 << 20

// DecodeBig decodes a signed big.Int.
func DecodeBig(data []byte) (*big.Int, []byte, error) {
	if len(data) == 0 {
		return nil, nil, errors.New("wire: empty big.Int")
	}
	sign := data[0]
	data = data[1:]
	if sign == 0 {
		return new(big.Int), data, nil
	}
	if sign > 2 {
		return nil, nil, fmt.Errorf("wire: bad sign byte %d", sign)
	}
	l, k := binary.Uvarint(data)
	if k <= 0 || l > maxBigBytes {
		return nil, nil, errors.New("wire: bad big.Int length")
	}
	data = data[k:]
	if uint64(len(data)) < l {
		return nil, nil, errors.New("wire: truncated big.Int")
	}
	v := new(big.Int).SetBytes(data[:l])
	if sign == 2 {
		v.Neg(v)
	}
	return v, data[l:], nil
}

// AppendBigs encodes a big.Int list.
func AppendBigs(dst []byte, vs []*big.Int) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vs)))
	for _, v := range vs {
		dst = AppendBig(dst, v)
	}
	return dst
}

// DecodeBigs decodes a big.Int list.
func DecodeBigs(data []byte) ([]*big.Int, []byte, error) {
	n, k := binary.Uvarint(data)
	if k <= 0 || n > maxListLen {
		return nil, nil, errors.New("wire: bad big.Int count")
	}
	data = data[k:]
	if n > uint64(len(data)) {
		return nil, nil, errors.New("wire: big.Int count exceeds available bytes")
	}
	out := make([]*big.Int, n)
	for i := uint64(0); i < n; i++ {
		var err error
		out[i], data, err = DecodeBig(data)
		if err != nil {
			return nil, nil, err
		}
	}
	return out, data, nil
}

// AppendString encodes a length-prefixed string.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// maxStringLen bounds strings on decode (64 KiB).
const maxStringLen = 1 << 16

// DecodeString decodes a length-prefixed string.
func DecodeString(data []byte) (string, []byte, error) {
	l, k := binary.Uvarint(data)
	if k <= 0 || l > maxStringLen {
		return "", nil, errors.New("wire: bad string length")
	}
	data = data[k:]
	if uint64(len(data)) < l {
		return "", nil, errors.New("wire: truncated string")
	}
	return string(data[:l]), data[l:], nil
}
