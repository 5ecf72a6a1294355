// Package wire defines the binary protocol between the query client and
// the share server: length-prefixed, CRC-protected frames carrying
// evaluation requests, scalar answers, polynomial fetches and prune
// notices.
//
// Frame layout (big-endian):
//
//	magic   uint16  0x5353 ("SS")
//	type    uint8
//	length  uint32  payload byte count
//	payload length bytes
//	crc32   uint32  IEEE CRC over type byte + payload
//
// Protocol version 2 adds a pipelined variant that carries the request ID
// in the frame header, so a connection can have many requests in flight
// and responses can complete out of order without the transport decoding
// payloads to route them:
//
//	magic   uint16  0x5350 ("SP")
//	type    uint8
//	reqid   uint64  request correlation ID (0 in the handshake)
//	length  uint32  payload byte count
//	payload length bytes
//	crc32   uint32  IEEE CRC over type byte + reqid + payload
//
// The two formats are distinguished by magic; ReadAny decodes either, so
// a v2 endpoint remains backward compatible with the strict
// request/response v1 framing.
//
// All payload integers are unsigned LEB128 varints unless stated otherwise.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/big"

	"sssearch/internal/drbg"
)

// Magic identifies legacy (strict request/response) protocol frames.
const Magic uint16 = 0x5353

// FramedMagic identifies pipelined frames carrying a request ID in the
// header (protocol version 2).
const FramedMagic uint16 = 0x5350

// Version is the original strict request/response protocol version.
const Version uint32 = 1

// Version2 is the pipelined protocol version: after the handshake both
// sides speak framed (request-ID) frames and may interleave requests.
const Version2 uint32 = 2

// Version3 is the overload-protection protocol version. The framing is
// unchanged from version 2; the payloads grow optional trailing fields —
// a per-request deadline budget on Eval/Fetch/Prune requests and a typed
// error code plus retry-after hint on ErrorMsg — all encoded as trailing
// varints, so a v3 decoder accepts v2 payloads unchanged and a v3 peer
// simply omits the extensions when the negotiated session is older.
const Version3 uint32 = 3

// MaxVersion is the highest protocol version this build speaks.
const MaxVersion = Version3

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
	// MsgEval requests evaluations: varint id, keys, big-int points.
	MsgEval MsgType = 3
	// MsgEvalResp answers MsgEval: varint id, node answers.
	MsgEvalResp MsgType = 4
	// MsgFetch requests share polynomials: varint id, keys.
	MsgFetch MsgType = 5
	// MsgFetchResp answers MsgFetch: varint id, poly answers.
	MsgFetchResp MsgType = 6
	// MsgPrune notifies dead subtrees: varint id, keys.
	MsgPrune MsgType = 7
	// MsgAck acknowledges MsgPrune: varint id.
	MsgAck MsgType = 8
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
	case MsgPrune:
		return "Prune"
	case MsgAck:
		return "Ack"
	case MsgError:
		return "Error"
	case MsgBye:
		return "Bye"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// Frame is one protocol message.
type Frame struct {
	Type    MsgType
	Payload []byte
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

// WriteFrame writes one frame to w. It returns the number of bytes written.
func WriteFrame(w io.Writer, f Frame) (int, error) {
	if len(f.Payload) > MaxFrameSize {
		return 0, ErrFrameTooLarge
	}
	var header [7]byte
	binary.BigEndian.PutUint16(header[0:2], Magic)
	header[2] = byte(f.Type)
	binary.BigEndian.PutUint32(header[3:7], uint32(len(f.Payload)))
	crc := crc32.NewIEEE()
	crc.Write(header[2:3])
	crc.Write(f.Payload)
	var tail [4]byte
	binary.BigEndian.PutUint32(tail[:], crc.Sum32())
	return writeChunks(w, header[:], f.Payload, tail)
}

// ReadFrame reads one legacy frame from r. It returns the frame and the
// number of bytes consumed.
func ReadFrame(r io.Reader) (Frame, int, error) {
	var magic [2]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return Frame{}, 0, err
	}
	if binary.BigEndian.Uint16(magic[:]) != Magic {
		return Frame{}, 7, ErrBadMagic
	}
	f, n, err := readLegacyBody(r)
	return f, 2 + n, err
}

// readLegacyBody reads a legacy frame after its magic word, returning the
// bytes consumed past the magic.
func readLegacyBody(r io.Reader) (Frame, int, error) {
	rest := make([]byte, 5) // type + length
	if _, err := io.ReadFull(r, rest); err != nil {
		return Frame{}, 0, fmt.Errorf("wire: reading header: %w", err)
	}
	length := binary.BigEndian.Uint32(rest[1:5])
	if length > MaxFrameSize {
		return Frame{}, 5, ErrFrameTooLarge
	}
	// Pooled payload: callers that fully decode it may hand it back via
	// PutBuf; callers that retain it (handshake params) simply never do.
	payload := GetPayload(int(length))
	if _, err := io.ReadFull(r, payload); err != nil {
		return Frame{}, 5, fmt.Errorf("wire: reading payload: %w", err)
	}
	var tail [4]byte
	if _, err := io.ReadFull(r, tail[:]); err != nil {
		return Frame{}, 5 + int(length), fmt.Errorf("wire: reading checksum: %w", err)
	}
	crc := crc32.NewIEEE()
	crc.Write(rest[0:1])
	crc.Write(payload)
	if crc.Sum32() != binary.BigEndian.Uint32(tail[:]) {
		return Frame{}, 9 + int(length), ErrChecksum
	}
	return Frame{Type: MsgType(rest[0]), Payload: payload}, 9 + int(length), nil
}

// FramedFrame is one pipelined (version 2) protocol message: a frame plus
// the request ID it belongs to, carried in the header so responses can be
// routed without decoding payloads.
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

// WriteFramed writes one pipelined frame to w. It returns the number of
// bytes written.
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

// AnyFrame is the result of ReadAny: a message in either framing. Framed
// reports which format was on the wire; ReqID is zero for legacy frames
// (their correlation ID, if any, lives in the payload).
type AnyFrame struct {
	Type    MsgType
	ReqID   uint64
	Framed  bool
	Payload []byte
}

// ReadAny reads one frame in either the legacy or the pipelined format,
// dispatching on the magic. It returns the frame and the number of bytes
// consumed.
func ReadAny(r io.Reader) (AnyFrame, int, error) {
	var magic [2]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return AnyFrame{}, 0, err
	}
	switch binary.BigEndian.Uint16(magic[:]) {
	case Magic:
		f, n, err := readLegacyBody(r)
		return AnyFrame{Type: f.Type, Payload: f.Payload}, 2 + n, err
	case FramedMagic:
		rest := make([]byte, framedHeaderLen-2) // type + reqid + length
		if _, err := io.ReadFull(r, rest); err != nil {
			return AnyFrame{}, 2, fmt.Errorf("wire: reading framed header: %w", err)
		}
		length := binary.BigEndian.Uint32(rest[9:13])
		if length > MaxFrameSize {
			return AnyFrame{}, framedHeaderLen, ErrFrameTooLarge
		}
		payload := GetPayload(int(length))
		if _, err := io.ReadFull(r, payload); err != nil {
			return AnyFrame{}, framedHeaderLen, fmt.Errorf("wire: reading payload: %w", err)
		}
		var tail [4]byte
		if _, err := io.ReadFull(r, tail[:]); err != nil {
			return AnyFrame{}, framedHeaderLen + int(length), fmt.Errorf("wire: reading checksum: %w", err)
		}
		crc := crc32.NewIEEE()
		crc.Write(rest[0:9])
		crc.Write(payload)
		if crc.Sum32() != binary.BigEndian.Uint32(tail[:]) {
			return AnyFrame{}, framedHeaderLen + 4 + int(length), ErrChecksum
		}
		return AnyFrame{
			Type:    MsgType(rest[0]),
			ReqID:   binary.BigEndian.Uint64(rest[1:9]),
			Framed:  true,
			Payload: payload,
		}, framedHeaderLen + 4 + int(length), nil
	default:
		return AnyFrame{}, 2, ErrBadMagic
	}
}

// --- payload codecs -------------------------------------------------------

// AppendKey encodes a node key.
func AppendKey(dst []byte, k drbg.NodeKey) []byte {
	return k.AppendBinary(binary.AppendUvarint(dst, uint64(len(k))))
}

// maxKeyLen bounds node key depth on decode.
const maxKeyLen = 1 << 16

// DecodeKey decodes a node key from the front of data.
func DecodeKey(data []byte) (drbg.NodeKey, []byte, error) {
	var s keySlab
	return s.decode(data, 1)
}

// keySlab decodes the node keys of one message into shared arrays instead
// of one allocation each — what poly.WordSlab does for its values. The keys
// it returns are capacity-clipped views of those arrays. The zero value is
// ready.
type keySlab struct {
	free []uint32
}

// decode is DecodeKey into the slab; more is how many keys the message
// still holds, this one included, and sizes a new array.
func (s *keySlab) decode(data []byte, more int) (drbg.NodeKey, []byte, error) {
	n, k := binary.Uvarint(data)
	if k <= 0 || n > maxKeyLen {
		return nil, nil, errors.New("wire: bad key length")
	}
	data = data[k:]
	if n == 0 {
		return drbg.NodeKey{}, data, nil
	}
	// A component takes a byte at least: a key the bytes cannot hold is
	// refused before anything is allocated for it.
	if n > uint64(len(data)) {
		return nil, nil, errors.New("wire: bad key component")
	}
	if int(n) > len(s.free) {
		// Room for the rest of the message's keys, were they all as deep as
		// this one; never more components than bytes present.
		s.free = make([]uint32, max(int(n), min(more*int(n), len(data))))
	}
	key := drbg.NodeKey(s.free[:n:n])
	for i := range key {
		// One byte, the usual component, in a straight line.
		if len(data) > 0 && data[0] < 0x80 {
			key[i] = uint32(data[0])
			data = data[1:]
			continue
		}
		v, k := binary.Uvarint(data)
		if k <= 0 || v > 1<<32-1 {
			return nil, nil, errors.New("wire: bad key component")
		}
		key[i] = uint32(v)
		data = data[k:]
	}
	s.free = s.free[n:]
	return key, data, nil
}

// AppendKeys encodes a key list.
func AppendKeys(dst []byte, keys []drbg.NodeKey) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		dst = AppendKey(dst, k)
	}
	return dst
}

// maxListLen bounds list lengths on decode.
const maxListLen = 1 << 22

// DecodeKeys decodes a key list.
func DecodeKeys(data []byte) ([]drbg.NodeKey, []byte, error) {
	n, k := binary.Uvarint(data)
	if k <= 0 || n > maxListLen {
		return nil, nil, errors.New("wire: bad key count")
	}
	data = data[k:]
	// Every key needs at least one byte; reject counts the data cannot
	// possibly back before allocating (DoS hardening).
	if n > uint64(len(data)) {
		return nil, nil, errors.New("wire: key count exceeds available bytes")
	}
	keys := make([]drbg.NodeKey, n)
	var slab keySlab
	for i := range keys {
		var err error
		if keys[i], data, err = slab.decode(data, len(keys)-i); err != nil {
			return nil, nil, err
		}
	}
	return keys, data, nil
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
