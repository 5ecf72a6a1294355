package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"math/bits"
	"slices"
	"time"

	"sssearch/internal/core"
	"sssearch/internal/drbg"
	"sssearch/internal/poly"
	"sssearch/internal/ring"
)

// This file defines typed encode/decode helpers for each message payload.

// ErrVersion reports a handshake carrying a protocol version other than
// Version.
var ErrVersion = errors.New("wire: unsupported protocol version")

// decodeVersion reads the varint version at the front of a handshake
// payload, refusing any version but Version.
func decodeVersion(data []byte, what string) ([]byte, error) {
	v, k := binary.Uvarint(data)
	if k <= 0 {
		return nil, errors.New("wire: bad " + what)
	}
	if v != Version {
		return nil, fmt.Errorf("%w %d", ErrVersion, v)
	}
	return data[k:], nil
}

// Hello is the client's opening message.
type Hello struct{ Version uint64 }

// EncodeHello marshals a Hello payload.
func EncodeHello(h Hello) []byte {
	return binary.AppendUvarint(nil, h.Version)
}

// DecodeHello unmarshals a Hello payload; any version but Version is
// refused with ErrVersion.
func DecodeHello(data []byte) (Hello, error) {
	rest, err := decodeVersion(data, "hello")
	if err != nil {
		return Hello{}, err
	}
	if len(rest) != 0 {
		return Hello{}, errors.New("wire: trailing bytes in hello")
	}
	return Hello{Version: Version}, nil
}

// HelloAck is the server's session acceptance: protocol version plus the
// public ring parameters of the hosted tree.
type HelloAck struct {
	Version uint64
	Params  ring.Params
}

// EncodeHelloAck marshals a HelloAck payload.
func EncodeHelloAck(h HelloAck) ([]byte, error) {
	out := binary.AppendUvarint(nil, h.Version)
	pb, err := h.Params.MarshalBinary()
	if err != nil {
		return nil, err
	}
	return append(out, pb...), nil
}

// DecodeHelloAck unmarshals a HelloAck payload; any version but Version
// is refused with ErrVersion.
func DecodeHelloAck(data []byte) (HelloAck, error) {
	rest, err := decodeVersion(data, "hello ack")
	if err != nil {
		return HelloAck{}, err
	}
	params, rest, err := ring.DecodeParams(rest)
	if err != nil {
		return HelloAck{}, err
	}
	if len(rest) != 0 {
		return HelloAck{}, errors.New("wire: trailing bytes in hello ack")
	}
	return HelloAck{Version: Version, Params: params}, nil
}

// decodeTail parses the fixed fields that end every request payload:
// deadline budget, trace ID and trace flags (bit 0 = sampled; no other
// bit is defined), three varints and nothing after them.
func decodeTail(rest []byte, what string) (millis, traceID uint64, sampled bool, err error) {
	var flags uint64
	var k1, k2, k3 int
	if millis, k1 = binary.Uvarint(rest); k1 > 0 {
		if traceID, k2 = binary.Uvarint(rest[k1:]); k2 > 0 {
			flags, k3 = binary.Uvarint(rest[k1+k2:])
		}
	}
	if k3 <= 0 || flags > 1 || k1+k2+k3 != len(rest) {
		return 0, 0, false, errors.New("wire: bad tail in " + what)
	}
	return millis, traceID, flags == 1, nil
}

// appendTail appends the deadline budget and trace context.
func appendTail(dst []byte, millis, traceID uint64, sampled bool) []byte {
	dst = binary.AppendUvarint(dst, millis)
	dst = binary.AppendUvarint(dst, traceID)
	if sampled {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// decodeDepth reads the expansion depth that follows a request's keys.
// Only depth 1 — the listed keys alone — is defined; any other is refused.
func decodeDepth(data []byte, what string) ([]byte, error) {
	if d, k := binary.Uvarint(data); k > 0 && d == 1 {
		return data[k:], nil
	}
	return nil, errors.New("wire: bad expansion depth in " + what)
}

// EvalReq asks for evaluations of keys at points.
type EvalReq struct {
	ID     uint64
	Keys   []drbg.NodeKey
	Points []*big.Int

	// TimeoutMillis is the client's remaining deadline budget when the
	// request was sent (0 = no deadline). The server skips work whose
	// budget has already elapsed instead of computing answers nobody will
	// read. A relative budget rather than an absolute timestamp, so peers
	// need no clock agreement.
	TimeoutMillis uint64

	// TraceID and TraceSampled carry the sampled trace context of the
	// logical query this request belongs to (zero = not traced). Hedged,
	// retried and coalesced legs of one query share a trace ID, so a
	// daemon's slow-query log correlates with the client's.
	TraceID      uint64
	TraceSampled bool

	// KeyDigest is the digest of the encoded key list, which the response
	// carries back: FNV-1a-64 of its bytes. DecodeEvalReq sets it from the
	// bytes it read; the encoder ignores it and returns the digest of what
	// it wrote.
	KeyDigest uint64
}

// EncodeEvalReq marshals an EvalReq payload.
func EncodeEvalReq(r EvalReq) []byte {
	payload, _ := AppendEvalReq(nil, r)
	return payload
}

// AppendEvalReq marshals an EvalReq payload onto dst (which may be a
// pooled buffer, see GetBuf), and returns it with the digest of its key
// list: the digest a response to it must carry.
func AppendEvalReq(dst []byte, r EvalReq) (payload []byte, keyDigest uint64) {
	dst = binary.AppendUvarint(dst, r.ID)
	start := len(dst)
	dst = AppendKeys(dst, r.Keys)
	keyDigest = digest(dst[start:])
	dst = append(dst, 1) // expansion depth
	dst = AppendBigs(dst, r.Points)
	return appendTail(dst, r.TimeoutMillis, r.TraceID, r.TraceSampled), keyDigest
}

// DecodeEvalReq unmarshals an EvalReq payload.
func DecodeEvalReq(data []byte) (EvalReq, error) {
	id, k := binary.Uvarint(data)
	if k <= 0 {
		return EvalReq{}, errors.New("wire: bad eval id")
	}
	keys, rest, err := readKeyList(data[k:])
	if err != nil {
		return EvalReq{}, err
	}
	if rest, err = decodeDepth(rest, "eval request"); err != nil {
		return EvalReq{}, err
	}
	points, rest, err := DecodeBigs(rest)
	if err != nil {
		return EvalReq{}, err
	}
	timeout, traceID, sampled, err := decodeTail(rest, "eval request")
	if err != nil {
		return EvalReq{}, err
	}
	return EvalReq{ID: id, Keys: keys.expand(), Points: points, TimeoutMillis: timeout,
		TraceID: traceID, TraceSampled: sampled, KeyDigest: digest(keys.enc)}, nil
}

// EvalResp carries the answers to an EvalReq.
type EvalResp struct {
	ID      uint64
	Answers []core.NodeEval
}

// EncodeEvalResp marshals an EvalResp payload.
func EncodeEvalResp(r EvalResp) []byte { return AppendEvalResp(nil, r) }

// AppendEvalResp marshals an EvalResp payload onto dst, positionally, with
// the digest of its answers' keys.
func AppendEvalResp(dst []byte, r EvalResp) []byte {
	keys := make([]drbg.NodeKey, len(r.Answers))
	for i := range r.Answers {
		keys[i] = r.Answers[i].Key
	}
	return AppendEvalRespFor(dst, r, digestOf(keys))
}

// AppendEvalRespFor marshals the response to the request whose key list
// has the digest keyDigest — answer i for its key i, which the frame does
// not name. Every answer must hold as many values as the first; a response
// where one does not is written in the big.Int form with the counts it
// has, which DecodeEvalResp refuses.
func AppendEvalRespFor(dst []byte, r EvalResp, keyDigest uint64) []byte {
	n := len(r.Answers)
	m := 0
	if n > 0 {
		m = r.Answers[0].Len()
	}
	w := evalWidth(r.Answers, m)
	size := 3*binary.MaxVarintLen64 + 10 + int(packedLen(uint64(n*m), uint64(w)))
	for i := range r.Answers {
		size += uvarintLen(uint64(r.Answers[i].NumChildren))
	}
	dst = slices.Grow(dst, size)
	dst = binary.AppendUvarint(dst, r.ID)
	dst = binary.AppendUvarint(dst, uint64(n))
	dst = binary.AppendUvarint(dst, uint64(m))
	dst = binary.BigEndian.AppendUint64(dst, keyDigest)
	dst = append(dst, 0, w) // κ, w
	for i := range r.Answers {
		dst = binary.AppendUvarint(dst, uint64(r.Answers[i].NumChildren))
	}
	if w == 0 {
		for i := range r.Answers {
			if a := &r.Answers[i]; len(a.Big) == 0 {
				dst = poly.AppendWordList(dst, a.Words)
			} else {
				dst = AppendBigs(dst, a.Big)
			}
		}
		return dst
	}
	b := bitWriter{dst: dst, w: uint(w)}
	for i := range r.Answers {
		if a := &r.Answers[i]; len(a.Big) == 0 {
			for _, v := range a.Words {
				b.put(v)
			}
		} else {
			for _, v := range a.Big {
				b.put(v.Uint64())
			}
		}
	}
	return b.flush()
}

// evalWidth is the bit width that packs every value of answers, each m
// of them: the bit length of the largest, at least 1. It is 0 — the
// big.Int form — when a value is negative or wider than a word, or an
// answer holds another count.
func evalWidth(answers []core.NodeEval, m int) byte {
	var or uint64
	for i := range answers {
		a := &answers[i]
		if a.Len() != m {
			return 0
		}
		for _, v := range a.Words {
			or |= v
		}
		for _, v := range a.Big {
			if v.Sign() < 0 || !v.IsUint64() {
				return 0
			}
			or |= v.Uint64()
		}
	}
	return byte(max(1, bits.Len64(or)))
}

// respHead is what leads a response, before its answers.
type respHead struct {
	id, n, m uint64 // m: values per answer, eval responses only
	digest   uint64
	w        uint
}

// readHead parses the head of a response (with a values-per-answer count
// when perAnswer is set) and the n child counts after it. Given the request
// it answers, it first checks the head against it: a response that does
// not answer the request is refused before anything is allocated for what
// it claims to hold.
func readHead(data []byte, perAnswer bool, req *asked, what string) (h respHead, nch []int, rest []byte, err error) {
	var k int
	if h.id, k = binary.Uvarint(data); k <= 0 {
		return h, nil, nil, errors.New("wire: bad id in " + what)
	}
	data = data[k:]
	if h.n, k = binary.Uvarint(data); k <= 0 || h.n > maxListLen {
		return h, nil, nil, errors.New("wire: bad answer count in " + what)
	}
	data = data[k:]
	if perAnswer {
		if h.m, k = binary.Uvarint(data); k <= 0 || h.m > maxListLen {
			return h, nil, nil, errors.New("wire: bad value count in " + what)
		}
		data = data[k:]
	}
	if len(data) < 8 {
		return h, nil, nil, errors.New("wire: truncated digest in " + what)
	}
	h.digest = binary.BigEndian.Uint64(data)
	data = data[8:]
	if kappa, k := binary.Uvarint(data); k != 1 || kappa != 0 {
		return h, nil, nil, errors.New("wire: bad tag count in " + what)
	}
	data = data[1:]
	if len(data) == 0 || data[0] > 64 {
		return h, nil, nil, errors.New("wire: bad value width in " + what)
	}
	h.w = uint(data[0])
	if req != nil {
		if err := req.answeredBy(h); err != nil {
			return h, nil, nil, err
		}
	}
	nch, rest, err = readCounts(data[1:], h.n, "child count in "+what)
	return h, nch, rest, err
}

// readCounts reads n counts, each at most maxListLen. A count takes a byte
// at least: n the bytes cannot back is refused before anything is
// allocated for it.
func readCounts(data []byte, n uint64, what string) ([]int, []byte, error) {
	if n > uint64(len(data)) {
		return nil, nil, errors.New("wire: truncated " + what)
	}
	counts := make([]int, n)
	for i := range counts {
		c, k := binary.Uvarint(data)
		if k <= 0 || c > maxListLen {
			return nil, nil, errors.New("wire: bad " + what)
		}
		counts[i] = int(c)
		data = data[k:]
	}
	return counts, data, nil
}

// ErrMismatch reports a response that does not answer the request it came
// back for: another digest of the keys, answer count or value count.
var ErrMismatch = errors.New("wire: response does not answer the request")

// asked is what a request asked, which its response must answer: keys
// whose key list has the digest keyDigest and, for an evaluation, a value
// at each of points points (-1 for a fetch).
type asked struct {
	keys      []drbg.NodeKey
	keyDigest uint64
	points    int
}

// answeredBy checks the head of a response against the request: its
// answer count, digest and — where it has answers — values per answer.
func (a *asked) answeredBy(h respHead) error {
	if h.n != uint64(len(a.keys)) {
		return fmt.Errorf("%w: %d answers for %d keys", ErrMismatch, h.n, len(a.keys))
	}
	if h.digest != a.keyDigest {
		return fmt.Errorf("%w: digest %016x of the keys, %016x asked", ErrMismatch, h.digest, a.keyDigest)
	}
	if a.points >= 0 && h.n > 0 && h.m != uint64(a.points) {
		return fmt.Errorf("%w: %d values an answer for %d points", ErrMismatch, h.m, a.points)
	}
	return nil
}

// DecodeEvalResp unmarshals an EvalResp payload. Its answers carry no keys
// (DecodeEvalRespFor gives them theirs). Packed values land as words in one
// array; in the big.Int form an answer whose values all fit a word gets
// words too, any other the big.Int form. The words are what the peer sent —
// any uint64: the consumer reduces.
func DecodeEvalResp(data []byte) (EvalResp, error) {
	r, _, err := decodeEvalResp(data, nil)
	return r, err
}

// DecodeEvalRespFor is DecodeEvalResp of the response to a request for
// keys — whose key list AppendEvalReq gave the digest keyDigest — at
// points points: one whose digest, answer count or value count differs is
// refused with ErrMismatch before its answers are decoded, and answer i
// gets keys[i].
func DecodeEvalRespFor(data []byte, keys []drbg.NodeKey, keyDigest uint64, points int) (EvalResp, error) {
	r, _, err := decodeEvalResp(data, &asked{keys, keyDigest, points})
	if err != nil {
		return EvalResp{}, err
	}
	for i := range r.Answers {
		r.Answers[i].Key = keys[i]
	}
	return r, nil
}

func decodeEvalResp(data []byte, req *asked) (EvalResp, respHead, error) {
	h, nch, data, err := readHead(data, true, req, "eval response")
	if err != nil {
		return EvalResp{}, h, err
	}
	out := EvalResp{ID: h.id, Answers: make([]core.NodeEval, h.n)}
	for i, c := range nch {
		out.Answers[i].NumChildren = c
	}
	m, total := int(h.m), h.n*h.m
	if h.w > 0 {
		if packedLen(total, uint64(h.w)) != uint64(len(data)) {
			return EvalResp{}, h, errors.New("wire: value bytes do not match the counts in eval response")
		}
		slab := make([]uint64, total)
		if !unpack(slab, data, h.w) {
			return EvalResp{}, h, errors.New("wire: padding bits set in eval response")
		}
		for i := range out.Answers {
			out.Answers[i].Words = slab[i*m : (i+1)*m : (i+1)*m]
		}
		return out, h, nil
	}
	// The big.Int form: a value takes a byte at least.
	if total > uint64(len(data)) {
		return EvalResp{}, h, errors.New("wire: value count exceeds available bytes in eval response")
	}
	var slab poly.WordSlab
	slab.Reserve(int(total))
	for i := range out.Answers {
		if c, k := binary.Uvarint(data); k <= 0 || c != h.m {
			return EvalResp{}, h, errors.New("wire: answer holds another value count in eval response")
		}
		a, rest := &out.Answers[i], data
		var ok bool
		if a.Words, data, ok = slab.DecodeList(rest, h.m); !ok {
			if a.Big, data, err = DecodeBigs(rest); err != nil {
				return EvalResp{}, h, err
			}
		}
	}
	if len(data) != 0 {
		return EvalResp{}, h, errors.New("wire: trailing bytes in eval response")
	}
	return out, h, nil
}

// FetchReq asks for whole shares.
type FetchReq struct {
	ID   uint64
	Keys []drbg.NodeKey

	// TimeoutMillis is the remaining deadline budget (0 = no deadline).
	// See EvalReq.TimeoutMillis.
	TimeoutMillis uint64

	// TraceID and TraceSampled carry the sampled trace context (zero =
	// not traced). See EvalReq.TraceID.
	TraceID      uint64
	TraceSampled bool

	// KeyDigest is the digest of the encoded key list. See
	// EvalReq.KeyDigest.
	KeyDigest uint64
}

// EncodeFetchReq marshals a FetchReq payload.
func EncodeFetchReq(r FetchReq) []byte {
	payload, _ := AppendFetchReq(nil, r)
	return payload
}

// AppendFetchReq marshals a FetchReq payload onto dst, and returns it with
// the digest of its key list, as AppendEvalReq does.
func AppendFetchReq(dst []byte, r FetchReq) (payload []byte, keyDigest uint64) {
	dst = binary.AppendUvarint(dst, r.ID)
	start := len(dst)
	dst = AppendKeys(dst, r.Keys)
	keyDigest = digest(dst[start:])
	dst = append(dst, 1) // expansion depth
	return appendTail(dst, r.TimeoutMillis, r.TraceID, r.TraceSampled), keyDigest
}

// DecodeFetchReq unmarshals a FetchReq payload.
func DecodeFetchReq(data []byte) (FetchReq, error) {
	id, k := binary.Uvarint(data)
	if k <= 0 {
		return FetchReq{}, errors.New("wire: bad fetch id")
	}
	keys, rest, err := readKeyList(data[k:])
	if err != nil {
		return FetchReq{}, err
	}
	if rest, err = decodeDepth(rest, "fetch request"); err != nil {
		return FetchReq{}, err
	}
	timeout, traceID, sampled, err := decodeTail(rest, "fetch request")
	if err != nil {
		return FetchReq{}, err
	}
	return FetchReq{ID: id, Keys: keys.expand(), TimeoutMillis: timeout,
		TraceID: traceID, TraceSampled: sampled, KeyDigest: digest(keys.enc)}, nil
}

// FetchResp carries the answers to a FetchReq.
type FetchResp struct {
	ID      uint64
	Answers []core.NodePoly
}

// EncodeFetchResp marshals a FetchResp payload.
func EncodeFetchResp(r FetchResp) ([]byte, error) { return AppendFetchResp(nil, r) }

// AppendFetchResp marshals a FetchResp payload onto dst, positionally,
// with the digest of its answers' keys.
func AppendFetchResp(dst []byte, r FetchResp) ([]byte, error) {
	keys := make([]drbg.NodeKey, len(r.Answers))
	for i := range r.Answers {
		keys[i] = r.Answers[i].Key
	}
	return AppendFetchRespFor(dst, r, digestOf(keys))
}

// AppendFetchRespFor marshals the response to the request whose key list
// has the digest keyDigest, as AppendEvalRespFor does, each share without
// its zero tail.
func AppendFetchRespFor(dst []byte, r FetchResp, keyDigest uint64) ([]byte, error) {
	n := len(r.Answers)
	w := fetchWidth(r.Answers)
	// Sized once, exactly: a response is mostly shares, about a megabyte of
	// them when a wave of tag recoveries asked.
	size, values := uvarintLen(r.ID)+uvarintLen(uint64(n))+8+2, uint64(0)
	for i := range r.Answers {
		a := &r.Answers[i]
		m := shareLen(a)
		size += uvarintLen(uint64(a.NumChildren)) + uvarintLen(uint64(m))
		if w == 0 {
			size += a.BinarySize()
		}
		values += uint64(m)
	}
	dst = slices.Grow(dst, size+int(packedLen(values, uint64(w))))
	dst = binary.AppendUvarint(dst, r.ID)
	dst = binary.AppendUvarint(dst, uint64(n))
	dst = binary.BigEndian.AppendUint64(dst, keyDigest)
	dst = append(dst, 0, w) // κ, w
	for i := range r.Answers {
		dst = binary.AppendUvarint(dst, uint64(r.Answers[i].NumChildren))
	}
	for i := range r.Answers {
		dst = binary.AppendUvarint(dst, uint64(shareLen(&r.Answers[i])))
	}
	if w == 0 {
		var err error
		for _, a := range r.Answers {
			if a.Big.IsZero() {
				dst = poly.AppendWords(dst, a.Words)
			} else if dst, err = a.Big.AppendBinary(dst); err != nil {
				return nil, err
			}
		}
		return dst, nil
	}
	b := bitWriter{dst: dst, w: uint(w)}
	for i := range r.Answers {
		words, _ := r.Answers[i].WordCoeffs()
		for _, v := range trimZeros(words) {
			b.put(v)
		}
	}
	return b.flush(), nil
}

// fetchWidth is evalWidth for shares: 0 when one has no word form.
func fetchWidth(answers []core.NodePoly) byte {
	var or uint64
	for i := range answers {
		words, ok := answers[i].WordCoeffs()
		if !ok {
			return 0
		}
		for _, v := range words {
			or |= v
		}
	}
	return byte(max(1, bits.Len64(or)))
}

// shareLen is the value count a share travels with: its length without
// the zero tail.
func shareLen(a *core.NodePoly) int {
	if !a.Big.IsZero() {
		return a.Big.Len()
	}
	return len(trimZeros(a.Words))
}

// trimZeros drops trailing zero values.
func trimZeros(w []uint64) []uint64 {
	n := len(w)
	for n > 0 && w[n-1] == 0 {
		n--
	}
	return w[:n]
}

// uvarintLen is the encoded length of v as an unsigned LEB128 varint.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// DecodeFetchResp unmarshals a FetchResp payload. Its answers carry no
// keys (DecodeFetchRespFor gives them theirs). Packed values land as words
// in one array; in the big.Int form a share whose values all fit a word
// gets words too, any other the big.Int form. A zero tail is dropped.
func DecodeFetchResp(data []byte) (FetchResp, error) {
	r, _, err := decodeFetchResp(data, nil)
	return r, err
}

// DecodeFetchRespFor is DecodeFetchResp of the response to a request for
// keys, whose key list AppendFetchReq gave the digest keyDigest: one whose
// digest or answer count differs is refused with ErrMismatch before its
// answers are decoded, and answer i gets keys[i].
func DecodeFetchRespFor(data []byte, keys []drbg.NodeKey, keyDigest uint64) (FetchResp, error) {
	r, _, err := decodeFetchResp(data, &asked{keys, keyDigest, -1})
	if err != nil {
		return FetchResp{}, err
	}
	for i := range r.Answers {
		r.Answers[i].Key = keys[i]
	}
	return r, nil
}

func decodeFetchResp(data []byte, req *asked) (FetchResp, respHead, error) {
	h, nch, data, err := readHead(data, false, req, "fetch response")
	if err != nil {
		return FetchResp{}, h, err
	}
	ms, data, err := readCounts(data, h.n, "value count in fetch response")
	if err != nil {
		return FetchResp{}, h, err
	}
	var total uint64
	for _, m := range ms {
		total += uint64(m)
	}
	out := FetchResp{ID: h.id, Answers: make([]core.NodePoly, h.n)}
	for i, c := range nch {
		out.Answers[i].NumChildren = c
	}
	if h.w > 0 {
		if packedLen(total, uint64(h.w)) != uint64(len(data)) {
			return FetchResp{}, h, errors.New("wire: value bytes do not match the counts in fetch response")
		}
		slab := make([]uint64, total)
		if !unpack(slab, data, h.w) {
			return FetchResp{}, h, errors.New("wire: padding bits set in fetch response")
		}
		for i, m := range ms {
			out.Answers[i].Words = trimZeros(slab[:m:m])
			slab = slab[m:]
		}
		return out, h, nil
	}
	// The big.Int form: a value takes a byte at least.
	if total > uint64(len(data)) {
		return FetchResp{}, h, errors.New("wire: value count exceeds available bytes in fetch response")
	}
	var slab poly.WordSlab
	slab.Reserve(int(total))
	for i, m := range ms {
		if c, k := binary.Uvarint(data); k <= 0 || c != uint64(m) {
			return FetchResp{}, h, errors.New("wire: share holds another value count in fetch response")
		}
		a, rest := &out.Answers[i], data
		var ok bool
		if a.Words, data, ok = slab.Decode(rest); !ok {
			if a.Big, data, err = poly.DecodePoly(rest); err != nil {
				return FetchResp{}, h, err
			}
		}
	}
	if len(data) != 0 {
		return FetchResp{}, h, errors.New("wire: trailing bytes in fetch response")
	}
	return out, h, nil
}

// ErrCode classifies a server-side failure so clients can tell
// retryable conditions (shed under overload) from terminal ones.
type ErrCode uint32

const (
	// CodeGeneric is an unclassified semantic failure. Not retryable: replaying the identical request yields the identical
	// error.
	CodeGeneric ErrCode = 0
	// CodeOverloaded means the daemon shed the request before doing any
	// work because admission control was at capacity. Retryable after the
	// RetryAfterMillis hint; the connection and session remain healthy.
	CodeOverloaded ErrCode = 1
	// CodeDeadlineExpired means the request's propagated deadline budget
	// had already elapsed when the daemon picked it up, so the work was
	// skipped. The client has invariably stopped waiting; not retryable
	// on its own (the caller's context governs).
	CodeDeadlineExpired ErrCode = 2
)

// ErrorMsg reports a server-side failure for a request.
type ErrorMsg struct {
	ID      uint64
	Message string

	// Code classifies the failure (0 = CodeGeneric).
	Code ErrCode
	// RetryAfterMillis hints how long a shed client should back off
	// before retrying (0 = no hint). Only meaningful with CodeOverloaded.
	RetryAfterMillis uint64
}

// EncodeError marshals an ErrorMsg payload.
func EncodeError(e ErrorMsg) []byte { return AppendError(nil, e) }

// AppendError marshals an ErrorMsg payload onto dst.
func AppendError(dst []byte, e ErrorMsg) []byte {
	dst = binary.AppendUvarint(dst, e.ID)
	dst = AppendString(dst, e.Message)
	dst = binary.AppendUvarint(dst, uint64(e.Code))
	return binary.AppendUvarint(dst, e.RetryAfterMillis)
}

// DecodeError unmarshals an ErrorMsg payload.
func DecodeError(data []byte) (ErrorMsg, error) {
	id, k := binary.Uvarint(data)
	if k <= 0 {
		return ErrorMsg{}, errors.New("wire: bad error id")
	}
	msg, rest, err := DecodeString(data[k:])
	if err != nil {
		return ErrorMsg{}, err
	}
	code, k := binary.Uvarint(rest)
	if k <= 0 || code > 1<<32-1 {
		return ErrorMsg{}, errors.New("wire: bad error code")
	}
	retry, k2 := binary.Uvarint(rest[k:])
	if k2 <= 0 || k+k2 != len(rest) {
		return ErrorMsg{}, errors.New("wire: bad tail in error message")
	}
	return ErrorMsg{ID: id, Message: msg, Code: ErrCode(code), RetryAfterMillis: retry}, nil
}

// RemoteError is the client-side surfacing of a server ErrorMsg.
type RemoteError struct {
	ID      uint64
	Message string
	Code    ErrCode
	// RetryAfter is the server's back-off hint (zero if none was sent).
	RetryAfter time.Duration
}

func (e *RemoteError) Error() string {
	switch e.Code {
	case CodeOverloaded:
		return fmt.Sprintf("wire: server overloaded (req %d, shed): %s", e.ID, e.Message)
	case CodeDeadlineExpired:
		return fmt.Sprintf("wire: server skipped expired request %d: %s", e.ID, e.Message)
	default:
		return fmt.Sprintf("wire: server error (req %d): %s", e.ID, e.Message)
	}
}

// Overloaded reports whether the server shed this request under
// admission control.
func (e *RemoteError) Overloaded() bool { return e.Code == CodeOverloaded }

// RetryableHint implements the optional interface resilience.Retryable
// consults: a shed is explicitly safe to retry (the server did no work),
// while every other remote error stays terminal.
func (e *RemoteError) RetryableHint() bool { return e.Code == CodeOverloaded }

// RetryAfterHint implements the optional interface resilience.Do
// consults to honor server-provided back-off hints.
func (e *RemoteError) RetryAfterHint() (time.Duration, bool) {
	if e.RetryAfter <= 0 {
		return 0, false
	}
	return e.RetryAfter, true
}
