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

// Hello is the client's opening message.
type Hello struct{ Version uint32 }

// EncodeHello marshals a Hello payload.
func EncodeHello(h Hello) []byte {
	return binary.AppendUvarint(nil, uint64(h.Version))
}

// DecodeHello unmarshals a Hello payload.
func DecodeHello(data []byte) (Hello, error) {
	v, k := binary.Uvarint(data)
	if k <= 0 {
		return Hello{}, errors.New("wire: bad hello")
	}
	return Hello{Version: uint32(v)}, nil
}

// HelloAck is the server's session acceptance: protocol version plus the
// public ring parameters of the hosted tree.
type HelloAck struct {
	Version uint32
	Params  ring.Params
}

// EncodeHelloAck marshals a HelloAck payload.
func EncodeHelloAck(h HelloAck) ([]byte, error) {
	out := binary.AppendUvarint(nil, uint64(h.Version))
	pb, err := h.Params.MarshalBinary()
	if err != nil {
		return nil, err
	}
	return append(out, pb...), nil
}

// DecodeHelloAck unmarshals a HelloAck payload.
func DecodeHelloAck(data []byte) (HelloAck, error) {
	v, k := binary.Uvarint(data)
	if k <= 0 {
		return HelloAck{}, errors.New("wire: bad hello ack")
	}
	params, rest, err := ring.DecodeParams(data[k:])
	if err != nil {
		return HelloAck{}, err
	}
	if len(rest) != 0 {
		return HelloAck{}, errors.New("wire: trailing bytes in hello ack")
	}
	return HelloAck{Version: uint32(v), Params: params}, nil
}

// decodeTail parses the optional trailing varints of a v3 request
// payload. Three encodings, distinguished purely by remaining length:
// empty rest is the v2 form (no deadline, no trace); exactly one varint
// is the deadline budget alone (the PR 8 v3 form); three varints are
// deadline + trace ID + trace flags (bit 0 = sampled). Anything else is
// malformed.
func decodeTail(rest []byte, what string) (millis, traceID uint64, sampled bool, err error) {
	if len(rest) == 0 {
		return 0, 0, false, nil
	}
	bad := func() (uint64, uint64, bool, error) {
		return 0, 0, false, errors.New("wire: trailing bytes in " + what)
	}
	millis, k := binary.Uvarint(rest)
	if k <= 0 {
		return bad()
	}
	rest = rest[k:]
	if len(rest) == 0 {
		return millis, 0, false, nil
	}
	traceID, k = binary.Uvarint(rest)
	if k <= 0 {
		return bad()
	}
	rest = rest[k:]
	flags, k := binary.Uvarint(rest)
	if k <= 0 || k != len(rest) {
		return bad()
	}
	return millis, traceID, flags&1 != 0, nil
}

// appendTail appends the optional deadline budget and trace context.
// With no trace, a zero budget keeps the v2 encoding byte-identical and
// a nonzero one appends the single PR 8 varint. With a trace, the budget
// varint is always written — even when zero — so the decoder can tell
// the forms apart by length; extended requests only ever reach peers
// that negotiated version 3.
func appendTail(dst []byte, millis, traceID uint64, sampled bool) []byte {
	if traceID == 0 && !sampled {
		if millis == 0 {
			return dst
		}
		return binary.AppendUvarint(dst, millis)
	}
	dst = binary.AppendUvarint(dst, millis)
	dst = binary.AppendUvarint(dst, traceID)
	var flags uint64
	if sampled {
		flags = 1
	}
	return binary.AppendUvarint(dst, flags)
}

// EvalReq asks for evaluations of keys at points.
type EvalReq struct {
	ID     uint64
	Keys   []drbg.NodeKey
	Points []*big.Int

	// TimeoutMillis is the client's remaining deadline budget when the
	// request was sent (protocol v3; 0 = no deadline). The server skips
	// work whose budget has already elapsed instead of computing answers
	// nobody will read. A relative budget rather than an absolute
	// timestamp, so peers need no clock agreement.
	TimeoutMillis uint64

	// TraceID and TraceSampled carry the sampled trace context of the
	// logical query this request belongs to (protocol v3; zero = not
	// traced). Hedged, retried and coalesced legs of one query share a
	// trace ID, so a daemon's slow-query log correlates with the
	// client's. Only sampled requests carry the extension, keeping
	// unsampled frames byte-identical to PR 8 v3.
	TraceID      uint64
	TraceSampled bool
}

// EncodeEvalReq marshals an EvalReq payload.
func EncodeEvalReq(r EvalReq) []byte { return AppendEvalReq(nil, r) }

// AppendEvalReq marshals an EvalReq payload onto dst (which may be a
// pooled buffer, see GetBuf).
func AppendEvalReq(dst []byte, r EvalReq) []byte {
	dst = binary.AppendUvarint(dst, r.ID)
	dst = AppendKeys(dst, r.Keys)
	dst = AppendBigs(dst, r.Points)
	return appendTail(dst, r.TimeoutMillis, r.TraceID, r.TraceSampled)
}

// DecodeEvalReq unmarshals an EvalReq payload.
func DecodeEvalReq(data []byte) (EvalReq, error) {
	id, k := binary.Uvarint(data)
	if k <= 0 {
		return EvalReq{}, errors.New("wire: bad eval id")
	}
	keys, rest, err := DecodeKeys(data[k:])
	if err != nil {
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
	return EvalReq{ID: id, Keys: keys, Points: points, TimeoutMillis: timeout,
		TraceID: traceID, TraceSampled: sampled}, nil
}

// EvalResp carries the answers to an EvalReq.
type EvalResp struct {
	ID      uint64
	Answers []core.NodeEval
}

// EncodeEvalResp marshals an EvalResp payload.
func EncodeEvalResp(r EvalResp) []byte { return AppendEvalResp(nil, r) }

// AppendEvalResp marshals an EvalResp payload onto dst. An answer's values
// are a big.Int list (AppendBigs) on the wire; one held as words is written
// from the words, byte for byte what boxing them first would write.
func AppendEvalResp(dst []byte, r EvalResp) []byte {
	// Sized once, from the first answer: the answers of a wave hold as many
	// values and sit about as deep. Where that falls short append grows.
	if len(r.Answers) > 0 {
		a := r.Answers[0]
		dst = slices.Grow(dst, 2*binary.MaxVarintLen64+len(r.Answers)*
			(keySize(a.Key)+uvarintLen(uint64(a.NumChildren))+poly.WordListSize(a.Words)))
	}
	dst = binary.AppendUvarint(dst, r.ID)
	dst = binary.AppendUvarint(dst, uint64(len(r.Answers)))
	for i := range r.Answers {
		a := &r.Answers[i]
		dst = AppendKey(dst, a.Key)
		dst = binary.AppendUvarint(dst, uint64(a.NumChildren))
		if len(a.Big) == 0 {
			dst = poly.AppendWordList(dst, a.Words)
		} else {
			dst = AppendBigs(dst, a.Big)
		}
	}
	return dst
}

// DecodeEvalResp unmarshals an EvalResp payload. Values land as words, the
// whole response's in one array, wherever an answer's all fit; an answer
// with a negative or wider value is decoded by DecodeBigs, which also
// reports malformed input. The words are what the peer sent — any uint64:
// the consumer reduces.
func DecodeEvalResp(data []byte) (EvalResp, error) {
	id, k := binary.Uvarint(data)
	if k <= 0 {
		return EvalResp{}, errors.New("wire: bad eval resp id")
	}
	data = data[k:]
	n, k := binary.Uvarint(data)
	if k <= 0 || n > maxListLen {
		return EvalResp{}, errors.New("wire: bad answer count")
	}
	data = data[k:]
	if n > uint64(len(data)) {
		return EvalResp{}, errors.New("wire: answer count exceeds available bytes")
	}
	out := EvalResp{ID: id, Answers: make([]core.NodeEval, n)}
	var slab poly.WordSlab
	var keys keySlab
	for i := uint64(0); i < n; i++ {
		key, rest, err := keys.decode(data, int(n-i))
		if err != nil {
			return EvalResp{}, err
		}
		nch, k := binary.Uvarint(rest)
		if k <= 0 || nch > maxListLen {
			return EvalResp{}, errors.New("wire: bad child count")
		}
		rest = rest[k:]
		if i == 0 {
			// Every answer of a wave holds as many values as the first; each
			// takes a byte at least, so this is never more words than bytes.
			if m, k := binary.Uvarint(rest); k > 0 && m <= uint64(len(rest))/n {
				slab.Reserve(int(m * n))
			}
		}
		a := &out.Answers[i]
		a.Key, a.NumChildren = key, int(nch)
		var ok bool
		if a.Words, data, ok = slab.DecodeList(rest, maxListLen); !ok {
			if a.Big, data, err = DecodeBigs(rest); err != nil {
				return EvalResp{}, err
			}
		}
	}
	if len(data) != 0 {
		return EvalResp{}, errors.New("wire: trailing bytes in eval response")
	}
	return out, nil
}

// FetchReq asks for share polynomials.
type FetchReq struct {
	ID   uint64
	Keys []drbg.NodeKey

	// TimeoutMillis is the remaining deadline budget (protocol v3;
	// 0 = no deadline). See EvalReq.TimeoutMillis.
	TimeoutMillis uint64

	// TraceID and TraceSampled carry the sampled trace context
	// (protocol v3; zero = not traced). See EvalReq.TraceID.
	TraceID      uint64
	TraceSampled bool
}

// EncodeFetchReq marshals a FetchReq payload.
func EncodeFetchReq(r FetchReq) []byte { return AppendFetchReq(nil, r) }

// AppendFetchReq marshals a FetchReq payload onto dst.
func AppendFetchReq(dst []byte, r FetchReq) []byte {
	dst = binary.AppendUvarint(dst, r.ID)
	dst = AppendKeys(dst, r.Keys)
	return appendTail(dst, r.TimeoutMillis, r.TraceID, r.TraceSampled)
}

// DecodeFetchReq unmarshals a FetchReq payload.
func DecodeFetchReq(data []byte) (FetchReq, error) {
	id, k := binary.Uvarint(data)
	if k <= 0 {
		return FetchReq{}, errors.New("wire: bad fetch id")
	}
	keys, rest, err := DecodeKeys(data[k:])
	if err != nil {
		return FetchReq{}, err
	}
	timeout, traceID, sampled, err := decodeTail(rest, "fetch request")
	if err != nil {
		return FetchReq{}, err
	}
	return FetchReq{ID: id, Keys: keys, TimeoutMillis: timeout,
		TraceID: traceID, TraceSampled: sampled}, nil
}

// FetchResp carries the answers to a FetchReq.
type FetchResp struct {
	ID      uint64
	Answers []core.NodePoly
}

// EncodeFetchResp marshals a FetchResp payload.
func EncodeFetchResp(r FetchResp) ([]byte, error) { return AppendFetchResp(nil, r) }

// AppendFetchResp marshals a FetchResp payload onto dst.
func AppendFetchResp(dst []byte, r FetchResp) ([]byte, error) {
	// Sized once, exactly: a response is mostly polynomials, about a
	// megabyte of them when a wave of tag recoveries asked.
	size := uvarintLen(r.ID) + uvarintLen(uint64(len(r.Answers)))
	for _, a := range r.Answers {
		size += keySize(a.Key) + uvarintLen(uint64(a.NumChildren)) + a.BinarySize()
	}
	dst = slices.Grow(dst, size)
	dst = binary.AppendUvarint(dst, r.ID)
	dst = binary.AppendUvarint(dst, uint64(len(r.Answers)))
	var err error
	for _, a := range r.Answers {
		dst = AppendKey(dst, a.Key)
		dst = binary.AppendUvarint(dst, uint64(a.NumChildren))
		if a.Big.IsZero() {
			dst = poly.AppendWords(dst, a.Words)
		} else if dst, err = a.Big.AppendBinary(dst); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// uvarintLen is the encoded length of v as an unsigned LEB128 varint.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// keySize is len(AppendKey(nil, k)).
func keySize(k drbg.NodeKey) int {
	n := uvarintLen(uint64(len(k)))
	for _, c := range k {
		n += uvarintLen(uint64(c))
	}
	return n
}

// DecodeFetchResp unmarshals a FetchResp payload.
func DecodeFetchResp(data []byte) (FetchResp, error) {
	id, k := binary.Uvarint(data)
	if k <= 0 {
		return FetchResp{}, errors.New("wire: bad fetch resp id")
	}
	data = data[k:]
	n, k := binary.Uvarint(data)
	if k <= 0 || n > maxListLen {
		return FetchResp{}, errors.New("wire: bad answer count")
	}
	data = data[k:]
	if n > uint64(len(data)) {
		return FetchResp{}, errors.New("wire: answer count exceeds available bytes")
	}
	out := FetchResp{ID: id, Answers: make([]core.NodePoly, n)}
	var slab poly.WordSlab // one array for the response's coefficients, not one per answer
	var keys keySlab
	for i := uint64(0); i < n; i++ {
		key, rest, err := keys.decode(data, int(n-i))
		if err != nil {
			return FetchResp{}, err
		}
		nch, k := binary.Uvarint(rest)
		if k <= 0 || nch > maxListLen {
			return FetchResp{}, errors.New("wire: bad child count")
		}
		// Words when the polynomial has a word form; the big.Int decoder
		// takes the rest (wide or negative coefficients) and reports
		// malformed input.
		a := core.NodePoly{Key: key, NumChildren: int(nch)}
		var ok bool
		if a.Words, data, ok = slab.Decode(rest[k:]); !ok {
			if a.Big, data, err = poly.DecodePoly(rest[k:]); err != nil {
				return FetchResp{}, err
			}
		}
		out.Answers[i] = a
	}
	if len(data) != 0 {
		return FetchResp{}, errors.New("wire: trailing bytes in fetch response")
	}
	return out, nil
}

// PruneReq notifies the server of dead subtrees.
type PruneReq struct {
	ID   uint64
	Keys []drbg.NodeKey

	// TimeoutMillis is the remaining deadline budget (protocol v3;
	// 0 = no deadline). See EvalReq.TimeoutMillis.
	TimeoutMillis uint64

	// TraceID and TraceSampled carry the sampled trace context
	// (protocol v3; zero = not traced). See EvalReq.TraceID.
	TraceID      uint64
	TraceSampled bool
}

// EncodePruneReq marshals a PruneReq payload.
func EncodePruneReq(r PruneReq) []byte { return AppendPruneReq(nil, r) }

// AppendPruneReq marshals a PruneReq payload onto dst.
func AppendPruneReq(dst []byte, r PruneReq) []byte {
	dst = binary.AppendUvarint(dst, r.ID)
	dst = AppendKeys(dst, r.Keys)
	return appendTail(dst, r.TimeoutMillis, r.TraceID, r.TraceSampled)
}

// DecodePruneReq unmarshals a PruneReq payload.
func DecodePruneReq(data []byte) (PruneReq, error) {
	id, k := binary.Uvarint(data)
	if k <= 0 {
		return PruneReq{}, errors.New("wire: bad prune id")
	}
	keys, rest, err := DecodeKeys(data[k:])
	if err != nil {
		return PruneReq{}, err
	}
	timeout, traceID, sampled, err := decodeTail(rest, "prune request")
	if err != nil {
		return PruneReq{}, err
	}
	return PruneReq{ID: id, Keys: keys, TimeoutMillis: timeout,
		TraceID: traceID, TraceSampled: sampled}, nil
}

// EncodeAck marshals an Ack payload.
func EncodeAck(id uint64) []byte { return AppendAck(nil, id) }

// AppendAck marshals an Ack payload onto dst.
func AppendAck(dst []byte, id uint64) []byte { return binary.AppendUvarint(dst, id) }

// DecodeAck unmarshals an Ack payload.
func DecodeAck(data []byte) (uint64, error) {
	id, k := binary.Uvarint(data)
	if k <= 0 {
		return 0, errors.New("wire: bad ack")
	}
	return id, nil
}

// ErrCode classifies a server-side failure so clients can tell
// retryable conditions (shed under overload) from terminal ones.
type ErrCode uint32

const (
	// CodeGeneric is an unclassified semantic failure — the v2 behaviour.
	// Not retryable: replaying the identical request yields the identical
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

// ErrorMsg reports a server-side failure for a request. Code and
// RetryAfterMillis are protocol v3 extensions carried as trailing
// varints: a v3 decoder accepts the bare v2 encoding (both default to
// zero), and AppendError omits them when they are both zero so sessions
// negotiated at v2 or lower never see the extension bytes — shedding
// daemons must therefore only set them on v3 sessions.
type ErrorMsg struct {
	ID      uint64
	Message string

	// Code classifies the failure (protocol v3; 0 = CodeGeneric).
	Code ErrCode
	// RetryAfterMillis hints how long a shed client should back off
	// before retrying (protocol v3; 0 = no hint). Only meaningful with
	// CodeOverloaded.
	RetryAfterMillis uint64
}

// EncodeError marshals an ErrorMsg payload.
func EncodeError(e ErrorMsg) []byte { return AppendError(nil, e) }

// AppendError marshals an ErrorMsg payload onto dst.
func AppendError(dst []byte, e ErrorMsg) []byte {
	dst = binary.AppendUvarint(dst, e.ID)
	dst = AppendString(dst, e.Message)
	if e.Code == CodeGeneric && e.RetryAfterMillis == 0 {
		return dst
	}
	dst = binary.AppendUvarint(dst, uint64(e.Code))
	return binary.AppendUvarint(dst, e.RetryAfterMillis)
}

// DecodeError unmarshals an ErrorMsg payload (v2 or v3 encoding).
func DecodeError(data []byte) (ErrorMsg, error) {
	id, k := binary.Uvarint(data)
	if k <= 0 {
		return ErrorMsg{}, errors.New("wire: bad error id")
	}
	msg, rest, err := DecodeString(data[k:])
	if err != nil {
		return ErrorMsg{}, err
	}
	out := ErrorMsg{ID: id, Message: msg}
	if len(rest) == 0 {
		return out, nil
	}
	code, k := binary.Uvarint(rest)
	if k <= 0 {
		return ErrorMsg{}, errors.New("wire: bad error code")
	}
	retry, k2 := binary.Uvarint(rest[k:])
	if k2 <= 0 || k+k2 != len(rest) {
		return ErrorMsg{}, errors.New("wire: trailing bytes in error message")
	}
	out.Code = ErrCode(code)
	out.RetryAfterMillis = retry
	return out, nil
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
