package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/big"
	"testing"
	"time"

	"sssearch/internal/core"
	"sssearch/internal/drbg"
	"sssearch/internal/poly"
	"sssearch/internal/ring"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	frames := []FramedFrame{
		{Type: MsgHello, Payload: []byte{1, 2, 3}},
		{Type: MsgBye, ReqID: 9, Payload: nil},
		{Type: MsgEval, ReqID: 1<<64 - 1, Payload: bytes.Repeat([]byte{0xAB}, 10000)},
	}
	for _, f := range frames {
		wn, err := WriteFramed(&buf, f)
		if err != nil {
			t.Fatal(err)
		}
		if wn != FramedSize(len(f.Payload)) {
			t.Errorf("wrote %d bytes, FramedSize says %d", wn, FramedSize(len(f.Payload)))
		}
		got, rn, err := ReadAny(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if wn != rn {
			t.Errorf("wrote %d read %d bytes", wn, rn)
		}
		if got.Type != f.Type || got.ReqID != f.ReqID || !bytes.Equal(got.Payload, f.Payload) {
			t.Errorf("frame changed in transit")
		}
	}
}

func TestFrameCorruption(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteFramed(&buf, FramedFrame{Type: MsgEval, ReqID: 3, Payload: []byte("hello")}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Flip a payload byte → checksum failure.
	bad := append([]byte(nil), raw...)
	bad[framedHeaderLen+1] ^= 0xFF
	if _, _, err := ReadAny(bytes.NewReader(bad)); err != ErrChecksum {
		t.Errorf("corrupted payload: err = %v, want ErrChecksum", err)
	}
	// Bad magic.
	bad2 := append([]byte(nil), raw...)
	bad2[0] = 0x00
	if _, _, err := ReadAny(bytes.NewReader(bad2)); err != ErrBadMagic {
		t.Errorf("bad magic: err = %v", err)
	}
	// Truncated stream.
	if _, _, err := ReadAny(bytes.NewReader(raw[:5])); err == nil {
		t.Error("truncated header accepted")
	}
	if _, _, err := ReadAny(bytes.NewReader(raw[:framedHeaderLen+1])); err == nil {
		t.Error("truncated payload accepted")
	}
	// Oversized frame declared in header.
	huge := append([]byte(nil), raw[:framedHeaderLen]...)
	copy(huge[11:15], []byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, _, err := ReadAny(bytes.NewReader(huge)); err != ErrFrameTooLarge {
		t.Errorf("oversized frame: err = %v", err)
	}
	if _, err := WriteFramed(&buf, FramedFrame{Payload: make([]byte, MaxFrameSize+1)}); err != ErrFrameTooLarge {
		t.Errorf("oversized write: err = %v", err)
	}
}

func TestKeyCodec(t *testing.T) {
	keys := []drbg.NodeKey{{}, {0}, {1, 2, 3}, {4294967295}}
	list := AppendKeys(nil, keys)
	got, rest, err := DecodeKeys(list)
	if err != nil || len(rest) != 0 || len(got) != len(keys) {
		t.Fatalf("keys list: %v %v %v", got, rest, err)
	}
	for i, k := range keys {
		if got[i].String() != k.String() {
			t.Errorf("key %v round trip failed: %v", k, got[i])
		}
	}
	if _, _, err := DecodeKeys([]byte{}); err == nil {
		t.Error("empty key list input accepted")
	}
	if _, _, err := DecodeKeys([]byte{0x02, 0x00, 0x00, 0x01}); err == nil {
		t.Error("truncated key list accepted")
	}
}

func TestBigCodec(t *testing.T) {
	vals := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(-1),
		big.NewInt(1 << 40), new(big.Int).Neg(new(big.Int).Lsh(big.NewInt(1), 200)),
	}
	for _, v := range vals {
		data := AppendBig(nil, v)
		got, rest, err := DecodeBig(data)
		if err != nil || len(rest) != 0 {
			t.Fatalf("big %v: %v %v", v, got, err)
		}
		if got.Cmp(v) != 0 {
			t.Errorf("big %v round trip gave %v", v, got)
		}
	}
	list := AppendBigs(nil, vals)
	got, rest, err := DecodeBigs(list)
	if err != nil || len(rest) != 0 || len(got) != len(vals) {
		t.Fatal("bigs list broken")
	}
	if _, _, err := DecodeBig(nil); err == nil {
		t.Error("empty big accepted")
	}
	if _, _, err := DecodeBig([]byte{9}); err == nil {
		t.Error("bad sign accepted")
	}
}

func TestStringCodec(t *testing.T) {
	for _, s := range []string{"", "hi", "üñíçødé"} {
		data := AppendString(nil, s)
		got, rest, err := DecodeString(data)
		if err != nil || len(rest) != 0 || got != s {
			t.Errorf("string %q: got %q err %v", s, got, err)
		}
	}
	if _, _, err := DecodeString([]byte{0x05, 'a'}); err == nil {
		t.Error("truncated string accepted")
	}
}

func TestHelloMessages(t *testing.T) {
	h, err := DecodeHello(EncodeHello(Hello{Version: Version}))
	if err != nil || h.Version != Version {
		t.Fatal("hello round trip failed")
	}
	params := ring.MustFp(101).Params()
	payload, err := EncodeHelloAck(HelloAck{Version: Version, Params: params})
	if err != nil {
		t.Fatal(err)
	}
	ack, err := DecodeHelloAck(payload)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Version != Version || ack.Params.Kind != ring.KindFpCyclotomic || ack.Params.P.Int64() != 101 {
		t.Errorf("hello ack = %+v", ack)
	}
	zparams := ring.MustIntQuotient(1, 0, 1).Params()
	payload, _ = EncodeHelloAck(HelloAck{Version: Version, Params: zparams})
	ack, err = DecodeHelloAck(payload)
	if err != nil || ack.Params.Kind != ring.KindIntQuotient {
		t.Errorf("Z hello ack: %v %v", ack, err)
	}
	if _, err := DecodeHello(nil); err == nil {
		t.Error("empty hello accepted")
	}
}

// TestHelloRefusesOtherVersions: the handshake accepts exactly version 4,
// compared as the full varint — 2^32+4 is not 4 — and nothing after it;
// version 3, the keyed frames, is refused like any other.
func TestHelloRefusesOtherVersions(t *testing.T) {
	params, err := ring.MustFp(101).Params().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint64{0, 1, 2, 3, 5, 1<<32 + 4, 1<<64 - 1} {
		hello := binary.AppendUvarint(nil, v)
		if _, err := DecodeHello(hello); !errors.Is(err, ErrVersion) {
			t.Errorf("hello of version %d: err = %v, want ErrVersion", v, err)
		}
		if _, err := DecodeHelloAck(append(hello, params...)); !errors.Is(err, ErrVersion) {
			t.Errorf("hello ack of version %d: err = %v, want ErrVersion", v, err)
		}
	}
	if _, err := DecodeHello([]byte{4, 0}); err == nil {
		t.Error("hello with a trailing byte accepted")
	}
	ack := append(binary.AppendUvarint(nil, 4), params...)
	if _, err := DecodeHelloAck(append(ack, 0)); err == nil {
		t.Error("hello ack with a trailing byte accepted")
	}
}

func TestEvalMessages(t *testing.T) {
	req := EvalReq{
		ID:     42,
		Keys:   []drbg.NodeKey{{}, {1, 2}},
		Points: []*big.Int{big.NewInt(2), big.NewInt(5)},
	}
	dec, err := DecodeEvalReq(EncodeEvalReq(req))
	if err != nil {
		t.Fatal(err)
	}
	if dec.ID != 42 || len(dec.Keys) != 2 || len(dec.Points) != 2 {
		t.Errorf("eval req = %+v", dec)
	}
	resp := EvalResp{
		ID: 42,
		Answers: []core.NodeEval{
			{Key: drbg.NodeKey{}, NumChildren: 2, Big: []*big.Int{big.NewInt(0), big.NewInt(3)}},
			{Key: drbg.NodeKey{0}, NumChildren: 0, Big: []*big.Int{big.NewInt(4), big.NewInt(1)}},
		},
	}
	decR, err := DecodeEvalResp(EncodeEvalResp(resp))
	if err != nil {
		t.Fatal(err)
	}
	if decR.ID != 42 || len(decR.Answers) != 2 {
		t.Fatalf("eval resp = %+v", decR)
	}
	if decR.Answers[0].NumChildren != 2 || decR.Answers[0].Values()[1].Int64() != 3 {
		t.Errorf("answer 0 = %+v", decR.Answers[0])
	}
	if _, err := DecodeEvalResp([]byte{0x01}); err == nil {
		t.Error("truncated eval resp accepted")
	}
	// Trailing bytes rejected.
	if _, err := DecodeEvalReq(append(EncodeEvalReq(req), 0xFF)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestFetchMessages(t *testing.T) {
	req := FetchReq{ID: 9, Keys: []drbg.NodeKey{{0, 1}}}
	dec, err := DecodeFetchReq(EncodeFetchReq(req))
	if err != nil || dec.ID != 9 || len(dec.Keys) != 1 {
		t.Fatalf("fetch req: %+v %v", dec, err)
	}
	resp := FetchResp{
		ID: 9,
		Answers: []core.NodePoly{
			{Key: drbg.NodeKey{0, 1}, NumChildren: 3, Big: poly.FromInt64(45, 265)},
		},
	}
	payload, err := EncodeFetchResp(resp)
	if err != nil {
		t.Fatal(err)
	}
	decR, err := DecodeFetchResp(payload)
	if err != nil {
		t.Fatal(err)
	}
	if decR.Answers[0].NumChildren != 3 || !decR.Answers[0].Polynomial().Equal(poly.FromInt64(45, 265)) {
		t.Errorf("fetch resp = %+v", decR.Answers[0])
	}
}

// TestFetchRespWordsAndBigIntAlike: a FetchResp encodes to the same bytes
// whether an answer carries its polynomial as words or in the big.Int
// form, and decodes into words exactly when every coefficient fits one.
func TestFetchRespWordsAndBigIntAlike(t *testing.T) {
	words := []uint64{45, 0, 265, 1<<64 - 1, 0, 0} // unreduced and untrimmed on purpose
	asWords := FetchResp{ID: 4, Answers: []core.NodePoly{
		{Key: drbg.NodeKey{2}, NumChildren: 1, Words: words},
		{Key: drbg.NodeKey{3}}, // the zero polynomial
	}}
	asBig := FetchResp{ID: 4, Answers: []core.NodePoly{
		{Key: drbg.NodeKey{2}, NumChildren: 1, Big: poly.NewUint64(words)},
		{Key: drbg.NodeKey{3}},
	}}
	a, err := EncodeFetchResp(asWords)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeFetchResp(asBig)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("word form encodes to %x, big.Int form to %x", a, b)
	}
	dec, err := DecodeFetchResp(a)
	if err != nil {
		t.Fatal(err)
	}
	got := dec.Answers[0]
	if !got.Big.IsZero() || len(got.Words) != 4 || !got.Polynomial().Equal(poly.NewUint64(words)) {
		t.Fatalf("decoded %+v, want the four significant words", got)
	}
	if !dec.Answers[1].Polynomial().IsZero() {
		t.Fatalf("zero polynomial decoded to %+v", dec.Answers[1])
	}

	// Negative or wider than a word: only the big.Int form can carry it.
	for _, p := range []poly.Poly{
		poly.FromInt64(7, -1),
		poly.New(big.NewInt(7), new(big.Int).Lsh(big.NewInt(1), 64)),
	} {
		payload, err := EncodeFetchResp(FetchResp{ID: 5, Answers: []core.NodePoly{{Key: drbg.NodeKey{1}, Big: p}}})
		if err != nil {
			t.Fatal(err)
		}
		dec, err := DecodeFetchResp(payload)
		if err != nil {
			t.Fatal(err)
		}
		got := dec.Answers[0]
		if got.Words != nil || !got.Big.Equal(p) {
			t.Fatalf("%s decoded to %+v, want the big.Int form", p, got)
		}
		if _, ok := got.WordCoeffs(); ok {
			t.Fatalf("%s claims a word form", p)
		}
	}
}

func TestErrorRoundTrip(t *testing.T) {
	e, err := DecodeError(EncodeError(ErrorMsg{ID: 5, Message: "boom"}))
	if err != nil || e.ID != 5 || e.Message != "boom" {
		t.Fatal("error round trip failed")
	}
	re := &RemoteError{ID: 5, Message: "boom"}
	if re.Error() == "" {
		t.Error("empty error string")
	}
}

// TestV3RequestDeadlines: the deadline budget is a fixed field of every
// request — present when zero, round-tripped when set — and a request
// without its fixed fields, or with bytes after them, is refused.
func TestV3RequestDeadlines(t *testing.T) {
	req := EvalReq{
		ID:            7,
		Keys:          []drbg.NodeKey{{1}},
		Points:        []*big.Int{big.NewInt(3)},
		TimeoutMillis: 1500,
	}
	dec, err := DecodeEvalReq(EncodeEvalReq(req))
	if err != nil || dec.TimeoutMillis != 1500 {
		t.Fatalf("eval deadline round trip: %+v %v", dec, err)
	}
	zero := req
	zero.TimeoutMillis = 0
	noT := EncodeEvalReq(zero)
	bare := AppendBigs(append(AppendKeys(binary.AppendUvarint(nil, 7), zero.Keys), 1), zero.Points)
	if !bytes.Equal(noT, append(bare, 0, 0, 0)) {
		t.Fatalf("zero budget encodes to %x, want the three fixed fields %x", noT, append(bare, 0, 0, 0))
	}
	if _, err := DecodeEvalReq(bare); err == nil {
		t.Error("eval request without its fixed fields accepted")
	}
	if _, err := DecodeFetchReq(append(AppendKeys(binary.AppendUvarint(nil, 8), zero.Keys), 1)); err == nil {
		t.Error("fetch request without its fixed fields accepted")
	}

	f, err := DecodeFetchReq(EncodeFetchReq(FetchReq{ID: 8, Keys: []drbg.NodeKey{{2}}, TimeoutMillis: 250}))
	if err != nil || f.TimeoutMillis != 250 {
		t.Fatalf("fetch deadline round trip: %+v %v", f, err)
	}
	// Garbage after the fixed fields is rejected.
	if _, err := DecodeEvalReq(append(EncodeEvalReq(req), 0x01)); err == nil {
		t.Error("trailing bytes after deadline accepted")
	}
}

// TestV3RequestTrace: trace ID and sampled flag round-trip on both
// request types, alone or beside a deadline; flag bits other than
// "sampled" are refused.
func TestV3RequestTrace(t *testing.T) {
	req := EvalReq{
		ID:           7,
		Keys:         []drbg.NodeKey{{1}},
		Points:       []*big.Int{big.NewInt(3)},
		TraceID:      0xdeadbeefcafef00d,
		TraceSampled: true,
	}
	dec, err := DecodeEvalReq(EncodeEvalReq(req))
	if err != nil || dec.TraceID != req.TraceID || !dec.TraceSampled || dec.TimeoutMillis != 0 {
		t.Fatalf("eval trace round trip: %+v %v", dec, err)
	}
	// Trace + deadline together.
	req.TimeoutMillis = 1500
	dec, err = DecodeEvalReq(EncodeEvalReq(req))
	if err != nil || dec.TraceID != req.TraceID || !dec.TraceSampled || dec.TimeoutMillis != 1500 {
		t.Fatalf("eval trace+deadline round trip: %+v %v", dec, err)
	}
	f, err := DecodeFetchReq(EncodeFetchReq(FetchReq{ID: 8, Keys: []drbg.NodeKey{{2}}, TraceID: 42, TraceSampled: true}))
	if err != nil || f.TraceID != 42 || !f.TraceSampled {
		t.Fatalf("fetch trace round trip: %+v %v", f, err)
	}
	// Flags are the last byte of a sampled request; 2 is no defined flag.
	enc := EncodeEvalReq(req)
	enc[len(enc)-1] = 2
	if _, err := DecodeEvalReq(enc); err == nil {
		t.Error("undefined trace flag accepted")
	}
	// Garbage after the trace flags varint is still rejected.
	if _, err := DecodeEvalReq(append(EncodeEvalReq(req), 0x01)); err == nil {
		t.Error("trailing bytes after trace accepted")
	}
}

func TestTypedErrorCodec(t *testing.T) {
	shed := ErrorMsg{ID: 11, Message: "shed", Code: CodeOverloaded, RetryAfterMillis: 5}
	dec, err := DecodeError(EncodeError(shed))
	if err != nil || dec != shed {
		t.Fatalf("typed error round trip: %+v %v", dec, err)
	}
	// A generic error with no hint still carries both fixed fields.
	plain := ErrorMsg{ID: 11, Message: "shed"}
	bare := AppendString(binary.AppendUvarint(nil, 11), "shed")
	if !bytes.Equal(EncodeError(plain), append(bare, 0, 0)) {
		t.Fatalf("generic error encodes to %x, want %x", EncodeError(plain), append(bare, 0, 0))
	}
	if _, err := DecodeError(bare); err == nil {
		t.Error("error message without its fixed fields accepted")
	}
	// Truncated fields (code without retry-after) are rejected.
	trunc := append(bare, 0x01, 0x80) // code=1, then a dangling varint
	if _, err := DecodeError(trunc); err == nil {
		t.Error("truncated error fields accepted")
	}
}

func TestRemoteErrorHints(t *testing.T) {
	shed := &RemoteError{ID: 1, Message: "shed", Code: CodeOverloaded, RetryAfter: 5 * time.Millisecond}
	if !shed.Overloaded() || !shed.RetryableHint() {
		t.Error("shed error must be retryable")
	}
	if d, ok := shed.RetryAfterHint(); !ok || d != 5*time.Millisecond {
		t.Errorf("retry-after hint = %v %v", d, ok)
	}
	generic := &RemoteError{ID: 2, Message: "bad key"}
	if generic.Overloaded() || generic.RetryableHint() {
		t.Error("generic remote error must stay terminal")
	}
	if _, ok := generic.RetryAfterHint(); ok {
		t.Error("generic remote error must carry no hint")
	}
	expired := &RemoteError{ID: 3, Message: "late", Code: CodeDeadlineExpired}
	if expired.RetryableHint() {
		t.Error("deadline-expired must not be blindly retryable")
	}
	for _, e := range []*RemoteError{shed, generic, expired} {
		if e.Error() == "" {
			t.Error("empty error string")
		}
	}
}

func BenchmarkFrameRoundTrip(b *testing.B) {
	payload := EncodeEvalResp(EvalResp{
		ID: 1,
		Answers: []core.NodeEval{
			{Key: drbg.NodeKey{1, 2, 3}, NumChildren: 4, Big: []*big.Int{big.NewInt(12345)}},
		},
	})
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if _, err := WriteFramed(&buf, FramedFrame{Type: MsgEvalResp, ReqID: 1, Payload: payload}); err != nil {
			b.Fatal(err)
		}
		if _, _, err := ReadAny(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
