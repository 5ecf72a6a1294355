package wire

import (
	"bytes"
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
	frames := []Frame{
		{Type: MsgHello, Payload: []byte{1, 2, 3}},
		{Type: MsgBye, Payload: nil},
		{Type: MsgEval, Payload: bytes.Repeat([]byte{0xAB}, 10000)},
	}
	for _, f := range frames {
		wn, err := WriteFrame(&buf, f)
		if err != nil {
			t.Fatal(err)
		}
		got, rn, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if wn != rn {
			t.Errorf("wrote %d read %d bytes", wn, rn)
		}
		if got.Type != f.Type || !bytes.Equal(got.Payload, f.Payload) {
			t.Errorf("frame changed in transit")
		}
	}
}

func TestFrameCorruption(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteFrame(&buf, Frame{Type: MsgEval, Payload: []byte("hello")}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Flip a payload byte → checksum failure.
	bad := append([]byte(nil), raw...)
	bad[8] ^= 0xFF
	if _, _, err := ReadFrame(bytes.NewReader(bad)); err != ErrChecksum {
		t.Errorf("corrupted payload: err = %v, want ErrChecksum", err)
	}
	// Bad magic.
	bad2 := append([]byte(nil), raw...)
	bad2[0] = 0x00
	if _, _, err := ReadFrame(bytes.NewReader(bad2)); err != ErrBadMagic {
		t.Errorf("bad magic: err = %v", err)
	}
	// Truncated stream.
	if _, _, err := ReadFrame(bytes.NewReader(raw[:5])); err == nil {
		t.Error("truncated header accepted")
	}
	if _, _, err := ReadFrame(bytes.NewReader(raw[:9])); err == nil {
		t.Error("truncated payload accepted")
	}
	// Oversized frame declared in header.
	huge := append([]byte(nil), raw[:7]...)
	huge[3], huge[4], huge[5], huge[6] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, _, err := ReadFrame(bytes.NewReader(huge)); err != ErrFrameTooLarge {
		t.Errorf("oversized frame: err = %v", err)
	}
	if _, err := WriteFrame(&buf, Frame{Payload: make([]byte, MaxFrameSize+1)}); err != ErrFrameTooLarge {
		t.Errorf("oversized write: err = %v", err)
	}
}

func TestKeyCodec(t *testing.T) {
	keys := []drbg.NodeKey{{}, {0}, {1, 2, 3}, {4294967295}}
	for _, k := range keys {
		data := AppendKey(nil, k)
		got, rest, err := DecodeKey(data)
		if err != nil {
			t.Fatal(err)
		}
		if len(rest) != 0 || got.String() != k.String() {
			t.Errorf("key %v round trip failed: %v", k, got)
		}
	}
	list := AppendKeys(nil, keys)
	got, rest, err := DecodeKeys(list)
	if err != nil || len(rest) != 0 || len(got) != len(keys) {
		t.Fatalf("keys list: %v %v %v", got, rest, err)
	}
	if _, _, err := DecodeKey([]byte{}); err == nil {
		t.Error("empty key input accepted")
	}
	if _, _, err := DecodeKeys([]byte{0x02, 0x01}); err == nil {
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
	h, err := DecodeHello(EncodeHello(Hello{Version: 7}))
	if err != nil || h.Version != 7 {
		t.Fatal("hello round trip failed")
	}
	params := ring.MustFp(101).Params()
	payload, err := EncodeHelloAck(HelloAck{Version: 1, Params: params})
	if err != nil {
		t.Fatal(err)
	}
	ack, err := DecodeHelloAck(payload)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Version != 1 || ack.Params.Kind != ring.KindFpCyclotomic || ack.Params.P.Int64() != 101 {
		t.Errorf("hello ack = %+v", ack)
	}
	zparams := ring.MustIntQuotient(1, 0, 1).Params()
	payload, _ = EncodeHelloAck(HelloAck{Version: 1, Params: zparams})
	ack, err = DecodeHelloAck(payload)
	if err != nil || ack.Params.Kind != ring.KindIntQuotient {
		t.Errorf("Z hello ack: %v %v", ack, err)
	}
	if _, err := DecodeHello(nil); err == nil {
		t.Error("empty hello accepted")
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

func TestPruneAckError(t *testing.T) {
	p := PruneReq{ID: 3, Keys: []drbg.NodeKey{{5}}}
	dec, err := DecodePruneReq(EncodePruneReq(p))
	if err != nil || dec.ID != 3 {
		t.Fatal("prune round trip failed")
	}
	id, err := DecodeAck(EncodeAck(77))
	if err != nil || id != 77 {
		t.Fatal("ack round trip failed")
	}
	e, err := DecodeError(EncodeError(ErrorMsg{ID: 5, Message: "boom"}))
	if err != nil || e.ID != 5 || e.Message != "boom" {
		t.Fatal("error round trip failed")
	}
	re := &RemoteError{ID: 5, Message: "boom"}
	if re.Error() == "" {
		t.Error("empty error string")
	}
}

func TestV3RequestDeadlines(t *testing.T) {
	// A request with a deadline budget round-trips, and its encoding with
	// the budget zeroed is byte-identical to the v2 encoding — the
	// back-compat contract that lets v3 builds talk to v2 daemons.
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
	legacy := req
	legacy.TimeoutMillis = 0
	withT := EncodeEvalReq(req)
	noT := EncodeEvalReq(legacy)
	if bytes.Equal(withT, noT) {
		t.Fatal("deadline budget not encoded")
	}
	if !bytes.HasPrefix(withT, noT) {
		t.Fatal("v3 extension is not a pure suffix of the v2 encoding")
	}
	decL, err := DecodeEvalReq(noT)
	if err != nil || decL.TimeoutMillis != 0 {
		t.Fatalf("legacy eval decode: %+v %v", decL, err)
	}

	f, err := DecodeFetchReq(EncodeFetchReq(FetchReq{ID: 8, Keys: []drbg.NodeKey{{2}}, TimeoutMillis: 250}))
	if err != nil || f.TimeoutMillis != 250 {
		t.Fatalf("fetch deadline round trip: %+v %v", f, err)
	}
	p, err := DecodePruneReq(EncodePruneReq(PruneReq{ID: 9, Keys: []drbg.NodeKey{{3}}, TimeoutMillis: 10}))
	if err != nil || p.TimeoutMillis != 10 {
		t.Fatalf("prune deadline round trip: %+v %v", p, err)
	}
	// Garbage after the budget varint is still rejected.
	if _, err := DecodeEvalReq(append(EncodeEvalReq(req), 0x01)); err == nil {
		t.Error("trailing bytes after deadline accepted")
	}
}

func TestV3RequestTrace(t *testing.T) {
	// A traced request round-trips trace ID + sampled flag on all three
	// request types, including a zero deadline budget alongside a trace.
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
	// An untraced request encodes byte-identically to the PR 8 form: the
	// trace extension is a pure suffix, and with no deadline either, to
	// the v2 form — so traceless frames are safe for v2 peers.
	traceless := req
	traceless.TraceID, traceless.TraceSampled = 0, false
	if !bytes.HasPrefix(EncodeEvalReq(req), EncodeEvalReq(traceless)) {
		t.Fatal("trace extension is not a pure suffix")
	}
	v2 := traceless
	v2.TimeoutMillis = 0
	if !bytes.HasPrefix(EncodeEvalReq(traceless), EncodeEvalReq(v2)) {
		t.Fatal("traceless v3 encoding is not a pure extension of v2")
	}

	f, err := DecodeFetchReq(EncodeFetchReq(FetchReq{ID: 8, Keys: []drbg.NodeKey{{2}}, TraceID: 42, TraceSampled: true}))
	if err != nil || f.TraceID != 42 || !f.TraceSampled {
		t.Fatalf("fetch trace round trip: %+v %v", f, err)
	}
	p, err := DecodePruneReq(EncodePruneReq(PruneReq{ID: 9, Keys: []drbg.NodeKey{{3}}, TimeoutMillis: 10, TraceID: 43, TraceSampled: true}))
	if err != nil || p.TraceID != 43 || !p.TraceSampled || p.TimeoutMillis != 10 {
		t.Fatalf("prune trace round trip: %+v %v", p, err)
	}
	// Garbage after the trace flags varint is still rejected.
	if _, err := DecodeEvalReq(append(EncodeEvalReq(req), 0x01)); err == nil {
		t.Error("trailing bytes after trace accepted")
	}
}

func TestTypedErrorCodec(t *testing.T) {
	// v3 extended encoding round-trips code + retry-after.
	shed := ErrorMsg{ID: 11, Message: "shed", Code: CodeOverloaded, RetryAfterMillis: 5}
	dec, err := DecodeError(EncodeError(shed))
	if err != nil || dec != shed {
		t.Fatalf("typed error round trip: %+v %v", dec, err)
	}
	// A generic error with no hint encodes byte-identically to v2, so v2
	// peers never see extension bytes.
	plain := ErrorMsg{ID: 11, Message: "shed"}
	if !bytes.Equal(EncodeError(plain), func() []byte {
		dst := AppendAck(nil, 11)
		return AppendString(dst, "shed")
	}()) {
		t.Fatal("generic error encoding grew extension bytes")
	}
	dec2, err := DecodeError(EncodeError(plain))
	if err != nil || dec2.Code != CodeGeneric || dec2.RetryAfterMillis != 0 {
		t.Fatalf("legacy error decode: %+v %v", dec2, err)
	}
	// Truncated extension (code without retry-after) is rejected.
	trunc := AppendAck(nil, 1)
	trunc = AppendString(trunc, "x")
	trunc = append(trunc, 0x01, 0x80) // code=1, then a dangling varint
	if _, err := DecodeError(trunc); err == nil {
		t.Error("truncated error extension accepted")
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
		if _, err := WriteFrame(&buf, Frame{Type: MsgEvalResp, Payload: payload}); err != nil {
			b.Fatal(err)
		}
		if _, _, err := ReadFrame(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
