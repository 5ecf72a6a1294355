package wire

import (
	"bytes"
	"math/big"
	"os"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"sssearch/internal/drbg"
)

// The frozen format: one frame layout and fixed request fields. The golden
// file pins the request side byte for byte, beside the two response goldens;
// the fuzz targets hold every decoder on the request side to three rules —
// no panic, a decode → encode round trip, and no allocation beyond what the
// input bytes back. Seed corpora live in testdata/fuzz/<target>/.

// goldenRequests are the frames behind testdata/req_frames_golden.bin: a
// handshake Hello, a sampled EvalReq with a deadline, an untraced FetchReq
// and a shed ErrorMsg, back to back.
func goldenRequests() []FramedFrame {
	return []FramedFrame{
		{Type: MsgHello, Payload: EncodeHello(Hello{Version: Version})},
		{Type: MsgEval, ReqID: 0x0102030405060708, Payload: EncodeEvalReq(EvalReq{
			ID:            0x0102030405060708,
			Keys:          []drbg.NodeKey{{}, {0}, {3, 1}, {127, 128, 1<<32 - 1}},
			Points:        []*big.Int{big.NewInt(2), big.NewInt(256), new(big.Int).Lsh(big.NewInt(1), 70), big.NewInt(-5)},
			TimeoutMillis: 1500,
			TraceID:       0xdeadbeefcafef00d,
			TraceSampled:  true,
		})},
		{Type: MsgFetch, ReqID: 9, Payload: EncodeFetchReq(FetchReq{ID: 9, Keys: []drbg.NodeKey{{0, 1}, {2}}})},
		{Type: MsgError, ReqID: 11, Payload: EncodeError(ErrorMsg{
			ID: 11, Message: "overloaded: shed by admission control", Code: CodeOverloaded, RetryAfterMillis: 5,
		})},
	}
}

// TestRequestFramesGolden: the request-side frames encode, byte for byte,
// to the golden file, and the file reads back as the same frames and
// messages.
func TestRequestFramesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/req_frames_golden.bin")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, f := range goldenRequests() {
		if _, err := WriteFramed(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("request frames encode to %d bytes that differ from the %d-byte golden file", buf.Len(), len(want))
	}
	rd := bytes.NewReader(want)
	for i, g := range goldenRequests() {
		f, _, err := ReadAny(rd)
		if err != nil || f.Type != g.Type || f.ReqID != g.ReqID || !bytes.Equal(f.Payload, g.Payload) {
			t.Fatalf("frame %d read as %+v (%v)", i, f, err)
		}
	}
	if rd.Len() != 0 {
		t.Fatalf("%d bytes after the last golden frame", rd.Len())
	}
	frames := goldenRequests()
	if _, err := DecodeHello(frames[0].Payload); err != nil {
		t.Fatal(err)
	}
	if req, err := DecodeEvalReq(frames[1].Payload); err != nil || req.TimeoutMillis != 1500 || !req.TraceSampled || req.Points[3].Int64() != -5 {
		t.Fatalf("golden eval request decoded to %+v (%v)", req, err)
	}
	if req, err := DecodeFetchReq(frames[2].Payload); err != nil || req.TimeoutMillis != 0 || req.TraceID != 0 || len(req.Keys) != 2 {
		t.Fatalf("golden fetch request decoded to %+v (%v)", req, err)
	}
	if e, err := DecodeError(frames[3].Payload); err != nil || e.Code != CodeOverloaded || e.RetryAfterMillis != 5 {
		t.Fatalf("golden error decoded to %+v (%v)", e, err)
	}
}

// allocBound is what a decoder may allocate for n input bytes: a small
// multiple of them (a one-byte key or point decodes to a slice header or a
// boxed big.Int), plus one pooled frame buffer and some slack.
func allocBound(n int) uint64 { return uint64(64*n + maxPooledBuf + 64<<10) }

// checkAllocs fails t when fn allocates more than allocBound(n) bytes.
func checkAllocs(t *testing.T, n int, fn func()) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > allocBound(n) {
		t.Fatalf("%d input bytes allocated %d bytes, bound %d", n, got, allocBound(n))
	}
}

// FuzzReadAny: a frame the reader accepts is exactly the bytes it consumed,
// written back; everything else is an error.
func FuzzReadAny(f *testing.F) {
	for _, g := range goldenRequests() {
		var buf bytes.Buffer
		if _, err := WriteFramed(&buf, g); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var fr FramedFrame
		var n int
		var err error
		checkAllocs(t, len(data), func() { fr, n, err = ReadAny(bytes.NewReader(data)) })
		if err != nil {
			return
		}
		var buf bytes.Buffer
		wn, werr := WriteFramed(&buf, fr)
		if werr != nil || wn != n || !bytes.Equal(buf.Bytes(), data[:n]) {
			t.Fatalf("frame of %d bytes re-encodes to %x (%v), read from %x", n, buf.Bytes(), werr, data[:n])
		}
	})
}

// sameEvalReq reports whether a and b are the same request: points by
// value, since a zero decodes with or without a magnitude slice.
func sameEvalReq(a, b EvalReq) bool {
	return a.ID == b.ID && a.TimeoutMillis == b.TimeoutMillis && a.TraceID == b.TraceID &&
		a.TraceSampled == b.TraceSampled && slices.EqualFunc(a.Keys, b.Keys, slices.Equal[drbg.NodeKey]) &&
		slices.EqualFunc(a.Points, b.Points, func(x, y *big.Int) bool { return x.Cmp(y) == 0 })
}

// FuzzDecodeEvalReq: an accepted request re-encodes to bytes that decode
// to the same request and encode to themselves.
func FuzzDecodeEvalReq(f *testing.F) {
	f.Add(goldenRequests()[1].Payload)
	f.Fuzz(func(t *testing.T, data []byte) {
		var req EvalReq
		var err error
		checkAllocs(t, len(data), func() { req, err = DecodeEvalReq(data) })
		if err != nil {
			return
		}
		enc := EncodeEvalReq(req)
		again, err := DecodeEvalReq(enc)
		if err != nil || !sameEvalReq(req, again) || !bytes.Equal(EncodeEvalReq(again), enc) {
			t.Fatalf("%x decoded to %+v, which re-encodes to %x (%v)", data, req, enc, err)
		}
	})
}

// FuzzDecodeFetchReq: as FuzzDecodeEvalReq, for fetch requests.
func FuzzDecodeFetchReq(f *testing.F) {
	f.Add(goldenRequests()[2].Payload)
	f.Fuzz(func(t *testing.T, data []byte) {
		var req FetchReq
		var err error
		checkAllocs(t, len(data), func() { req, err = DecodeFetchReq(data) })
		if err != nil {
			return
		}
		enc := EncodeFetchReq(req)
		again, err := DecodeFetchReq(enc)
		if err != nil || !reflect.DeepEqual(req, again) || !bytes.Equal(EncodeFetchReq(again), enc) {
			t.Fatalf("%x decoded to %+v, which re-encodes to %x (%v)", data, req, enc, err)
		}
	})
}
