package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"sssearch/internal/drbg"
)

// The decoders sit on the trust boundary: arbitrary network bytes must
// never panic them, only produce errors (or valid values). These tests
// hammer every decoder with random and mutated inputs.

func randBytes(r *rand.Rand, n int) []byte {
	b := make([]byte, n)
	r.Read(b)
	return b
}

func TestDecodersNeverPanicOnRandomInput(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		data := randBytes(r, r.Intn(200))
		// Each decoder either errors or returns; panics fail the test run.
		DecodeKeys(data)
		DecodeBig(data)
		DecodeBigs(data)
		DecodeString(data)
		DecodeHello(data)
		DecodeHelloAck(data)
		DecodeEvalReq(data)
		DecodeEvalResp(data)
		DecodeFetchReq(data)
		DecodeFetchResp(data)
		DecodeError(data)
	}
}

// TestReadFrameNeverPanicsOnRandomStream: arbitrary streams must never
// panic the frame reader, and a stream that opens with the retired legacy
// frame magic is refused as a bad magic whatever follows it.
func TestReadFrameNeverPanicsOnRandomStream(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		stream := randBytes(r, r.Intn(100))
		ReadAny(bytes.NewReader(stream))
	}
	for i := 0; i < 500; i++ {
		stream := append([]byte{0x53, 0x53}, randBytes(r, r.Intn(100))...)
		if _, _, err := ReadAny(bytes.NewReader(stream)); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("legacy-magic stream: err = %v, want ErrBadMagic", err)
		}
	}
}

// TestMutatedFramesRejected: take a valid handshake frame, flip random
// bits, and require the reader alone to reject every mutation: magic,
// type, request ID, length, payload and CRC are all checked.
func TestMutatedFramesRejected(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteFramed(&buf, FramedFrame{Type: MsgHello, Payload: EncodeHello(Hello{Version: Version})}); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		mutated := append([]byte(nil), valid...)
		pos := r.Intn(len(mutated))
		mutated[pos] ^= byte(1 << r.Intn(8))
		if f, _, err := ReadAny(bytes.NewReader(mutated)); err == nil {
			t.Fatalf("flip at byte %d read as %+v", pos, f)
		}
	}
}

// --- framed (request-ID) frame seeds --------------------------------------

// TestReadAnyNeverPanicsOnRandomStream: the frame reader sits on the trust
// boundary and must reject arbitrary bytes gracefully, behind the frame
// magic and behind the retired legacy one alike.
func TestReadAnyNeverPanicsOnRandomStream(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		stream := randBytes(r, r.Intn(120))
		ReadAny(bytes.NewReader(stream))
	}
	// Random payloads behind each valid magic.
	for i := 0; i < 2000; i++ {
		var stream []byte
		if i%2 == 0 {
			stream = append(stream, 0x53, 0x53) // retired legacy magic
		} else {
			stream = append(stream, 0x53, 0x50) // framed magic
		}
		stream = append(stream, randBytes(r, r.Intn(60))...)
		ReadAny(bytes.NewReader(stream))
	}
}

// TestFramedTruncationRejected: every strict prefix of a valid framed
// frame must fail cleanly, never hang or panic.
func TestFramedTruncationRejected(t *testing.T) {
	payload := EncodeEvalReq(EvalReq{ID: 42, Keys: []drbg.NodeKey{{1, 2}, {3}}})
	var buf bytes.Buffer
	if _, err := WriteFramed(&buf, FramedFrame{Type: MsgEval, ReqID: 42, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	for cut := 0; cut < len(valid); cut++ {
		if _, _, err := ReadAny(bytes.NewReader(valid[:cut])); err == nil {
			t.Fatalf("truncation at %d of %d accepted", cut, len(valid))
		}
	}
	// The untruncated frame decodes and round-trips.
	f, n, err := ReadAny(bytes.NewReader(valid))
	if err != nil || n != len(valid) {
		t.Fatalf("valid frame rejected: %v (consumed %d of %d)", err, n, len(valid))
	}
	if f.ReqID != 42 || f.Type != MsgEval {
		t.Fatalf("framed header mangled: %+v", f)
	}
	dec, err := DecodeEvalReq(f.Payload)
	if err != nil || dec.ID != 42 || len(dec.Keys) != 2 {
		t.Fatalf("framed payload mangled: %+v, %v", dec, err)
	}
}

// TestFramedMutationsRejected: single-bit flips anywhere in a framed
// frame must be caught (magic, type, reqid, length or CRC checks).
func TestFramedMutationsRejected(t *testing.T) {
	payload := EncodeEvalReq(EvalReq{ID: 7, Keys: nil, Points: nil})
	var buf bytes.Buffer
	if _, err := WriteFramed(&buf, FramedFrame{Type: MsgEval, ReqID: 7, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	r := rand.New(rand.NewSource(6))
	rejected := 0
	const trials = 500
	for i := 0; i < trials; i++ {
		mutated := append([]byte(nil), valid...)
		pos := r.Intn(len(mutated))
		mutated[pos] ^= byte(1 << r.Intn(8))
		f, _, err := ReadAny(bytes.NewReader(mutated))
		if err != nil {
			rejected++
			continue
		}
		// A flip the framing cannot see must at least keep the request ID
		// honest or fail payload decode downstream.
		if _, derr := DecodeEvalReq(f.Payload); derr != nil {
			rejected++
		}
	}
	if rejected < trials-10 {
		t.Errorf("only %d/%d mutations rejected", rejected, trials)
	}
}

// TestInterleavedFramedStream: a stream carrying several frames back to
// back — requests mixed with handshake-style frames of request ID 0 — must
// parse each frame intact and in order, exactly consuming the stream.
func TestInterleavedFramedStream(t *testing.T) {
	var buf bytes.Buffer
	type sent struct {
		typ   MsgType
		reqID uint64
	}
	var want []sent
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		payload := EncodeEvalReq(EvalReq{ID: uint64(i), Keys: []drbg.NodeKey{{uint32(i)}}})
		id := r.Uint64()
		if i%3 == 2 {
			id = 0
		}
		if _, err := WriteFramed(&buf, FramedFrame{Type: MsgEval, ReqID: id, Payload: payload}); err != nil {
			t.Fatal(err)
		}
		want = append(want, sent{MsgEval, id})
	}
	rd := bytes.NewReader(buf.Bytes())
	for i, w := range want {
		f, _, err := ReadAny(rd)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.Type != w.typ || f.ReqID != w.reqID {
			t.Fatalf("frame %d: got %+v, want %+v", i, f, w)
		}
		dec, err := DecodeEvalReq(f.Payload)
		if err != nil || dec.ID != uint64(i) {
			t.Fatalf("frame %d payload: %+v, %v", i, dec, err)
		}
	}
	if rd.Len() != 0 {
		t.Fatalf("%d trailing bytes after the last frame", rd.Len())
	}
}

// TestDecodeEncodedRandomMessages: round-trip stability under random but
// WELL-FORMED messages (complements the garbage tests above).
func TestDecodeEncodedRandomMessages(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 300; i++ {
		req := EvalReq{ID: r.Uint64()}
		for k := 0; k < r.Intn(5); k++ {
			key := make([]uint32, r.Intn(4))
			for j := range key {
				key[j] = r.Uint32() % 1000
			}
			req.Keys = append(req.Keys, key)
		}
		dec, err := DecodeEvalReq(EncodeEvalReq(req))
		if err != nil {
			t.Fatalf("well-formed message rejected: %v", err)
		}
		if dec.ID != req.ID || len(dec.Keys) != len(req.Keys) {
			t.Fatal("round trip changed message")
		}
	}
}
