package wire

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"sssearch/internal/drbg"
)

// The frozen format: one frame layout and fixed request fields. The golden
// files pin the request side and both responses byte for byte; the fuzz
// targets hold every request decoder to three rules — no panic, a decode →
// encode round trip, and no allocation beyond a fixed bound a byte of
// input (allocBound). Seed corpora live in
// testdata/fuzz/<target>/ and are the named seeds below, byte for byte.

var update = flag.Bool("update", false, "rewrite testdata's golden files and named fuzz seeds from this package's encoders")

// readGolden returns testdata/name; under -update it first writes got there.
func readGolden(t *testing.T, name string, got []byte) []byte {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// joinFrames concatenates payloads, each after its uvarint length: the
// layout of a golden file that holds several.
func joinFrames(payloads ...[]byte) []byte {
	var out []byte
	for _, p := range payloads {
		out = binary.AppendUvarint(out, uint64(len(p)))
		out = append(out, p...)
	}
	return out
}

// goldenRequests are the frames behind testdata/req_frames_golden.bin: a
// handshake Hello, a sampled EvalReq with a deadline, an untraced FetchReq
// and a shed ErrorMsg, back to back.
func goldenRequests() []FramedFrame {
	return []FramedFrame{
		{Type: MsgHello, Payload: EncodeHello(Hello{Version: Version})},
		{Type: MsgEval, ReqID: 0x0102030405060708, Payload: EncodeEvalReq(EvalReq{
			ID: 0x0102030405060708,
			Keys: []drbg.NodeKey{{}, {0}, {3, 1}, {3, 1, 0}, {3, 1, 1}, {3, 1, 2}, {3, 2},
				{127, 128, 1<<32 - 2}, {127, 128, 1<<32 - 1}, {0}},
			Points:        []*big.Int{big.NewInt(2), big.NewInt(256), new(big.Int).Lsh(big.NewInt(1), 70), big.NewInt(-5)},
			TimeoutMillis: 1500,
			TraceID:       0xdeadbeefcafef00d,
			TraceSampled:  true,
		})},
		{Type: MsgFetch, ReqID: 9, Payload: EncodeFetchReq(FetchReq{ID: 9, Keys: []drbg.NodeKey{{0, 1}, {0, 1, 0}, {0, 1, 1}, {2}}})},
		{Type: MsgError, ReqID: 11, Payload: EncodeError(ErrorMsg{
			ID: 11, Message: "overloaded: shed by admission control", Code: CodeOverloaded, RetryAfterMillis: 5,
		})},
	}
}

// TestRequestFramesGolden: the request-side frames encode, byte for byte,
// to the golden file, and the file reads back as the same frames and
// messages.
func TestRequestFramesGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, f := range goldenRequests() {
		if _, err := WriteFramed(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	want := readGolden(t, "req_frames_golden.bin", buf.Bytes())
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
	if req, err := DecodeEvalReq(frames[1].Payload); err != nil || req.TimeoutMillis != 1500 || !req.TraceSampled ||
		req.Points[3].Int64() != -5 || len(req.Keys) != 10 || !slices.Equal(req.Keys[8], drbg.NodeKey{127, 128, 1<<32 - 1}) {
		t.Fatalf("golden eval request decoded to %+v (%v)", req, err)
	}
	if req, err := DecodeFetchReq(frames[2].Payload); err != nil || req.TimeoutMillis != 0 || req.TraceID != 0 || len(req.Keys) != 4 {
		t.Fatalf("golden fetch request decoded to %+v (%v)", req, err)
	}
	if e, err := DecodeError(frames[3].Payload); err != nil || e.Code != CodeOverloaded || e.RetryAfterMillis != 5 {
		t.Fatalf("golden error decoded to %+v (%v)", e, err)
	}
}

// allocBound is what a decoder may allocate for n input bytes: a small
// multiple of the bytes (a one-byte point decodes to a boxed big.Int), one
// pooled frame buffer and some slack and, when it accepts a request, the
// most a key list of n bytes may expand to — at most keyListBudget(n) keys
// and components, each key a slice header and each component four bytes.
// Nothing is allowed for the keys of a request it refuses.
func allocBound(n int, accepted bool) uint64 {
	bound := uint64(64*n + maxPooledBuf + 64<<10)
	if accepted {
		bound += uint64(unsafe.Sizeof(drbg.NodeKey(nil))) * keyListBudget(n)
	}
	return bound
}

// checkAllocs fails t when fn, which reports whether it accepted its n
// input bytes, allocates more than allocBound allows.
func checkAllocs(t *testing.T, n int, fn func() bool) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	accepted := fn()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > allocBound(n, accepted) {
		t.Fatalf("%d input bytes (accepted: %v) allocated %d bytes, bound %d", n, accepted, got, allocBound(n, accepted))
	}
}

// seed is a named fuzz seed: testdata/fuzz/<target>/<name> holds its bytes.
type seed struct {
	name string
	data []byte
}

// corpusFile is a seed as `go test` stores it in a corpus file.
func corpusFile(data []byte) string { return fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data) }

// checkCorpus fails t unless testdata/fuzz/target holds exactly the named
// seeds; under -update it writes them.
func checkCorpus(t *testing.T, target string, seeds []seed) {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	if *update {
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, s := range seeds {
			if err := os.WriteFile(filepath.Join(dir, s.name), []byte(corpusFile(s.data)), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(seeds) {
		t.Fatalf("%s holds %d files for %d named seeds", dir, len(entries), len(seeds))
	}
	for _, s := range seeds {
		got, err := os.ReadFile(filepath.Join(dir, s.name))
		if err != nil || string(got) != corpusFile(s.data) {
			t.Fatalf("%s/%s does not hold its seed (%v)", dir, s.name, err)
		}
	}
}

// TestFuzzCorporaAreTheNamedSeeds: every checked-in corpus is its target's
// named seeds, so a hostile input is documented beside the code that
// refuses it.
func TestFuzzCorporaAreTheNamedSeeds(t *testing.T) {
	checkCorpus(t, "FuzzReadAny", readAnySeeds())
	checkCorpus(t, "FuzzDecodeEvalReq", evalReqSeeds())
	checkCorpus(t, "FuzzDecodeFetchReq", fetchReqSeeds())
	checkCorpus(t, "FuzzDecodeEvalResp", evalRespSeeds())
	checkCorpus(t, "FuzzDecodeFetchResp", fetchRespSeeds())
}

// framed is f as WriteFramed writes it.
func framed(f FramedFrame) []byte {
	var buf bytes.Buffer
	if _, err := WriteFramed(&buf, f); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func readAnySeeds() []seed {
	hello := framed(goldenRequests()[0])
	eval := framed(goldenRequests()[1])
	badCRC := slices.Clone(eval)
	badCRC[len(badCRC)-1] ^= 1
	return []seed{
		{"hello", hello},
		{"v1_hello", framed(FramedFrame{Type: MsgHello, Payload: []byte{1}})},
		{"v3_hello", framed(FramedFrame{Type: MsgHello, Payload: []byte{3}})},
		{"two_frames", append(slices.Clone(hello), badCRC...)},
		{"bad_crc", badCRC},
		{"truncated", eval[:len(eval)/2]},
		{"claims_max_length", []byte{0x53, 0x50, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0x01, 0, 0, 0}},
		{"legacy_magic", []byte{0x53, 0x53, 1, 0, 0, 0, 1, 3, 0, 0, 0, 0}},
		{"retired_prune", framed(FramedFrame{Type: 7, ReqID: 5, Payload: EncodeFetchReq(FetchReq{ID: 5})})},
	}
}

// FuzzReadAny: a frame the reader accepts is exactly the bytes it consumed,
// written back; everything else is an error.
func FuzzReadAny(f *testing.F) {
	for _, g := range goldenRequests() {
		f.Add(framed(g))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var fr FramedFrame
		var n int
		var err error
		checkAllocs(t, len(data), func() bool { fr, n, err = ReadAny(bytes.NewReader(data)); return false })
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

// keyListSeeds are hostile key lists, the same for both request types: a
// request is its id, one of these, its depth and the rest of its fields.
func keyListSeeds() []seed {
	return []seed{
		// 2^22 siblings under the root: a run of seven bytes, within the key
		// and component caps, asking for far more than its bytes may.
		{"run_2p22_keys", []byte{0x80, 0x80, 0x80, 0x02, 0, 1, 0, 0x80, 0x80, 0x80, 0x02}},
		// 2^22 siblings under /0: 2^23 components, past the component cap.
		{"run_past_component_cap", []byte{0x80, 0x80, 0x80, 0x02, 0, 2, 0, 0, 0x80, 0x80, 0x80, 0x02}},
		// 2^22 + 1 keys asked, past the key cap.
		{"run_past_key_cap", []byte{0x81, 0x80, 0x80, 0x02, 0, 1, 0, 0x81, 0x80, 0x80, 0x02}},
		// /4294967295 and the key after it, which does not exist.
		{"run_wraps_component", []byte{2, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 2}},
		// A suffix of 65,535 components in two bytes.
		{"deep_key", []byte{1, 0, 0xFF, 0xFF, 0x03, 1, 2}},
		// 2^21 keys and no run.
		{"hostile_key_count", []byte{0x80, 0x80, 0x80, 0x01}},
		// The root twice over, as the root is twice asked.
		{"root_twice", []byte{2, 0, 0, 1, 0, 0, 1}},
		// Run length 0.
		{"empty_run", []byte{1, 0, 1, 5, 0}},
	}
}

// keysThenNothing is a request whose key list — 2^14 siblings under /0,
// 32 Ki components, within its budget — is sound and whose depth and tail
// are missing: it is refused before anything is allocated for its keys.
var keysThenNothing = []byte{1, 0x80, 0x80, 0x01, 0, 2, 0, 0, 0x80, 0x80, 0x01}

// evalReqSeeds are FuzzDecodeEvalReq's corpus.
func evalReqSeeds() []seed {
	golden := goldenRequests()[1].Payload
	seeds := []seed{
		{"golden", golden},
		{"trailing_byte", append(slices.Clone(golden), 0)},
		{"hostile_point_count", []byte{1, 0, 1, 0x80, 0x80, 0x80, 0x01, 1, 0, 0, 0}},
		{"no_fixed_fields", []byte{1, 0, 1, 0}},
		{"overlong_varints", []byte{0x81, 0x00, 0, 0x81, 0x00, 0x80, 0x00, 0x80, 0x00, 0x80, 0x00, 0x80, 0x00}},
		{"undefined_flag", []byte{1, 0, 1, 0, 0, 0, 2}},
		{"zero_with_magnitude", []byte{1, 0, 1, 1, 1, 0, 0, 0, 0}},
		{"depth_2", []byte{1, 1, 0, 0, 1, 2, 0, 0, 0, 0}},
		{"keys_then_nothing", keysThenNothing},
	}
	for _, s := range keyListSeeds() {
		req := append([]byte{1}, s.data...)
		seeds = append(seeds, seed{s.name, append(req, 1, 1, 1, 1, 3, 0, 0, 0)}) // depth 1, the point 3, tail
	}
	return seeds
}

// fetchReqSeeds are FuzzDecodeFetchReq's corpus.
func fetchReqSeeds() []seed {
	golden := goldenRequests()[2].Payload
	seeds := []seed{
		{"golden", golden},
		{"trailing_byte", append(slices.Clone(golden), 0)},
		{"no_fixed_fields", []byte{9, 0}},
		{"root_keys", []byte{1, 3, 0, 0, 1, 0, 0, 1, 0, 0, 1, 1, 0, 0, 0}},
		{"sampled", []byte{3, 0, 1, 7, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 1}},
		{"undefined_flag", []byte{9, 0, 1, 0, 0, 3}},
		{"depth_0", []byte{9, 0, 0, 0, 0, 0}},
		{"keys_then_nothing", keysThenNothing},
	}
	for _, s := range keyListSeeds() {
		req := append([]byte{1}, s.data...)
		seeds = append(seeds, seed{s.name, append(req, 1, 0, 0, 0)}) // depth 1, tail
	}
	return seeds
}

// FuzzDecodeEvalReq: an accepted request re-encodes to bytes that decode
// to the same request, with the digest the encoder returned, and encode to
// themselves.
func FuzzDecodeEvalReq(f *testing.F) {
	f.Add(goldenRequests()[1].Payload)
	f.Fuzz(func(t *testing.T, data []byte) {
		var req EvalReq
		var err error
		checkAllocs(t, len(data), func() bool { req, err = DecodeEvalReq(data); return err == nil })
		if err != nil {
			return
		}
		enc, sent := AppendEvalReq(nil, req)
		again, err := DecodeEvalReq(enc)
		if err != nil || !sameEvalReq(req, again) || !bytes.Equal(EncodeEvalReq(again), enc) || again.KeyDigest != sent {
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
		checkAllocs(t, len(data), func() bool { req, err = DecodeFetchReq(data); return err == nil })
		if err != nil {
			return
		}
		enc, sent := AppendFetchReq(nil, req)
		again, err := DecodeFetchReq(enc)
		req.KeyDigest = sent // the input's own digest, where it wrote the keys another way
		if err != nil || !reflect.DeepEqual(req, again) || !bytes.Equal(EncodeFetchReq(again), enc) {
			t.Fatalf("%x decoded to %+v, which re-encodes to %x (%v)", data, req, enc, err)
		}
	})
}
