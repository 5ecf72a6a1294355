package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/big"
	"runtime"
	"slices"
	"testing"

	"sssearch/internal/core"
	"sssearch/internal/drbg"
)

// lcg is the fixed generator behind the golden responses, so that they do
// not depend on math/rand's.
func lcg() func() uint64 {
	state := uint64(0x9E3779B97F4A7C15)
	return func() uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return state >> 33
	}
}

// bigs boxes vs, the form the big.Int seam holds them in.
func bigs(vs ...uint64) []*big.Int {
	out := make([]*big.Int, len(vs))
	for i, v := range vs {
		out[i] = new(big.Int).SetUint64(v)
	}
	return out
}

// goldenEvalResps are the responses behind testdata/eval_resp_golden.bin,
// one for each width the encoder picks: a wave of F_257 (w = 9) under keys
// of every shape and child counts of one and two bytes; values up to a full
// word (w = 64); and the big.Int form (w = 0), which a negative and a
// nine-byte value force, beside an answer that fits words.
func goldenEvalResps() []EvalResp {
	next := lcg()
	wave := EvalResp{ID: 0x1234567, Answers: []core.NodeEval{
		{Key: drbg.NodeKey{}, NumChildren: 300, Words: []uint64{0, 256}},
		{Key: drbg.NodeKey{0}, NumChildren: 3, Words: []uint64{1, 255}},
		{Key: drbg.NodeKey{1, 300, 70000}, NumChildren: 200, Words: []uint64{128, 0}},
	}}
	for i := 0; i < 40; i++ {
		key := drbg.NodeKey{0}
		for d := 0; d < 1+i%4; d++ {
			key = key.Child(uint32(next() % 200))
		}
		wave.Answers = append(wave.Answers, core.NodeEval{Key: key, NumChildren: i % 5, Words: []uint64{next() % 257, next() % 257}})
	}
	for i := uint32(0); i < 16; i++ { // one run of siblings
		wave.Answers = append(wave.Answers, core.NodeEval{Key: drbg.NodeKey{2, 7, i}, Words: []uint64{uint64(i), 256 - uint64(i)}})
	}
	wide := EvalResp{ID: 1, Answers: []core.NodeEval{
		{Key: drbg.NodeKey{5}, NumChildren: 1, Words: []uint64{0, 1, 255}},
		{Key: drbg.NodeKey{5, 0}, Words: []uint64{65535, 65536, 1 << 62}},
		{Key: drbg.NodeKey{5, 1}, Big: bigs(math.MaxUint64, 300, 7)}, // the big.Int seam, every value a word
	}}
	boxed := EvalResp{ID: 2, Answers: []core.NodeEval{
		{Key: drbg.NodeKey{2}, NumChildren: 1, Big: []*big.Int{big.NewInt(-7), big.NewInt(3)}},
		{Key: drbg.NodeKey{3}, Big: []*big.Int{new(big.Int).Add(new(big.Int).Lsh(big.NewInt(1), 64), big.NewInt(5)), new(big.Int)}},
		{Key: drbg.NodeKey{4}, NumChildren: 2, Words: []uint64{12, 0}},
	}}
	return []EvalResp{wave, wide, boxed}
}

// keysOf lists the keys of answers.
func keysOf(answers []core.NodeEval) []drbg.NodeKey {
	keys := make([]drbg.NodeKey, len(answers))
	for i, a := range answers {
		keys[i] = a.Key
	}
	return keys
}

// refAnswer is an answer as the reference decoder reads it.
type refAnswer struct {
	nch  int
	vals []*big.Int
}

// refHead parses the head of a response the plain way, m only when
// perAnswer. The reference the decoders are held to.
func refHead(data []byte, perAnswer bool) (h respHead, nch []int, rest []byte, err error) {
	bad := errors.New("reference: bad head")
	var k int
	if h.id, k = binary.Uvarint(data); k <= 0 {
		return h, nil, nil, bad
	}
	data = data[k:]
	if h.n, k = binary.Uvarint(data); k <= 0 || h.n > maxListLen {
		return h, nil, nil, bad
	}
	data = data[k:]
	if perAnswer {
		if h.m, k = binary.Uvarint(data); k <= 0 || h.m > maxListLen {
			return h, nil, nil, bad
		}
		data = data[k:]
	}
	if len(data) < 10 || data[8] != 0 || data[9] > 64 { // digest, κ = 0, w
		return h, nil, nil, bad
	}
	h.digest, h.w, data = binary.BigEndian.Uint64(data), uint(data[9]), data[10:]
	for i := uint64(0); i < h.n; i++ {
		c, k := binary.Uvarint(data)
		if k <= 0 || c > maxListLen {
			return h, nil, nil, bad
		}
		nch, data = append(nch, int(c)), data[k:]
	}
	return h, nch, data, nil
}

// refBits reads n values of w bits from b bit by bit, refusing a length
// that is not exactly theirs or a set padding bit.
func refBits(b []byte, n uint64, w uint) ([]*big.Int, bool) {
	if uint64(len(b)) != (n*uint64(w)+7)/8 {
		return nil, false
	}
	out := make([]*big.Int, n)
	bit := uint64(0)
	for i := range out {
		var v uint64
		for j := uint(0); j < w; j, bit = j+1, bit+1 {
			v |= uint64(b[bit/8]>>(bit%8)&1) << j
		}
		out[i] = new(big.Int).SetUint64(v)
	}
	for ; bit < 8*uint64(len(b)); bit++ {
		if b[bit/8]>>(bit%8)&1 != 0 {
			return nil, false
		}
	}
	return out, true
}

// decodeEvalRespRef is the reference eval response decoder: every value
// through refBits or DecodeBigs.
func decodeEvalRespRef(data []byte) (respHead, []refAnswer, error) {
	h, nch, data, err := refHead(data, true)
	if err != nil {
		return h, nil, err
	}
	out := make([]refAnswer, len(nch))
	for i, c := range nch {
		out[i].nch = c
	}
	if h.w > 0 {
		vals, ok := refBits(data, h.n*h.m, h.w)
		if !ok {
			return h, nil, errors.New("reference: bad values")
		}
		for i := range out {
			out[i].vals = vals[uint64(i)*h.m : uint64(i+1)*h.m]
		}
		return h, out, nil
	}
	for i := range out {
		if out[i].vals, data, err = DecodeBigs(data); err != nil {
			return h, nil, err
		}
		if uint64(len(out[i].vals)) != h.m {
			return h, nil, errors.New("reference: another value count")
		}
	}
	if len(data) != 0 {
		return h, nil, errors.New("reference: trailing bytes")
	}
	return h, out, nil
}

// checkDecodeEvalResp holds DecodeEvalResp to the reference decoder on one
// input: the same accept or reject, the same head and answers, words
// exactly where every value of an answer fits one — and an allocation the
// input's size bounds: a count read off the wire buys nothing the bytes
// present could not fill.
func checkDecodeEvalResp(t *testing.T, data []byte) {
	t.Helper()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	got, h, err := decodeEvalResp(data, nil)
	runtime.ReadMemStats(&ms)
	// An answer and its child count take a byte at least, and a packed value
	// an eighth of one: never more words than eight a byte. The slack is for
	// whatever else the process allocated meanwhile.
	if spent := ms.TotalAlloc - before; spent > uint64(128*len(data)+1<<16) {
		t.Fatalf("decoding %d bytes allocated %d", len(data), spent)
	}
	rh, want, refErr := decodeEvalRespRef(data)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("decoder: %v, reference decoder: %v, on %x", err, refErr, data)
	}
	if err != nil {
		return
	}
	if h != rh || got.ID != h.id || len(got.Answers) != len(want) {
		t.Fatalf("decoded head %+v with %d answers, reference %+v with %d", h, len(got.Answers), rh, len(want))
	}
	for i, w := range want {
		a := got.Answers[i]
		if a.Key != nil || a.NumChildren != w.nch || a.Len() != len(w.vals) {
			t.Fatalf("answer %d: %+v, reference %+v", i, a, w)
		}
		wordForm := true
		for j, v := range a.Values() {
			if v.Cmp(w.vals[j]) != 0 {
				t.Fatalf("answer %d value %d: %s, reference %s", i, j, v, w.vals[j])
			}
			wordForm = wordForm && v.Sign() >= 0 && v.IsUint64()
		}
		if wordForm != (len(a.Big) == 0) {
			t.Fatalf("answer %d: every value fits a word: %v, decoded into the big.Int form: %v", i, wordForm, len(a.Big) != 0)
		}
	}
}

// TestEvalRespGolden: AppendEvalResp writes, byte for byte, the frames of
// the golden file — each at the width its values need — after whatever the
// buffer already held; the reference decoder reads the file back as the
// answers it was made from, DecodeEvalResp reads it as the reference does,
// DecodeEvalRespFor gives every answer its key, and every proper prefix of
// a frame is refused by both.
func TestEvalRespGolden(t *testing.T) {
	resps := goldenEvalResps()
	var frames [][]byte
	for _, r := range resps {
		frames = append(frames, AppendEvalResp(nil, r))
	}
	want := readGolden(t, "eval_resp_golden.bin", joinFrames(frames...))
	if !bytes.Equal(joinFrames(frames...), want) {
		t.Fatalf("frames encode to %d bytes that differ from the %d-byte golden file", len(joinFrames(frames...)), len(want))
	}
	for fi, r := range resps {
		frame := frames[fi]
		for _, prefix := range [][]byte{{0xAB, 0xCD, 0xEF}, make([]byte, 5, 1<<12)} {
			got := AppendEvalResp(slices.Clone(prefix), r)
			if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], frame) {
				t.Fatalf("frame %d after a %d-byte prefix differs from the golden one", fi, len(prefix))
			}
		}
		h, ref, err := decodeEvalRespRef(frame)
		if err != nil {
			t.Fatalf("frame %d: reference decoder: %v", fi, err)
		}
		if wantW := []uint{9, 64, 0}[fi]; h.w != wantW || h.id != r.ID || h.digest != digestOf(keysOf(r.Answers)) {
			t.Fatalf("frame %d: head %+v, want width %d, id %d and the keys' digest", fi, h, wantW, r.ID)
		}
		for i, a := range r.Answers {
			if ref[i].nch != a.NumChildren || !slices.EqualFunc(ref[i].vals, a.Values(), func(x, y *big.Int) bool { return x.Cmp(y) == 0 }) {
				t.Fatalf("frame %d answer %d reads back as %+v, made from %+v", fi, i, ref[i], a)
			}
		}
		checkDecodeEvalResp(t, frame)
		dec, err := DecodeEvalRespFor(frame, keysOf(r.Answers), digestOf(keysOf(r.Answers)), r.Answers[0].Len())
		if err != nil {
			t.Fatal(err)
		}
		for i, a := range r.Answers {
			d := dec.Answers[i]
			if !slices.Equal(d.Key, a.Key) || d.NumChildren != a.NumChildren {
				t.Fatalf("frame %d answer %d decoded to %+v, encoded from %+v", fi, i, d, a)
			}
		}
		for cut := 0; cut < len(frame); cut++ {
			if _, err := DecodeEvalResp(frame[:cut]); err == nil {
				t.Fatalf("frame %d cut to %d of %d bytes decoded", fi, cut, len(frame))
			}
			checkDecodeEvalResp(t, frame[:cut])
		}
	}
}

// evalHead is the head of an eval response with a zero digest.
func evalHead(n, m uint64, w byte) []byte {
	b := binary.AppendUvarint([]byte{1}, n)
	b = binary.AppendUvarint(b, m)
	return append(b, 0, 0, 0, 0, 0, 0, 0, 0, 0, w)
}

// evalRespSeeds are frames a peer should not send, or sends rarely: the
// checked-in FuzzDecodeEvalResp corpus.
func evalRespSeeds() []seed {
	golden := AppendEvalResp(nil, goldenEvalResps()[0])
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	return []seed{
		{"truncated_prefix", golden[:len(golden)/2]},
		// 2^21 answers in a few bytes.
		{"hostile_answer_count", cat(evalHead(1<<21, 1, 9), []byte{0, 0, 7})},
		// Two answers of 2^20 values each, three value bytes.
		{"hostile_value_count", cat(evalHead(2, 1<<20, 9), []byte{0, 0, 7, 0, 0})},
		// One answer of 2^22 values at 64 bits: 32 MiB the payload lacks.
		{"nm_overruns_payload", cat(evalHead(1, 1<<22, 64), []byte{0, 1, 2, 3})},
		{"width_65", cat(evalHead(1, 1, 65), []byte{0, 5, 0, 0, 0, 0, 0, 0, 0, 0})},
		// The big.Int form with values that fit words: words.
		{"width_0_words", cat(evalHead(2, 2, 0), []byte{1, 2, 2, 1, 1, 5, 0, 2, 2, 0, 1, 2, 1, 0})},
		{"tag_count_1", cat(evalHead(1, 1, 9)[:11], []byte{1, 9, 0, 5, 0})},
		// 5 at nine bits, then a set padding bit.
		{"padding_bit", cat(evalHead(1, 1, 9), []byte{0, 5, 0x80})},
		{"trailing_byte", cat(evalHead(1, 1, 9), []byte{0, 5, 0, 0})},
		{"no_answers", evalHead(0, 3, 1)},
		{"no_values", cat(evalHead(2, 0, 1), []byte{4, 0})},
		// The big.Int form: leading-zero magnitudes of two and nine bytes.
		{"leading_zero_magnitude", cat(evalHead(1, 2, 0), []byte{0, 2, 1, 2, 0, 7, 1, 9, 0, 0, 0, 0, 0, 0, 0, 0, 9})},
		// −0 twice, then 4: still words.
		{"negative_zero", cat(evalHead(1, 3, 0), []byte{0, 3, 2, 0, 2, 1, 0, 1, 1, 4})},
		{"negative_value", cat(evalHead(1, 1, 0), []byte{0, 1, 2, 1, 4})},
		{"nine_byte_value", cat(evalHead(1, 1, 0), []byte{0, 1, 1, 9, 1, 0, 0, 0, 0, 0, 0, 0, 0})},
		{"bad_sign_byte", cat(evalHead(1, 1, 0), []byte{0, 1, 3, 1, 4})},
		// The second answer holds two values where the head says one.
		{"second_answer_longer", cat(evalHead(2, 1, 0), []byte{0, 0, 1, 1, 1, 5, 2, 1, 1, 4, 1, 1, 6})},
	}
}

func TestDecodeEvalRespAgreesOnHostileInputs(t *testing.T) {
	for _, s := range evalRespSeeds() {
		checkDecodeEvalResp(t, s.data)
	}
}

// FuzzDecodeEvalResp: on every input the decoder accepts exactly what the
// reference decoder accepts, and decodes the same head and values.
func FuzzDecodeEvalResp(f *testing.F) {
	for _, r := range goldenEvalResps() {
		f.Add(AppendEvalResp(nil, r))
	}
	for _, s := range evalRespSeeds() {
		f.Add(s.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeEvalResp(t, data)
	})
}

// benchEvalResp is one large wave of an F_257 query: 4,096 answers of two
// values under five-deep keys.
func benchEvalResp() EvalResp {
	golden := goldenEvalResps()[0].Answers
	resp := EvalResp{ID: 7, Answers: make([]core.NodeEval, 4096)}
	for i := range resp.Answers {
		a := golden[i%len(golden)]
		a.Key = drbg.NodeKey{0, uint32(i % 7), uint32(i / 7), 3, uint32(i % 300)}
		resp.Answers[i] = a
	}
	return resp
}

func BenchmarkAppendEvalResp(b *testing.B) {
	resp := benchEvalResp()
	digest := digestOf(keysOf(resp.Answers))
	buf := AppendEvalRespFor(nil, resp, digest)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendEvalRespFor(buf[:0], resp, digest) // as the daemon does, into a pooled buffer
	}
}

func BenchmarkDecodeEvalResp(b *testing.B) {
	resp := benchEvalResp()
	buf := AppendEvalResp(nil, resp)
	keys := keysOf(resp.Answers)
	digest := digestOf(keys)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeEvalRespFor(buf, keys, digest, 2); err != nil { // as client.Remote does
			b.Fatal(err)
		}
	}
}

// TestDecodeKeysShareOneArray: the keys of a message decode into one
// array — two allocations a message, not one a key — as capacity-clipped
// views (an append to one key cannot reach the next), for every component
// width and depth, the root included; a depth the bytes cannot hold is
// refused like any truncated key list.
func TestDecodeKeysShareOneArray(t *testing.T) {
	keys := []drbg.NodeKey{{}, {0}, {127, 128}, {16383, 16384, 1<<32 - 1}, {}, make(drbg.NodeKey, 300), {5, 4, 3, 2, 1}}
	for i := 0; i < 200; i++ {
		keys = append(keys, drbg.NodeKey{0, uint32(i % 3), uint32(i), 200})
	}
	data := AppendKeys(nil, keys)
	got, rest, err := DecodeKeys(append(data, 0xEE))
	if err != nil || len(rest) != 1 || len(got) != len(keys) {
		t.Fatalf("decoded %d of %d keys, %d bytes left, err %v", len(got), len(keys), len(rest), err)
	}
	for i, k := range keys {
		if !slices.Equal(got[i], k) || got[i] == nil || cap(got[i]) != len(k) {
			t.Fatalf("key %d: %v (cap %d), want %v, capacity-clipped", i, got[i], cap(got[i]), k)
		}
	}
	if n := testing.AllocsPerRun(20, func() {
		if _, _, err := DecodeKeys(data); err != nil {
			t.Fatal(err)
		}
	}); n > 4 {
		t.Fatalf("decoding %d keys allocated %v times", len(keys), n)
	}
	for cut := 0; cut < len(data); cut++ {
		if _, _, err := DecodeKeys(data[:cut]); err == nil {
			t.Fatalf("key list cut to %d of %d bytes decoded", cut, len(data))
		}
	}
	if _, _, err := DecodeKeys([]byte{1, 0, 0xFF, 0xFF, 0x03, 1, 2}); err == nil {
		t.Fatal("a key of 65,535 components in two bytes decoded")
	}
}
