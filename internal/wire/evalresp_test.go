package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/big"
	"os"
	"runtime"
	"slices"
	"testing"

	"sssearch/internal/core"
	"sssearch/internal/drbg"
)

// evalSpec is one answer of the golden evaluation response, its values in
// the big.Int form the codec had before it had words.
type evalSpec struct {
	key  drbg.NodeKey
	nch  int
	vals []*big.Int
}

// goldenEvalSpec is the response behind testdata/eval_resp_golden.bin: zero,
// one- and two-byte values, values ≥ p = 257 up to a full word, a list that
// ends in a zero (a list keeps it, a polynomial would not), an answer with
// no values, a negative value and a nine-byte one (answers only the big.Int
// form carries), then forty F_257-shaped answers of a wave from a fixed LCG.
func goldenEvalSpec() (id uint64, spec []evalSpec) {
	u := func(vs ...uint64) []*big.Int {
		out := make([]*big.Int, len(vs))
		for i, v := range vs {
			out[i] = new(big.Int).SetUint64(v)
		}
		return out
	}
	spec = []evalSpec{
		{drbg.NodeKey{}, 3, u(0, 1, 255, 256, 300, 65535, 65536, 1<<62, math.MaxUint64)},
		{drbg.NodeKey{0}, 0, u(5, 0)},
		{drbg.NodeKey{1, 300, 70000}, 2, nil},
		{drbg.NodeKey{2}, 1, []*big.Int{big.NewInt(-7), big.NewInt(3)}},
		{drbg.NodeKey{3}, 200, []*big.Int{new(big.Int).Add(new(big.Int).Lsh(big.NewInt(1), 64), big.NewInt(5)), new(big.Int), big.NewInt(12)}},
	}
	state := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return state >> 33
	}
	for i := 0; i < 40; i++ {
		key := drbg.NodeKey{0}
		for d := 0; d < 1+i%4; d++ {
			key = key.Child(uint32(next() % 200))
		}
		spec = append(spec, evalSpec{key, i % 5, u(next()%257, next()%257)})
	}
	return 0x1234567, spec
}

// goldenEvalResp is the golden response as the word data plane holds it:
// words wherever an answer has a word form.
func goldenEvalResp() EvalResp {
	id, spec := goldenEvalSpec()
	resp := EvalResp{ID: id}
	for _, s := range spec {
		a := core.NodeEval{Key: s.key, NumChildren: s.nch, Big: s.vals}
		if w, ok := a.WordValues(); ok {
			a.Words, a.Big = w, nil
		}
		resp.Answers = append(resp.Answers, a)
	}
	return resp
}

// decodeEvalRespRef is the decoder the codec had before it had words: every
// value list through DecodeBigs. The reference the word decoder is pinned
// against.
func decodeEvalRespRef(data []byte) (id uint64, spec []evalSpec, err error) {
	id, k := binary.Uvarint(data)
	if k <= 0 {
		return 0, nil, errors.New("wire: bad eval resp id")
	}
	data = data[k:]
	n, k := binary.Uvarint(data)
	if k <= 0 || n > maxListLen {
		return 0, nil, errors.New("wire: bad answer count")
	}
	data = data[k:]
	if n > uint64(len(data)) {
		return 0, nil, errors.New("wire: answer count exceeds available bytes")
	}
	spec = make([]evalSpec, n)
	for i := range spec {
		key, rest, err := DecodeKey(data)
		if err != nil {
			return 0, nil, err
		}
		nch, k := binary.Uvarint(rest)
		if k <= 0 || nch > maxListLen {
			return 0, nil, errors.New("wire: bad child count")
		}
		vals, rest, err := DecodeBigs(rest[k:])
		if err != nil {
			return 0, nil, err
		}
		spec[i], data = evalSpec{key, int(nch), vals}, rest
	}
	if len(data) != 0 {
		return 0, nil, errors.New("wire: trailing bytes in eval response")
	}
	return id, spec, nil
}

// checkDecodeEvalResp holds DecodeEvalResp to the reference decoder on one
// input: the same accept or reject, the same answers, words exactly where
// every value of an answer fits one — and an allocation the input's size
// bounds: a count read off the wire buys nothing the bytes present could
// not fill.
func checkDecodeEvalResp(t *testing.T, data []byte) {
	t.Helper()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	got, err := DecodeEvalResp(data)
	runtime.ReadMemStats(&ms)
	// Eight bytes a word and never more words than bytes; an answer and a
	// key component take a byte each at least. The slack is for whatever
	// else the process allocated meanwhile.
	if spent := ms.TotalAlloc - before; spent > uint64(128*len(data)+1<<16) {
		t.Fatalf("decoding %d bytes allocated %d", len(data), spent)
	}
	id, want, refErr := decodeEvalRespRef(data)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("word decoder: %v, reference decoder: %v, on %x", err, refErr, data)
	}
	if err != nil {
		return
	}
	if got.ID != id || len(got.Answers) != len(want) {
		t.Fatalf("decoded id %d with %d answers, reference %d with %d", got.ID, len(got.Answers), id, len(want))
	}
	for i, w := range want {
		a := got.Answers[i]
		if !slices.Equal(a.Key, w.key) || a.NumChildren != w.nch || a.Len() != len(w.vals) {
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

// TestEvalRespGolden: AppendEvalResp writes from words, byte for byte, the
// frame the big.Int encoder wrote (the file was written by the parent
// commit's), after whatever the buffer already held, and both decoders read
// the frame alike.
func TestEvalRespGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/eval_resp_golden.bin")
	if err != nil {
		t.Fatal(err)
	}
	resp := goldenEvalResp()
	words := 0
	for _, a := range resp.Answers {
		if len(a.Big) == 0 {
			words++
		}
	}
	if words != len(resp.Answers)-2 {
		t.Fatalf("%d of %d golden answers are in words, want all but the negative and the nine-byte one", words, len(resp.Answers))
	}
	for _, prefix := range [][]byte{nil, {0xAB, 0xCD, 0xEF}, make([]byte, 5, 1<<12)} {
		got := AppendEvalResp(append([]byte(nil), prefix...), resp)
		if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("frame after a %d-byte prefix differs from the golden file (%d bytes, want %d)", len(prefix), len(got)-len(prefix), len(want))
		}
	}
	checkDecodeEvalResp(t, want)
	dec, err := DecodeEvalResp(want)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range resp.Answers {
		d := dec.Answers[i]
		if !slices.Equal(d.Words, a.Words) || len(d.Big) != len(a.Big) {
			t.Fatalf("answer %d decoded to %+v, encoded from %+v", i, d, a)
		}
	}
	// Every proper prefix is an error, by both decoders alike.
	for cut := 0; cut < len(want); cut++ {
		if _, err := DecodeEvalResp(want[:cut]); err == nil {
			t.Fatalf("frame cut to %d of %d bytes decoded", cut, len(want))
		}
		checkDecodeEvalResp(t, want[:cut])
	}
}

// hostileEvalResps are frames a peer should not send: the checked-in fuzz
// corpus holds the same ones.
func hostileEvalResps() [][]byte {
	golden := AppendEvalResp(nil, goldenEvalResp())
	return [][]byte{
		golden[:len(golden)/2],                                       // truncated prefix
		{1, 0xFF, 0xFF, 0xFF, 0x01, 0, 0, 1, 1, 1, 7},                // an answer count the bytes cannot hold
		{1, 2, 0, 0, 0xFF, 0xFF, 0x3F, 1, 1, 7, 0, 0, 0},             // first answer claims 2^20 values: no slab for them
		{1, 1, 0, 0, 2, 1, 2, 0, 7, 1, 9, 0, 0, 0, 0, 0, 0, 0, 0, 9}, // leading-zero magnitudes, two and nine bytes
		{1, 1, 0, 0, 3, 2, 0, 2, 1, 0, 1, 1, 4},                      // negative zero, twice: still words
		{1, 1, 0, 0, 1, 2, 1, 4},                                     // −4: the big.Int form
		{1, 1, 0, 0, 1, 1, 9, 1, 0, 0, 0, 0, 0, 0, 0, 0},             // nine significant bytes: the big.Int form
		{1, 1, 0, 0, 1, 3, 1, 4},                                     // bad sign byte
		{1, 1, 0, 0, 1, 1, 0x81, 0x00, 5},                            // length 1 as an over-long varint
		{1, 2, 0, 0, 1, 1, 1, 5, 1, 4, 3, 1, 1, 5, 2, 1, 6, 0},       // second answer longer than the first, and negative
		{1, 1, 0, 0, 0, 0xAA},                                        // trailing bytes
		{1, 0},                                                       // no answers
	}
}

func TestDecodeEvalRespAgreesOnHostileInputs(t *testing.T) {
	for _, data := range hostileEvalResps() {
		checkDecodeEvalResp(t, data)
	}
}

// FuzzDecodeEvalResp: on every input the word decoder accepts exactly what
// the big.Int reference decoder accepts, and decodes the same values.
func FuzzDecodeEvalResp(f *testing.F) {
	f.Add(AppendEvalResp(nil, goldenEvalResp()))
	for _, data := range hostileEvalResps() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeEvalResp(t, data)
	})
}

// benchEvalResp is one large wave of an F_257 query: 4,096 answers of two
// values under five-deep keys.
func benchEvalResp() EvalResp {
	golden := goldenEvalResp().Answers[5:]
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
	buf := AppendEvalResp(nil, resp)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendEvalResp(buf[:0], resp) // as the daemon does, into a pooled buffer
	}
}

func BenchmarkDecodeEvalResp(b *testing.B) {
	buf := AppendEvalResp(nil, benchEvalResp())
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeEvalResp(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDecodeKeysShareOneArray: the keys of a message decode into shared
// arrays — a handful of allocations a message, not one a key — as
// capacity-clipped views (an append to one key cannot reach the next), for
// every component width and depth, the root included; a depth the bytes
// cannot hold is refused like any truncated key.
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
	if _, _, err := DecodeKey([]byte{0xFF, 0xFF, 0x03, 1, 2}); err == nil {
		t.Fatal("a key of 65,535 components in two bytes decoded")
	}
}
