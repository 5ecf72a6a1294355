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
	"sssearch/internal/poly"
)

// goldenFetchResps are the responses behind testdata/fetch_resp_golden.bin,
// one for each width the encoder picks: F_257 value vectors (w = 9) with
// zeros inside, at the end and throughout, under keys of every shape;
// values of every magnitude width up to a full word (w = 64); and the
// big.Int form (w = 0), which a negative and a 71-bit coefficient force,
// beside shares that fit words.
func goldenFetchResps() []FetchResp {
	next := lcg()
	f257 := FetchResp{ID: 0x1234567}
	for i := 0; i < 12; i++ {
		w := make([]uint64, 256)
		for j := range w {
			w[j] = next() % 257
		}
		w[int(next()%256)] = 0
		w[int(next()%256)] = 256
		key := drbg.NodeKey{}
		for d := 0; d < i%5; d++ {
			key = key.Child(uint32(next() % 300))
		}
		f257.Answers = append(f257.Answers, core.NodePoly{Key: key, NumChildren: i % 4, Words: w})
	}
	f257.Answers = append(f257.Answers,
		core.NodePoly{Key: drbg.NodeKey{7, 1}, NumChildren: 2, Words: []uint64{5, 0, 0, 0}}, // trailing zeros are not written
		core.NodePoly{Key: drbg.NodeKey{7, 2}, Words: []uint64{}},
		core.NodePoly{Key: drbg.NodeKey{7, 3}}, // the zero share
		core.NodePoly{Key: drbg.NodeKey{1 << 20}, NumChildren: 300, Words: []uint64{0, 0, 9}},
	)
	widths := make([]uint64, 0, 18)
	for b := uint(0); b < 64; b += 8 {
		widths = append(widths, 1<<b, 1<<(b+7)|next()%(1<<(b+7)))
	}
	widths = append(widths, math.MaxUint64, 0)
	wide := FetchResp{ID: 1, Answers: []core.NodePoly{
		{Key: drbg.NodeKey{7, 1}, NumChildren: 2, Words: widths},
		{Key: drbg.NodeKey{7, 2}, Big: poly.NewUint64([]uint64{3, 1 << 40})}, // the big.Int seam, every value a word
	}}
	boxed := FetchResp{ID: 2, Answers: []core.NodePoly{
		{Key: drbg.NodeKey{7, 5}, NumChildren: 1, Big: poly.FromInt64(3, -4, 0, 5)},
		{Key: drbg.NodeKey{7, 6}, Words: []uint64{4, 0, 255}},
		{Key: drbg.NodeKey{7, 7}},
		{Key: drbg.NodeKey{1 << 20}, NumChildren: 300, Big: poly.New(big.NewInt(9), new(big.Int).Lsh(big.NewInt(1), 70))},
	}}
	return []FetchResp{f257, wide, boxed}
}

// fetchKeysOf lists the keys of answers.
func fetchKeysOf(answers []core.NodePoly) []drbg.NodeKey {
	keys := make([]drbg.NodeKey, len(answers))
	for i, a := range answers {
		keys[i] = a.Key
	}
	return keys
}

// decodeFetchRespRef is the reference fetch response decoder: every value
// through refBits or poly.DecodePoly, each share a polynomial.
func decodeFetchRespRef(data []byte) (respHead, []int, []poly.Poly, error) {
	h, nch, data, err := refHead(data, false)
	if err != nil {
		return h, nil, nil, err
	}
	counts, total := make([]uint64, 0, len(nch)), uint64(0)
	for range nch {
		c, k := binary.Uvarint(data)
		if k <= 0 || c > maxListLen {
			return h, nil, nil, errors.New("reference: bad value count")
		}
		counts, total, data = append(counts, c), total+c, data[k:]
	}
	shares := make([]poly.Poly, len(nch))
	if h.w > 0 {
		vals, ok := refBits(data, total, h.w)
		if !ok {
			return h, nil, nil, errors.New("reference: bad values")
		}
		for i, c := range counts {
			shares[i], vals = poly.New(vals[:c]...), vals[c:]
		}
		return h, nch, shares, nil
	}
	for i, c := range counts {
		if n, k := binary.Uvarint(data); k <= 0 || n != c {
			return h, nil, nil, errors.New("reference: another value count")
		}
		if shares[i], data, err = poly.DecodePoly(data); err != nil {
			return h, nil, nil, err
		}
	}
	if len(data) != 0 {
		return h, nil, nil, errors.New("reference: trailing bytes")
	}
	return h, nch, shares, nil
}

// checkDecodeFetchResp holds DecodeFetchResp to the reference decoder on
// one input: the same accept or reject, head, child counts and shares,
// words exactly where a share fits them — and an allocation the input's
// size bounds.
func checkDecodeFetchResp(t *testing.T, data []byte) {
	t.Helper()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	got, h, err := decodeFetchResp(data, nil)
	runtime.ReadMemStats(&ms)
	if spent := ms.TotalAlloc - before; spent > uint64(128*len(data)+1<<16) {
		t.Fatalf("decoding %d bytes allocated %d", len(data), spent)
	}
	rh, nch, want, refErr := decodeFetchRespRef(data)
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
		if a.Key != nil || a.NumChildren != nch[i] || !a.Polynomial().Equal(w) {
			t.Fatalf("answer %d: %+v, reference %d children, %s", i, a, nch[i], w)
		}
		if _, wordForm := w.Uint64Coeffs(nil); wordForm != a.Big.IsZero() {
			t.Fatalf("answer %d: fits words: %v, decoded into the big.Int form: %v", i, wordForm, !a.Big.IsZero())
		}
	}
}

// TestFetchRespGolden: AppendFetchResp writes, byte for byte, the frames
// of the golden file after whatever the buffer already held; the reference
// decoder reads them back as the shares they were made from, zero tails
// dropped; DecodeFetchResp reads them as the reference does, and
// DecodeFetchRespFor gives every answer its key.
func TestFetchRespGolden(t *testing.T) {
	resps := goldenFetchResps()
	var frames [][]byte
	for _, r := range resps {
		frame, err := AppendFetchResp(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, frame)
	}
	want := readGolden(t, "fetch_resp_golden.bin", joinFrames(frames...))
	if !bytes.Equal(joinFrames(frames...), want) {
		t.Fatalf("frames encode to %d bytes that differ from the %d-byte golden file", len(joinFrames(frames...)), len(want))
	}
	for fi, r := range resps {
		for _, prefix := range [][]byte{{0xAB, 0xCD, 0xEF}, make([]byte, 5, 1<<20)} {
			got, err := AppendFetchResp(slices.Clone(prefix), r)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], frames[fi]) {
				t.Fatalf("frame %d after a %d-byte prefix differs from the golden one", fi, len(prefix))
			}
		}
		h, nch, ref, err := decodeFetchRespRef(frames[fi])
		if err != nil {
			t.Fatalf("frame %d: reference decoder: %v", fi, err)
		}
		if wantW := []uint{9, 64, 0}[fi]; h.w != wantW || h.id != r.ID || h.digest != digestOf(fetchKeysOf(r.Answers)) {
			t.Fatalf("frame %d: head %+v, want width %d, id %d and the keys' digest", fi, h, wantW, r.ID)
		}
		checkDecodeFetchResp(t, frames[fi])
		dec, err := DecodeFetchRespFor(frames[fi], fetchKeysOf(r.Answers), digestOf(fetchKeysOf(r.Answers)))
		if err != nil {
			t.Fatal(err)
		}
		for i, a := range r.Answers {
			d := dec.Answers[i]
			if nch[i] != a.NumChildren || !ref[i].Equal(a.Polynomial()) || !slices.Equal(d.Key, a.Key) || d.NumChildren != a.NumChildren {
				t.Fatalf("frame %d answer %d decoded to %+v, encoded from %+v", fi, i, d, a)
			}
		}
	}
}

// TestFetchRespSizedOnceAndTruncationRejected: the encoder sizes a frame
// exactly before it writes the first byte — it fills a buffer with just the
// frame's capacity in place, which neither a short count (the writes would
// grow it) nor a generous one (the sizing itself would) allows — and every
// proper prefix of the frame is an error, not a panic or a shorter response.
func TestFetchRespSizedOnceAndTruncationRejected(t *testing.T) {
	for _, r := range goldenFetchResps() {
		frame, err := AppendFetchResp(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		exact := make([]byte, 0, len(frame))
		again, err := AppendFetchResp(exact, r)
		if err != nil || !bytes.Equal(again, frame) || &again[0] != &exact[:1][0] {
			t.Fatalf("a buffer of the frame's %d bytes was not filled in place (err %v)", len(frame), err)
		}
		for cut := 0; cut < len(frame); cut++ {
			if _, err := DecodeFetchResp(frame[:cut]); err == nil {
				t.Fatalf("frame cut to %d of %d bytes decoded", cut, len(frame))
			}
			checkDecodeFetchResp(t, frame[:cut])
		}
	}
}

// fetchHead is the head of a fetch response with a zero digest.
func fetchHead(n uint64, w byte) []byte {
	return append(appendUvarints([]byte{1}, n), 0, 0, 0, 0, 0, 0, 0, 0, 0, w)
}

// appendUvarints appends each of vs as a uvarint.
func appendUvarints(b []byte, vs ...uint64) []byte {
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// fetchRespSeeds are the checked-in FuzzDecodeFetchResp corpus.
func fetchRespSeeds() []seed {
	golden, err := AppendFetchResp(nil, goldenFetchResps()[0])
	if err != nil {
		panic(err)
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	return []seed{
		{"truncated_prefix", golden[:len(golden)/2]},
		{"hostile_answer_count", cat(fetchHead(1<<21, 9), []byte{0, 0, 7})},
		// One share of 2^22 values at 64 bits: 32 MiB the payload lacks.
		{"nm_overruns_payload", cat(fetchHead(1, 64), appendUvarints(nil, 0, 1<<22), []byte{1, 2, 3})},
		{"hostile_value_counts", cat(fetchHead(2, 9), appendUvarints(nil, 0, 0, 1<<22, 1<<22), []byte{1})},
		{"width_65", cat(fetchHead(1, 65), []byte{0, 1, 5, 0, 0, 0, 0, 0, 0, 0, 0})},
		{"width_0_words", cat(fetchHead(1, 0), []byte{0, 2, 2, 1, 1, 5, 1, 2, 1, 0})},
		{"tag_count_1", cat(fetchHead(1, 9)[:10], []byte{1, 9, 0, 1, 5, 0})},
		{"padding_bit", cat(fetchHead(1, 9), []byte{0, 1, 5, 0x80})},
		// Nine bits of value then a zero tail the count includes: read, then dropped.
		{"zero_tail", cat(fetchHead(1, 9), []byte{0, 2, 5, 0, 0})},
		{"no_answers", fetchHead(0, 1)},
		{"negative_coefficient", cat(fetchHead(1, 0), []byte{0, 1, 1, 2, 1, 4})},
		// The share's own count says two where the head says one.
		{"share_count_differs", cat(fetchHead(1, 0), []byte{0, 1, 2, 1, 1, 4, 1, 1, 5})},
		{"trailing_byte", cat(fetchHead(1, 9), []byte{0, 1, 5, 0, 0})},
	}
}

// FuzzDecodeFetchResp: on every input the decoder accepts exactly what the
// reference decoder accepts, decodes the same head and shares, and
// allocates no more than the input's size allows.
func FuzzDecodeFetchResp(f *testing.F) {
	for _, r := range goldenFetchResps() {
		frame, err := AppendFetchResp(nil, r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	for _, s := range fetchRespSeeds() {
		f.Add(s.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeFetchResp(t, data)
	})
}

// benchFetchResp is the shape a wave of tag recoveries asks for: 1,024
// F_257 value vectors, about a quarter of a megabyte.
func benchFetchResp() FetchResp {
	resp := FetchResp{ID: 7}
	for i := 0; len(resp.Answers) < 1024; i++ {
		for _, a := range goldenFetchResps()[0].Answers[:12] {
			a.Key = a.Key.Child(uint32(i))
			resp.Answers = append(resp.Answers, a)
		}
	}
	resp.Answers = resp.Answers[:1024]
	return resp
}

func BenchmarkAppendFetchResp(b *testing.B) {
	resp := benchFetchResp()
	digest := digestOf(fetchKeysOf(resp.Answers))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := AppendFetchRespFor(nil, resp, digest) // as the daemon does on a frame past the buffer pool's size
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(out)))
	}
}

func BenchmarkDecodeFetchResp(b *testing.B) {
	resp := benchFetchResp()
	buf, err := AppendFetchResp(nil, resp)
	if err != nil {
		b.Fatal(err)
	}
	keys := fetchKeysOf(resp.Answers)
	digest := digestOf(keys)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeFetchRespFor(buf, keys, digest); err != nil { // as client.Remote does
			b.Fatal(err)
		}
	}
}
