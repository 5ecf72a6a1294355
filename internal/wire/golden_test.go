package wire

import (
	"bytes"
	"math"
	"math/big"
	"os"
	"testing"

	"sssearch/internal/core"
	"sssearch/internal/drbg"
	"sssearch/internal/poly"
)

// goldenFetchResp is the response behind testdata/fetch_resp_golden.bin:
// F_257-shaped polynomials (one- and two-byte magnitudes, zeros inside),
// every magnitude width up to a full word, untrimmed and empty vectors, and
// two answers only the big.Int form can carry. The values come from a fixed
// LCG, so the frame does not depend on math/rand's generator.
func goldenFetchResp() FetchResp {
	state := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return state >> 33
	}
	resp := FetchResp{ID: 0x1234567}
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
		resp.Answers = append(resp.Answers, core.NodePoly{Key: key, NumChildren: i % 4, Words: w})
	}
	widths := make([]uint64, 0, 18)
	for b := uint(0); b < 64; b += 8 {
		widths = append(widths, 1<<b, 1<<(b+7)|next()%(1<<(b+7)))
	}
	widths = append(widths, math.MaxUint64, 0)
	resp.Answers = append(resp.Answers,
		core.NodePoly{Key: drbg.NodeKey{7, 1}, NumChildren: 2, Words: widths},
		core.NodePoly{Key: drbg.NodeKey{7, 2}, Words: []uint64{5, 0, 0, 0}}, // trailing zeros are not written
		core.NodePoly{Key: drbg.NodeKey{7, 3}, Words: []uint64{}},
		core.NodePoly{Key: drbg.NodeKey{7, 4}}, // the zero polynomial
		core.NodePoly{Key: drbg.NodeKey{7, 5}, NumChildren: 1, Big: poly.FromInt64(3, -4, 0, 5)},
		core.NodePoly{Key: drbg.NodeKey{1 << 20}, NumChildren: 300,
			Big: poly.New(big.NewInt(9), new(big.Int).Lsh(big.NewInt(1), 70))},
	)
	return resp
}

// TestFetchRespGolden: AppendFetchResp writes, byte for byte, the frame the
// codec wrote before it sized its buffer and wrote by index (the file was
// captured then), after whatever the buffer already held; the frame decodes
// to the answers it was made from.
func TestFetchRespGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/fetch_resp_golden.bin")
	if err != nil {
		t.Fatal(err)
	}
	resp := goldenFetchResp()
	for _, prefix := range [][]byte{nil, {0xAB, 0xCD, 0xEF}, make([]byte, 5, 1<<20)} {
		got, err := AppendFetchResp(append([]byte(nil), prefix...), resp)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("frame after a %d-byte prefix differs from the golden file (%d bytes, want %d)",
				len(prefix), len(got)-len(prefix), len(want))
		}
	}
	dec, err := DecodeFetchResp(want)
	if err != nil {
		t.Fatal(err)
	}
	if dec.ID != resp.ID || len(dec.Answers) != len(resp.Answers) {
		t.Fatalf("decoded id %d with %d answers", dec.ID, len(dec.Answers))
	}
	for i, a := range resp.Answers {
		d := dec.Answers[i]
		if d.Key.String() != a.Key.String() || d.NumChildren != a.NumChildren || !d.Polynomial().Equal(a.Polynomial()) {
			t.Fatalf("answer %d decoded to %+v", i, d)
		}
		if _, wordForm := a.WordCoeffs(); wordForm != d.Big.IsZero() {
			t.Fatalf("answer %d: word form %v, decoded big.Int form %v", i, wordForm, !d.Big.IsZero())
		}
	}
}

// TestFetchRespSizedOnceAndTruncationRejected: the encoder sizes a frame
// exactly before it writes the first byte — it fills a buffer with just the
// frame's capacity in place, which neither a short count (the writes would
// grow it) nor a generous one (the sizing itself would) allows — and every
// proper prefix of the frame is an error, not a panic or a shorter response.
func TestFetchRespSizedOnceAndTruncationRejected(t *testing.T) {
	frame, err := AppendFetchResp(nil, goldenFetchResp())
	if err != nil {
		t.Fatal(err)
	}
	exact := make([]byte, 0, len(frame))
	again, err := AppendFetchResp(exact, goldenFetchResp())
	if err != nil || !bytes.Equal(again, frame) || &again[0] != &exact[:1][0] {
		t.Fatalf("a buffer of the frame's %d bytes was not filled in place (err %v)", len(frame), err)
	}
	for cut := 0; cut < len(frame); cut++ {
		if _, err := DecodeFetchResp(frame[:cut]); err == nil {
			t.Fatalf("frame cut to %d of %d bytes decoded", cut, len(frame))
		}
	}
}

// benchFetchResp is the shape a wave of tag recoveries asks for: 1,024
// F_257 polynomials, about three quarters of a megabyte.
func benchFetchResp() FetchResp {
	resp := FetchResp{ID: 7}
	for i := 0; len(resp.Answers) < 1024; i++ {
		for _, a := range goldenFetchResp().Answers[:12] {
			a.Key = a.Key.Child(uint32(i))
			resp.Answers = append(resp.Answers, a)
		}
	}
	resp.Answers = resp.Answers[:1024]
	return resp
}

func BenchmarkAppendFetchResp(b *testing.B) {
	resp := benchFetchResp()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := AppendFetchResp(nil, resp) // as the daemon does on a frame past the buffer pool's size
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(out)))
	}
}

func BenchmarkDecodeFetchResp(b *testing.B) {
	buf, err := AppendFetchResp(nil, benchFetchResp())
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeFetchResp(buf); err != nil {
			b.Fatal(err)
		}
	}
}
