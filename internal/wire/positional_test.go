package wire

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"sssearch/internal/core"
	"sssearch/internal/drbg"
)

// TestNamedSeedsDecodeAsDocumented: of the named seeds, exactly the ones
// listed here decode; every other is a hostile or malformed frame and is
// refused.
func TestNamedSeedsDecodeAsDocumented(t *testing.T) {
	for _, c := range []struct {
		target string
		seeds  []seed
		decode func([]byte) error
		ok     []string
	}{
		{"FuzzDecodeEvalReq", evalReqSeeds(), func(b []byte) error { _, err := DecodeEvalReq(b); return err },
			[]string{"golden", "overlong_varints", "zero_with_magnitude", "root_twice"}},
		{"FuzzDecodeFetchReq", fetchReqSeeds(), func(b []byte) error { _, err := DecodeFetchReq(b); return err },
			[]string{"golden", "root_keys", "sampled", "root_twice"}},
		{"FuzzDecodeEvalResp", evalRespSeeds(), func(b []byte) error { _, err := DecodeEvalResp(b); return err },
			[]string{"width_0_words", "no_answers", "no_values", "leading_zero_magnitude", "negative_zero", "negative_value", "nine_byte_value"}},
		{"FuzzDecodeFetchResp", fetchRespSeeds(), func(b []byte) error { _, err := DecodeFetchResp(b); return err },
			[]string{"width_0_words", "zero_tail", "no_answers", "negative_coefficient"}},
	} {
		for _, s := range c.seeds {
			if err := c.decode(s.data); (err == nil) != slices.Contains(c.ok, s.name) {
				t.Errorf("%s/%s: decode error %v", c.target, s.name, err)
			}
		}
	}
}

// TestEvalRespByteBudget: a 1,024-answer wave at two F_257 points is its
// child counts and nine bits a value, plus a head — no keys, no per-value
// framing. A regression to keyed frames or varint values fails here.
func TestEvalRespByteBudget(t *testing.T) {
	resp := EvalResp{ID: 1 << 40, Answers: make([]core.NodeEval, 1024)}
	for i := range resp.Answers {
		resp.Answers[i] = core.NodeEval{
			Key:         drbg.NodeKey{0, uint32(i / 100), uint32(i % 100), 7},
			NumChildren: i % 100,
			Words:       []uint64{uint64(i) % 257, 256 - uint64(i)%257},
		}
	}
	frame := AppendEvalResp(nil, resp)
	if budget := 1024*(1+18.0/8) + 32; float64(len(frame)) > budget {
		t.Fatalf("a 1,024-answer, two-point F_257 response takes %d bytes, budget %.0f", len(frame), budget)
	}
	dec, err := DecodeEvalRespFor(frame, keysOf(resp.Answers), digestOf(keysOf(resp.Answers)), 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range resp.Answers {
		if d := dec.Answers[i]; !slices.Equal(d.Words, a.Words) || d.NumChildren != a.NumChildren || !slices.Equal(d.Key, a.Key) {
			t.Fatalf("answer %d decoded to %+v, encoded from %+v", i, d, a)
		}
	}
}

// TestSiblingRunByteBudget: a node's 256 children, six deep, are one run
// of a key list: the count, the run's shared length, suffix and run
// length.
func TestSiblingRunByteBudget(t *testing.T) {
	keys := make([]drbg.NodeKey, 256)
	for i := range keys {
		keys[i] = drbg.NodeKey{0, 3, 1, 4, 1, uint32(i)}
	}
	if b := AppendKeys(nil, keys); len(b) > 12 {
		t.Fatalf("256 siblings at depth 6 encode in %d bytes: %x", len(b), b)
	}
}

// randomKeyList draws a key list shaped like a wave's: runs of siblings
// under shared prefixes, repeats, the root, deep keys and components at
// the top of their range.
func randomKeyList(r *rand.Rand) []drbg.NodeKey {
	var keys []drbg.NodeKey
	for len(keys) < 1+r.Intn(60) {
		var k drbg.NodeKey
		switch r.Intn(6) {
		case 0:
			k = drbg.NodeKey{}
		case 1:
			if len(keys) > 0 {
				k = slices.Clone(keys[r.Intn(len(keys))])
			}
		case 2:
			if len(keys) > 0 {
				k = slices.Clone(keys[len(keys)-1])
				if len(k) > 0 {
					k = k[:r.Intn(len(k))]
				}
			}
		default:
			for d := r.Intn(8); d > 0; d-- {
				c := uint32(r.Intn(5))
				if r.Intn(8) == 0 {
					c = 1<<32 - 1 - uint32(r.Intn(3))
				}
				k = append(k, c)
			}
		}
		for n := r.Intn(5); n >= 0; n-- {
			keys = append(keys, slices.Clone(k))
			if len(k) == 0 || k[len(k)-1] == 1<<32-1 {
				break
			}
			k[len(k)-1]++
		}
	}
	return keys
}

// TestKeyListRoundTrip: every key list decodes to itself, from the
// encoder's runs and from one run a key with nothing shared, which is never
// shorter.
func TestKeyListRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	for trial := 0; trial < 2000; trial++ {
		keys := randomKeyList(r)
		enc := AppendKeys(nil, keys)
		loose := appendUvarints(nil, uint64(len(keys)))
		for _, k := range keys {
			loose = appendUvarints(loose, 0, uint64(len(k)))
			for _, c := range k {
				loose = appendUvarints(loose, uint64(c))
			}
			loose = appendUvarints(loose, 1)
		}
		for _, b := range [][]byte{enc, loose} {
			got, rest, err := DecodeKeys(b)
			if err != nil || len(rest) != 0 || !slices.EqualFunc(got, keys, slices.Equal[drbg.NodeKey]) {
				t.Fatalf("%v encodes to %x, which decodes to %v (%v)", keys, b, got, err)
			}
		}
		if len(loose) < len(enc) {
			t.Fatalf("%v: the encoder's runs take %d bytes, one run a key %d", keys, len(enc), len(loose))
		}
	}
}

// TestKeyListCapsRefuseBeforeAllocating: a list asking for more keys or
// components than the caps allow or than its bytes may ask for, or for a
// run past the last component, is refused with nothing allocated for what
// it asked.
func TestKeyListCapsRefuseBeforeAllocating(t *testing.T) {
	for _, s := range keyListSeeds() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		keys, _, err := DecodeKeys(s.data)
		runtime.ReadMemStats(&ms)
		if spent := ms.TotalAlloc - before; err != nil && spent > 1<<10 {
			t.Errorf("%s: refused after allocating %d bytes", s.name, spent)
		}
		if (err == nil) != (s.name == "root_twice") {
			t.Errorf("%s: decoded to %d keys, error %v", s.name, len(keys), err)
		}
	}
}

// siblings is a run of r keys d deep: /0/…/0/i for i below r.
func siblings(r, d int) []drbg.NodeKey {
	keys := make([]drbg.NodeKey, r)
	for i := range keys {
		keys[i] = make(drbg.NodeKey, d)
		keys[i][d-1] = uint32(i)
	}
	return keys
}

// TestKeyListBudget: KeyListFits says exactly which lists the decoder
// takes. One run of siblings is taken while its keys and components stay
// within the budget of its few bytes, at every depth, and a wave of 4,096
// keys 15 deep is taken however few runs it has.
func TestKeyListBudget(t *testing.T) {
	for _, d := range []int{1, 2, 6, 40} {
		size := len(AppendKeys(nil, siblings(keyListFloor/(d+1), d)))
		edge := int(keyListBudget(size)) / (d + 1) // the longest run that fits, if its size is the same
		var fit, refused bool
		for r := edge - 4; r <= edge+4; r++ {
			keys := siblings(r, d)
			_, _, err := DecodeKeys(AppendKeys(nil, keys))
			if KeyListFits(keys) != (err == nil) {
				t.Fatalf("%d siblings %d deep: KeyListFits %v, decoder error %v", r, d, KeyListFits(keys), err)
			}
			fit, refused = fit || err == nil, refused || err != nil
		}
		if !fit || !refused {
			t.Fatalf("%d deep: runs of %d to %d siblings all fit (%v) or were all refused (%v)", d, edge-4, edge+4, fit, refused)
		}
	}
	if keys := siblings(4096, 15); !KeyListFits(keys) {
		t.Fatal("a run of 4,096 siblings 15 deep does not fit")
	}
}

// TestDecodeRespForRefusesBeforeAllocating: a response that claims more
// answers than were asked, or more values an answer than points, is
// refused before anything is allocated for what it claims. Each frame
// here holds 2^22 one-bit values, which DecodeEvalResp and DecodeFetchResp
// unpack into 32 MiB of words.
func TestDecodeRespForRefusesBeforeAllocating(t *testing.T) {
	keys := []drbg.NodeKey{{0}}
	_, digest := AppendEvalReq(nil, EvalReq{Keys: keys})
	withDigest := func(head []byte) []byte {
		binary.BigEndian.PutUint64(head[len(head)-10:], digest)
		return head
	}
	const n, m = 1 << 16, 64
	var fetchCounts []byte
	for i := 0; i < n; i++ {
		fetchCounts = appendUvarints(fetchCounts, 0, m)
	}
	evalFor := func(points int) func([]byte) error {
		return func(frame []byte) error { return errOf(DecodeEvalRespFor(frame, keys, digest, points)) }
	}
	for _, c := range []struct {
		name   string
		frame  []byte
		decode func([]byte) error
	}{
		{"eval, more answers", append(withDigest(evalHead(n, m, 1)), make([]byte, n+n*m/8)...), evalFor(m)},
		{"eval, more values", append(withDigest(evalHead(1, n*m, 1)), make([]byte, 1+n*m/8)...), evalFor(2)},
		{"fetch, more answers", append(append(withDigest(fetchHead(n, 1)), fetchCounts...), make([]byte, n*m/8)...),
			func(frame []byte) error { return errOf(DecodeFetchRespFor(frame, keys, digest)) }},
	} {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		err := c.decode(c.frame)
		runtime.ReadMemStats(&ms)
		if spent := ms.TotalAlloc - before; !errors.Is(err, ErrMismatch) || spent > 16<<10 {
			t.Errorf("%s: error %v after allocating %d bytes", c.name, err, spent)
		}
	}
}

// TestPackedValuesRoundTrip: values below 2^w read back as written at
// every width and count, and a set padding bit is refused.
func TestPackedValuesRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for w := uint(1); w <= 64; w++ {
		for n := 0; n < 70; n++ {
			vals := make([]uint64, n)
			for i := range vals {
				vals[i] = r.Uint64() >> (64 - w)
			}
			b := bitWriter{w: w}
			for _, v := range vals {
				b.put(v)
			}
			packed := b.flush()
			if uint64(len(packed)) != packedLen(uint64(n), uint64(w)) {
				t.Fatalf("w=%d n=%d: %d bytes, want %d", w, n, len(packed), packedLen(uint64(n), uint64(w)))
			}
			got := make([]uint64, n)
			if !unpack(got, packed, w) || !slices.Equal(got, vals) {
				t.Fatalf("w=%d n=%d: %x unpacks to %v, packed from %v", w, n, packed, got, vals)
			}
			if pad := uint(n) * w % 8; pad != 0 {
				packed[len(packed)-1] |= 0x80
				if unpack(got, packed, w) {
					t.Fatalf("w=%d n=%d: a set padding bit unpacked", w, n)
				}
			}
		}
	}
}

// TestKeyDigestIsFNV1a: the digest is hash/fnv's FNV-1a-64 of the encoded
// key list.
func TestKeyDigestIsFNV1a(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		keys := randomKeyList(r)
		h := fnv.New64a()
		h.Write(AppendKeys(nil, keys))
		if digestOf(keys) != h.Sum64() {
			t.Fatalf("digestOf(%v) = %016x, hash/fnv says %016x", keys, digestOf(keys), h.Sum64())
		}
	}
}

// TestKeyDigestAtBothEnds: the digest the encoder returns, the one the
// decoder reads off the bytes and KeyDigest of the keys are one number.
func TestKeyDigestAtBothEnds(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for trial := 0; trial < 100; trial++ {
		keys := randomKeyList(r)
		payload, sent := AppendEvalReq(nil, EvalReq{ID: 1, Keys: keys})
		req, err := DecodeEvalReq(payload)
		if err != nil || req.KeyDigest != sent || sent != digestOf(keys) {
			t.Fatalf("eval request: sent %016x, read %016x, KeyDigest %016x (%v)", sent, req.KeyDigest, digestOf(keys), err)
		}
		fpayload, fsent := AppendFetchReq(nil, FetchReq{ID: 1, Keys: keys})
		freq, err := DecodeFetchReq(fpayload)
		if err != nil || freq.KeyDigest != fsent || fsent != sent {
			t.Fatalf("fetch request: sent %016x, read %016x, eval's %016x (%v)", fsent, freq.KeyDigest, sent, err)
		}
	}
}

// TestDecodeRespForRefusesMismatch: a response is refused unless it
// answers the keys asked (its digest), every one (its answer count) at
// every point (its value count); a response whose answers do not all hold
// as many values is not decodable at all.
func TestDecodeRespForRefusesMismatch(t *testing.T) {
	resp := goldenEvalResps()[0]
	frame := AppendEvalResp(nil, resp)
	keys := keysOf(resp.Answers)
	swapped := slices.Clone(keys)
	swapped[1], swapped[2] = swapped[2], swapped[1]
	for name, err := range map[string]error{
		"other keys":   errOf(DecodeEvalRespFor(frame, swapped, digestOf(swapped), 2)),
		"fewer keys":   errOf(DecodeEvalRespFor(frame, keys[1:], digestOf(keys), 2)),
		"other points": errOf(DecodeEvalRespFor(frame, keys, digestOf(keys), 3)),
	} {
		if !errors.Is(err, ErrMismatch) {
			t.Errorf("eval response for %s: error %v, want ErrMismatch", name, err)
		}
	}
	if _, err := DecodeEvalRespFor(frame, keys, digestOf(keys), 2); err != nil {
		t.Fatal(err)
	}

	fetch := goldenFetchResps()[0]
	fframe, err := AppendFetchResp(nil, fetch)
	if err != nil {
		t.Fatal(err)
	}
	fkeys := fetchKeysOf(fetch.Answers)
	fswapped := slices.Clone(fkeys)
	fswapped[0], fswapped[1] = fswapped[1], fswapped[0]
	for name, err := range map[string]error{
		"other keys": errOf(DecodeFetchRespFor(fframe, fswapped, digestOf(fswapped))),
		"more keys":  errOf(DecodeFetchRespFor(fframe, append(slices.Clone(fkeys), drbg.NodeKey{9}), digestOf(fkeys))),
	} {
		if !errors.Is(err, ErrMismatch) {
			t.Errorf("fetch response for %s: error %v, want ErrMismatch", name, err)
		}
	}

	ragged := EvalResp{ID: 3, Answers: []core.NodeEval{
		{Key: drbg.NodeKey{0}, Words: []uint64{1, 2}},
		{Key: drbg.NodeKey{1}, Words: []uint64{3}},
	}}
	if _, err := DecodeEvalResp(AppendEvalResp(nil, ragged)); err == nil {
		t.Fatal("a response whose answers hold two and one values decoded")
	}
}

// errOf is the error of a two-result call.
func errOf[T any](_ T, err error) error { return err }

// benchKeys is the key list of a wave: 4,096 keys, the eight children
// each of 512 nodes five deep.
func benchKeys() []drbg.NodeKey {
	keys := make([]drbg.NodeKey, 0, 4096)
	for p := uint32(0); len(keys) < 4096; p++ {
		for c := uint32(0); c < 8; c++ {
			keys = append(keys, drbg.NodeKey{0, p % 3, p / 3 % 7, p / 21, c})
		}
	}
	return keys
}

func BenchmarkAppendKeys(b *testing.B) {
	keys := benchKeys()
	buf := AppendKeys(nil, keys)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendKeys(buf[:0], keys)
	}
}

func BenchmarkDecodeKeys(b *testing.B) {
	buf := AppendKeys(nil, benchKeys())
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeKeys(buf); err != nil {
			b.Fatal(err)
		}
	}
}
