package ring

import (
	"bytes"
	"crypto/sha256"
	"math/big"
	"math/rand"
	"testing"

	"sssearch/internal/drbg"
	"sssearch/internal/poly"
)

// randTestPoly draws a polynomial whose coefficients exercise the packed
// path (canonical words) or force the big.Int fallback (negative / huge),
// depending on mode.
func randTestPoly(rng *rand.Rand, maxLen int, p uint64, mode int) poly.Poly {
	n := rng.Intn(maxLen + 1)
	coeffs := make([]*big.Int, n)
	for i := range coeffs {
		switch mode {
		case 0: // canonical
			coeffs[i] = new(big.Int).SetUint64(rng.Uint64() % p)
		case 1: // arbitrary word-sized, unreduced
			coeffs[i] = new(big.Int).SetUint64(rng.Uint64())
		default: // out of word range / negative: packing must refuse
			coeffs[i] = new(big.Int).Lsh(big.NewInt(int64(rng.Intn(100)-50)), uint(rng.Intn(3)*40))
		}
	}
	return poly.New(coeffs...)
}

// TestFastPathDifferential drives every ring operation through the fast
// path and the big.Int reference (SetFast(false)) on the same inputs.
func TestFastPathDifferential(t *testing.T) {
	for _, p := range []uint64{5, 7, 31, 257} {
		fast := MustFp(p)
		ref := MustFp(p)
		ref.SetFast(false)
		if fast.Fast() == nil {
			t.Fatalf("F_%d has no fast path", p)
		}
		if ref.Fast() != nil {
			t.Fatalf("SetFast(false) left the fast path on")
		}
		rng := rand.New(rand.NewSource(int64(p) * 17))
		for trial := 0; trial < 200; trial++ {
			mode := trial % 3
			a := randTestPoly(rng, 3*int(p), p, mode)
			b := randTestPoly(rng, 3*int(p), p, (trial/3)%3)
			if got, want := fast.Reduce(a), ref.Reduce(a); !got.Equal(want) {
				t.Fatalf("p=%d Reduce(%v): fast %v, ref %v", p, a, got, want)
			}
			if got, want := fast.Add(a, b), ref.Add(a, b); !got.Equal(want) {
				t.Fatalf("p=%d Add: fast %v, ref %v", p, got, want)
			}
			if got, want := fast.Sub(a, b), ref.Sub(a, b); !got.Equal(want) {
				t.Fatalf("p=%d Sub: fast %v, ref %v", p, got, want)
			}
			if got, want := fast.Neg(a), ref.Neg(a); !got.Equal(want) {
				t.Fatalf("p=%d Neg: fast %v, ref %v", p, got, want)
			}
			if got, want := fast.Mul(a, b), ref.Mul(a, b); !got.Equal(want) {
				t.Fatalf("p=%d Mul: fast %v, ref %v", p, got, want)
			}
			root := new(big.Int).SetInt64(int64(rng.Intn(200) - 100))
			if got, want := fast.Linear(root), ref.Linear(root); !got.Equal(want) {
				t.Fatalf("p=%d Linear(%s): fast %v, ref %v", p, root, got, want)
			}
			x := big.NewInt(int64(1 + rng.Intn(int(p)-1)))
			gv, gerr := fast.Eval(a, x)
			wv, werr := ref.Eval(a, x)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("p=%d Eval error mismatch: %v vs %v", p, gerr, werr)
			}
			if gerr == nil && gv.Cmp(wv) != 0 {
				t.Fatalf("p=%d Eval(%v, %s): fast %s, ref %s", p, a, x, gv, wv)
			}
			num := new(big.Int).SetUint64(rng.Uint64())
			den := new(big.Int).SetUint64(rng.Uint64())
			gs, gok := fast.SolveScalar(num, den)
			ws, wok := ref.SolveScalar(num, den)
			if gok != wok || (gok && gs.Cmp(ws) != 0) {
				t.Fatalf("p=%d SolveScalar: fast (%v,%v), ref (%v,%v)", p, gs, gok, ws, wok)
			}
		}
		// Eval at 0 must stay undefined on both paths.
		if _, err := fast.Eval(poly.One(), big.NewInt(0)); err == nil {
			t.Fatalf("p=%d fast Eval(0) succeeded", p)
		}
	}
}

// TestPackUnpackRoundTrip checks the packed boundary conversions against
// Reduce's canonical form.
func TestPackUnpackRoundTrip(t *testing.T) {
	r := MustFp(257)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		q := randTestPoly(rng, 256, 257, trial%2)
		vec, ok := r.Pack(q)
		if !ok {
			t.Fatalf("Pack refused word coefficients: %v", q)
		}
		if !r.Unpack(vec).Equal(q.ReduceCoeffs(r.P())) {
			t.Fatalf("Pack/Unpack changed the polynomial")
		}
	}
	if _, ok := r.Pack(poly.FromInt64(1, -2)); ok {
		t.Fatal("Pack accepted a negative coefficient")
	}
}

// TestRandFastReproducible: the bulk sampler must be deterministic in the
// DRBG stream and produce canonical representatives; RandPacked must draw
// exactly the Rand vector.
func TestRandFastReproducible(t *testing.T) {
	r := MustFp(257)
	seed := drbg.Seed(sha256.Sum256([]byte("ring-rand")))
	d := drbg.NewDeriver(seed, "test")
	key := drbg.NodeKey{1, 2}
	a, err := r.Rand(d.ForNode(key))
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Rand(d.ForNode(key))
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatal("Rand not deterministic in the DRBG stream")
	}
	vec := make([]uint64, r.DegreeBound())
	if err := r.RandPacked(d.ForNode(key), vec); err != nil {
		t.Fatal(err)
	}
	if !r.Unpack(vec).Equal(a) {
		t.Fatal("RandPacked diverged from Rand on the same stream")
	}
	for _, c := range a.Coeffs() {
		if c.Sign() < 0 || c.Cmp(r.P()) >= 0 {
			t.Fatalf("Rand produced non-canonical coefficient %s", c)
		}
	}
}

// TestRandReferenceMatchesPacked: the big.Int reference sampler (what Rand
// runs under SetFast(false), one field.Rand and one small read per
// coefficient) and the bulk word sampler draw the same pad from the same
// share stream, pad for pad — so a store split on the fast path can be
// queried on the reference path. F_257 and F_12289 take two-byte samples,
// F_65537 three; a limit or a reduction off by one on either side, or a
// stream that depended on read sizes, breaks the equality.
func TestRandReferenceMatchesPacked(t *testing.T) {
	d := drbg.NewDeriver(drbg.Seed(sha256.Sum256([]byte("rand-differential"))), "test")
	for _, tc := range []struct {
		p     uint64
		nodes uint32
	}{{257, 2000}, {12289, 4}, {65537, 1}} {
		fast, ref := MustFp(tc.p), MustFp(tc.p)
		ref.SetFast(false)
		vec := make([]uint64, fast.DegreeBound())
		sampleBytes := (ref.P().BitLen() + 7) / 8
		bulk, short := make([]byte, len(vec)*sampleBytes), make([]uint64, len(vec))
		rejecting := 0 // nodes whose pad needed a refill: the bulk read alone fell short
		for i := uint32(0); i < tc.nodes; i++ {
			key := drbg.NodeKey{i, 3 * i}
			if err := fast.RandPacked(d.ForNode(key), vec); err != nil {
				t.Fatal(err)
			}
			d.ForNode(key).Read(bulk)
			if fast.Fast().RandVec(bytes.NewReader(bulk), short) != nil {
				rejecting++
			}
			pad, err := ref.Rand(d.ForNode(key))
			if err != nil {
				t.Fatal(err)
			}
			if !pad.Equal(fast.Unpack(vec)) {
				t.Fatalf("F_%d node %v: reference Rand and RandPacked draw different pads from one stream", tc.p, key)
			}
		}
		if rejecting == 0 {
			t.Fatalf("F_%d: no pad of %d met a rejected sample; the comparison never reached the acceptance limit", tc.p, tc.nodes)
		}
	}
}

// TestMulPackedMatchesMul pins the packed multiply to the generic one.
func TestMulPackedMatchesMul(t *testing.T) {
	r := MustFp(31)
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 100; trial++ {
		a := randTestPoly(rng, 30, 31, 0)
		b := randTestPoly(rng, 30, 31, 0)
		pa, _ := r.Pack(a)
		pb, _ := r.Pack(b)
		got := r.Unpack(r.MulPacked(pa, pb))
		if want := r.Mul(a, b); !got.Equal(want) {
			t.Fatalf("MulPacked: %v, Mul: %v", got, want)
		}
		gotAdd := r.Unpack(r.AddPacked(pa, pb))
		if want := r.Add(a, b); !gotAdd.Equal(want) {
			t.Fatalf("AddPacked: %v, Add: %v", gotAdd, want)
		}
	}
}

// TestFastRandMarshalStable: packed polynomials round-trip through the
// wire encoding like any other polynomial (boundary check).
func TestFastRandMarshalStable(t *testing.T) {
	r := MustFp(257)
	seed := drbg.Seed(sha256.Sum256([]byte("marshal")))
	q, err := r.Rand(drbg.NewDeriver(seed, "marshal").ForNode(nil))
	if err != nil {
		t.Fatal(err)
	}
	buf, err := q.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back poly.Poly
	if err := back.UnmarshalBinary(buf); err != nil {
		t.Fatal(err)
	}
	if !back.Equal(q) {
		t.Fatal("marshal round trip changed a fast-path polynomial")
	}
	buf2, err := back.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, buf2) {
		t.Fatal("re-marshal not canonical")
	}
}
