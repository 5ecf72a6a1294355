package ring

import (
	"math/big"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"sssearch/internal/poly"
)

// randomRingPoly draws a random Z[x] polynomial suited for ring tests.
func randomRingPoly(r *rand.Rand, maxDeg int, coeffRange int64) poly.Poly {
	deg := r.Intn(maxDeg + 1)
	cs := make([]*big.Int, deg+1)
	for i := range cs {
		cs[i] = big.NewInt(r.Int63n(2*coeffRange+1) - coeffRange)
	}
	return poly.New(cs...)
}

func quickCfg(maxDeg int) *quick.Config {
	return &quick.Config{
		MaxCount: 200,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			for i := range vals {
				vals[i] = reflect.ValueOf(randomRingPoly(r, maxDeg, 50))
			}
		},
	}
}

// TestRingAxiomsProperty checks commutative-ring axioms on canonical
// representatives for both ring families via testing/quick.
func TestRingAxiomsProperty(t *testing.T) {
	rings := []Ring{MustFp(13), MustIntQuotient(1, 0, 1), MustIntQuotient(1, 1, 0, 1)}
	for _, r := range rings {
		r := r
		err := quick.Check(func(a, b, c poly.Poly) bool {
			// Reduce is idempotent.
			if !r.Reduce(r.Reduce(a)).Equal(r.Reduce(a)) {
				return false
			}
			// Commutativity.
			if !r.Add(a, b).Equal(r.Add(b, a)) {
				return false
			}
			if !r.Mul(a, b).Equal(r.Mul(b, a)) {
				return false
			}
			// Associativity.
			if !r.Add(r.Add(a, b), c).Equal(r.Add(a, r.Add(b, c))) {
				return false
			}
			if !r.Mul(r.Mul(a, b), c).Equal(r.Mul(a, r.Mul(b, c))) {
				return false
			}
			// Distributivity.
			if !r.Mul(a, r.Add(b, c)).Equal(r.Add(r.Mul(a, b), r.Mul(a, c))) {
				return false
			}
			// Identities and inverses.
			if !r.Add(a, r.Zero()).Equal(r.Reduce(a)) {
				return false
			}
			if !r.Mul(a, r.One()).Equal(r.Reduce(a)) {
				return false
			}
			return r.Add(a, r.Neg(a)).Equal(r.Zero())
		}, quickCfg(8))
		if err != nil {
			t.Errorf("%s: %v", r.Name(), err)
		}
	}
}

// TestEvalIsHomomorphismProperty: Eval must commute with ring operations —
// the property the whole query protocol rests on.
func TestEvalIsHomomorphismProperty(t *testing.T) {
	cases := []struct {
		r     Ring
		point int64
	}{
		{MustFp(13), 5},
		{MustIntQuotient(1, 0, 1), 2},    // mod r(2)=5
		{MustIntQuotient(1, 0, 1), 3},    // mod r(3)=10
		{MustIntQuotient(1, 1, 0, 1), 2}, // mod r(2)=11
	}
	for _, c := range cases {
		a := big.NewInt(c.point)
		mod, err := c.r.EvalModulus(a)
		if err != nil {
			t.Fatalf("%s at %d: %v", c.r.Name(), c.point, err)
		}
		err = quick.Check(func(f, g poly.Poly) bool {
			ef, err1 := c.r.Eval(c.r.Reduce(f), a)
			eg, err2 := c.r.Eval(c.r.Reduce(g), a)
			if err1 != nil || err2 != nil {
				return false
			}
			// Eval(f+g) == Eval(f)+Eval(g).
			sum, err := c.r.Eval(c.r.Add(f, g), a)
			if err != nil {
				return false
			}
			want := new(big.Int).Add(ef, eg)
			want.Mod(want, mod)
			if sum.Cmp(want) != 0 {
				return false
			}
			// Eval(f*g) == Eval(f)*Eval(g).
			prod, err := c.r.Eval(c.r.Mul(f, g), a)
			if err != nil {
				return false
			}
			want = new(big.Int).Mul(ef, eg)
			want.Mod(want, mod)
			return prod.Cmp(want) == 0
		}, quickCfg(6))
		if err != nil {
			t.Errorf("%s at %d: %v", c.r.Name(), c.point, err)
		}
	}
}

// TestRootDetectionProperty: (x - t) divides f ⟺ Eval(f, t) == 0 for
// products of linear factors — the zero-test soundness behind §4.3.
func TestRootDetectionProperty(t *testing.T) {
	fp := MustFp(101)
	err := quick.Check(func(roots []uint8, probe uint8) bool {
		if len(roots) == 0 || len(roots) > 8 {
			return true
		}
		f := fp.One()
		contains := false
		p := int64(probe%99) + 1 // [1, 99]
		for _, rt := range roots {
			v := int64(rt%99) + 1
			if v == p {
				contains = true
			}
			f = fp.Mul(f, fp.Linear(big.NewInt(v)))
		}
		val, err := fp.Eval(f, big.NewInt(p))
		if err != nil {
			return false
		}
		return (val.Sign() == 0) == contains
	}, &quick.Config{MaxCount: 400})
	if err != nil {
		t.Fatal(err)
	}
}

// TestZRingRootDetectionProperty: same soundness in the Z ring, including
// the possibility of FALSE positives mod r(a) (the sum can vanish mod r(a)
// without (x-a) dividing f) — verify no false NEGATIVES ever occur.
func TestZRingRootDetectionProperty(t *testing.T) {
	z := MustIntQuotient(1, 0, 1)
	err := quick.Check(func(roots []uint8, probe uint8) bool {
		if len(roots) == 0 || len(roots) > 6 {
			return true
		}
		f := z.One()
		contains := false
		p := int64(probe%20) + 2 // r(a) > 1 needs |a| >= 2 ... a>=2 gives r(a)>=5
		for _, rt := range roots {
			v := int64(rt%20) + 2
			if v == p {
				contains = true
			}
			f = z.Mul(f, z.Linear(big.NewInt(v)))
		}
		val, err := z.Eval(f, big.NewInt(p))
		if err != nil {
			return false
		}
		if contains && val.Sign() != 0 {
			return false // false negative: never allowed
		}
		return true
	}, &quick.Config{MaxCount: 400})
	if err != nil {
		t.Fatal(err)
	}
}
