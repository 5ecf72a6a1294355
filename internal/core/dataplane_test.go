package core_test

import (
	"errors"
	"fmt"
	"math/big"
	"strings"
	"testing"

	"sssearch/internal/core"
	"sssearch/internal/drbg"
	"sssearch/internal/polyenc"
	"sssearch/internal/ring"
	"sssearch/internal/server"
)

// TestForgedValueFormsReduceAtTheSeam: a value off the wire is whatever the
// server wrote — a word at or above p, a negative integer, an integer wider
// than a word — and the word engine does with it what the big.Int engine
// (SetFast(false): add, then Mod) does. A forgery that keeps the residue is
// an honest answer in disguise and changes nothing; one that moves it is
// caught where a plain +1 is caught (TestWaveNamesTheTamperedCandidate), by
// the same error, naming the same candidate. The forger leaves the query
// point alone, so the scan stays honest and the resolve wave meets the lie.
func TestForgedValueFormsReduceAtTheSeam(t *testing.T) {
	doc := chainDoc(t, 12)
	target := make(drbg.NodeKey, 7)
	parent := drbg.NodeKey(make([]uint32, 6))
	p := big.NewInt(101)
	forms := []struct {
		name  string
		delta *big.Int // a multiple of p: the residue stays
	}{
		{"wordAtOrAboveP", new(big.Int).Mul(p, big.NewInt(3))},
		{"topOfTheWord", new(big.Int).Mul(p, new(big.Int).SetUint64(^uint64(0)/101-1))},
		{"negative", new(big.Int).Mul(p, big.NewInt(-5))},
		{"widerThanAWord", new(big.Int).Mul(p, new(big.Int).Lsh(big.NewInt(1), 70))},
	}
	type outcome struct {
		matches, err string
		forged       int64
	}
	run := func(fast bool, level core.VerifyLevel, delta *big.Int) outcome {
		r := ring.MustFp(101)
		r.SetFast(fast)
		st := newWaveStack(t, r, doc, []string{"a", "b"}, 90)
		query, _ := st.m.Value("a")
		tam := &server.Tamperer{Inner: st.srv, CorruptValueAt: target, ValueDelta: func(pt *big.Int) *big.Int {
			if pt.Cmp(query) == 0 {
				return nil
			}
			return delta
		}}
		res, err := st.engine(tam, 0).Lookup("a", core.Opts{Verify: level})
		out := outcome{forged: tam.ValueTampered.Load()}
		if err != nil {
			if !errors.Is(err, polyenc.ErrInconsistent) {
				t.Fatalf("fast=%v delta %s: %v, want ErrInconsistent", fast, delta, err)
			}
			out.err = err.Error()
			return out
		}
		out.matches = keyStrings(res.Matches)
		return out
	}
	honest := run(true, core.VerifyResolve, nil)
	if honest.err != "" || honest.forged != 0 {
		t.Fatalf("the honest run: %+v", honest)
	}
	for _, f := range forms {
		for _, moved := range []bool{false, true} {
			delta := f.delta
			if moved {
				delta = new(big.Int).Add(delta, big.NewInt(1))
			}
			name := fmt.Sprintf("%s moved=%v", f.name, moved)
			words, reference := run(true, core.VerifyResolve, delta), run(false, core.VerifyResolve, delta)
			if words != reference {
				t.Fatalf("%s: the word engine ended in %+v, the big.Int engine in %+v", name, words, reference)
			}
			if words.forged != 1 {
				t.Fatalf("%s: %d answers forged, want the target's in the resolve wave", name, words.forged)
			}
			switch {
			case !moved && words != (outcome{matches: honest.matches, forged: 1}):
				t.Fatalf("%s: a forgery that keeps the residue ended in %+v, the honest run in %+v", name, words, honest)
			case moved && !strings.Contains(words.err, "resolving "+parent.String()+":"):
				t.Fatalf("%s: outcome %+v does not name the first failing candidate %s", name, words, parent)
			}
		}
	}
}
