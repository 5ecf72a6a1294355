// The query engine recycles its node table and wave scratch from one query
// to the next. These tests hold it to what must not be recycled: nothing a
// result holds changes under later queries, and queries sharing one
// session's engine never share its tables.
package sssearch

import (
	"fmt"
	"sync"
	"testing"
)

// TestRecycledTablesNeverLeakIntoAResult: the keys of one query's result
// keep their values while later queries of other shapes and point counts
// run on the same session, reusing the tables the first one handed back.
func TestRecycledTablesNeverLeakIntoAResult(t *testing.T) {
	doc := nestedDoc(t, 40)
	bundle, err := Outsource(doc, Config{Kind: RingFp, P: 257})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := bundle.Key.ConnectLocal(bundle.Server)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	a, err := sess.Search("//a", WithVerify(VerifyNone))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Matches) == 0 || len(a.Unresolved) == 0 {
		t.Fatalf("//a: %d matches and %d unresolved, want both", len(a.Matches), len(a.Unresolved))
	}
	matches, unresolved := deepCopyKeys(a.Matches), deepCopyKeys(a.Unresolved)
	for _, q := range []string{"/r/a/b/a", "//*", "//b/a/c", "//b//a"} {
		if _, err := sess.Search(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	if fmt.Sprint(a.Matches) != fmt.Sprint(matches) || fmt.Sprint(a.Unresolved) != fmt.Sprint(unresolved) {
		t.Fatalf("later queries rewrote a result: matches %v, were %v; unresolved %v, were %v",
			a.Matches, matches, a.Unresolved, unresolved)
	}
}

func deepCopyKeys(keys []NodeKey) []NodeKey {
	out := make([]NodeKey, len(keys))
	for i, k := range keys {
		out[i] = append(NodeKey(nil), k...)
	}
	return out
}

// TestConcurrentQueriesOfOneSession: eight goroutines querying through one
// session — one engine, one spare set of tables — return byte-identical
// answers to the same queries run one at a time.
func TestConcurrentQueriesOfOneSession(t *testing.T) {
	doc := nestedDoc(t, 40)
	bundle, err := Outsource(doc, Config{Kind: RingFp, P: 257})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := bundle.Key.ConnectLocal(bundle.Server)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	exprs := []string{"//a", "//b/a", "/r/a/a/c", "//*", "//b//a", "//a/b"}
	want := map[string]string{}
	for _, e := range exprs {
		res, err := sess.Search(e)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Matches) == 0 {
			t.Fatalf("%s matches nothing", e)
		}
		want[e] = fmt.Sprint(res.Paths(doc))
	}
	const goroutines, rounds = 8, 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds*len(exprs); i++ {
				e := exprs[(g+i)%len(exprs)]
				res, err := sess.Search(e)
				if err != nil {
					t.Errorf("%s: %v", e, err)
					return
				}
				if got := fmt.Sprint(res.Paths(doc)); got != want[e] {
					t.Errorf("%s: got %s, want %s", e, got, want[e])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
