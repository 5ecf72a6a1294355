package sssearch

import (
	"fmt"
	"sync"
	"testing"
)

// sessionsDoc is large enough that a //client search walks a few waves.
const sessionsDoc = `<customers>` +
	`<client><name/><order><item/><item/></order></client>` +
	`<client><name/><order><item/></order></client>` +
	`<client><name/></client>` +
	`</customers>`

// TestConcurrentSessionsOfOneKey: 16 overlapping sessions of one ClientKey
// return byte-identical results to a lone session's, each deriving its
// point keys on first use under concurrency, and none tallies client cache
// work: on RingFp a summand is one block cipher call, and there is no
// cache.
func TestConcurrentSessionsOfOneKey(t *testing.T) {
	doc, err := ParseXML(sessionsDoc)
	if err != nil {
		t.Fatal(err)
	}
	bundle, err := Outsource(doc, Config{Kind: RingFp, P: 257})
	if err != nil {
		t.Fatal(err)
	}
	refSess, err := bundle.Key.ConnectLocal(bundle.Server)
	if err != nil {
		t.Fatal(err)
	}
	defer refSess.Close()
	exprs := []string{"//client", "//name", "//order/item", "//client/order"}
	want := map[string]string{}
	for _, e := range exprs {
		res, err := refSess.Search(e)
		if err != nil {
			t.Fatal(err)
		}
		want[e] = fmt.Sprint(res.Paths(doc))
	}

	const sessions = 16
	sess := make([]*Session, sessions)
	for i := range sess {
		if sess[i], err = bundle.Key.ConnectLocal(bundle.Server); err != nil {
			t.Fatal(err)
		}
		defer sess[i].Close()
	}
	var wg sync.WaitGroup
	for i := range sess {
		wg.Add(1)
		go func(s *Session) {
			defer wg.Done()
			for _, e := range exprs {
				res, err := s.Search(e)
				if err != nil {
					t.Errorf("%s: %v", e, err)
					return
				}
				if got := fmt.Sprint(res.Paths(doc)); got != want[e] {
					t.Errorf("%s: session got %s, want %s", e, got, want[e])
					return
				}
			}
		}(sess[i])
	}
	wg.Wait()
	for _, s := range append(sess, refSess) {
		if c := s.Counters(); c.PadCacheHits+c.PadCacheMiss+c.SharedPadHits+c.SharedPadMiss+c.SharedPadSingleflight+c.ShareEvalHits+c.ShareEvalMiss != 0 {
			t.Fatalf("a session tallied client cache work: %+v", c)
		}
	}
}
