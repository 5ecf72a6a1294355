package sssearch

import (
	"net"
	"path/filepath"
	"testing"

	"sssearch/internal/sharing"
)

const paperDoc = `<customers><client><name/></client><client><name/></client></customers>`

func TestQuickstartFlow(t *testing.T) {
	doc, err := ParseXML(paperDoc)
	if err != nil {
		t.Fatal(err)
	}
	bundle, err := Outsource(doc, Config{})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := bundle.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	res, err := sess.Search("//client")
	if err != nil {
		t.Fatal(err)
	}
	paths := res.Paths(doc)
	if len(paths) != 2 || paths[0] != "/customers/client" {
		t.Fatalf("paths = %v", paths)
	}
	// Plaintext oracle agrees.
	want, err := EvaluatePlaintext(doc, "//client")
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(paths) {
		t.Fatalf("oracle disagreement: %v vs %v", want, paths)
	}
	if FormatStats(res.Stats) == "" {
		t.Error("empty stats")
	}
}

func TestOutsourceFpRing(t *testing.T) {
	doc, _ := ParseXML(paperDoc)
	bundle, err := Outsource(doc, Config{Kind: RingFp, P: 101})
	if err != nil {
		t.Fatal(err)
	}
	if bundle.Server.RingName() != "F_101[x]/(x^100-1)" {
		t.Errorf("ring = %s", bundle.Server.RingName())
	}
	sess, _ := bundle.Connect()
	defer sess.Close()
	res, err := sess.Search("//name", WithVerify(VerifyFull))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 2 {
		t.Fatalf("matches = %v", res.Matches)
	}
}

func TestOutsourceValidation(t *testing.T) {
	if _, err := Outsource(nil, Config{}); err == nil {
		t.Error("nil doc accepted")
	}
	doc, _ := ParseXML(paperDoc)
	if _, err := Outsource(doc, Config{Kind: RingFp, P: 10}); err == nil {
		t.Error("composite p accepted")
	}
	if _, err := Outsource(doc, Config{Kind: RingZ, R: []int64{-1, 0, 1}}); err == nil {
		t.Error("reducible modulus accepted")
	}
	if _, err := Outsource(doc, Config{Kind: RingKind(99)}); err == nil {
		t.Error("bad ring kind accepted")
	}
}

// TestOutsourceDepthBound: Outsource refuses a document deeper than
// sharing.MaxDepth — the depth every loader accepts — and a document of
// exactly that depth outsources, saves, loads back and answers.
func TestOutsourceDepthBound(t *testing.T) {
	chain := func(depth int) *Document {
		root, err := ParseXML("<a/>")
		if err != nil {
			t.Fatal(err)
		}
		for cur, i := root, 1; i < depth; i++ {
			cur = cur.AddChild("a")
		}
		return root
	}
	if _, err := Outsource(chain(sharing.MaxDepth+1), Config{Kind: RingFp, P: 5}); err == nil {
		t.Fatal("a document deeper than sharing.MaxDepth was outsourced")
	}
	bundle, err := Outsource(chain(sharing.MaxDepth), Config{Kind: RingFp, P: 5})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "deep.sss")
	if err := bundle.Server.Save(path); err != nil {
		t.Fatal(err)
	}
	srv, err := LoadServerStore(path)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := bundle.Key.ConnectLocal(srv)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	res, err := sess.Search("/a")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 1 || srv.NodeCount() != sharing.MaxDepth {
		t.Fatalf("/a over a chain of %d: %v", srv.NodeCount(), res.Matches)
	}
}

func TestSearchMissAndInvalid(t *testing.T) {
	doc, _ := ParseXML(paperDoc)
	bundle, _ := Outsource(doc, Config{})
	sess, _ := bundle.Connect()
	defer sess.Close()
	res, err := sess.Search("//nosuchtag")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 0 {
		t.Error("phantom matches")
	}
	if _, err := sess.Search("not-an-xpath"); err == nil {
		t.Error("bad xpath accepted")
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	doc, _ := ParseXML(paperDoc)
	bundle, err := Outsource(doc, Config{})
	if err != nil {
		t.Fatal(err)
	}
	srvPath := filepath.Join(dir, "server.sss")
	keyPath := filepath.Join(dir, "client.key")
	if err := bundle.Server.Save(srvPath); err != nil {
		t.Fatal(err)
	}
	if err := bundle.Key.Save(keyPath); err != nil {
		t.Fatal(err)
	}
	srv, err := LoadServerStore(srvPath)
	if err != nil {
		t.Fatal(err)
	}
	key, err := LoadClientKey(keyPath)
	if err != nil {
		t.Fatal(err)
	}
	if srv.NodeCount() != 5 || srv.ByteSize() == 0 {
		t.Error("server store shape lost")
	}
	sess, err := key.ConnectLocal(srv)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	res, err := sess.Search("//client")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 2 {
		t.Fatalf("matches after reload = %v", res.Matches)
	}
}

func TestTCPSession(t *testing.T) {
	doc, _ := ParseXML(paperDoc)
	bundle, err := Outsource(doc, Config{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	daemon, err := bundle.Server.ServeTCP(l)
	if err != nil {
		t.Fatal(err)
	}
	defer daemon.Close()
	sess, err := bundle.Key.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	res, err := sess.Search("/customers/client/name")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 2 {
		t.Fatalf("matches = %v", res.Matches)
	}
	if sess.Counters().BytesSent == 0 {
		t.Error("wire bytes not counted")
	}
}

func TestDeterministicSeedReuse(t *testing.T) {
	doc, _ := ParseXML(paperDoc)
	var seed [32]byte
	for i := range seed {
		seed[i] = 0x5A
	}
	b1, err := Outsource(doc, Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	b2, err := Outsource(doc, Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if b1.Server.ByteSize() != b2.Server.ByteSize() {
		t.Error("same seed produced different stores")
	}
	if b1.Key.Seed() != seed {
		t.Error("seed not preserved")
	}
}
