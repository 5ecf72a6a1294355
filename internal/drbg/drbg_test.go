package drbg

import (
	"bytes"
	"testing"
)

func testSeed(b byte) Seed {
	var s Seed
	for i := range s {
		s[i] = b
	}
	return s
}

// stream is the root stream of a one-label deriver: the shortest way to a
// Stream for tests that are about the bytes, not the path.
func stream(seed byte, label string) *Stream {
	return NewDeriver(testSeed(seed), label).ForNode(nil)
}

func TestDeterminism(t *testing.T) {
	g1 := stream(7, "ctx")
	g2 := stream(7, "ctx")
	a := make([]byte, 1000)
	b := make([]byte, 1000)
	if _, err := g1.Read(a); err != nil {
		t.Fatal(err)
	}
	if _, err := g2.Read(b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("identical seeds produced different streams")
	}
}

func TestSeedSeparation(t *testing.T) {
	a := make([]byte, 64)
	b := make([]byte, 64)
	stream(1, "").Read(a)
	stream(2, "").Read(b)
	if bytes.Equal(a, b) {
		t.Fatal("different seeds produced identical streams")
	}
	stream(1, "x").Read(b)
	if bytes.Equal(a, b) {
		t.Fatal("different labels produced identical streams")
	}
}

// TestReadSplitInvariance: the stream is a keystream, so what a consumer
// draws does not depend on how it chunks its reads — the property that lets
// the bulk sampler and the per-coefficient reference sampler regenerate the
// same pad. Reads that split AES blocks, span many and are empty included.
func TestReadSplitInvariance(t *testing.T) {
	sizes := []int{1, 31, 512, 0, 5}
	total := 0
	for _, n := range sizes {
		total += n
	}
	one := make([]byte, total)
	stream(3, "split").Read(one)

	g := stream(3, "split")
	var parts []byte
	for _, n := range sizes {
		buf := bytes.Repeat([]byte{0xa5}, n) // Read must overwrite, not mix in
		if got, err := g.Read(buf); got != n || err != nil {
			t.Fatalf("Read(%d) = %d, %v", n, got, err)
		}
		parts = append(parts, buf...)
	}
	if !bytes.Equal(one, parts) {
		t.Fatal("reads of 1+31+512+0+5 bytes differ from one read of 549")
	}
}

func TestStreamLooksBalanced(t *testing.T) {
	g := stream(9, "")
	buf := make([]byte, 1<<16)
	g.Read(buf)
	ones := 0
	for _, b := range buf {
		for i := 0; i < 8; i++ {
			if b&(1<<i) != 0 {
				ones++
			}
		}
	}
	total := len(buf) * 8
	ratio := float64(ones) / float64(total)
	if ratio < 0.49 || ratio > 0.51 {
		t.Errorf("bit ratio %f far from 0.5", ratio)
	}
}

func TestSeedRoundTrip(t *testing.T) {
	s, err := NewSeed()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := SeedFromString(s.String())
	if err != nil {
		t.Fatal(err)
	}
	if s != s2 {
		t.Fatal("seed hex round trip failed")
	}
	if _, err := SeedFromBytes([]byte{1, 2}); err == nil {
		t.Error("short seed accepted")
	}
	if _, err := SeedFromString("zz"); err == nil {
		t.Error("bad hex accepted")
	}
}

func TestDeriverNodeIndependence(t *testing.T) {
	d := NewDeriver(testSeed(5), "test/v1")
	root := NodeKey{}
	k1 := root.Child(0)
	k2 := root.Child(1)
	k11 := k1.Child(0)

	read := func(k NodeKey) []byte {
		buf := make([]byte, 48)
		d.ForNode(k).Read(buf)
		return buf
	}
	a, b, c, r := read(k1), read(k2), read(k11), read(root)
	if bytes.Equal(a, b) || bytes.Equal(a, c) || bytes.Equal(a, r) || bytes.Equal(b, c) {
		t.Fatal("node streams not independent")
	}
	// Regeneration: same path, same stream — the seed-only client property.
	if !bytes.Equal(a, read(k1)) {
		t.Fatal("node stream not reproducible")
	}
	// Different label ⇒ different stream.
	d2 := NewDeriver(testSeed(5), "test/v2")
	buf := make([]byte, 48)
	d2.ForNode(k1).Read(buf)
	if bytes.Equal(a, buf) {
		t.Fatal("label not separating domains")
	}
}

func TestNodeKeyEncodingUnambiguous(t *testing.T) {
	// Paths [1,2] and [12] must not collide, nor [0] and [] with any prefix
	// tricks.
	d := NewDeriver(testSeed(6), "amb")
	pairs := [][2]NodeKey{
		{NodeKey{1, 2}, NodeKey{12}},
		{NodeKey{}, NodeKey{0}},
		{NodeKey{0, 0}, NodeKey{0}},
		{NodeKey{256}, NodeKey{1, 128}},
	}
	for _, p := range pairs {
		a := make([]byte, 32)
		b := make([]byte, 32)
		d.ForNode(p[0]).Read(a)
		d.ForNode(p[1]).Read(b)
		if bytes.Equal(a, b) {
			t.Errorf("paths %v and %v collide", p[0], p[1])
		}
	}
}

func TestNodeKeyChildDoesNotAlias(t *testing.T) {
	k := NodeKey{1}
	c1 := k.Child(2)
	c2 := k.Child(3)
	if c1[1] != 2 || c2[1] != 3 || len(k) != 1 {
		t.Fatal("Child aliases parent storage")
	}
}

func TestNodeKeyString(t *testing.T) {
	if (NodeKey{}).String() != "/" {
		t.Errorf("root = %q", (NodeKey{}).String())
	}
	if (NodeKey{0, 2, 1}).String() != "/0/2/1" {
		t.Errorf("key = %q", NodeKey{0, 2, 1}.String())
	}
}

func BenchmarkRead512(b *testing.B) {
	g := stream(1, "bench")
	buf := make([]byte, 512)
	b.SetBytes(512)
	for i := 0; i < b.N; i++ {
		g.Read(buf)
	}
}

func BenchmarkForNodeDepth10(b *testing.B) {
	d := NewDeriver(testSeed(1), "bench")
	k := NodeKey{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	buf := make([]byte, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.ForNode(k).Read(buf)
	}
}
