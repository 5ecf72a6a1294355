package mapping

import (
	"fmt"
	"math/big"
	"testing"
)

func bi(v int64) *big.Int { return big.NewInt(v) }

func TestAssignDeterministicAndInjective(t *testing.T) {
	m, err := New(bi(1000), []byte("secret"))
	if err != nil {
		t.Fatal(err)
	}
	tags := []string{"customers", "client", "name", "order", "item"}
	vals := map[string]*big.Int{}
	for _, tag := range tags {
		v, err := m.Assign(tag)
		if err != nil {
			t.Fatal(err)
		}
		if v.Sign() < 1 || v.Cmp(bi(1000)) > 0 {
			t.Fatalf("value %v out of domain", v)
		}
		vals[tag] = v
	}
	// Idempotent.
	for _, tag := range tags {
		v, err := m.Assign(tag)
		if err != nil {
			t.Fatal(err)
		}
		if v.Cmp(vals[tag]) != 0 {
			t.Errorf("re-Assign(%q) changed value", tag)
		}
	}
	// Injective.
	seen := map[string]bool{}
	for tag, v := range vals {
		if seen[v.String()] {
			t.Errorf("collision at %q", tag)
		}
		seen[v.String()] = true
	}
	// Deterministic across instances with the same secret.
	m2, _ := New(bi(1000), []byte("secret"))
	for _, tag := range tags {
		v, err := m2.Assign(tag)
		if err != nil {
			t.Fatal(err)
		}
		if v.Cmp(vals[tag]) != 0 {
			t.Errorf("different instance disagreed on %q", tag)
		}
	}
	// Different secret ⇒ (almost surely) different assignment.
	m3, _ := New(bi(1_000_000_000), []byte("other"))
	diff := false
	for _, tag := range tags {
		v, _ := m3.Assign(tag)
		if v.Cmp(vals[tag]) != 0 {
			diff = true
		}
	}
	if !diff {
		t.Error("different secrets produced identical mapping")
	}
}

func TestInvertibility(t *testing.T) {
	m, _ := New(bi(100), []byte("k"))
	v, _ := m.Assign("client")
	tag, ok := m.Tag(v)
	if !ok || tag != "client" {
		t.Errorf("Tag(%v) = %q, %v", v, tag, ok)
	}
	if _, ok := m.Tag(bi(0)); ok {
		t.Error("phantom inverse")
	}
	if _, ok := m.Value("nope"); ok {
		t.Error("phantom value")
	}
}

func TestCollisionHandlingSmallDomain(t *testing.T) {
	// Domain of size 3: three tags must all fit, the fourth must fail.
	m, _ := New(bi(3), []byte("x"))
	for i := 0; i < 3; i++ {
		if _, err := m.Assign(fmt.Sprintf("tag%d", i)); err != nil {
			t.Fatalf("tag%d: %v", i, err)
		}
	}
	if m.Len() != 3 {
		t.Fatalf("Len = %d", m.Len())
	}
	if _, err := m.Assign("overflow"); err == nil {
		t.Error("domain exhaustion not detected")
	}
	// All three values distinct and in [1,3].
	seen := map[int64]bool{}
	for _, tag := range m.Tags() {
		v, _ := m.Value(tag)
		if v.Int64() < 1 || v.Int64() > 3 || seen[v.Int64()] {
			t.Fatalf("bad value %v", v)
		}
		seen[v.Int64()] = true
	}
}

func TestSetExplicitPaperMapping(t *testing.T) {
	// The paper's figure 1(b): customers→3, client→2, name→4 with p=5
	// (domain [1, 3]... note 4 > p-2 for p=5 is only valid in the Z ring,
	// so use a domain that fits: [1, 100]).
	m, _ := New(bi(100), []byte("paper"))
	if err := m.SetExplicit("customers", bi(3)); err != nil {
		t.Fatal(err)
	}
	if err := m.SetExplicit("client", bi(2)); err != nil {
		t.Fatal(err)
	}
	if err := m.SetExplicit("name", bi(4)); err != nil {
		t.Fatal(err)
	}
	// Idempotent same-value pin.
	if err := m.SetExplicit("client", bi(2)); err != nil {
		t.Error(err)
	}
	// Conflicts rejected.
	if err := m.SetExplicit("client", bi(9)); err == nil {
		t.Error("re-pin with new value accepted")
	}
	if err := m.SetExplicit("other", bi(2)); err == nil {
		t.Error("value collision accepted")
	}
	if err := m.SetExplicit("bad", bi(0)); err == nil {
		t.Error("out-of-domain value accepted")
	}
	if err := m.SetExplicit("bad", bi(101)); err == nil {
		t.Error("out-of-domain value accepted")
	}
	if err := m.SetExplicit("", bi(5)); err == nil {
		t.Error("empty tag accepted")
	}
	v, _ := m.Value("customers")
	if v.Int64() != 3 {
		t.Error("explicit value lost")
	}
}

func TestAssignAvoidsExplicitValues(t *testing.T) {
	m, _ := New(bi(4), []byte("k"))
	for i := int64(1); i <= 3; i++ {
		if err := m.SetExplicit(fmt.Sprintf("pin%d", i), bi(i)); err != nil {
			t.Fatal(err)
		}
	}
	v, err := m.Assign("fresh")
	if err != nil {
		t.Fatal(err)
	}
	if v.Int64() != 4 {
		t.Errorf("Assign picked %v, only 4 was free", v)
	}
}

func TestNilMaxTagUsesDefault(t *testing.T) {
	m, err := New(nil, []byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	if m.MaxTag().Cmp(DefaultUnboundedMax) != 0 {
		t.Error("default bound not applied")
	}
	if _, err := New(bi(0), nil); err == nil {
		t.Error("empty domain accepted")
	}
}

func TestAssignAllAndTags(t *testing.T) {
	m, _ := New(bi(1000), []byte("k"))
	if err := m.AssignAll([]string{"b", "a", "c", "a"}); err != nil {
		t.Fatal(err)
	}
	tags := m.Tags()
	if len(tags) != 3 || tags[0] != "a" || tags[1] != "b" || tags[2] != "c" {
		t.Errorf("Tags = %v", tags)
	}
	if _, err := m.Assign(""); err == nil {
		t.Error("empty tag accepted")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	m, _ := New(bi(5000), []byte("secret"))
	m.AssignAll([]string{"x", "y", "z", "деревня", "tag-with-dash"})
	data, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var m2 Map
	if err := m2.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if m2.Len() != m.Len() || m2.MaxTag().Cmp(m.MaxTag()) != 0 {
		t.Fatal("shape lost")
	}
	for _, tag := range m.Tags() {
		v1, _ := m.Value(tag)
		v2, ok := m2.Value(tag)
		if !ok || v1.Cmp(v2) != 0 {
			t.Errorf("tag %q lost: %v vs %v", tag, v1, v2)
		}
		back, ok := m2.Tag(v2)
		if !ok || back != tag {
			t.Errorf("inverse lost for %q", tag)
		}
	}
	// Deterministic serialization.
	data2, _ := m.MarshalBinary()
	if string(data) != string(data2) {
		t.Error("marshal not deterministic")
	}
}

func TestRestoreWithSecretExtends(t *testing.T) {
	m, _ := New(bi(10000), []byte("s"))
	m.AssignAll([]string{"a", "b"})
	data, _ := m.MarshalBinary()
	m2, err := RestoreWithSecret(data, []byte("s"))
	if err != nil {
		t.Fatal(err)
	}
	// New assignments on the restored map agree with the original instance.
	vNew2, err := m2.Assign("c")
	if err != nil {
		t.Fatal(err)
	}
	vNew1, _ := m.Assign("c")
	if vNew1.Cmp(vNew2) != 0 {
		t.Error("restored map diverged on new tag")
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	bad := [][]byte{
		nil,
		{0xff},
		{0x01, 0x05, 0x01},       // truncated
		{0x01, 0x00, 0x01, 0x01}, // maxTag = 0
	}
	for i, b := range bad {
		var m Map
		if err := m.UnmarshalBinary(b); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	// Trailing bytes.
	m, _ := New(bi(10), []byte("k"))
	data, _ := m.MarshalBinary()
	var m2 Map
	if err := m2.UnmarshalBinary(append(data, 0x00)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func BenchmarkAssign(b *testing.B) {
	m, _ := New(bi(1_000_000), []byte("bench"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Assign(fmt.Sprintf("tag%d", i)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFreeValue: the free value is in the domain, unassigned, a function of
// the key and the assignments alone (the same on a restored map, another
// under another key), the last value standing in a nearly full domain, and
// absent from a full one.
func TestFreeValue(t *testing.T) {
	m, _ := New(bi(255), []byte("secret"))
	tags := []string{"site", "regions", "item", "name", "person"}
	if err := m.AssignAll(tags); err != nil {
		t.Fatal(err)
	}
	free, ok := m.FreeValue()
	if !ok || free.Sign() < 1 || free.Cmp(bi(255)) > 0 {
		t.Fatalf("free value %v, %v outside [1, 255]", free, ok)
	}
	if tag, used := m.Tag(free); used {
		t.Fatalf("free value %s is tag %q's", free, tag)
	}
	if again, _ := m.FreeValue(); again.Cmp(free) != 0 {
		t.Fatalf("second draw %s, first %s", again, free)
	}
	data, _ := m.MarshalBinary()
	restored, err := RestoreWithSecret(data, []byte("secret"))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := restored.FreeValue(); got.Cmp(free) != 0 {
		t.Fatalf("restored map drew %s, the original %s", got, free)
	}
	// Another key draws elsewhere (in a domain wide enough that agreeing
	// would be a 1-in-2^31 accident).
	wide, _ := New(nil, []byte("secret"))
	other, _ := New(nil, []byte("other"))
	a, _ := wide.FreeValue()
	b, _ := other.FreeValue()
	if a.Cmp(b) == 0 {
		t.Fatalf("two keys drew the same free value %s", a)
	}

	// Nine of F_11's nine values taken: none free. Eight: the ninth.
	full, _ := New(bi(9), []byte("k"))
	for i := 0; i < 8; i++ {
		if _, err := full.Assign(fmt.Sprintf("t%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	last, ok := full.FreeValue()
	if !ok {
		t.Fatal("eight of nine values assigned: no free value")
	}
	if _, used := full.Tag(last); used {
		t.Fatalf("free value %s is assigned", last)
	}
	// The ninth tag takes the one value left, and none is free.
	v, err := full.Assign("t8")
	if err != nil {
		t.Fatal(err)
	}
	if v.Cmp(last) != 0 {
		t.Fatalf("the ninth tag got %s, the one free value was %s", v, last)
	}
	if got, ok := full.FreeValue(); ok {
		t.Fatalf("full domain has free value %s", got)
	}
}
