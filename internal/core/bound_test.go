package core_test

import (
	"math"
	"math/big"
	"runtime"
	"strings"
	"testing"

	"sssearch/internal/core"
	"sssearch/internal/drbg"
	"sssearch/internal/mapping"
	"sssearch/internal/ring"
	"sssearch/internal/xpath"
)

// countLiar answers every evaluation with zero values and the child count
// counts gives the key, 0 for a key it does not name: a server that lies
// about the shape of the tree.
type countLiar struct {
	core.ServerAPI
	counts map[string]int
}

func (c *countLiar) EvalNodes(keys []drbg.NodeKey, points []*big.Int) ([]core.NodeEval, error) {
	out := make([]core.NodeEval, len(keys))
	for i, k := range keys {
		out[i] = core.NodeEval{Key: k, Words: make([]uint64, len(points)), NumChildren: c.counts[k.String()]}
	}
	return out, nil
}

// TestChildCountBoundRefusesBeforeAllocating: a child count that would take
// the query's node table or key arena past math.MaxInt32 entries is refused
// as a lie, naming the node, before the children are created — a table of
// 2³¹ entries would be gigabytes. The second case is a count that fits on
// its own but not beside the keys already promised: /1's children would
// take 2·1073741823 = 2³¹−2 arena words, after the root's three.
func TestChildCountBoundRefusesBeforeAllocating(t *testing.T) {
	r := ring.MustFp(257)
	m, err := mapping.New(r.MaxTag(), []byte("bound"))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AssignAll([]string{"a"}); err != nil {
		t.Fatal(err)
	}
	fitsAlone := (math.MaxInt32 - 1) / 2
	for _, c := range []struct {
		name   string
		counts map[string]int
		node   string
	}{
		{"root claims 2^31", map[string]int{"/": 1 << 31}, "/ 2147483648 children"},
		{"together with the table", map[string]int{"/": 3, "/1": fitsAlone}, "/1 1073741823 children"},
	} {
		eng := core.NewEngine(r, testSeed(9), m, &countLiar{counts: c.counts}, nil)
		q := xpath.MustParse("//*")
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		_, err := eng.Query(q, core.Opts{})
		runtime.ReadMemStats(&ms)
		spent := ms.TotalAlloc - before
		if err == nil || !strings.Contains(err.Error(), c.node) {
			t.Fatalf("%s: error %v, want one naming %q", c.name, err, c.node)
		}
		if spent > 64<<10 {
			t.Fatalf("%s: refused after allocating %d bytes", c.name, spent)
		}
		t.Logf("%s: %v, after allocating %d bytes", c.name, err, spent)
	}
}
