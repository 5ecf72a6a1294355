// Package paperdata holds the paper's worked example — the figure 1
// document, the figure 1(b) mapping, and the exact polynomial and
// evaluation values of figures 2–6 — as golden fixtures shared by tests
// and the figure-reproduction harness.
//
// Every value below appears verbatim in the paper and was re-derived
// independently while writing this package.
package paperdata

import (
	"math/big"

	"sssearch/internal/mapping"
	"sssearch/internal/poly"
	"sssearch/internal/ring"
	"sssearch/internal/xmltree"
)

// DocumentXML is the figure 1(a) example: a customers list with two
// clients, each carrying a name.
const DocumentXML = `<customers><client><name/></client><client><name/></client></customers>`

// Document parses the figure 1(a) example tree.
func Document() *xmltree.Node {
	n, err := xmltree.ParseString(DocumentXML)
	if err != nil {
		panic("paperdata: " + err.Error())
	}
	return n
}

// TagValues is the figure 1(b) mapping: customers→3, client→2, name→4.
var TagValues = map[string]int64{
	"customers": 3,
	"client":    2,
	"name":      4,
}

// Mapping builds a mapping.Map pinned to figure 1(b). maxTag bounds the
// domain (pass nil for the Z-ring default).
func Mapping(maxTag *big.Int) *mapping.Map {
	m, err := mapping.New(maxTag, []byte("paperdata"))
	if err != nil {
		panic("paperdata: " + err.Error())
	}
	for tag, v := range TagValues {
		if err := m.SetExplicit(tag, big.NewInt(v)); err != nil {
			panic("paperdata: " + err.Error())
		}
	}
	return m
}

// FpRing returns F_5[x]/(x^4−1), the ring of figures 2(a), 3 and 5.
// NOTE: with p=5 the usable tag domain is [1, 3], yet figure 1(b) maps
// name→4 = p−1 — the paper's own example violates its Lemma 3 precondition!
// The example still works because no query ever evaluates at x=4 and the
// two name leaves never multiply into a x−(p−1) zero-divisor pair that
// cancels, but package mapping correctly refuses to assign 4 with p=5.
// The fixtures therefore pin values explicitly (see MappingFp).
func FpRing() *ring.FpCyclotomic {
	return ring.MustFp(5)
}

// MappingFp is the figure 1(b) mapping with the F_5 domain ceiling lifted
// to 4 so the paper's exact values can be reproduced (see FpRing note).
func MappingFp() *mapping.Map {
	return Mapping(big.NewInt(4))
}

// ZRing returns Z[x]/(x^2+1), the ring of figures 2(b), 4 and 6.
func ZRing() *ring.IntQuotient {
	return ring.MustIntQuotient(1, 0, 1)
}

// NodeOrder lists the five node paths in the order the figures enumerate
// them: first client's name, first client, second client's name, second
// client, root.
var NodeOrder = []string{"/0/0", "/0", "/1/0", "/1", "/"}

// NodeTags maps node path → tag name.
var NodeTags = map[string]string{
	"/":    "customers",
	"/0":   "client",
	"/0/0": "name",
	"/1":   "client",
	"/1/0": "name",
}

// Fig2a is the reduced tree of figure 2(a) in F_5[x]/(x^4−1), by node path.
var Fig2a = map[string]poly.Poly{
	"/":    poly.FromInt64(3, 3, 3, 3), // 3x^3+3x^2+3x+3
	"/0":   poly.FromInt64(3, 4, 1),    // x^2+4x+3
	"/0/0": poly.FromInt64(1, 1),       // x+1
	"/1":   poly.FromInt64(3, 4, 1),
	"/1/0": poly.FromInt64(1, 1),
}

// Fig2b is the reduced tree of figure 2(b) in Z[x]/(x^2+1), by node path.
var Fig2b = map[string]poly.Poly{
	"/":    poly.FromInt64(45, 265), // 265x+45
	"/0":   poly.FromInt64(7, -6),   // -6x+7
	"/0/0": poly.FromInt64(-4, 1),   // x-4
	"/1":   poly.FromInt64(7, -6),
	"/1/0": poly.FromInt64(-4, 1),
}

// SharePair is one node's client/server share pair.
type SharePair struct {
	Client poly.Poly
	Server poly.Poly
}

// Fig3 is the figure 3 sharing in F_5[x]/(x^4−1): client + server ≡ Fig2a.
var Fig3 = map[string]SharePair{
	"/0/0": {Client: poly.FromInt64(2, 2), Server: poly.FromInt64(4, 4)},
	"/0":   {Client: poly.FromInt64(4, 3, 1, 3), Server: poly.FromInt64(4, 1, 0, 2)},
	"/1/0": {Client: poly.FromInt64(0, 2, 2, 4), Server: poly.FromInt64(1, 4, 3, 1)},
	"/1":   {Client: poly.FromInt64(3, 3, 4), Server: poly.FromInt64(0, 1, 2)},
	"/":    {Client: poly.FromInt64(2, 2, 3, 2), Server: poly.FromInt64(1, 1, 0, 1)},
}

// Fig4 is the figure 4 sharing in Z[x]/(x^2+1): client + server = Fig2b.
var Fig4 = map[string]SharePair{
	"/0/0": {Client: poly.FromInt64(2, -8), Server: poly.FromInt64(-6, 9)},
	"/0":   {Client: poly.FromInt64(3, 3), Server: poly.FromInt64(4, -9)},
	"/1/0": {Client: poly.FromInt64(-1, 12), Server: poly.FromInt64(-3, -11)},
	"/1":   {Client: poly.FromInt64(8, -2), Server: poly.FromInt64(-1, -4)},
	"/":    {Client: poly.FromInt64(-12, 9), Server: poly.FromInt64(57, 256)},
}

// EvalTriple is one node's query-time evaluation: client value, server
// value, and their sum, all modulo the evaluation modulus.
type EvalTriple struct {
	Client, Server, Sum int64
}

// QueryPoint is the paper's running query //client translated through the
// mapping: x = map(client) = 2.
const QueryPoint = 2

// Fig5 is figure 5: evaluation of the figure 3 shares at x=2 over F_5.
// Sum == 0 marks a live branch (node or descendant named client).
var Fig5 = map[string]EvalTriple{
	"/0/0": {Client: 1, Server: 2, Sum: 3},
	"/0":   {Client: 3, Server: 2, Sum: 0},
	"/1/0": {Client: 4, Server: 4, Sum: 3},
	"/1":   {Client: 0, Server: 0, Sum: 0},
	"/":    {Client: 4, Server: 1, Sum: 0},
}

// Fig6 is figure 6: evaluation of the figure 4 shares at x=2, computed
// modulo r(2) = 2^2+1 = 5.
var Fig6 = map[string]EvalTriple{
	"/0/0": {Client: 1, Server: 2, Sum: 3},
	"/0":   {Client: 4, Server: 1, Sum: 0},
	"/1/0": {Client: 3, Server: 0, Sum: 3},
	"/1":   {Client: 4, Server: 1, Sum: 0},
	"/":    {Client: 1, Server: 4, Sum: 0},
}
