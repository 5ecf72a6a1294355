// Package swp implements the comparison baseline of the paper's related
// work ([2] Song, Wagner, Perrig, "Practical techniques for searches on
// encrypted data", and the authors' own adaptation [15], "Experimenting
// with linear search in encrypted data"): a linear scan over per-node
// searchable tokens.
//
// Construction (SWP scheme III adapted to XML tag names, HMAC-SHA256 as
// the PRF):
//
//	X_i  = PRF(K_enc, tag_i)            deterministic 32-byte word image
//	L_i  = X_i[:16],  k_i = PRF(K_word, L_i)
//	S_i  = PRF(K_seed, position_i)[:16] per-position stream value
//	C_i  = X_i ⊕ (S_i ‖ PRF(k_i, S_i)[:16])
//
// A search for tag W hands the server the trapdoor (X_W, k_W); the server
// XORs each token with X_W and checks the PRF relation — an O(n) scan with
// no tree structure to exploit, which is exactly the contrast experiment
// E9 draws against the polynomial scheme's pruned descent.
package swp

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"

	"sssearch/internal/drbg"
	"sssearch/internal/xmltree"
)

const (
	blockSize = 32
	halfSize  = 16
)

// Client holds the searcher's secret keys.
type Client struct {
	kEnc  []byte
	kWord []byte
	kSeed []byte
}

// NewClient derives the scheme's three keys from a master secret.
func NewClient(master []byte) *Client {
	return &Client{
		kEnc:  prf(master, []byte("swp/enc")),
		kWord: prf(master, []byte("swp/word")),
		kSeed: prf(master, []byte("swp/seed")),
	}
}

func prf(key, msg []byte) []byte {
	m := hmac.New(sha256.New, key)
	m.Write(msg)
	return m.Sum(nil)
}

// wordImage is the deterministic encryption of a tag.
func (c *Client) wordImage(tag string) []byte {
	return prf(c.kEnc, []byte(tag))[:blockSize]
}

// wordKey derives the check key from the left half of a word image.
func (c *Client) wordKey(left []byte) []byte {
	return prf(c.kWord, left)[:halfSize]
}

// streamValue is the per-position pseudorandom value S_i.
func (c *Client) streamValue(pos uint64) []byte {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], pos)
	return prf(c.kSeed, buf[:])[:halfSize]
}

// Token is one encrypted, searchable cell.
type Token [blockSize]byte

// Index is the server-side searchable structure: one token per document
// node, in preorder, with the node keys alongside (keys are structural,
// not secret — the polynomial scheme exposes the same shape).
type Index struct {
	Tokens []Token
	Keys   []drbg.NodeKey
}

// BuildIndex encrypts every node tag of doc into a searchable token.
func (c *Client) BuildIndex(doc *xmltree.Node) (*Index, error) {
	if doc == nil {
		return nil, errors.New("swp: nil document")
	}
	idx := &Index{}
	pos := uint64(0)
	var rec func(n *xmltree.Node, key drbg.NodeKey)
	rec = func(n *xmltree.Node, key drbg.NodeKey) {
		x := c.wordImage(n.Tag)
		ki := c.wordKey(x[:halfSize])
		si := c.streamValue(pos)
		check := prf(ki, si)[:halfSize]
		var tok Token
		for i := 0; i < halfSize; i++ {
			tok[i] = x[i] ^ si[i]
			tok[halfSize+i] = x[halfSize+i] ^ check[i]
		}
		idx.Tokens = append(idx.Tokens, tok)
		idx.Keys = append(idx.Keys, key)
		pos++
		for i, ch := range n.Children {
			rec(ch, key.Child(uint32(i)))
		}
	}
	rec(doc, drbg.NodeKey{})
	return idx, nil
}

// Trapdoor authorizes the server to test for one specific tag.
type Trapdoor struct {
	X  []byte // word image
	KW []byte // word check key
}

// Trapdoor builds the search trapdoor for a tag.
func (c *Client) Trapdoor(tag string) Trapdoor {
	x := c.wordImage(tag)
	return Trapdoor{X: x, KW: c.wordKey(x[:halfSize])}
}

// SearchResult reports the matches and the scan cost.
type SearchResult struct {
	Matches []drbg.NodeKey
	// TokensScanned is always the full index size — the linear-scan cost
	// that the `compare` experiment contrasts with tree pruning.
	TokensScanned int
}

// Search runs the server-side linear scan.
func (idx *Index) Search(td Trapdoor) *SearchResult {
	res := &SearchResult{TokensScanned: len(idx.Tokens)}
	for i, tok := range idx.Tokens {
		// tmp = C_i ⊕ X = (S_i' ‖ t); match iff PRF(kW, S_i')[:16] == t.
		var s, t [halfSize]byte
		for j := 0; j < halfSize; j++ {
			s[j] = tok[j] ^ td.X[j]
			t[j] = tok[halfSize+j] ^ td.X[halfSize+j]
		}
		check := prf(td.KW, s[:])[:halfSize]
		if bytes.Equal(check, t[:]) {
			res.Matches = append(res.Matches, idx.Keys[i])
		}
	}
	return res
}

// RecoverWordImage decrypts token at position pos back to the word image
// (the client-side decryption direction of SWP; the tag string itself is
// recovered by dictionary lookup against known word images).
func (c *Client) RecoverWordImage(idx *Index, pos int) ([]byte, error) {
	if pos < 0 || pos >= len(idx.Tokens) {
		return nil, errors.New("swp: position out of range")
	}
	tok := idx.Tokens[pos]
	si := c.streamValue(uint64(pos))
	x := make([]byte, blockSize)
	for i := 0; i < halfSize; i++ {
		x[i] = tok[i] ^ si[i]
	}
	ki := c.wordKey(x[:halfSize])
	check := prf(ki, si)[:halfSize]
	for i := 0; i < halfSize; i++ {
		x[halfSize+i] = tok[halfSize+i] ^ check[i]
	}
	return x, nil
}

// ByteSize returns the index's storage footprint in bytes.
func (idx *Index) ByteSize() int {
	total := len(idx.Tokens) * blockSize
	for _, k := range idx.Keys {
		total += 4 * len(k)
	}
	return total
}
