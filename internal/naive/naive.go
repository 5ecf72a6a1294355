// Package naive implements the strawman the paper's introduction dismisses:
// "download the whole database locally and then perform the query. This of
// course is terribly inefficient." The document is bulk-encrypted with
// AES-256-CTR + HMAC (encrypt-then-MAC); every query ships the entire
// ciphertext to the client, which decrypts, parses and evaluates the XPath
// locally.
//
// It is the bandwidth baseline of the `compare` experiment: correctness is trivial,
// bytes moved per query equal the whole database.
package naive

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"

	"sssearch/internal/drbg"
	"sssearch/internal/xmltree"
	"sssearch/internal/xpath"
)

// Store is the server-side blob.
type Store struct {
	nonce      []byte
	ciphertext []byte
	mac        []byte
}

// keyPair derives independent encryption and MAC keys from a master key.
func keyPair(master []byte) (encKey, macKey []byte) {
	h1 := hmac.New(sha256.New, master)
	h1.Write([]byte("naive/enc"))
	h2 := hmac.New(sha256.New, master)
	h2.Write([]byte("naive/mac"))
	return h1.Sum(nil), h2.Sum(nil)
}

// Encrypt serializes and encrypts doc under the master key.
func Encrypt(master []byte, doc *xmltree.Node) (*Store, error) {
	if doc == nil {
		return nil, errors.New("naive: nil document")
	}
	encKey, macKey := keyPair(master)
	var plain bytes.Buffer
	if err := xmltree.Serialize(&plain, doc, 0); err != nil {
		return nil, err
	}
	block, err := aes.NewCipher(encKey)
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, aes.BlockSize)
	if _, err := io.ReadFull(rand.Reader, nonce); err != nil {
		return nil, err
	}
	ct := make([]byte, plain.Len())
	cipher.NewCTR(block, nonce).XORKeyStream(ct, plain.Bytes())
	mac := hmac.New(sha256.New, macKey)
	mac.Write(nonce)
	mac.Write(ct)
	return &Store{nonce: nonce, ciphertext: ct, mac: mac.Sum(nil)}, nil
}

// ByteSize is the server-side storage footprint.
func (s *Store) ByteSize() int {
	return len(s.nonce) + len(s.ciphertext) + len(s.mac)
}

// Download simulates shipping the whole blob; it returns the bytes moved.
func (s *Store) Download() ([]byte, int) {
	blob := make([]byte, 0, s.ByteSize())
	blob = append(blob, s.nonce...)
	blob = append(blob, s.ciphertext...)
	blob = append(blob, s.mac...)
	return blob, len(blob)
}

// Decrypt authenticates and decrypts a downloaded blob back into a tree.
func Decrypt(master []byte, blob []byte) (*xmltree.Node, error) {
	if len(blob) < aes.BlockSize+sha256.Size {
		return nil, errors.New("naive: blob too short")
	}
	encKey, macKey := keyPair(master)
	nonce := blob[:aes.BlockSize]
	mac := blob[len(blob)-sha256.Size:]
	ct := blob[aes.BlockSize : len(blob)-sha256.Size]
	check := hmac.New(sha256.New, macKey)
	check.Write(nonce)
	check.Write(ct)
	if !hmac.Equal(check.Sum(nil), mac) {
		return nil, errors.New("naive: MAC verification failed")
	}
	block, err := aes.NewCipher(encKey)
	if err != nil {
		return nil, err
	}
	plain := make([]byte, len(ct))
	cipher.NewCTR(block, nonce).XORKeyStream(plain, ct)
	doc, err := xmltree.ParseBytes(plain)
	if err != nil {
		return nil, fmt.Errorf("naive: decrypted document unparseable: %w", err)
	}
	return doc, nil
}

// QueryResult reports matches and the transfer cost.
type QueryResult struct {
	Matches    []drbg.NodeKey
	BytesMoved int
}

// Query runs one download-everything query end to end.
func Query(master []byte, s *Store, q *xpath.Query) (*QueryResult, error) {
	blob, moved := s.Download()
	doc, err := Decrypt(master, blob)
	if err != nil {
		return nil, err
	}
	var keys []drbg.NodeKey
	for _, n := range q.Evaluate(doc) {
		keys = append(keys, n.Key())
	}
	return &QueryResult{Matches: keys, BytesMoved: moved}, nil
}
