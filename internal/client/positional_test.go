package client_test

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"net"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"sssearch/internal/apitest"
	"sssearch/internal/client"
	"sssearch/internal/core"
	"sssearch/internal/drbg"
	"sssearch/internal/resilience"
	"sssearch/internal/ring"
	"sssearch/internal/server"
	"sssearch/internal/sharing"
	"sssearch/internal/wire"
)

// A positional frame names no key: the daemon checks that its store
// answered the keys asked before it encodes, and the client checks that a
// response carries the digest of its key list, an answer per key and a
// value per point before it gives answer i key i. These tests hold every
// client the engine can sit on to both checks.

// swappingStore answers a call for two keys or more with its first two
// answers swapped, each in the other's place: a store that mixed up its
// results.
type swappingStore struct{ *server.Local }

func (s swappingStore) EvalNodes(keys []drbg.NodeKey, points []*big.Int) ([]core.NodeEval, error) {
	out, err := s.Local.EvalNodes(keys, points)
	if err == nil && len(out) > 1 {
		out = slices.Clone(out)
		out[0], out[1] = out[1], out[0]
	}
	return out, err
}

func (s swappingStore) FetchPolys(keys []drbg.NodeKey) ([]core.NodePoly, error) {
	out, err := s.Local.FetchPolys(keys)
	if err == nil && len(out) > 1 {
		out = slices.Clone(out)
		out[0], out[1] = out[1], out[0]
	}
	return out, err
}

// serveStore serves store on a loopback daemon until the test ends.
func serveStore(t *testing.T, store server.Store) string {
	t.Helper()
	d := server.NewDaemon(store, nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = d.Serve(l)
	}()
	t.Cleanup(func() {
		d.Close()
		<-done
	})
	return l.Addr().String()
}

// misframing answers every request from an honest store in a frame that
// breaks one rule of the positional layout: mode "digest" carries the
// digest of another key list, "count" one answer too few, "values" one
// value an answer too few (eval responses only: a share carries its own
// count).
type misframing struct {
	store *server.Local
	mode  string
}

func (m misframing) serve(conn net.Conn) {
	defer conn.Close()
	if f, _, err := wire.ReadAny(conn); err != nil || f.Type != wire.MsgHello {
		return
	}
	ack, err := wire.EncodeHelloAck(wire.HelloAck{Version: wire.Version, Params: m.store.Ring().Params()})
	if err != nil {
		return
	}
	if _, err := wire.WriteFramed(conn, wire.FramedFrame{Type: wire.MsgHelloAck, Payload: ack}); err != nil {
		return
	}
	for {
		f, _, err := wire.ReadAny(conn)
		if err != nil || f.Type == wire.MsgBye {
			return
		}
		out := wire.FramedFrame{ReqID: f.ReqID}
		switch f.Type {
		case wire.MsgEval:
			req, err := wire.DecodeEvalReq(f.Payload)
			if err != nil {
				return
			}
			answers, err := m.store.EvalNodes(req.Runs.Keys(), req.Points)
			if err != nil {
				return
			}
			digest := req.KeyDigest
			switch m.mode {
			case "digest":
				digest ^= 1
			case "count":
				answers = answers[:len(answers)-1]
			case "values":
				for i := range answers {
					answers[i].Words = answers[i].Words[:len(answers[i].Words)-1]
				}
			}
			out.Type, out.Payload = wire.MsgEvalResp, wire.AppendEvalRespFor(nil, wire.EvalResp{ID: req.ID, Answers: answers}, digest)
		case wire.MsgFetch:
			req, err := wire.DecodeFetchReq(f.Payload)
			if err != nil {
				return
			}
			answers, err := m.store.FetchPolys(req.Keys)
			if err != nil {
				return
			}
			digest := req.KeyDigest
			switch m.mode {
			case "digest":
				digest ^= 1
			case "count":
				answers = answers[:len(answers)-1]
			}
			if out.Payload, err = wire.AppendFetchRespFor(nil, wire.FetchResp{ID: req.ID, Answers: answers}, digest); err != nil {
				return
			}
			out.Type = wire.MsgFetchResp
		default:
			return
		}
		if _, err := wire.WriteFramed(conn, out); err != nil {
			return
		}
	}
}

// dialer opens a session to m over an in-memory pipe.
func (m misframing) dialer() func() (*client.Remote, error) {
	return func() (*client.Remote, error) {
		cli, srv := net.Pipe()
		go m.serve(srv)
		return client.NewRemote(cli, nil)
	}
}

// clientsOf opens the three clients the engine sits on, each over
// sessions from dial: a Remote, a Pool and a reliable session (a retry
// policy over a one-connection Pool). They are closed when the test ends.
func clientsOf(t *testing.T, dial func() (*client.Remote, error)) map[string]core.ServerAPI {
	t.Helper()
	remote, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	pool, err := client.NewPoolDial(dial, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	single, err := client.NewPoolDial(dial, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		remote.Close()
		pool.Close()
		single.Close()
	})
	return map[string]core.ServerAPI{
		"Remote":   remote,
		"Pool":     pool,
		"Reliable": &resilience.API{Inner: single},
	}
}

// TestDaemonRefusesSubstitutedAnswers: a daemon whose store answers for
// other keys than asked sends an error, not a frame the client would read
// as the keys it asked — through every client, for evaluations and
// fetches — and the session goes on serving.
func TestDaemonRefusesSubstitutedAnswers(t *testing.T) {
	f := apitest.NewFixture(t, ring.MustFp(257))
	addr := serveStore(t, swappingStore{f.Reference})
	for name, api := range clientsOf(t, func() (*client.Remote, error) { return client.Dial(addr, nil) }) {
		keys := f.Keys[:3]
		if _, err := api.EvalNodes(keys, f.Points); err == nil || !strings.Contains(err.Error(), "store answered for") {
			t.Errorf("%s: EvalNodes through a swapping store: error %v", name, err)
		}
		if _, err := api.FetchPolys(keys); err == nil || !strings.Contains(err.Error(), "store answered for") {
			t.Errorf("%s: FetchPolys through a swapping store: error %v", name, err)
		}
		want, err := f.Reference.EvalNodes(keys[:1], f.Points)
		if err != nil {
			t.Fatal(err)
		}
		got, err := api.EvalNodes(keys[:1], f.Points)
		if err == nil {
			err = apitest.CompareEvals(got, want)
		}
		if err != nil {
			t.Errorf("%s: a one-key call after the refusals: %v", name, err)
		}
	}
}

// TestClientRefusesMisframedResponses: a response with the digest of
// another key list, an answer too few or a value too few an answer is
// refused with wire.ErrMismatch by every client.
func TestClientRefusesMisframedResponses(t *testing.T) {
	f := apitest.NewFixture(t, ring.MustFp(257))
	for _, mode := range []string{"digest", "count", "values"} {
		for name, api := range clientsOf(t, misframing{store: f.Reference, mode: mode}.dialer()) {
			if _, err := api.EvalNodes(f.Keys[:3], f.Points); !errors.Is(err, wire.ErrMismatch) {
				t.Errorf("%s, %s: EvalNodes: error %v, want wire.ErrMismatch", mode, name, err)
			}
			if mode == "values" {
				continue
			}
			if _, err := api.FetchPolys(f.Keys[:3]); !errors.Is(err, wire.ErrMismatch) {
				t.Errorf("%s, %s: FetchPolys: error %v, want wire.ErrMismatch", mode, name, err)
			}
		}
	}
}

// TestMultiServerNamesTheMisframingMember: in a k-of-n deployment over
// daemons, a member whose frames are refused — its digest is wrong, or its
// store swaps answers — is named in the error when no honest k remain, and
// left out when a spare answers.
func TestMultiServerNamesTheMisframingMember(t *testing.T) {
	f := apitest.NewFixture(t, ring.MustFp(257))
	fp := f.Ring.(*ring.FpCyclotomic)
	shares, err := sharing.MultiSplit(f.Encoded, f.Seed, 2, 3, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	locals := make([]*server.Local, len(shares))
	for i, s := range shares {
		if locals[i], err = server.NewLocal(fp, s.Tree); err != nil {
			t.Fatal(err)
		}
	}
	honest := func(i int) *client.Remote {
		r, err := client.Dial(serveStore(t, locals[i]), nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Close() })
		return r
	}
	want, err := f.Reference.EvalNodes(f.Keys[:3], f.Points)
	if err != nil {
		t.Fatal(err)
	}
	for _, liar := range []struct {
		name, says string
		dial       func() (*client.Remote, error)
	}{
		{"digest", wire.ErrMismatch.Error(), misframing{store: locals[0], mode: "digest"}.dialer()},
		{"swapping store", "store answered for", func() (*client.Remote, error) { return client.Dial(serveStore(t, swappingStore{locals[0]}), nil) }},
	} {
		r, err := liar.dial()
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		members := []core.MultiMember{{X: shares[0].X, API: r}, {X: shares[1].X, API: honest(1)}, {X: shares[2].X, API: honest(2)}}
		strict, err := core.NewMultiServer(fp, 2, members[:2])
		if err != nil {
			t.Fatal(err)
		}
		named := fmt.Sprintf("member %d: ", shares[0].X)
		if _, err := strict.EvalNodes(f.Keys[:3], f.Points); err == nil || !strings.Contains(err.Error(), named) || !strings.Contains(err.Error(), liar.says) {
			t.Errorf("%s: EvalNodes of a 2-of-2 deployment: error %v, want it to name the member (%q) and say %q", liar.name, err, named, liar.says)
		}
		if _, err := strict.FetchPolys(f.Keys[:3]); err == nil || !strings.Contains(err.Error(), named) {
			t.Errorf("%s: FetchPolys of a 2-of-2 deployment: error %v, want it to name the member", liar.name, err)
		}
		spare, err := core.NewMultiServer(fp, 2, members)
		if err != nil {
			t.Fatal(err)
		}
		got, err := spare.EvalNodes(f.Keys[:3], f.Points)
		if err == nil {
			err = apitest.CompareEvals(got, want)
		}
		if err != nil {
			t.Errorf("%s: the two honest members of 2-of-3: %v", liar.name, err)
		}
	}
}

// anyKeyStore answers every key it is asked for, with the key's last
// component as each value, and counts the calls it serves.
type anyKeyStore struct {
	ring  ring.Ring
	calls atomic.Int64
}

func (s *anyKeyStore) Ring() ring.Ring { return s.ring }

func (s *anyKeyStore) EvalNodes(keys []drbg.NodeKey, points []*big.Int) ([]core.NodeEval, error) {
	s.calls.Add(1)
	out := make([]core.NodeEval, len(keys))
	for i, k := range keys {
		out[i] = core.NodeEval{Key: k, Words: make([]uint64, len(points))}
		for j := range points {
			out[i].Words[j] = uint64(k[len(k)-1] % 257)
		}
	}
	return out, nil
}

func (s *anyKeyStore) FetchPolys(keys []drbg.NodeKey) ([]core.NodePoly, error) {
	s.calls.Add(1)
	out := make([]core.NodePoly, len(keys))
	for i, k := range keys {
		out[i] = core.NodePoly{Key: k, Words: []uint64{uint64(k[len(k)-1]%256 + 1)}}
	}
	return out, nil
}

func (s *anyKeyStore) Prune([]drbg.NodeKey) error { return nil }

// TestRemoteSplitsAWaveItsBytesCannotAsk: a wave of more siblings than its
// few encoded bytes may ask for, which a daemon refuses as one request,
// goes to the daemon in two and comes back as one answer per key, in order.
func TestRemoteSplitsAWaveItsBytesCannotAsk(t *testing.T) {
	store := &anyKeyStore{ring: ring.MustFp(257)}
	r, err := client.Dial(serveStore(t, store), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	keys := make([]drbg.NodeKey, 40000)
	for i := range keys {
		keys[i] = drbg.NodeKey{7, uint32(i)}
	}
	if wire.KeyListFits(keys) {
		t.Fatal("40,000 siblings in one run fit one request")
	}
	evals, err := r.EvalNodes(keys, []*big.Int{big.NewInt(2), big.NewInt(3)})
	if err != nil || len(evals) != len(keys) || store.calls.Load() != 2 {
		t.Fatalf("EvalNodes: %d answers in %d calls (%v)", len(evals), store.calls.Load(), err)
	}
	for i, a := range evals {
		if v := uint64(i % 257); !slices.Equal(a.Key, keys[i]) || !slices.Equal(a.Words, []uint64{v, v}) {
			t.Fatalf("answer %d: %+v", i, a)
		}
	}
	polys, err := r.FetchPolys(keys)
	if err != nil || len(polys) != len(keys) || store.calls.Load() != 4 {
		t.Fatalf("FetchPolys: %d answers in %d calls in all (%v)", len(polys), store.calls.Load(), err)
	}
	for i, a := range polys {
		if !slices.Equal(a.Key, keys[i]) || !slices.Equal(a.Words, []uint64{uint64(i%256 + 1)}) {
			t.Fatalf("share %d: %+v", i, a)
		}
	}
}
