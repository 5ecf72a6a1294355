package wire_test

import (
	"context"
	"crypto/sha256"
	"sync"
	"testing"

	"sssearch/internal/drbg"
	"sssearch/internal/mapping"
	"sssearch/internal/polyenc"
	"sssearch/internal/ring"
	"sssearch/internal/server"
	"sssearch/internal/shard"
	"sssearch/internal/sharing"
	"sssearch/internal/wire"
	"sssearch/internal/workload"
)

func init() { wire.AnswerEvalReq = answerBothPaths }

// fuzzLocal is a small F_257 store: 60 nodes, up to four children a node.
var fuzzLocal = sync.OnceValue(func() *server.Local {
	r := ring.MustFp(257)
	m, err := mapping.New(r.MaxTag(), []byte("fuzz"))
	if err != nil {
		panic(err)
	}
	enc, err := polyenc.Encode(r, workload.RandomTree(workload.TreeConfig{Nodes: 60, MaxFanout: 4, Vocab: 6, Seed: 9}), m)
	if err != nil {
		panic(err)
	}
	tree, err := sharing.Split(enc, drbg.Seed(sha256.Sum256([]byte("fuzz"))))
	if err != nil {
		panic(err)
	}
	local, err := server.NewLocal(r, tree)
	if err != nil {
		panic(err)
	}
	return local
})

// fuzzGuard fences shard 0 of a two-way split of fuzzLocal's tree: the
// shard that owns the root.
var fuzzGuard = sync.OnceValue(func() *shard.Guard {
	local := fuzzLocal()
	trees, man, err := shard.Partition(local.Tree(), 2)
	if err != nil {
		panic(err)
	}
	inner, err := server.NewLocal(local.Ring(), trees[0])
	if err != nil {
		panic(err)
	}
	g, err := shard.NewGuard(local.Ring(), inner, man, 0)
	if err != nil {
		panic(err)
	}
	return g
})

// passThrough holds a store without its run path: the daemon answers it
// through the keyed adapter.
type passThrough struct{ server.Store }

// answerBothPaths answers req as a daemon over a value-form Local does —
// run by run, straight into the frame — and as it does over any other
// store: EvalNodes of the expanded keys, encoded by AppendEvalRespFor. The
// two must give the same frame or the same error. A shard guard over a
// Local must answer it as the same guard behind a pass-through store does.
// A request whose answer cannot fit a frame at the values' width, 9 bits
// (that of p−1 = 256), is refused before either path runs.
func answerBothPaths(t *testing.T, req wire.EvalReq) {
	if wire.CheckEvalRespSize(req.Runs.Len(), len(req.Points), 9) != nil {
		return
	}
	local := fuzzLocal()
	run, runErr := local.AppendEvalResp(context.Background(), nil, req)
	var keyed []byte
	answers, keyedErr := local.EvalNodes(req.Runs.Keys(), req.Points)
	if keyedErr == nil {
		keyed = wire.AppendEvalRespFor(nil, wire.EvalResp{ID: req.ID, Answers: answers}, req.KeyDigest)
	}
	sameAnswer(t, "Local", run, runErr, keyed, keyedErr)
	g := fuzzGuard()
	run, runErr = g.AppendEvalResp(context.Background(), nil, req)
	keyed, keyedErr = server.AppendEvalResp(context.Background(), passThrough{g}, g.Ring(), nil, req)
	sameAnswer(t, "guard", run, runErr, keyed, keyedErr)
}

// sameAnswer fails t unless the run and keyed paths gave the same frame or
// the same error.
func sameAnswer(t *testing.T, store string, run []byte, runErr error, keyed []byte, keyedErr error) {
	switch {
	case runErr != nil || keyedErr != nil:
		if runErr == nil || keyedErr == nil || runErr.Error() != keyedErr.Error() {
			t.Fatalf("%s: run path error %v, keyed path error %v", store, runErr, keyedErr)
		}
	case string(run) != string(keyed):
		t.Fatalf("%s: run path frame %x, keyed path frame %x", store, run, keyed)
	}
}
