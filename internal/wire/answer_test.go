package wire_test

import (
	"crypto/sha256"
	"sync"
	"testing"

	"sssearch/internal/drbg"
	"sssearch/internal/mapping"
	"sssearch/internal/polyenc"
	"sssearch/internal/ring"
	"sssearch/internal/server"
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

// answerBothPaths answers req as a daemon over a value-form Local does —
// run by run, straight into the frame — and as it does over any other
// store: EvalNodes of the expanded keys, encoded by AppendEvalRespFor. The
// two must give the same frame or the same error. A request whose answer
// cannot fit a frame is refused before either path runs.
func answerBothPaths(t *testing.T, req wire.EvalReq) {
	if wire.CheckEvalRespSize(req.Runs.Len(), len(req.Points)) != nil {
		return
	}
	local := fuzzLocal()
	run, runErr := local.AppendEvalResp(nil, &req)
	var keyed []byte
	answers, keyedErr := local.EvalNodes(req.Runs.Keys(), req.Points)
	if keyedErr == nil {
		keyed = wire.AppendEvalRespFor(nil, wire.EvalResp{ID: req.ID, Answers: answers}, req.KeyDigest)
	}
	switch {
	case runErr != nil || keyedErr != nil:
		if runErr == nil || keyedErr == nil || runErr.Error() != keyedErr.Error() {
			t.Fatalf("run path error %v, keyed path error %v", runErr, keyedErr)
		}
	case string(run) != string(keyed):
		t.Fatalf("run path frame %x, keyed path frame %x", run, keyed)
	}
}
