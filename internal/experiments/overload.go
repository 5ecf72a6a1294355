package experiments

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/big"
	"net"
	"sync"
	"time"

	"sssearch/internal/client"
	"sssearch/internal/core"
	"sssearch/internal/drbg"
	"sssearch/internal/mapping"
	"sssearch/internal/metrics"
	"sssearch/internal/obs"
	"sssearch/internal/polyenc"
	"sssearch/internal/resilience"
	"sssearch/internal/ring"
	"sssearch/internal/server"
	"sssearch/internal/sharing"
	"sssearch/internal/workload"
)

// Overload workload constants. Capacity is modeled explicitly — a
// semaphore of overloadCapacity slots around the store, each request
// holding a slot for overloadService — so the numbers are about queueing
// policy, not about how fast a 120-node fixture evaluates. The offered
// load is overloadInjectors open-loop arrival streams each issuing one
// request per overloadService: 4× what the capacity can serve.
const (
	overloadCapacity  = 2
	overloadService   = 2 * time.Millisecond
	overloadInjectors = 4 * overloadCapacity
	overloadRounds    = 10
)

// capacityStore models a fixed-capacity backend: at most cap requests
// are in service at once, each occupying a slot for the service time.
// Requests beyond the capacity queue on the semaphore — unless the
// daemon's admission control sheds them first, which is exactly the
// difference the overloadShed / overloadUnbounded pair measures.
type capacityStore struct {
	server.Store
	slots chan struct{}
}

func newCapacityStore(inner server.Store) *capacityStore {
	return &capacityStore{Store: inner, slots: make(chan struct{}, overloadCapacity)}
}

func (c *capacityStore) serve() func() {
	c.slots <- struct{}{}
	time.Sleep(overloadService)
	return func() { <-c.slots }
}

func (c *capacityStore) EvalNodes(keys []drbg.NodeKey, points []*big.Int) ([]core.NodeEval, error) {
	defer c.serve()()
	return c.Store.EvalNodes(keys, points)
}

func (c *capacityStore) FetchPolys(keys []drbg.NodeKey) ([]core.NodePoly, error) {
	defer c.serve()()
	return c.Store.FetchPolys(keys)
}

func (c *capacityStore) Prune(keys []drbg.NodeKey) error {
	defer c.serve()()
	return c.Store.Prune(keys)
}

// OverloadWorkload drives a fixed-capacity daemon at 4× its service rate
// through a retrying client and records every successful request's
// latency. With shed=true the daemon's admission cap matches the backend
// capacity, so excess requests are rejected immediately with the typed
// retryable error and its retry-after hint; the client retries a few
// times and then gives up fast. With shed=false every request is
// admitted and queues inside the server, so latency grows with the
// backlog. The recorded p99 over served requests is the point of the
// comparison: bounded under shedding, unbounded (growing with the wave)
// under open admission. Every served answer is checked byte-identical to
// the fault-free reference and every rejection must be a typed overload
// error — a wrong answer or an untyped failure fails the bench.
type OverloadWorkload struct {
	api      core.ServerAPI
	shed     bool
	daemon   *server.Daemon
	counters *metrics.Counters
	keys     []drbg.NodeKey
	points   []*big.Int
	want     []core.NodeEval

	// hist accumulates every served request's latency (lock-free); mu
	// guards only the outcome tallies.
	hist obs.Histogram

	mu       sync.Mutex
	served   int
	rejected int
}

// NewOverloadWorkload assembles the fixture: a 120-node F_257 store
// behind the capacity model, served by a real daemon on a loopback
// listener, queried through a Reliable session whose policy honors the
// shed retry-after hints. The daemon and listener live for the process
// (bench fixtures are built once and reused).
func NewOverloadWorkload(shed bool) (*OverloadWorkload, error) {
	fp := ring.MustFp(257)
	doc := workload.RandomTree(workload.TreeConfig{Nodes: 120, MaxFanout: 4, Vocab: 10, Seed: 97})
	m, err := mapping.New(fp.MaxTag(), []byte("bench-overload"))
	if err != nil {
		return nil, err
	}
	enc, err := polyenc.Encode(fp, doc, m)
	if err != nil {
		return nil, err
	}
	seed := drbg.Seed(sha256.Sum256([]byte("bench-overload")))
	tree, err := sharing.Split(enc, seed)
	if err != nil {
		return nil, err
	}
	local, err := server.NewLocal(fp, tree)
	if err != nil {
		return nil, err
	}

	d := server.NewDaemon(newCapacityStore(local), nil)
	if shed {
		d.MaxInflight = overloadCapacity
		d.RetryAfterHint = time.Millisecond
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go func() { _ = d.Serve(l) }()
	addr := l.Addr().String()

	counters := &metrics.Counters{}
	rc, err := client.NewReliable(
		func() (*client.Remote, error) { return client.Dial(addr, counters) },
		resilience.Policy{
			MaxAttempts:       5,
			PerAttemptTimeout: 5 * time.Second,
			BaseBackoff:       500 * time.Microsecond,
			MaxBackoff:        2 * time.Millisecond,
			Breaker:           &resilience.Breaker{Cooldown: time.Millisecond},
		},
		counters,
	)
	if err != nil {
		return nil, err
	}

	var keys []drbg.NodeKey
	enc.Walk(func(key drbg.NodeKey, _ *polyenc.Node) bool {
		keys = append(keys, key)
		return true
	})
	if len(keys) > 8 {
		keys = keys[:8]
	}
	points := []*big.Int{big.NewInt(2), big.NewInt(3)}
	want, err := local.EvalNodes(keys, points)
	if err != nil {
		return nil, err
	}
	return &OverloadWorkload{
		api:      rc,
		shed:     shed,
		daemon:   d,
		counters: counters,
		keys:     keys,
		points:   points,
		want:     want,
	}, nil
}

// Metrics exposes both ends' counter snapshots — the evidence that a
// bench run actually exercised the overload machinery (sheds on the
// daemon, retries and breaker trips on the client), exported next to
// the timing numbers.
func (w *OverloadWorkload) Metrics() map[string]metrics.Snapshot {
	return map[string]metrics.Snapshot{
		"daemon": w.daemon.Counters().Snapshot(),
		"client": w.counters.Snapshot(),
	}
}

// verify checks a served answer byte-identical to the reference.
func (w *OverloadWorkload) verify(got []core.NodeEval) error {
	if len(got) != len(w.want) {
		return fmt.Errorf("%d answers, want %d", len(got), len(w.want))
	}
	for i := range w.want {
		if got[i].Key.String() != w.want[i].Key.String() {
			return fmt.Errorf("answer %d under key %s, want %s", i, got[i].Key, w.want[i].Key)
		}
		if got[i].NumChildren != w.want[i].NumChildren {
			return fmt.Errorf("%s: %d children, want %d", w.want[i].Key, got[i].NumChildren, w.want[i].NumChildren)
		}
		gv, wv := got[i].Values(), w.want[i].Values()
		if len(gv) != len(wv) {
			return fmt.Errorf("%s: %d values, want %d", w.want[i].Key, len(gv), len(wv))
		}
		for j := range wv {
			if gv[j].Cmp(wv[j]) != 0 {
				return fmt.Errorf("%s: value %d differs from reference", w.want[i].Key, j)
			}
		}
	}
	return nil
}

// Run injects one open-loop overload wave: overloadInjectors arrival
// streams, each issuing overloadRounds fire-and-forget requests at
// service-time intervals — 4× the backend's service rate for the whole
// wave — then waits for every request to resolve.
func (w *OverloadWorkload) Run() error {
	var wg sync.WaitGroup
	errs := make(chan error, overloadInjectors*overloadRounds)
	for inj := 0; inj < overloadInjectors; inj++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var reqs sync.WaitGroup
			for r := 0; r < overloadRounds; r++ {
				reqs.Add(1)
				go func() {
					defer reqs.Done()
					start := time.Now()
					got, err := w.api.EvalNodes(w.keys, w.points)
					lat := time.Since(start)
					if err != nil {
						// Under shedding, giving up after the retry budget is
						// the designed outcome for excess load — but only with
						// the typed overload error; anything else is a failure.
						if w.shed && (resilience.Overloaded(err) || errors.Is(err, resilience.ErrBreakerOpen)) {
							w.mu.Lock()
							w.rejected++
							w.mu.Unlock()
							return
						}
						errs <- err
						return
					}
					if err := w.verify(got); err != nil {
						errs <- fmt.Errorf("wrong answer under overload: %w", err)
						return
					}
					w.hist.Observe(lat)
					w.mu.Lock()
					w.served++
					w.mu.Unlock()
				}()
				time.Sleep(overloadService)
			}
			reqs.Wait()
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.served == 0 {
		return errors.New("overload wave served nothing")
	}
	return nil
}

// Dist snapshots the latency distribution over every request served
// across all Runs so far.
func (w *OverloadWorkload) Dist() obs.HistSnapshot { return w.hist.Snapshot() }

// P99Ns reports the 99th-percentile latency over every request served
// across all Runs so far, in nanoseconds.
func (w *OverloadWorkload) P99Ns() float64 {
	return w.hist.Snapshot().Quantile(0.99)
}
