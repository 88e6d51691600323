package router

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/qlog"
	"repro/internal/siapi"
	"repro/internal/synopsis"
	"repro/internal/trace"
)

// fakeNode is a controllable Node: scripted readiness, lag, and failure.
type fakeNode struct {
	name   string
	ready  atomic.Bool
	lag    atomic.Uint64
	lagOK  atomic.Bool
	fail   atomic.Bool
	served atomic.Int64
}

func newFakeNode(name string) *fakeNode {
	n := &fakeNode{name: name}
	n.ready.Store(true)
	n.lagOK.Store(true)
	return n
}

func (n *fakeNode) Name() string { return n.name }
func (n *fakeNode) Ready() bool  { return n.ready.Load() }
func (n *fakeNode) Lag() (uint64, bool) {
	return n.lag.Load(), n.lagOK.Load()
}

var errNodeDown = errors.New("node down")

func (n *fakeNode) serve() error {
	if n.fail.Load() {
		return errNodeDown
	}
	n.served.Add(1)
	return nil
}

func (n *fakeNode) SearchCtx(ctx context.Context, user access.User, q core.FormQuery) (core.Result, error) {
	return core.Result{}, n.serve()
}
func (n *fakeNode) KeywordSearchCtx(ctx context.Context, query string, limit int) []siapi.DocHit {
	n.serve()
	return nil
}
func (n *fakeNode) KeywordCount(query string) int { n.serve(); return 0 }
func (n *fakeNode) ExploreCtx(ctx context.Context, user access.User, dealID string, q core.FormQuery) ([]siapi.DocHit, error) {
	return nil, n.serve()
}
func (n *fakeNode) SimilarDeals(user access.User, dealID string, k int) ([]synopsis.SimilarHit, error) {
	return nil, n.serve()
}
func (n *fakeNode) Deal(user access.User, dealID string) (synopsis.Deal, error) {
	if err := n.serve(); err != nil {
		return synopsis.Deal{}, err
	}
	return synopsis.Deal{}, synopsis.ErrNotFound
}

// fakeBackend satisfies the pass-through Backend surface over a fakeNode.
type fakeBackend struct {
	*fakeNode
}

func (fakeBackend) SearchExplain(ctx context.Context, user access.User, q core.FormQuery) (core.Result, *core.Explanation, error) {
	return core.Result{}, nil, nil
}
func (fakeBackend) Registry() *obs.Registry             { return nil }
func (fakeBackend) RequestTracer() *trace.Tracer        { return nil }
func (fakeBackend) Log() *qlog.Log                      { return nil }
func (fakeBackend) BreakerStates() []core.BreakerStatus { return nil }

func newTestRouter(opts Options, replicas ...*fakeNode) (*Router, *fakeNode) {
	primary := newFakeNode("primary")
	nodes := make([]Node, len(replicas))
	for i, r := range replicas {
		nodes[i] = r
	}
	return New(fakeBackend{primary}, primary, nodes, opts), primary
}

func search(t *testing.T, r *Router) {
	t.Helper()
	if _, err := r.SearchCtx(context.Background(), access.User{}, core.FormQuery{}); err != nil {
		t.Fatalf("SearchCtx: %v", err)
	}
}

func TestRouterSpreadsReads(t *testing.T) {
	r1, r2 := newFakeNode("r1"), newFakeNode("r2")
	r, primary := newTestRouter(Options{}, r1, r2)
	for i := 0; i < 10; i++ {
		search(t, r)
	}
	if r1.served.Load() != 5 || r2.served.Load() != 5 {
		t.Fatalf("rotation: r1=%d r2=%d, want 5/5", r1.served.Load(), r2.served.Load())
	}
	if primary.served.Load() != 0 {
		t.Fatalf("primary served %d reads without PrimaryReads", primary.served.Load())
	}
}

func TestRouterPrimaryJoinsRotation(t *testing.T) {
	r1 := newFakeNode("r1")
	r, primary := newTestRouter(Options{PrimaryReads: true}, r1)
	for i := 0; i < 10; i++ {
		search(t, r)
	}
	if r1.served.Load() != 5 || primary.served.Load() != 5 {
		t.Fatalf("rotation: r1=%d primary=%d, want 5/5", r1.served.Load(), primary.served.Load())
	}
}

func TestRouterSkipsStaleReplica(t *testing.T) {
	r1, r2 := newFakeNode("r1"), newFakeNode("r2")
	r1.lag.Store(100)
	r, _ := newTestRouter(Options{MaxLag: 10}, r1, r2)
	for i := 0; i < 6; i++ {
		search(t, r)
	}
	if r1.served.Load() != 0 {
		t.Fatalf("stale replica served %d reads", r1.served.Load())
	}
	if r2.served.Load() != 6 {
		t.Fatalf("fresh replica served %d reads, want 6", r2.served.Load())
	}
	// Unknown lag counts as stale too: no heartbeat, no reads.
	r2.lagOK.Store(false)
	search(t, r)
	if r2.served.Load() != 6 {
		t.Fatalf("unknown-lag replica took a read")
	}
}

func TestRouterFailsOverToPrimary(t *testing.T) {
	r1 := newFakeNode("r1")
	r1.fail.Store(true)
	r, primary := newTestRouter(Options{}, r1)
	search(t, r)
	if primary.served.Load() != 1 {
		t.Fatalf("primary served %d, want failover read", primary.served.Load())
	}
}

func TestRouterBreakerOpensAndCools(t *testing.T) {
	r1 := newFakeNode("r1")
	r1.fail.Store(true)
	r, _ := newTestRouter(Options{BreakerThreshold: 3, BreakerCooldown: 50 * time.Millisecond}, r1)
	// Three consecutive failures open the breaker.
	for i := 0; i < 3; i++ {
		search(t, r)
	}
	st := r.Status()
	if len(st) != 2 || !st[1].BreakerOpen {
		t.Fatalf("breaker not open after threshold: %+v", st)
	}
	// While open, the broken node is not even attempted (fail would error
	// and the primary absorbs everything).
	r1.fail.Store(false)
	search(t, r)
	if r1.served.Load() != 0 {
		t.Fatal("open breaker let a read through")
	}
	// After the cooldown, the healthy node serves again.
	time.Sleep(60 * time.Millisecond)
	search(t, r)
	if r1.served.Load() != 1 {
		t.Fatalf("replica served %d after cooldown, want 1", r1.served.Load())
	}
}

func TestRouterDataErrorIsNotFailure(t *testing.T) {
	r1 := newFakeNode("r1")
	r, primary := newTestRouter(Options{BreakerThreshold: 1}, r1)
	for i := 0; i < 5; i++ {
		if _, err := r.Deal(access.User{}, "NOPE"); !errors.Is(err, synopsis.ErrNotFound) {
			t.Fatalf("Deal err = %v, want ErrNotFound", err)
		}
	}
	if primary.served.Load() != 0 {
		t.Fatalf("not-found answers failed over to primary %d times", primary.served.Load())
	}
	if st := r.Status(); st[1].BreakerOpen {
		t.Fatal("not-found answers opened the breaker")
	}
}

func TestRouterDrain(t *testing.T) {
	r1, r2 := newFakeNode("r1"), newFakeNode("r2")
	r, _ := newTestRouter(Options{}, r1, r2)
	if err := r.DrainWait(context.Background(), "r1"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		search(t, r)
	}
	if r1.served.Load() != 0 {
		t.Fatalf("draining replica served %d reads", r1.served.Load())
	}
	if r2.served.Load() != 4 {
		t.Fatalf("remaining replica served %d, want 4", r2.served.Load())
	}
	r.SetDraining("r1", false)
	search(t, r)
	if r1.served.Load() != 1 {
		t.Fatal("undrained replica not restored to rotation")
	}
}

func TestRouterInFlightCap(t *testing.T) {
	r1 := newFakeNode("r1")
	r, _ := newTestRouter(Options{MaxInFlight: 1}, r1)
	// Saturate the only replica and the primary by hand.
	r.replicas[0].inflight.Store(1)
	r.primary.inflight.Store(1)
	if _, err := r.SearchCtx(context.Background(), access.User{}, core.FormQuery{}); !errors.Is(err, ErrNoNodes) {
		t.Fatalf("err = %v, want ErrNoNodes", err)
	}
	r.primary.inflight.Store(0)
	search(t, r) // primary absorbs once it has capacity
}

func TestRouterUnreadyReplicaSkipped(t *testing.T) {
	r1 := newFakeNode("r1")
	r1.ready.Store(false)
	r, primary := newTestRouter(Options{}, r1)
	search(t, r)
	if r1.served.Load() != 0 || primary.served.Load() != 1 {
		t.Fatalf("r1=%d primary=%d, want 0/1", r1.served.Load(), primary.served.Load())
	}
}
