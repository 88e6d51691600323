// Package router fans read traffic across a primary and its read
// replicas. Writes and admin surfaces pass through to the primary backend
// untouched; searches, keyword queries, explores, similar-deal lookups,
// and deal fetches rotate across every node that is healthy, fresh enough
// (staleness bound on WAL-position lag), under its in-flight cap, not
// draining, and whose breaker is closed — with the primary as the
// guaranteed last resort, so a read is only refused when the primary
// itself fails it.
package router

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serving"
	"repro/internal/siapi"
	"repro/internal/synopsis"
)

// Backend is the primary's pass-through surface: what the HTTP handler
// needs, so a Router can stand wherever a single backend would.
type Backend = serving.Frontend

// Node is one read-serving endpoint: the primary or a replica. Lag is the
// node's distance behind the primary in WAL records (ok=false while
// unknown — e.g. a replica that has not heard a heartbeat yet); the
// primary reports (0, true).
type Node interface {
	Name() string
	Lag() (uint64, bool)
	serving.Queries
}

// primaryNode is a primary's Node view: the backend itself, named, never
// behind.
type primaryNode struct {
	serving.Queries
	name string
}

func (n primaryNode) Name() string        { return n.name }
func (n primaryNode) Lag() (uint64, bool) { return 0, true }

// PrimaryNode adapts a primary — a system, a cluster — as the router's
// primary node.
func PrimaryNode(name string, primary serving.Queries) Node { return primaryNode{primary, name} }

// Options tunes routing policy.
type Options struct {
	// MaxLag is the staleness bound: a replica more than this many WAL
	// records behind the primary is skipped for reads (0 = no bound).
	MaxLag uint64
	// PrimaryReads includes the primary in the read rotation (it always
	// remains the failover target regardless).
	PrimaryReads bool
	// MaxInFlight caps concurrent routed reads per node (0 = unbounded).
	// A node at its cap is skipped, not queued.
	MaxInFlight int
	// BreakerThreshold is how many consecutive failures open a node's
	// breaker (0 = 3).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects a node before
	// one probe is allowed through (0 = 5s).
	BreakerCooldown time.Duration
	// Metrics receives eil_repl_router_* telemetry; nil disables.
	Metrics *obs.Registry
}

// ErrNoNodes means every node (including the primary) was skipped by
// admission control — the cluster is saturated, not broken.
var ErrNoNodes = errors.New("router: no node admitted the read")

// nodeState is the router's per-node book-keeping: admission count,
// circuit breaker (the search engine's, see core.Breaker), and drain flag.
type nodeState struct {
	node     Node
	primary  bool
	inflight atomic.Int64
	breaker  *core.Breaker
	draining atomic.Bool
}

// NodeStatus is one node's routing view, for status surfaces.
type NodeStatus struct {
	Name        string  `json:"name"`
	Primary     bool    `json:"primary"`
	Ready       bool    `json:"ready"`
	Lag         *uint64 `json:"lag_records,omitempty"`
	InFlight    int64   `json:"in_flight"`
	BreakerOpen bool    `json:"breaker_open"`
	HalfOpen    bool    `json:"breaker_half_open,omitempty"`
	Draining    bool    `json:"draining"`
}

// Router is a serving.Frontend whose routable reads fan out across nodes.
// Everything else (SearchExplain, Ready, and the telemetry the HTTP layer
// reads) passes through to the primary backend.
type Router struct {
	Backend // the primary's full backend: pass-through surface

	primary  *nodeState
	replicas []*nodeState
	opts     Options
	rr       atomic.Uint64
}

// New builds a router over the primary (its full backend plus its Node
// view) and the given replicas.
func New(primaryBackend Backend, primary Node, replicas []Node, opts Options) *Router {
	if opts.BreakerThreshold <= 0 {
		opts.BreakerThreshold = 3
	}
	if opts.BreakerCooldown <= 0 {
		opts.BreakerCooldown = 5 * time.Second
	}
	r := &Router{
		Backend: primaryBackend,
		primary: &nodeState{node: primary, primary: true, breaker: core.NewBreaker(opts.BreakerThreshold, opts.BreakerCooldown)},
		opts:    opts,
	}
	for _, n := range replicas {
		r.replicas = append(r.replicas, &nodeState{node: n, breaker: core.NewBreaker(opts.BreakerThreshold, opts.BreakerCooldown)})
	}
	return r
}

// SetDraining marks a node as draining: no new reads route to it, but
// in-flight ones finish. The primary cannot drain (it is the last
// resort); draining it is a no-op.
func (r *Router) SetDraining(name string, v bool) {
	for _, ns := range r.replicas {
		if ns.node.Name() == name {
			ns.draining.Store(v)
		}
	}
}

// DrainWait marks the node draining and blocks until its in-flight reads
// hit zero or ctx expires.
func (r *Router) DrainWait(ctx context.Context, name string) error {
	r.SetDraining(name, true)
	for {
		settled := true
		for _, ns := range r.replicas {
			if ns.node.Name() == name && ns.inflight.Load() > 0 {
				settled = false
			}
		}
		if settled {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// Status reports every node's routing view, primary first.
func (r *Router) Status() []NodeStatus {
	all := append([]*nodeState{r.primary}, r.replicas...)
	out := make([]NodeStatus, 0, len(all))
	for _, ns := range all {
		breaker := ns.breaker.State()
		st := NodeStatus{
			Name:        ns.node.Name(),
			Primary:     ns.primary,
			Ready:       ns.node.Ready(),
			InFlight:    ns.inflight.Load(),
			BreakerOpen: breaker == core.BreakerOpen,
			HalfOpen:    breaker == core.BreakerHalfOpen,
			Draining:    ns.draining.Load(),
		}
		if lag, ok := ns.node.Lag(); ok {
			st.Lag = &lag
		}
		out = append(out, st)
	}
	return out
}

// eligible reports whether a replica may take a routed read right now.
func (r *Router) eligible(ns *nodeState) (ok bool, skip string) {
	if ns.draining.Load() {
		return false, "draining"
	}
	if ns.breaker.State() == core.BreakerOpen {
		return false, "breaker"
	}
	if !ns.node.Ready() {
		return false, "unready"
	}
	if !ns.primary && r.opts.MaxLag > 0 {
		lag, known := ns.node.Lag()
		if !known || lag > r.opts.MaxLag {
			return false, "stale"
		}
	}
	return true, ""
}

// candidates assembles this read's try-order: eligible replicas (and the
// primary, when it takes rotation reads) starting at the round-robin
// offset, with the primary appended as the unconditional failover tail.
func (r *Router) candidates() []*nodeState {
	rotation := make([]*nodeState, 0, len(r.replicas)+2)
	pool := r.replicas
	if r.opts.PrimaryReads {
		pool = append(append([]*nodeState{}, r.replicas...), r.primary)
	}
	if n := len(pool); n > 0 {
		start := int(r.rr.Add(1)-1) % n
		for i := 0; i < n; i++ {
			ns := pool[(start+i)%n]
			if ok, skip := r.eligible(ns); ok {
				rotation = append(rotation, ns)
			} else if r.opts.Metrics != nil && skip == "stale" {
				r.opts.Metrics.Counter("eil_repl_router_stale_skips_total", "node", ns.node.Name()).Inc()
			}
		}
	}
	// The primary always anchors the tail: a read never fails because
	// every replica was stale, draining, or broken.
	hasPrimary := false
	for _, ns := range rotation {
		if ns == r.primary {
			hasPrimary = true
			break
		}
	}
	if !hasPrimary {
		rotation = append(rotation, r.primary)
	}
	return rotation
}

// isDataError reports errors that are valid answers (the deal does not
// exist) rather than node failures — they return to the caller directly
// and never trip a breaker or cause failover.
func isDataError(err error) bool {
	return errors.Is(err, synopsis.ErrNotFound)
}

// admit claims a slot under the node's in-flight cap, then its breaker's
// admission: a half-open breaker serves exactly one probe request, and every
// other read skips the node until the probe's verdict is in. The cap comes
// first, so a read it turns away never holds the probe.
func (r *Router) admit(ns *nodeState) bool {
	if max := int64(r.opts.MaxInFlight); max > 0 {
		for {
			cur := ns.inflight.Load()
			if cur >= max {
				return false
			}
			if ns.inflight.CompareAndSwap(cur, cur+1) {
				break
			}
		}
	} else {
		ns.inflight.Add(1)
	}
	if !ns.breaker.Allow() {
		ns.inflight.Add(-1)
		return false
	}
	return true
}

// record feeds one admitted read's outcome to the node's breaker (nil for a
// node that answered) and counts the open or close it caused.
func (r *Router) record(ns *nodeState, err error) {
	switch ns.breaker.Record(err) {
	case core.BreakerOpen:
		r.opts.Metrics.Counter("eil_repl_router_breaker_opens_total", "node", ns.node.Name()).Inc()
	case core.BreakerClosed:
		r.opts.Metrics.Counter("eil_repl_router_breaker_closes_total", "node", ns.node.Name()).Inc()
	}
}

// do routes one read: try candidates in order, failing over on node
// errors, returning data errors as answers. Only admission (in-flight cap)
// can leave a read unserved once the primary is reached.
func (r *Router) do(ctx context.Context, op string, call func(Node) error) error {
	var lastErr error
	tried := 0
	for _, ns := range r.candidates() {
		if !r.admit(ns) {
			continue
		}
		if tried > 0 && r.opts.Metrics != nil {
			r.opts.Metrics.Counter("eil_repl_router_failovers_total", "op", op).Inc()
		}
		tried++
		err := func() error {
			defer ns.inflight.Add(-1)
			return call(ns.node)
		}()
		if err == nil || isDataError(err) {
			r.record(ns, nil)
			if r.opts.Metrics != nil {
				r.opts.Metrics.Counter("eil_repl_router_reads_total", "node", ns.node.Name(), "op", op).Inc()
			}
			return err
		}
		lastErr = err
		r.record(ns, err)
		if ctx != nil && ctx.Err() != nil {
			return err
		}
	}
	if lastErr == nil {
		lastErr = ErrNoNodes
	}
	return lastErr
}

// pick returns the first admitted candidate, for read methods that cannot
// report errors (failover is impossible without an error signal).
func (r *Router) pick(op string) (*nodeState, func()) {
	for _, ns := range r.candidates() {
		if !r.admit(ns) {
			continue
		}
		if r.opts.Metrics != nil {
			r.opts.Metrics.Counter("eil_repl_router_reads_total", "node", ns.node.Name(), "op", op).Inc()
		}
		return ns, func() {
			ns.inflight.Add(-1)
			// Error-less reads have no failure signal: a read that ran to
			// completion counts as the node answering, which closes a
			// half-open breaker.
			r.record(ns, nil)
		}
	}
	return nil, nil
}

// --- routed read methods (override the embedded primary backend) ---

func (r *Router) SearchCtx(ctx context.Context, user access.User, q core.FormQuery) (core.Result, error) {
	var res core.Result
	err := r.do(ctx, "search", func(n Node) error {
		var err error
		res, err = n.SearchCtx(ctx, user, q)
		return err
	})
	return res, err
}

func (r *Router) KeywordSearchCtx(ctx context.Context, query string, limit int) []siapi.DocHit {
	if ns, done := r.pick("keyword"); ns != nil {
		defer done()
		return ns.node.KeywordSearchCtx(ctx, query, limit)
	}
	return r.Backend.KeywordSearchCtx(ctx, query, limit)
}

func (r *Router) KeywordCount(query string) int {
	if ns, done := r.pick("keyword_count"); ns != nil {
		defer done()
		return ns.node.KeywordCount(query)
	}
	return r.Backend.KeywordCount(query)
}

func (r *Router) ExploreCtx(ctx context.Context, user access.User, dealID string, q core.FormQuery) ([]siapi.DocHit, error) {
	var hits []siapi.DocHit
	err := r.do(ctx, "explore", func(n Node) error {
		var err error
		hits, err = n.ExploreCtx(ctx, user, dealID, q)
		return err
	})
	return hits, err
}

func (r *Router) SimilarDeals(user access.User, dealID string, k int) ([]synopsis.SimilarHit, error) {
	var hits []synopsis.SimilarHit
	err := r.do(nil, "similar", func(n Node) error {
		var err error
		hits, err = n.SimilarDeals(user, dealID, k)
		return err
	})
	return hits, err
}

func (r *Router) Deal(user access.User, dealID string) (synopsis.Deal, error) {
	var deal synopsis.Deal
	err := r.do(nil, "deal", func(n Node) error {
		var err error
		deal, err = n.Deal(user, dealID)
		return err
	})
	return deal, err
}
