// Package trace is EIL's request-scoped tracing layer: trace IDs,
// hierarchical spans with durations and attributes, context.Context
// propagation, and bounded retention of completed traces (a lock-free ring
// of recent traces plus a keeper of the slowest traces per route).
//
// Where internal/obs aggregates — p99 says *that* a stage regressed — trace
// answers *which request*: every search carries a span tree (compose,
// synopsis query, SIAPI query, rank-combine, access filter) whose
// attributes record candidate counts, cache hits, and scoping decisions,
// and the ingest pipeline samples per-document traces so one pathological
// workbook is attributable. Stage histograms link back through OpenMetrics
// exemplars carrying the trace ID.
//
// Like obs, everything is nil-safe: a nil *Tracer starts no traces, a
// context without a trace yields a nil *Span, and every method on a nil
// *Span is a no-op — instrumented code never branches on "is tracing on".
package trace

import (
	"context"
	"math/rand/v2"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Defaults for Options fields left zero.
const (
	DefRingSize     = 1024 // completed traces retained in the ring (the query log's window)
	DefSlowPerRoute = 8    // worst traces kept per route
)

// Options configures a Tracer.
type Options struct {
	// RingSize bounds the ring of recent completed traces (0 = DefRingSize).
	RingSize int
	// SlowPerRoute bounds the worst-trace keeper per route (0 =
	// DefSlowPerRoute).
	SlowPerRoute int
	// SampleEvery keeps 1 in N started traces (0 or 1 = every trace).
	// Forced starts (inbound trace IDs, explain mode) bypass sampling.
	SampleEvery int
}

// Tracer creates traces and retains completed ones. A nil *Tracer is a
// valid no-op source.
type Tracer struct {
	opts   Options
	ring   *ring
	slow   *slowKeeper
	seq    atomic.Uint64 // sampling counter
	idBase uint64        // per-process random base for trace IDs
	idSeq  atomic.Uint64
}

// New returns a tracer with the given options.
func New(opts Options) *Tracer {
	if opts.RingSize <= 0 {
		opts.RingSize = DefRingSize
	}
	if opts.SlowPerRoute <= 0 {
		opts.SlowPerRoute = DefSlowPerRoute
	}
	return &Tracer{
		opts:   opts,
		ring:   newRing(opts.RingSize),
		slow:   newSlowKeeper(opts.SlowPerRoute),
		idBase: rand.Uint64(),
	}
}

// newID mints a trace ID: 16 hex digits, unique within the process and
// unpredictable across processes (random base xor a counter).
func (t *Tracer) newID() string {
	n := t.idBase ^ (t.idSeq.Add(1) * 0x9e3779b97f4a7c15) // Fibonacci hashing spreads the counter
	buf := make([]byte, 0, 16)
	for i := 60; i >= 0; i -= 4 {
		buf = append(buf, "0123456789abcdef"[(n>>uint(i))&0xf])
	}
	return string(buf)
}

// StartOptions tunes one trace start.
type StartOptions struct {
	// ID adopts an inbound trace ID (e.g. the X-Trace-ID request header)
	// instead of minting one. Adopted traces bypass sampling.
	ID string
	// Force bypasses sampling (explain mode must always trace).
	Force bool
}

// Start begins a trace rooted at a span named route and returns a context
// carrying the root span. When the tracer is nil or sampling drops the
// trace, the original context and a nil *Trace come back — all downstream
// span calls are then no-ops.
func (t *Tracer) Start(ctx context.Context, route string, opts StartOptions) (context.Context, *Trace) {
	if t == nil {
		return ctx, nil
	}
	if opts.ID == "" && !opts.Force && t.opts.SampleEvery > 1 {
		if t.seq.Add(1)%uint64(t.opts.SampleEvery) != 0 {
			return ctx, nil
		}
	}
	id := opts.ID
	if id == "" {
		id = t.newID()
	}
	tr := &Trace{ID: id, Route: route, Start: time.Now(), tracer: t}
	root := &Span{tr: tr, id: 0, parent: -1, Name: route, Start: tr.Start}
	tr.spans = append(tr.spans, root)
	return context.WithValue(ctx, ctxKey{}, root), tr
}

// Finish ends tr's root span (if still open: a Duration the caller set on
// the root is kept), freezes the trace duration, and hands the trace to the
// ring and the slow keeper. Safe to call once per trace; later calls are
// no-ops.
func (tr *Trace) Finish() {
	if tr == nil || !tr.done.CompareAndSwap(false, true) {
		return
	}
	root := tr.spans[0]
	if root.Duration == 0 {
		root.End()
	}
	tr.Duration = root.Duration
	if t := tr.tracer; t != nil {
		t.ring.put(tr)
		t.slow.offer(tr)
	}
}

// Recent returns up to n recently completed traces, newest first (n <= 0
// means all retained).
func (t *Tracer) Recent(n int) []*Trace {
	if t == nil {
		return nil
	}
	out := t.ring.snapshot()
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// Slowest returns the retained worst traces, slowest first. route == ""
// merges all routes.
func (t *Tracer) Slowest(route string) []*Trace {
	if t == nil {
		return nil
	}
	return t.slow.slowest(route)
}

// Find returns a retained trace by ID (ring first, then the slow keeper),
// or nil.
func (t *Tracer) Find(id string) *Trace {
	if t == nil || id == "" {
		return nil
	}
	for _, tr := range t.ring.snapshot() {
		if tr.ID == id {
			return tr
		}
	}
	for _, tr := range t.slow.slowest("") {
		if tr.ID == id {
			return tr
		}
	}
	return nil
}

// Trace is one request's span collection. Spans are stored flat with
// parent indices (append is O(1) and lock cost is one mutex op); Tree
// reconstructs the hierarchy for rendering.
type Trace struct {
	ID       string
	Route    string
	Start    time.Time
	Duration time.Duration

	tracer *Tracer
	mu     sync.Mutex
	spans  []*Span
	done   atomic.Bool
}

// newSpan appends a child span under parent.
func (tr *Trace) newSpan(name string, parent int) *Span {
	s := &Span{tr: tr, parent: parent, Name: name, Start: time.Now()}
	tr.mu.Lock()
	s.id = len(tr.spans)
	tr.spans = append(tr.spans, s)
	tr.mu.Unlock()
	return s
}

// Spans returns a snapshot of the trace's spans in creation order.
func (tr *Trace) Spans() []*Span {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	out := make([]*Span, len(tr.spans))
	copy(out, tr.spans)
	tr.mu.Unlock()
	return out
}

// Attr is one span attribute, pre-rendered to a string so spans never hold
// live references into engine state.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed operation within a trace. A span is written by the
// goroutine that created it; concurrent readers only see it after End (or
// through Tree's in-progress rendering, which tolerates a zero Duration).
type Span struct {
	tr     *Trace
	id     int
	parent int

	Name     string
	Start    time.Time
	Duration time.Duration
	Attrs    []Attr
}

type ctxKey struct{}

// FromContext returns the active span, or nil when the context carries no
// trace.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// ID returns the trace ID carried by ctx, or "".
func ID(ctx context.Context) string {
	if s := FromContext(ctx); s != nil {
		return s.tr.ID
	}
	return ""
}

// StartSpan opens a child span under the context's active span and returns
// a context in which the child is active. Without a trace in ctx it
// returns ctx unchanged and a nil span (whose End/Set* are no-ops), so the
// untraced hot path costs one context lookup.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	s := parent.tr.newSpan(name, parent.id)
	return context.WithValue(ctx, ctxKey{}, s), s
}

// End freezes the span's duration. Idempotent in practice: a second End
// overwrites with a longer duration, which only happens on misuse.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.Duration = time.Since(s.Start)
}

// Trace returns the owning trace (nil on a nil span).
func (s *Span) Trace() *Trace {
	if s == nil {
		return nil
	}
	return s.tr
}

// Set attaches a string attribute.
func (s *Span) Set(key, value string) {
	if s == nil {
		return
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Value: value})
}

// SetInt attaches an integer attribute.
func (s *Span) SetInt(key string, v int) {
	if s == nil {
		return
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Value: strconv.Itoa(v)})
}

// SetBool attaches a boolean attribute.
func (s *Span) SetBool(key string, v bool) {
	if s == nil {
		return
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Value: strconv.FormatBool(v)})
}
