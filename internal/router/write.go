// Package router holds the write router: the one place a failover node's
// mutations find the current primary, queue through a promotion window,
// and fail crisply past it. Reads need no router; every node answers them,
// and a balancer in front of the group polls each node's /readyz.
package router

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/docmodel"
	"repro/internal/obs"
	"repro/internal/serving"
)

// WritePrimary is the mutation surface the write router follows: whichever
// backend currently holds the write lease.
type WritePrimary = serving.Writer

// ErrNoPrimary means no primary appeared within the promotion window.
var ErrNoPrimary = errors.New("router: no write primary")

// ErrWriteQueueFull means the promotion-window queue hit its bound; the
// caller should back off rather than pile on.
var ErrWriteQueueFull = errors.New("router: write queue full")

// UnavailableError is a crisp write refusal with a retry hint. The web
// layer maps it to 503 + Retry-After.
type UnavailableError struct {
	Err        error // ErrNoPrimary or ErrWriteQueueFull
	RetryAfter time.Duration
}

func (e *UnavailableError) Error() string {
	return fmt.Sprintf("%v (retry after %s)", e.Err, e.RetryAfter)
}

func (e *UnavailableError) Unwrap() error { return e.Err }

// WriteOptions tunes write routing.
type WriteOptions struct {
	// QueueWait is how long a mutation waits for a primary during the
	// promotion window before failing (0 = 3s).
	QueueWait time.Duration
	// QueueMax bounds how many mutations may wait at once (0 = 256).
	QueueMax int
	// RetryAfter is the hint attached to refusals (0 = QueueWait).
	RetryAfter time.Duration
	// IsFenced reports whether a primary error means it lost the write
	// lease mid-call: the router forgets that primary and the mutation
	// re-queues for the one being promoted. nil treats no error as fencing.
	IsFenced func(error) bool
	// Metrics receives eil_write_router_* telemetry; nil disables.
	Metrics *obs.Registry
}

// WriteRouter serializes "who is the primary" for mutations: they either
// follow the current primary, wait briefly while a promotion is in flight,
// or fail crisply with a retry hint. SetPrimary(nil) opens the promotion window;
// SetPrimary(p, epoch) closes it and wakes every queued mutation.
type WriteRouter struct {
	opts WriteOptions

	mu      sync.Mutex
	primary WritePrimary
	epoch   uint64
	waiters int
	changed chan struct{} // closed (and replaced) on every SetPrimary
}

// NewWriteRouter starts with no primary: the promotion window is open
// until the first SetPrimary.
func NewWriteRouter(opts WriteOptions) *WriteRouter {
	if opts.QueueWait <= 0 {
		opts.QueueWait = 3 * time.Second
	}
	if opts.QueueMax <= 0 {
		opts.QueueMax = 256
	}
	if opts.RetryAfter <= 0 {
		opts.RetryAfter = opts.QueueWait
	}
	return &WriteRouter{opts: opts, changed: make(chan struct{})}
}

// SetPrimary installs the node mutations follow, tagged with its fencing
// epoch. nil opens the promotion window: mutations queue (bounded, with
// deadline) until a new primary lands. A stale epoch is refused — a
// resurrected ex-primary must not reclaim the write path.
func (wr *WriteRouter) SetPrimary(p WritePrimary, epoch uint64) bool {
	wr.mu.Lock()
	defer wr.mu.Unlock()
	if p != nil && epoch < wr.epoch {
		return false
	}
	wr.primary = p
	if epoch > wr.epoch {
		wr.epoch = epoch
	}
	close(wr.changed)
	wr.changed = make(chan struct{})
	return true
}

// WriteStatus is the router's view for status surfaces.
type WriteStatus struct {
	HasPrimary bool   `json:"has_primary"`
	Epoch      uint64 `json:"epoch"`
	Waiters    int    `json:"waiters"`
}

// Status reports whether a primary is installed, at what epoch, and how
// many mutations are queued in the promotion window.
func (wr *WriteRouter) Status() WriteStatus {
	wr.mu.Lock()
	defer wr.mu.Unlock()
	return WriteStatus{HasPrimary: wr.primary != nil, Epoch: wr.epoch, Waiters: wr.waiters}
}

// Epoch returns the epoch of the last installed primary.
func (wr *WriteRouter) Epoch() uint64 {
	wr.mu.Lock()
	defer wr.mu.Unlock()
	return wr.epoch
}

func (wr *WriteRouter) refuse(op string, sentinel error) error {
	if wr.opts.Metrics != nil {
		reason := "no_primary"
		if errors.Is(sentinel, ErrWriteQueueFull) {
			reason = "queue_full"
		}
		wr.opts.Metrics.Counter("eil_write_router_refused_total", "op", op, "reason", reason).Inc()
	}
	return &UnavailableError{Err: sentinel, RetryAfter: wr.opts.RetryAfter}
}

// do runs one mutation against the current primary, queueing through the
// promotion window and re-queueing (within the same deadline) when the
// primary turns out to be fenced mid-call.
func (wr *WriteRouter) do(op string, fn func(WritePrimary) error) error {
	deadline := time.Now().Add(wr.opts.QueueWait)
	for {
		wr.mu.Lock()
		p := wr.primary
		ch := wr.changed
		if p == nil {
			if wr.waiters >= wr.opts.QueueMax {
				wr.mu.Unlock()
				return wr.refuse(op, ErrWriteQueueFull)
			}
			wr.waiters++
			wr.mu.Unlock()
			if wr.opts.Metrics != nil {
				wr.opts.Metrics.Counter("eil_write_router_queued_total", "op", op).Inc()
			}
			wait := time.Until(deadline)
			var timedOut bool
			if wait <= 0 {
				timedOut = true
			} else {
				t := time.NewTimer(wait)
				select {
				case <-ch:
					t.Stop()
				case <-t.C:
					timedOut = true
				}
			}
			wr.mu.Lock()
			wr.waiters--
			wr.mu.Unlock()
			if timedOut {
				return wr.refuse(op, ErrNoPrimary)
			}
			continue
		}
		wr.mu.Unlock()

		err := fn(p)
		if err != nil && wr.opts.IsFenced != nil && wr.opts.IsFenced(err) {
			// The primary lost the lease between SetPrimary and this call.
			// Forget it (unless a newer one already landed) and re-queue.
			if wr.opts.Metrics != nil {
				wr.opts.Metrics.Counter("eil_write_router_fenced_total", "op", op).Inc()
			}
			wr.mu.Lock()
			if wr.primary == p {
				wr.primary = nil
			}
			wr.mu.Unlock()
			continue
		}
		if err == nil && wr.opts.Metrics != nil {
			wr.opts.Metrics.Counter("eil_write_router_writes_total", "op", op).Inc()
		}
		return err
	}
}

// AddDocuments routes one ingest batch to the current primary.
func (wr *WriteRouter) AddDocuments(docs []*docmodel.Document) error {
	return wr.do("add", func(p WritePrimary) error { return p.AddDocuments(docs) })
}

// RemoveDeal routes a deal removal to the current primary.
func (wr *WriteRouter) RemoveDeal(dealID string) error {
	return wr.do("remove", func(p WritePrimary) error { return p.RemoveDeal(dealID) })
}

// Compact routes a compaction to the current primary.
func (wr *WriteRouter) Compact() error {
	return wr.do("compact", func(p WritePrimary) error { return p.Compact() })
}
