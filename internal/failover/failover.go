// Package failover implements fenced primary promotion over the WAL-
// shipping replication stack. Every node carries a fencing epoch — a
// monotone term persisted in a durable EPOCH record beside its journal. A
// supervisor detects primary loss via missed heartbeats, elects the
// replica with the highest (epoch, replication position), and promotes it
// under a bumped epoch; the old epoch is fenced, so a resurrected primary
// finds its writes and ship streams refused with ErrFenced and demotes
// itself back to follower. Cross-process deployments coordinate the same
// protocol through a lease file (lease.go) instead of direct handles.
package failover

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// ErrFenced marks a mutation or ship stream refused because the node's
// epoch is stale: a newer primary exists. Callers must stop writing here
// and re-resolve the primary.
var ErrFenced = errors.New("failover: fenced: stale epoch")

// FencedError carries the epochs behind an ErrFenced refusal.
type FencedError struct {
	Mine    uint64 // the epoch the refused writer believed in
	Current uint64 // the newer epoch that fenced it (0 if unknown)
}

func (e *FencedError) Error() string {
	return fmt.Sprintf("failover: fenced: epoch %d superseded by %d", e.Mine, e.Current)
}

func (e *FencedError) Is(target error) bool { return target == ErrFenced }

// IsFenced reports whether err is a fencing refusal.
func IsFenced(err error) bool { return errors.Is(err, ErrFenced) }

// Roles a node reports.
const (
	RolePrimary   = "primary"
	RoleFollower  = "follower"
	RoleFenced    = "fenced"
	RolePromoting = "promoting"
)

// NodeStatus is one node's failover view.
type NodeStatus struct {
	Role       string    `json:"role"`
	Epoch      uint64    `json:"epoch"`
	Gen        uint64    `json:"gen"`
	Seq        uint64    `json:"seq"`
	PromotedAt time.Time `json:"promoted_at,omitempty"`
}

// Node is one supervised member: enough surface for the supervisor to
// detect loss, elect, promote, fence, and re-point. Hosts (eil.HANode, or
// a process wrapper in tests) implement it.
type Node interface {
	Name() string
	// Alive reports whether the node is serving at all. A dead node cannot
	// be promoted and does not receive fences (it gets fenced when it
	// resurrects and hellos with a stale epoch).
	Alive() bool
	Status() NodeStatus
	// ReplAddr is the address the node's shipper serves on (or would serve
	// on after promotion) — where survivors re-point.
	ReplAddr() string
	// Promote makes the node the primary under epoch: seal the WAL at the
	// current position, persist the bumped epoch, start shipping.
	Promote(epoch uint64) error
	// Fence tells a (possibly resurrected) stale primary that epoch
	// superseded it: refuse all writes, seal local history, demote to a
	// follower of primaryAddr.
	Fence(epoch uint64, primaryAddr string) error
	// Repoint re-targets a follower at the new primary's ship address.
	Repoint(addr string, epoch uint64) error
}

// Event is one supervisor decision, kept in a bounded ring for status
// surfaces and post-mortems.
type Event struct {
	At   time.Time `json:"at"`
	What string    `json:"what"`
}

// Options tunes the supervisor.
type Options struct {
	// Heartbeat is the poll interval (0 = 200ms).
	Heartbeat time.Duration
	// MissThreshold is how many consecutive dead polls of the primary
	// trigger failover (0 = 3).
	MissThreshold int
	// OnWindow fires when the supervisor declares the primary lost, before
	// election — the host opens the write router's promotion window here.
	OnWindow func()
	// OnPromote fires after a successful promotion with the winner and the
	// new epoch — the host installs the winner as the write target here.
	OnPromote func(winner Node, epoch uint64)
	// Logf receives supervisor decisions; nil discards.
	Logf func(format string, args ...any)
	// Metrics receives eil_failover_* telemetry; nil disables.
	Metrics *obs.Registry
}

// Supervisor watches a fixed member set, fails over when the primary goes
// quiet, and fences stale primaries that resurrect. One supervisor per
// replication group.
type Supervisor struct {
	opts  Options
	nodes []Node

	mu            sync.Mutex
	primary       Node
	epoch         uint64 // highest epoch the supervisor has witnessed
	misses        int
	promoting     bool
	lastPromotion time.Time
	events        []Event

	cancel context.CancelFunc
	done   chan struct{}
}

// NewSupervisor builds a supervisor over the member set. The current
// primary is discovered from node statuses on the first poll (or during
// the first failover if none claims the role).
func NewSupervisor(nodes []Node, opts Options) *Supervisor {
	if opts.Heartbeat <= 0 {
		opts.Heartbeat = 200 * time.Millisecond
	}
	if opts.MissThreshold <= 0 {
		opts.MissThreshold = 3
	}
	return &Supervisor{opts: opts, nodes: nodes}
}

func (s *Supervisor) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

func (s *Supervisor) event(format string, args ...any) {
	e := Event{At: time.Now(), What: fmt.Sprintf(format, args...)}
	s.events = append(s.events, e)
	if len(s.events) > 64 {
		s.events = s.events[len(s.events)-64:]
	}
	s.logf("failover: %s", e.What)
}

// Status summarizes the supervisor's view.
type Status struct {
	Primary       string    `json:"primary,omitempty"`
	Epoch         uint64    `json:"epoch"`
	Promoting     bool      `json:"promoting"`
	LastPromotion time.Time `json:"last_promotion,omitempty"`
	Events        []Event   `json:"events,omitempty"`
}

// Status reports the supervisor's current view.
func (s *Supervisor) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Status{Epoch: s.epoch, Promoting: s.promoting, LastPromotion: s.lastPromotion}
	if s.primary != nil {
		st.Primary = s.primary.Name()
	}
	st.Events = append(st.Events, s.events...)
	return st
}

// Start runs the poll loop until Close.
func (s *Supervisor) Start() {
	ctx, cancel := context.WithCancel(context.Background())
	s.mu.Lock()
	s.cancel = cancel
	s.done = make(chan struct{})
	done := s.done
	s.mu.Unlock()
	go func() {
		defer close(done)
		t := time.NewTicker(s.opts.Heartbeat)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				s.poll()
			}
		}
	}()
}

// Close stops the poll loop.
func (s *Supervisor) Close() {
	s.mu.Lock()
	cancel, done := s.cancel, s.done
	s.mu.Unlock()
	if cancel != nil {
		cancel()
		<-done
	}
}

// poll is one heartbeat round: track epochs, discover or confirm the
// primary, count misses, fence stale primaries, and fail over past the
// miss threshold.
func (s *Supervisor) poll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.promoting {
		return
	}

	// Witness every alive node's epoch; discover the primary if unknown.
	var stale []Node
	for _, n := range s.nodes {
		if !n.Alive() {
			continue
		}
		st := n.Status()
		if st.Epoch > s.epoch {
			s.epoch = st.Epoch
		}
		if st.Role == RolePrimary {
			if s.primary == nil {
				s.primary = n
				s.misses = 0
				s.event("adopted %s as primary (epoch %d)", n.Name(), st.Epoch)
			} else if n != s.primary && st.Epoch < s.currentPrimaryEpoch() {
				stale = append(stale, n)
			}
		}
	}

	// Fence resurrected stale primaries: they answer polls again but their
	// epoch predates the last promotion.
	for _, n := range stale {
		s.fenceLocked(n)
	}

	if s.primary == nil {
		return
	}
	if s.primary.Alive() {
		s.misses = 0
		return
	}
	s.misses++
	if s.misses < s.opts.MissThreshold {
		return
	}
	s.event("primary %s missed %d heartbeats; failing over", s.primary.Name(), s.misses)
	if s.opts.Metrics != nil {
		s.opts.Metrics.Counter("eil_failover_detections_total").Inc()
	}
	s.failoverLocked(nil)
}

func (s *Supervisor) currentPrimaryEpoch() uint64 {
	if s.primary != nil && s.primary.Alive() {
		return s.primary.Status().Epoch
	}
	return s.epoch
}

func (s *Supervisor) fenceLocked(n Node) {
	addr := ""
	if s.primary != nil {
		addr = s.primary.ReplAddr()
	}
	if err := n.Fence(s.epoch, addr); err != nil {
		s.event("fencing %s at epoch %d failed: %v", n.Name(), s.epoch, err)
		return
	}
	s.event("fenced resurrected primary %s at epoch %d", n.Name(), s.epoch)
	if s.opts.Metrics != nil {
		s.opts.Metrics.Counter("eil_failover_fences_total").Inc()
	}
}

// Promote triggers a manual failover (the /api/promote path): the current
// primary — if still alive — is fenced, and the best candidate (or the
// named one) takes over under a bumped epoch.
func (s *Supervisor) Promote(target string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.promoting {
		return errors.New("failover: promotion already in flight")
	}
	var want Node
	if target != "" {
		for _, n := range s.nodes {
			if n.Name() == target {
				want = n
				break
			}
		}
		if want == nil {
			return fmt.Errorf("failover: unknown node %q", target)
		}
		if want == s.primary {
			return fmt.Errorf("failover: %s is already the primary", target)
		}
	}
	s.event("manual promotion requested (target %q)", target)
	return s.failoverLocked(want)
}

// failoverLocked runs the election + promotion under s.mu. want, when
// non-nil, overrides the election (manual promotion).
func (s *Supervisor) failoverLocked(want Node) error {
	s.promoting = true
	defer func() { s.promoting = false }()
	if s.opts.OnWindow != nil {
		s.opts.OnWindow()
	}

	oldPrimary := s.primary

	// Election: among alive non-primary candidates, highest (epoch, seq)
	// wins — it has the longest surviving history of the newest lineage.
	type cand struct {
		n  Node
		st NodeStatus
	}
	var cands []cand
	for _, n := range s.nodes {
		if n == oldPrimary || !n.Alive() {
			continue
		}
		st := n.Status()
		if st.Epoch > s.epoch {
			s.epoch = st.Epoch
		}
		cands = append(cands, cand{n, st})
	}
	if len(cands) == 0 {
		s.event("failover aborted: no alive candidate")
		return errors.New("failover: no alive candidate")
	}
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].st.Epoch != cands[j].st.Epoch {
			return cands[i].st.Epoch > cands[j].st.Epoch
		}
		return cands[i].st.Seq > cands[j].st.Seq
	})
	winner := cands[0]
	if want != nil {
		for _, c := range cands {
			if c.n == want {
				winner = c
				break
			}
		}
		if winner.n != want {
			return fmt.Errorf("failover: target %s is not an alive candidate", want.Name())
		}
	}

	newEpoch := s.epoch + 1
	s.event("promoting %s (epoch %d seq %d) under epoch %d", winner.n.Name(), winner.st.Epoch, winner.st.Seq, newEpoch)
	if err := winner.n.Promote(newEpoch); err != nil {
		s.event("promotion of %s failed: %v", winner.n.Name(), err)
		if s.opts.Metrics != nil {
			s.opts.Metrics.Counter("eil_failover_promotion_failures_total").Inc()
		}
		return fmt.Errorf("failover: promote %s: %w", winner.n.Name(), err)
	}
	s.epoch = newEpoch
	s.primary = winner.n
	s.misses = 0
	s.lastPromotion = time.Now()
	if s.opts.Metrics != nil {
		s.opts.Metrics.Counter("eil_failover_promotions_total").Inc()
	}

	// Fence the old primary if it is still (or again) answering, then
	// re-point the surviving followers at the winner.
	addr := winner.n.ReplAddr()
	if oldPrimary != nil && oldPrimary.Alive() {
		s.fenceLocked(oldPrimary)
	}
	for _, c := range cands {
		if c.n == winner.n {
			continue
		}
		if err := c.n.Repoint(addr, newEpoch); err != nil {
			s.event("repointing %s at %s failed: %v", c.n.Name(), addr, err)
		} else {
			s.event("repointed %s at %s (epoch %d)", c.n.Name(), addr, newEpoch)
		}
	}
	if s.opts.OnPromote != nil {
		s.opts.OnPromote(winner.n, newEpoch)
	}
	s.event("promotion complete: %s is primary at epoch %d", winner.n.Name(), newEpoch)
	return nil
}
