package eil

// Fenced primary failover: the host-side glue between a System/Follower
// pair and the internal/failover elector. A System carries a fencing
// epoch — a monotone term persisted in the durable EPOCH record beside
// its journal — and every mutation passes the write guard, so a node a
// newer epoch has fenced refuses writes instead of forking history.
// promoteToPrimary turns a detached follower's state into the next
// primary: checkpoint at the promotion point, bump the epoch durably, and
// keep shipping from the state's own ship log so laggard survivors
// tail-resume. fence is the other side: seal the journal, persist the
// fencing mark, stop accepting writes. Both are steps of HANode, which
// wraps one node in either role and implements
// failover.Node for its elector plus the whole serving surface: reads
// and telemetry follow whichever role object is current; writes land on
// the live primary, wait out a follower's promotion window, and are
// refused with a FencedError past it.

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/access"
	"repro/internal/docmodel"
	"repro/internal/durable"
	"repro/internal/failover"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/repl"
	"repro/internal/serving"
	"repro/internal/trace"
)

// FenceEpoch reports the failover term this state last committed under
// (0 = never promoted, pre-failover lineage).
func (s *System) FenceEpoch() uint64 { return s.fenceEpoch.Load() }

// FencedBy reports the newer epoch that fenced this node (0 = not
// fenced). While nonzero every mutation is refused with FencedError.
func (s *System) FencedBy() uint64 { return s.fencedBy.Load() }

// EpochInfo reports the fencing coordinates the shipper reads through
// repl.Source: the current term plus the (previous term, sealed sequence)
// pair of the promotion that started it.
func (s *System) EpochInfo() repl.EpochInfo {
	s.upMu.Lock()
	defer s.upMu.Unlock()
	return repl.EpochInfo{Epoch: s.fenceEpoch.Load(), PrevEpoch: s.prevEpoch, SealedSeq: s.sealSeq}
}

// promoteToPrimary turns this (detached-follower) state into the primary
// for epoch. The current position is checkpointed first — the promotion
// point must be durable before the new term is — then the EPOCH record
// commits the bump with the seal coordinates, then the in-memory state
// takes the new term and stops being a replica, and the state's ship log,
// which holds the history it applied as a follower, announces the
// promotion checkpoint so survivors behind the seal tail-resume instead of
// re-bootstrapping. The caller completes the takeover with EnableWAL and a
// shipper.
func (s *System) promoteToPrimary(dir string, epoch uint64) error {
	s.upMu.Lock()
	defer s.upMu.Unlock()
	if s.wal != nil {
		return errors.New("eil: promote: node is already journaling (already a primary?)")
	}
	cur := s.fenceEpoch.Load()
	if epoch <= cur {
		return fmt.Errorf("eil: promote: epoch %d is not newer than %d", epoch, cur)
	}
	seal := s.seq.Load()
	// A primary's position coordinate is its own generation, not an
	// upstream one; clear it before the checkpoint records it.
	s.upstreamGen.Store(0)
	gen, err := s.checkpointLocked(dir)
	if err != nil {
		return fmt.Errorf("eil: promote: %w", err)
	}
	// The epoch bump is the acknowledgement of the promotion: once this
	// record is durable, a reboot comes back up as the epoch's primary.
	// Crashing before it leaves a durable follower checkpoint at the
	// promotion point under the old term — re-electable, nothing lost.
	if err := durable.WriteEpoch(nil, dir, durable.EpochRecord{Epoch: epoch, PrevEpoch: cur, SealedSeq: seal}); err != nil {
		return fmt.Errorf("eil: promote: %w", err)
	}
	s.prevEpoch, s.sealSeq = cur, seal
	s.fenceEpoch.Store(epoch)
	s.fencedBy.Store(0)
	s.replica.Store(false)
	// Announce the promotion checkpoint to tail-resuming survivors:
	// everything through the seal is folded into gen, their cue to
	// checkpoint locally at the new lineage's first generation.
	s.replLog.Append(repl.Entry{Seq: seal, Rotate: true, Gen: gen})
	return nil
}

// fence marks this node as superseded by the newer epoch: the journal is
// sealed at its current position (permanently — a seal survives rotation
// attempts), the fencing mark is persisted so a reboot comes back up
// refusing writes, and every subsequent mutation fails with FencedError
// until the node re-syncs as a follower of the new primary.
func (s *System) fence(newer uint64) error {
	s.upMu.Lock()
	defer s.upMu.Unlock()
	cur := s.fenceEpoch.Load()
	if newer <= cur {
		return fmt.Errorf("eil: fence: epoch %d is not newer than %d", newer, cur)
	}
	if s.fencedBy.Load() >= newer {
		return nil // already fenced at least this hard
	}
	s.fencedBy.Store(newer)
	if s.wal != nil {
		s.wal.Seal(fmt.Sprintf("fenced by epoch %d", newer))
	}
	if s.walDir != "" {
		if err := durable.WriteEpoch(nil, s.walDir, durable.EpochRecord{
			Epoch: cur, PrevEpoch: s.prevEpoch, SealedSeq: s.sealSeq, FencedBy: newer,
		}); err != nil {
			// The in-memory fence holds regardless; persisting it only
			// hardens restarts (an unfenced reboot would be re-fenced at
			// its first hello anyway).
			return fmt.Errorf("eil: fence: persist: %w", err)
		}
	}
	s.Metrics.Counter("eil_failover_node_fenced_total").Inc()
	return nil
}

// HANodeOptions configures one failover-managed host.
type HANodeOptions struct {
	// Name identifies the node in lease records and to its peers.
	Name string
	// Dir is the node's state directory (snapshots, journal, EPOCH).
	Dir string
	// ListenAddr is where the replication shipper binds when this node is
	// (or becomes) the primary, e.g. "127.0.0.1:0".
	ListenAddr string
	// SyncEvery paces journal fsyncs when primary (see EnableWAL).
	SyncEvery int
	// MaxLag bounds follower staleness (see FollowerOptions.MaxLag).
	MaxLag uint64
	// Access scopes reads (nil = everyone sees everything).
	Access *access.Controller
	// Metrics receives the node's telemetry (nil = fresh registry).
	Metrics *obs.Registry
	// Logf receives lifecycle logs (nil = silent).
	Logf func(format string, args ...any)
	// Faults, when set, wires the chaos seams into replication links.
	Faults *fault.Injector
}

// Writes that reach a follower wait out its promotion window: they land if
// the node is promoted within promotionWindow, and at most
// maxWindowWaiters of them wait at once.
const (
	promotionWindow  = 3 * time.Second
	maxWindowWaiters = 256
)

// HANode is one member of a replication group: a System serving as primary
// (or sitting fenced) or a Follower replicating from the current primary.
// It implements failover.Node for its elector and serving.Backend for the
// HTTP layer; the elector drives every role transition. The embedded
// Switch resolves the role object through an atomic pointer, so a read
// never takes the node's lock and the readiness checks are always the
// current role's.
type HANode struct {
	serving.Switch

	opts HANodeOptions

	// serve is the role object requests resolve to: the System or Follower
	// last installed under mu. Close leaves it in place, so reads in the
	// shutdown window answer from the last state; writes go through
	// writeSys, which a closed node refuses.
	serve atomic.Pointer[serving.Backend]

	mu       sync.Mutex
	settings *serving.Settings // nil until Tune; applied to every new role object
	// changed is closed and replaced at every role change and at Close,
	// waking the writes that wait out the promotion window; waiters counts
	// them.
	changed     chan struct{}
	waiters     int
	role        string
	sys         *System   // primary / fenced role
	fol         *Follower // follower role
	shipper     *repl.Shipper
	addr        string // last bound replication address
	primaryAddr string // upstream, while follower
	promotedAt  time.Time
}

func newHANode(opts HANodeOptions, tracer *trace.Tracer) *HANode {
	metrics := opts.Metrics
	if metrics == nil {
		metrics = obs.NewRegistry()
	}
	h := &HANode{opts: opts, changed: make(chan struct{})}
	h.Switch = serving.NewSwitch(metrics, tracer, h.current)
	return h
}

// setRoleLocked moves the node to role and wakes the writes waiting out the
// promotion window. Caller holds h.mu.
func (h *HANode) setRoleLocked(role string) {
	h.role = role
	h.wakeLocked()
}

func (h *HANode) wakeLocked() {
	close(h.changed)
	h.changed = make(chan struct{})
}

// current resolves the Switch: the role object requests are served from.
func (h *HANode) current() (serving.Backend, error) {
	if b := h.serve.Load(); b != nil {
		return *b, nil
	}
	return nil, ErrNotSynced
}

// adoptLocked makes a freshly built role object (h.sys or h.fol, just set)
// the one requests resolve to, with the operator's settings applied before
// any request can reach it. Caller holds h.mu.
func (h *HANode) adoptLocked(b serving.Backend) {
	if h.settings != nil {
		b.Tune(*h.settings)
	}
	h.serve.Store(&b)
}

// Tune installs the operator's settings on the current role object and on
// every one a later transition builds (serving.Admin).
func (h *HANode) Tune(set serving.Settings) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.settings = &set
	if b := h.serve.Load(); b != nil {
		(*b).Tune(set)
	}
}

// Save checkpoints a serving primary (serving.Admin). Any other role
// skips: a follower persists at the stream's rotation points, and a fenced
// node's journal is sealed.
func (h *HANode) Save(dir string) error {
	h.mu.Lock()
	sys := h.sys
	primary := h.role == failover.RolePrimary
	h.mu.Unlock()
	if !primary || sys == nil {
		return nil
	}
	return sys.Save(dir)
}

func (h *HANode) logf(format string, args ...any) {
	if h.opts.Logf != nil {
		h.opts.Logf(format, args...)
	}
}

// NewPrimaryHANode wraps an already-built System as the initial primary:
// its journal is enabled at opts.Dir (if not already) and its shipper
// starts serving on opts.ListenAddr. A System whose EPOCH record says it
// was fenced comes up in the fenced role and does not ship.
func NewPrimaryHANode(sys *System, opts HANodeOptions) (*HANode, error) {
	h := newHANode(opts, sys.Tracer)
	if enabled, _ := sys.WALProbe(); !enabled {
		if err := sys.EnableWAL(opts.Dir, opts.SyncEvery); err != nil {
			return nil, err
		}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sys = sys
	h.adoptLocked(sys)
	if sys.FencedBy() != 0 {
		h.role = failover.RoleFenced
		return h, nil
	}
	h.role = failover.RolePrimary
	if err := h.startShipperLocked(); err != nil {
		return nil, err
	}
	return h, nil
}

// NewFollowerHANode starts a node as a follower of primaryAddr.
func NewFollowerHANode(primaryAddr string, opts HANodeOptions) (*HANode, error) {
	h := newHANode(opts, nil)
	h.mu.Lock()
	defer h.mu.Unlock()
	if err := h.startFollowerLocked(primaryAddr); err != nil {
		return nil, err
	}
	return h, nil
}

// startShipperLocked binds the replication listener and starts shipping
// from h.sys. Caller holds h.mu and has set h.sys.
func (h *HANode) startShipperLocked() error {
	lis, err := net.Listen("tcp", h.opts.ListenAddr)
	if err != nil {
		return fmt.Errorf("eil: ha %s: %w", h.opts.Name, err)
	}
	sh, err := shipShards(map[string]*System{"": h.sys}, lis, h.sys.Metrics, h.opts.Faults, h.onFenced)
	if err != nil {
		_ = lis.Close()
		return err
	}
	h.addr, h.shipper = lis.Addr().String(), sh
	return nil
}

// startFollowerLocked (re)starts replication from addr, discarding any
// primary-role state first. Caller holds h.mu.
func (h *HANode) startFollowerLocked(addr string) error {
	if h.sys != nil {
		_ = h.sys.CloseWAL() // sealed or not, release the journal handle
		h.sys = nil
	}
	fol, err := StartFollower(FollowerOptions{
		Dir:     h.opts.Dir,
		Addr:    addr,
		Name:    h.opts.Name,
		MaxLag:  h.opts.MaxLag,
		Access:  h.opts.Access,
		Metrics: h.Registry(),
		Tracer:  h.RequestTracer(),
		Logf:    h.opts.Logf,
		Faults:  h.opts.Faults,
	})
	if err != nil {
		return err
	}
	h.fol = fol
	h.adoptLocked(fol)
	h.primaryAddr = addr
	h.setRoleLocked(failover.RoleFollower)
	return nil
}

// onFenced is the shipper's callback: a peer's hello proved a newer
// epoch exists, so this node is the stale side of a partition. Writes
// stop immediately; the elector's Fence call (or a Repoint) finishes
// the demotion. The shipper is closed asynchronously — it is the caller.
func (h *HANode) onFenced(newer uint64) {
	h.mu.Lock()
	if h.role != failover.RolePrimary {
		h.mu.Unlock()
		return
	}
	sys, sh := h.sys, h.shipper
	h.setRoleLocked(failover.RoleFenced)
	h.shipper = nil
	h.mu.Unlock()
	h.logf("eil: ha %s: fenced by epoch %d, demoting", h.opts.Name, newer)
	if sys != nil {
		_ = sys.fence(newer)
	}
	if sh != nil {
		go sh.Close()
	}
}

// Name identifies the node (failover.Node).
func (h *HANode) Name() string { return h.opts.Name }

// Role reports the node's current failover role.
func (h *HANode) Role() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.role
}

// System returns the primary-role state (nil while a follower).
func (h *HANode) System() *System {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sys
}

// Follower returns the follower-role replica (nil while primary).
func (h *HANode) Follower() *Follower {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.fol
}

// Status reports the node's failover view (failover.Node).
func (h *HANode) Status() failover.NodeStatus {
	h.mu.Lock()
	sys, fol := h.sys, h.fol
	st := failover.NodeStatus{Role: h.role, PromotedAt: h.promotedAt}
	h.mu.Unlock()
	switch {
	case sys != nil:
		st.Epoch = sys.FenceEpoch()
		st.Gen = sys.Generation()
		_, st.Seq = sys.ReplPosition()
	case fol != nil:
		st.Epoch = fol.FenceEpoch()
		st.Gen, st.Seq = fol.Position()
	}
	return st
}

// ShipperStatus reports the connected followers' view while this node is
// shipping (nil in any other role) — the /api/repl payload's follower list.
func (h *HANode) ShipperStatus() []repl.FollowerStatus {
	h.mu.Lock()
	sh := h.shipper
	h.mu.Unlock()
	if sh == nil {
		return nil
	}
	return sh.Status()
}

// ReplAddr reports where this node's shipper serves, or last served
// (failover.Node). Empty until the node has been a primary.
func (h *HANode) ReplAddr() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.addr
}

// Promote makes this follower the primary under epoch (failover.Node):
// detach from the dead primary's stream, seal-and-bump via
// promoteToPrimary, enable the journal, and start shipping. A promotion
// that fails before the state is installed leaves the node a follower that
// holds its detached state, so its elector claims again once the lease
// goes stale; a later Repoint restarts its stream.
func (h *HANode) Promote(epoch uint64) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.role == failover.RolePrimary {
		return fmt.Errorf("eil: ha %s: already primary", h.opts.Name)
	}
	if h.fol == nil {
		return fmt.Errorf("eil: ha %s: no follower state to promote", h.opts.Name)
	}
	// The stream is detached from here on: the upstream is forgotten, so a
	// Repoint at any address restarts it.
	h.primaryAddr = ""
	sys, err := h.fol.detach()
	if err != nil {
		return fmt.Errorf("eil: ha %s: %w", h.opts.Name, err)
	}
	if err := sys.promoteToPrimary(h.opts.Dir, epoch); err != nil {
		return err
	}
	if err := sys.EnableWAL(h.opts.Dir, h.opts.SyncEvery); err != nil {
		return err
	}
	h.sys, h.fol = sys, nil
	// The state already carries the settings — the follower applied them at
	// install — and reads that resolved it before the promotion may still be
	// running on it, so it is published as is.
	var promoted serving.Backend = sys
	h.serve.Store(&promoted)
	if err := h.startShipperLocked(); err != nil {
		h.setRoleLocked(failover.RoleFenced) // no follower state left to promote
		return err
	}
	h.setRoleLocked(failover.RolePrimary)
	h.promotedAt = time.Now()
	h.logf("eil: ha %s: promoted to primary at epoch %d (%s)", h.opts.Name, epoch, h.addr)
	return nil
}

// Fence tells a (possibly resurrected) stale primary that epoch
// superseded it (failover.Node): seal and mark the local state, stop
// shipping, and — when the new primary's address is known — rejoin as
// its follower, which re-syncs the divergent suffix away.
func (h *HANode) Fence(epoch uint64, primaryAddr string) error {
	h.mu.Lock()
	if h.role == failover.RoleFollower {
		h.mu.Unlock()
		if primaryAddr != "" {
			return h.Repoint(primaryAddr, epoch)
		}
		return nil
	}
	sys, sh := h.sys, h.shipper
	h.setRoleLocked(failover.RoleFenced)
	h.shipper = nil
	h.mu.Unlock()
	if sh != nil {
		_ = sh.Close()
	}
	if sys != nil {
		if err := sys.fence(epoch); err != nil && sys.FencedBy() < epoch {
			return err
		}
	}
	if primaryAddr == "" {
		return nil // stays fenced until a Repoint names the new primary
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.startFollowerLocked(primaryAddr)
}

// Repoint re-targets the node at the new primary (failover.Node). A
// follower restarts its stream (its Close checkpoints, so it resumes by
// tailing); a fenced ex-primary rejoins as a follower and re-syncs.
func (h *HANode) Repoint(addr string, epoch uint64) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	switch h.role {
	case failover.RoleFollower:
		if h.primaryAddr == addr {
			return nil
		}
		if h.fol != nil {
			if err := h.fol.Close(); err != nil {
				h.logf("eil: ha %s: close before repoint: %v", h.opts.Name, err)
			}
			h.fol = nil
		}
		return h.startFollowerLocked(addr)
	case failover.RoleFenced:
		return h.startFollowerLocked(addr)
	}
	return nil
}

// Close shuts the node down: it stops shipping or following, releases the
// journal, and refuses every write from then on, the ones waiting out the
// promotion window included. A restart is a new node over the same
// directory: LoadSystem and NewPrimaryHANode, or NewFollowerHANode.
func (h *HANode) Close() error {
	h.mu.Lock()
	sys, fol, sh := h.sys, h.fol, h.shipper
	h.sys, h.fol, h.shipper = nil, nil, nil
	h.wakeLocked()
	h.mu.Unlock()
	if sh != nil {
		_ = sh.Close()
	}
	var first error
	if fol != nil {
		first = fol.Close()
	}
	if sys != nil {
		if err := sys.CloseWAL(); err != nil && first == nil && !errors.Is(err, durable.ErrSealed) {
			first = err
		}
	}
	return first
}

// writeSys returns the primary-role state for one mutation. A write that
// reaches a follower waits out the node's promotion window: it proceeds if
// the node is promoted in time, and is refused with a FencedError once the
// window passes, when maxWindowWaiters writes already wait, or as soon as
// the node is fenced or closed. failover.IsFenced is the one test for "not
// the write primary".
func (h *HANode) writeSys(op string) (*System, error) {
	var deadline time.Time
	h.mu.Lock()
	defer h.mu.Unlock()
	for {
		var reason string
		switch {
		case h.role == failover.RolePrimary && h.sys != nil:
			return h.sys, nil
		case h.fol == nil:
			reason = "fenced" // fenced or closed: no promotion is coming
		case !deadline.IsZero():
			if !time.Now().Before(deadline) {
				reason = "no_primary"
			}
		case h.waiters >= maxWindowWaiters:
			reason = "queue_full"
		default:
			deadline = time.Now().Add(promotionWindow)
			h.Registry().Counter("eil_write_router_queued_total", "op", op).Inc()
		}
		if reason != "" {
			h.Registry().Counter("eil_write_router_refused_total", "op", op, "reason", reason).Inc()
			var mine uint64
			if h.sys != nil {
				mine = h.sys.FenceEpoch()
			} else if h.fol != nil {
				mine = h.fol.FenceEpoch()
			}
			return nil, &failover.FencedError{Mine: mine}
		}
		changed := h.changed
		h.waiters++
		h.mu.Unlock()
		t := time.NewTimer(time.Until(deadline))
		select {
		case <-changed:
		case <-t.C:
		}
		t.Stop()
		h.mu.Lock()
		h.waiters--
	}
}

// Waiters reports how many writes are waiting out the promotion window.
func (h *HANode) Waiters() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.waiters
}

// write runs one mutation on the primary-role state and counts it.
func (h *HANode) write(op string, fn func(*System) error) error {
	sys, err := h.writeSys(op)
	if err != nil {
		return err
	}
	if err := fn(sys); err != nil {
		return err
	}
	h.Registry().Counter("eil_write_router_writes_total", "op", op).Inc()
	return nil
}

// AddDocuments applies an ingest batch on the primary-role state
// (serving.Writer).
func (h *HANode) AddDocuments(docs []*docmodel.Document) error {
	return h.write("add", func(s *System) error { return s.AddDocuments(docs) })
}

// RemoveDeal applies a removal on the primary-role state
// (serving.Writer).
func (h *HANode) RemoveDeal(dealID string) error {
	return h.write("remove", func(s *System) error { return s.RemoveDeal(dealID) })
}

// Compact compacts the primary-role state (serving.Writer).
func (h *HANode) Compact() error {
	return h.write("compact", (*System).Compact)
}
