package eil

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/access"
	"repro/internal/durable"
	"repro/internal/fault"
	"repro/internal/health"
	"repro/internal/obs"
	"repro/internal/repl"
	"repro/internal/serving"
	"repro/internal/trace"
)

// ErrNotSynced is returned by a follower's serving surface before its first
// snapshot installs. Readiness checks keep traffic away from a follower
// in this state; seeing the error means a caller bypassed them.
var ErrNotSynced = serving.ErrNotSynced

// ---------------------------------------------------------------------------
// Primary side: ship log wiring and the replication listener.

// initReplLogLocked brings up the in-memory ship buffer: history starts at
// the last checkpoint, and any journal records already on disk past it
// are seeded in so a follower connecting right after startup can tail
// instead of re-bootstrapping. Caller holds upMu.
func (s *System) initReplLogLocked() error {
	if s.replLog != nil {
		return nil
	}
	if s.wal == nil {
		return errors.New("eil: replication requires EnableWAL first")
	}
	shipLog := repl.NewLog(s.gen, s.ckptSeq)
	rep, err := durable.ReplayWAL(s.walDir, durable.WALOptions{FS: s.WALFS})
	if err == nil && rep.Base == s.gen {
		seq := s.ckptSeq
		for _, r := range rep.Records {
			seq++
			shipLog.Append(repl.Entry{Seq: seq, Kind: r.Kind, Payload: r.Payload})
		}
		if seq != s.seq.Load() {
			return fmt.Errorf("eil: ship log seed: journal holds %d records but position is %d past checkpoint %d",
				len(rep.Records), s.seq.Load()-s.ckptSeq, s.ckptSeq)
		}
	}
	s.replLog = shipLog
	return nil
}

// replSnapshot opens the latest snapshot generation for transfer. When
// the ship log has already evicted the last checkpoint's position (a
// follower bootstrapping from it could never catch up), a fresh
// checkpoint is committed first so snapshot + retained tail always form a
// continuous history.
func (s *System) replSnapshot() (*repl.Snapshot, error) {
	s.upMu.Lock()
	defer s.upMu.Unlock()
	if s.wal == nil || s.replLog == nil {
		return nil, errors.New("eil: replication not enabled")
	}
	if !s.replLog.Covers(s.ckptSeq) {
		if _, err := s.checkpointLocked(s.walDir); err != nil {
			return nil, fmt.Errorf("eil: snapshot for bootstrap: %w", err)
		}
	}
	st, err := durable.OpenStore(s.walDir, durable.StoreOptions{Keep: s.SnapshotKeep, Metrics: s.Metrics})
	if err != nil {
		return nil, err
	}
	gen, comps, err := st.ExportGeneration()
	if err != nil {
		return nil, err
	}
	if gen != s.gen {
		for _, c := range comps {
			c.R.Close()
		}
		return nil, fmt.Errorf("eil: snapshot store at gen %d but system at %d", gen, s.gen)
	}
	snap := &repl.Snapshot{Gen: gen, Seq: s.ckptSeq}
	for _, c := range comps {
		snap.Components = append(snap.Components, repl.SnapshotComponent{Name: c.Name, Size: c.Size, R: c.R})
	}
	return snap, nil
}

// systemSource is the shipper's repl.Source: it maps wire-protocol shard
// names to their systems ("" for an unsharded primary).
type systemSource struct {
	shards map[string]*System
}

func (src *systemSource) TailLog(shard string) (*repl.Log, error) {
	sys, ok := src.shards[shard]
	if !ok {
		return nil, fmt.Errorf("eil: unknown shard %q", shard)
	}
	sys.upMu.Lock()
	defer sys.upMu.Unlock()
	if sys.replLog == nil {
		return nil, errors.New("eil: replication not enabled")
	}
	return sys.replLog, nil
}

func (src *systemSource) Snapshot(shard string) (*repl.Snapshot, error) {
	sys, ok := src.shards[shard]
	if !ok {
		return nil, fmt.Errorf("eil: unknown shard %q", shard)
	}
	return sys.replSnapshot()
}

// EpochInfo exposes each shard's fencing term to the shipper, so stale
// peers are fenced and laggard survivors of a promotion are told whether
// their position is a safe prefix.
func (src *systemSource) EpochInfo(shard string) repl.EpochInfo {
	sys, ok := src.shards[shard]
	if !ok {
		return repl.EpochInfo{}
	}
	return sys.EpochInfo()
}

// ServeReplication starts shipping this system's WAL to followers
// connecting on lis. EnableWAL must already be active. A non-nil faults
// injector wires the repl.send / repl.recv / repl.corrupt chaos seams
// into every accepted connection. The returned Shipper reports
// connected-follower status; Close it to stop serving.
func (s *System) ServeReplication(lis net.Listener, faults *fault.Injector) (*repl.Shipper, error) {
	return shipShards(map[string]*System{"": s}, lis, s.Metrics, faults, nil)
}

// ServeReplication starts shipping every shard's WAL on one listener:
// each follower names its shard in the handshake, and each shard's
// journal streams independently.
func (c *Cluster) ServeReplication(lis net.Listener, faults *fault.Injector) (*repl.Shipper, error) {
	shards := make(map[string]*System, len(c.Shards))
	for i, s := range c.Shards {
		shards[ShardKey(i)] = s
	}
	return shipShards(shards, lis, c.Metrics, faults, nil)
}

// shipShards starts one shipper over shards (wire-protocol shard name to
// system) on lis. Every shard's ship log is live, and onFenced installed,
// before the accept loop starts, so no connection can race either into
// place. onFenced fires when a peer's hello proves a newer epoch exists
// (see repl.Shipper.OnFenced).
func shipShards(shards map[string]*System, lis net.Listener, metrics *obs.Registry, faults *fault.Injector, onFenced func(newerEpoch uint64)) (*repl.Shipper, error) {
	for name, s := range shards {
		s.upMu.Lock()
		err := s.initReplLogLocked()
		s.upMu.Unlock()
		if err != nil {
			if name != "" {
				err = fmt.Errorf("eil: %s: %w", name, err)
			}
			return nil, err
		}
	}
	sh := &repl.Shipper{
		Source:   &systemSource{shards: shards},
		Metrics:  metrics,
		Faults:   faults,
		OnFenced: onFenced,
	}
	go sh.Serve(lis)
	return sh, nil
}

// applyReplicated applies one shipped journal record and appends it to the
// state's ship log, so a promotion ships the history it applied. The
// sequence must be exactly the successor of the local position: any gap
// means frames were skipped somewhere (the generation-handoff hazard), and
// the error forces a reconnect rather than letting state silently diverge.
func (s *System) applyReplicated(seq uint64, kind uint8, payload []byte) error {
	s.upMu.Lock()
	defer s.upMu.Unlock()
	if s.wal != nil {
		return errors.New("eil: replicated apply on a journaling system")
	}
	cur := s.seq.Load()
	if seq != cur+1 {
		return fmt.Errorf("eil: replication gap: record %d after position %d", seq, cur)
	}
	touched, err := s.applyRecord(kind, payload)
	if err != nil {
		return err
	}
	if failed, err := s.publishDeals(touched); err != nil {
		return fmt.Errorf("eil: replicated synopsis %s: %w", failed, err)
	}
	s.seq.Store(seq)
	s.replLog.Append(repl.Entry{Seq: seq, Kind: kind, Payload: payload})
	return nil
}

// ReplPosition reports the replication position: the primary generation
// this state derives from and the global record sequence.
func (s *System) ReplPosition() (gen, seq uint64) {
	return s.upstreamGen.Load(), s.seq.Load()
}

// ---------------------------------------------------------------------------
// Follower: a read replica of one primary system.

// FollowerOptions configures StartFollower / StartClusterFollower.
type FollowerOptions struct {
	// Dir is the local replica state directory (snapshots land here; a
	// prior run's state resumes from it).
	Dir string
	// Addr is the primary's replication listener.
	Addr string
	// Name identifies this follower to the primary and in metrics.
	Name string
	// Shard routes the stream on a cluster primary (set by
	// StartClusterFollower; leave empty against a single system).
	Shard string
	// MaxLag is the staleness bound in WAL records: beyond it the repl
	// health check fails, draining the replica (0 = unbounded).
	MaxLag uint64
	// Access scopes this replica's reads (nil = everyone sees everything).
	Access *access.Controller
	// Metrics receives eil_repl_* client telemetry (nil = fresh registry).
	Metrics *obs.Registry
	// Tracer, when set, traces the replica's reads.
	Tracer *trace.Tracer
	// Logf receives replication lifecycle logs (nil = silent).
	Logf func(format string, args ...any)
	// Faults, when set, wraps the replication connection in the fault
	// seam (chaos tests).
	Faults *fault.Injector
}

// Follower is a live read replica: it bootstraps from the primary's
// latest snapshot generation (or its own local state from a prior run),
// replays the shipped journal continuously through the shared apply
// paths, checkpoints locally whenever the primary checkpoints, and serves
// from its current state through the embedded Switch: reads and telemetry
// answer from the state the stream last installed (ErrNotSynced before the
// first), writes and EnableWAL meet that state's replica guard.
type Follower struct {
	serving.Switch

	opts   FollowerOptions
	client *repl.Client
	cancel context.CancelFunc
	done   chan struct{}

	// sys is the installed state; an install stores a new pointer, which is
	// how a ClusterFollower sees that a shard's state was replaced.
	sys     atomic.Pointer[System]
	headGen atomic.Uint64
	headSeq atomic.Uint64
	sawHead atomic.Bool

	// fenceEpoch is the failover term the replica's state was last
	// written under (durable in the EPOCH record beside its snapshots).
	fenceEpoch atomic.Uint64

	ckptMu   sync.Mutex       // serializes local checkpoints, installs and Tune with Close
	settings serving.Settings // re-applied to every installed state; guarded by ckptMu
}

// StartFollower begins replicating from opts.Addr into opts.Dir. It
// returns immediately; the replica serves ErrNotSynced until its first
// state lands (a resumed local snapshot or the bootstrap transfer). Use
// WaitSynced to block for serving readiness.
func StartFollower(opts FollowerOptions) (*Follower, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	f := &Follower{opts: opts, done: make(chan struct{})}
	f.Switch = serving.NewSwitch(opts.Metrics, opts.Tracer, f.current)

	// The adopted failover term survives restarts in the EPOCH record; a
	// replica that never witnessed a promotion hellos at epoch 0. An
	// unreadable record is durably reset to epoch 0 before anything loads
	// (every load refuses a corrupt one): a follower never writes, so the
	// reset cannot let a fenced node write again, and the primary's stream
	// stamps the term it serves under through AdoptEpoch.
	if ep, ok, err := durable.ReadEpoch(nil, opts.Dir); err != nil {
		f.logf("eil: follower resetting unreadable epoch record: %v", err)
		if err := durable.WriteEpoch(nil, opts.Dir, durable.EpochRecord{}); err != nil {
			return nil, fmt.Errorf("eil: reset epoch record: %w", err)
		}
	} else if ok {
		f.fenceEpoch.Store(ep.Epoch)
	}

	// Resume from local state when a prior run left a committed
	// generation: the replica re-serves immediately and tail-resumes from
	// its checkpointed position instead of re-copying the whole snapshot.
	if sys, err := loadSystemWith(opts.Dir, opts.Access, opts.Metrics); err == nil {
		f.adopt(sys)
		gen, seq := sys.ReplPosition()
		f.logf("eil: follower resuming local state at gen %d seq %d", gen, seq)
	} else if !errors.Is(err, durable.ErrNoSnapshot) {
		// Unloadable local state is not fatal — the bootstrap transfer
		// replaces it — but it is worth a line.
		f.logf("eil: follower discarding local state: %v", err)
	}

	f.client = &repl.Client{
		Addr:    opts.Addr,
		Name:    opts.Name,
		Shard:   opts.Shard,
		Sink:    &followerSink{f: f},
		Metrics: opts.Metrics,
		Logf:    opts.Logf,
		Faults:  opts.Faults,
	}
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	go func() {
		defer close(f.done)
		_ = f.client.Run(ctx)
	}()
	return f, nil
}

// withDefaults checks what a follower cannot start without and fills in
// its name and metrics registry.
func (opts FollowerOptions) withDefaults() (FollowerOptions, error) {
	if opts.Dir == "" || opts.Addr == "" {
		return opts, errors.New("eil: follower requires Dir and Addr")
	}
	if opts.Name == "" {
		opts.Name = fmt.Sprintf("follower-%d", os.Getpid())
	}
	if opts.Metrics == nil {
		opts.Metrics = obs.NewRegistry()
	}
	return opts, nil
}

// adopt makes sys the state the replica serves and applies the stream to:
// read-only, traced like the replica's reads, carrying the operator's
// settings, and holding a ship log that starts at its position. The stream
// extends that log (applyReplicated, Rotate), and a promotion ships from it
// unchanged. Caller holds ckptMu, or is StartFollower before the stream
// starts.
func (f *Follower) adopt(sys *System) {
	gen, seq := sys.ReplPosition()
	sys.Tracer = f.opts.Tracer
	sys.replica.Store(true)
	sys.replLog = repl.NewLog(gen, seq)
	sys.Tune(f.settings)
	f.sys.Store(sys)
}

func (f *Follower) logf(format string, args ...any) {
	if f.opts.Logf != nil {
		f.opts.Logf(format, args...)
	}
}

// Close stops replicating, then best-effort checkpoints so a restart
// resumes from the exact stop position instead of the last rotation.
func (f *Follower) Close() error {
	f.cancel()
	<-f.done
	f.ckptMu.Lock()
	defer f.ckptMu.Unlock()
	if sys := f.sys.Load(); sys != nil {
		if _, err := sys.Checkpoint(f.opts.Dir); err != nil {
			return fmt.Errorf("eil: follower close checkpoint: %w", err)
		}
	}
	return nil
}

// System returns the replica's current state (nil before first sync). The
// pointer swaps wholesale on re-bootstrap; hold the returned value for a
// consistent view.
func (f *Follower) System() *System { return f.sys.Load() }

// detach stops replicating permanently and returns the final local state,
// whose ship log holds the history it applied, without checkpointing: the
// promotion takes it over and checkpoints under the new epoch itself. The
// Follower must not be reused after detach (Close remains safe to call).
func (f *Follower) detach() (*System, error) {
	f.cancel()
	<-f.done
	if sys := f.sys.Load(); sys != nil {
		return sys, nil
	}
	return nil, ErrNotSynced
}

// current resolves the Switch: the state the stream last installed.
func (f *Follower) current() (serving.Backend, error) {
	if sys := f.sys.Load(); sys != nil {
		return sys, nil
	}
	return nil, ErrNotSynced
}

// Name identifies the follower to its primary.
func (f *Follower) Name() string { return f.opts.Name }

// Lag reports how many WAL records this replica trails the primary by;
// ok is false before the first heartbeat establishes the primary's head.
func (f *Follower) Lag() (uint64, bool) {
	sys := f.sys.Load()
	if sys == nil || !f.sawHead.Load() {
		return 0, false
	}
	head, cur := f.headSeq.Load(), sys.seq.Load()
	if head <= cur {
		return 0, true
	}
	return head - cur, true
}

// Position reports the replica's applied position (gen 0 before sync).
func (f *Follower) Position() (gen, seq uint64) {
	if sys := f.sys.Load(); sys != nil {
		return sys.ReplPosition()
	}
	return 0, 0
}

// WaitSynced blocks until the replica is serving and within maxLag
// records of the primary's head, or ctx expires.
func (f *Follower) WaitSynced(ctx context.Context, maxLag uint64) error {
	for {
		if lag, ok := f.Lag(); ok && lag <= maxLag {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// FollowerReport is the /api/repl payload for a follower process.
type FollowerReport struct {
	Role    string            `json:"role"`
	Name    string            `json:"name"`
	Primary string            `json:"primary"`
	Shard   string            `json:"shard,omitempty"`
	Gen     uint64            `json:"gen"`
	Seq     uint64            `json:"seq"`
	HeadGen uint64            `json:"head_gen"`
	HeadSeq uint64            `json:"head_seq"`
	Lag     *uint64           `json:"lag_records,omitempty"`
	Synced  bool              `json:"synced"`
	Epoch   uint64            `json:"epoch"` // adopted failover term
	Client  repl.ClientStatus `json:"client"`
}

// FenceEpoch reports the failover term the replica's state was last
// written under (0 before any promotion is witnessed).
func (f *Follower) FenceEpoch() uint64 { return f.fenceEpoch.Load() }

// Status reports the follower's replication view.
func (f *Follower) Status() FollowerReport {
	gen, seq := f.Position()
	rep := FollowerReport{
		Role:    "follower",
		Name:    f.opts.Name,
		Primary: f.opts.Addr,
		Shard:   f.opts.Shard,
		Gen:     gen,
		Seq:     seq,
		HeadGen: f.headGen.Load(),
		HeadSeq: f.headSeq.Load(),
		Synced:  f.sys.Load() != nil,
		Epoch:   f.fenceEpoch.Load(),
		Client:  f.client.Status(),
	}
	if lag, ok := f.Lag(); ok {
		rep.Lag = &lag
	}
	return rep
}

// followerSink adapts the Follower to the replication client's apply
// surface. The client calls it from a single goroutine.
type followerSink struct {
	f *Follower
}

func (sk *followerSink) Position() (gen, seq uint64, have bool) {
	sys := sk.f.sys.Load()
	if sys == nil {
		return 0, 0, false
	}
	gen, seq = sys.ReplPosition()
	return gen, seq, true
}

func (sk *followerSink) BeginSnapshot(gen, seq uint64) (repl.SnapshotInstaller, error) {
	st, err := durable.OpenStore(sk.f.opts.Dir, durable.StoreOptions{Metrics: sk.f.Registry()})
	if err != nil {
		return nil, err
	}
	imp, err := st.BeginImport(gen)
	if err != nil {
		return nil, err
	}
	return &followerInstall{f: sk.f, imp: imp, gen: gen, seq: seq}, nil
}

func (sk *followerSink) Apply(rec repl.Record) error {
	sys := sk.f.sys.Load()
	if sys == nil {
		return errors.New("eil: record before snapshot")
	}
	if err := sys.applyReplicated(rec.Seq, rec.Kind, rec.Payload); err != nil {
		return err
	}
	// A shipped record is also evidence of the primary's head.
	if rec.Seq > sk.f.headSeq.Load() {
		sk.f.headSeq.Store(rec.Seq)
	}
	sk.f.observeLag()
	return nil
}

// Epoch reports the replica's adopted failover term (repl.Sink).
func (sk *followerSink) Epoch() uint64 { return sk.f.fenceEpoch.Load() }

// AdoptEpoch durably records a newer failover term (repl.Sink). The
// client only calls it on positions the primary sent while our state is
// a verified prefix of its stream, so stamping the local history with
// the new term is sound; any standing fence mark is resolved by the same
// evidence.
func (sk *followerSink) AdoptEpoch(epoch uint64) error {
	f := sk.f
	if err := durable.WriteEpoch(nil, f.opts.Dir, durable.EpochRecord{Epoch: epoch}); err != nil {
		return err
	}
	f.fenceEpoch.Store(epoch)
	if sys := f.sys.Load(); sys != nil {
		sys.upMu.Lock()
		sys.fenceEpoch.Store(epoch)
		sys.fencedBy.Store(0)
		sys.prevEpoch = 0
		sys.sealSeq = 0
		sys.upMu.Unlock()
	}
	return nil
}

func (sk *followerSink) Rotate(gen, seq uint64) error {
	f := sk.f
	sys := f.sys.Load()
	if sys == nil {
		return errors.New("eil: rotate before snapshot")
	}
	// Strict position equality is the generation-handoff tripwire: the
	// primary emits the rotation after the records it folds in, in stream
	// order, so any mismatch means frames were skipped or reordered.
	if cur := sys.seq.Load(); seq != cur {
		return fmt.Errorf("eil: rotate at seq %d but replica at %d: frames skipped", seq, cur)
	}
	sys.upstreamGen.Store(gen)
	sys.replLog.Append(repl.Entry{Seq: seq, Rotate: true, Gen: gen})
	if gen > f.headGen.Load() {
		f.headGen.Store(gen)
	}
	// Checkpoint locally: the primary just proved every record through seq
	// is durable in a snapshot, so this position is the natural restart
	// point for the replica too. A failed local checkpoint degrades
	// restart durability, not serving — log and continue streaming.
	f.ckptMu.Lock()
	_, err := sys.Checkpoint(f.opts.Dir)
	f.ckptMu.Unlock()
	if err != nil {
		f.Registry().Counter("eil_repl_follower_checkpoint_errors_total").Inc()
		f.logf("eil: follower checkpoint at gen %d seq %d: %v", gen, seq, err)
	} else {
		f.logf("eil: follower checkpointed at gen %d seq %d", gen, seq)
	}
	return nil
}

func (sk *followerSink) Advance(gen, seq uint64) {
	f := sk.f
	if gen > f.headGen.Load() {
		f.headGen.Store(gen)
	}
	if seq > f.headSeq.Load() {
		f.headSeq.Store(seq)
	}
	f.sawHead.Store(true)
	f.observeLag()
}

func (f *Follower) observeLag() {
	if lag, ok := f.Lag(); ok {
		f.Registry().Gauge("eil_repl_lag_records", "follower", f.opts.Name).Set(float64(lag))
	}
}

// followerInstall lands a bootstrap snapshot: raw component bytes stream
// into an unpublished generation, Commit publishes it and swaps the live
// System wholesale.
type followerInstall struct {
	f        *Follower
	imp      *durable.Import
	gen, seq uint64
}

func (fi *followerInstall) Component(name string, size int64, r io.Reader) error {
	return fi.imp.Component(name, r)
}

func (fi *followerInstall) Commit() error {
	fi.f.ckptMu.Lock()
	defer fi.f.ckptMu.Unlock()
	if err := fi.imp.Commit(); err != nil {
		return err
	}
	// A journal left over from this directory's previous life (an
	// ex-primary being re-synced after a fence) must not replay on top of
	// the fresh install: its records belong to the dead lineage.
	if err := os.Remove(filepath.Join(fi.f.opts.Dir, durable.WALName)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("eil: remove stale journal: %w", err)
	}
	sys, err := loadSystemWith(fi.f.opts.Dir, fi.f.opts.Access, fi.f.Registry())
	if err != nil {
		return fmt.Errorf("eil: load installed snapshot: %w", err)
	}
	// The shipped replpos component carries the primary's own view (its
	// upstream gen is 0); the replica's upstream is the shipped generation.
	sys.upstreamGen.Store(fi.gen)
	sys.seq.Store(fi.seq)
	sys.ckptSeq = fi.seq
	fi.f.adopt(sys)
	fi.f.sawHead.Store(true)
	if fi.seq > fi.f.headSeq.Load() {
		fi.f.headSeq.Store(fi.seq)
	}
	if fi.gen > fi.f.headGen.Load() {
		fi.f.headGen.Store(fi.gen)
	}
	return nil
}

func (fi *followerInstall) Abort() { fi.imp.Abort() }

// ---------------------------------------------------------------------------
// Follower admin facet: what the Switch cannot answer from the state alone.

// replCheck is the replica's critical readiness check: a stale or unsynced
// replica must drain.
func (f *Follower) replCheck() health.Result {
	st := f.client.Status()
	if f.sys.Load() == nil {
		return health.Failedf("initial sync not complete (client %s)", st.State)
	}
	lag, ok := f.Lag()
	if !ok {
		return health.Degradedf("no primary heartbeat yet (client %s)", st.State)
	}
	if f.opts.MaxLag > 0 && lag > f.opts.MaxLag {
		return health.Failedf("lag %d records exceeds bound %d", lag, f.opts.MaxLag)
	}
	return health.OKf("client %s, lag %d records, %d applied", st.State, lag, st.Applied)
}

// Checks names the replica's readiness checks: replication first, then the
// current state's (serving.Admin). Unsynced, the repl and index checks fail.
func (f *Follower) Checks(opts HealthOptions) []health.Check {
	return stateChecks([]*System{f.sys.Load()}, false, f.BreakerStates(), []*Follower{f}, opts)
}

// Tune installs the operator's settings on the current state and on every
// state a later snapshot install brings (serving.Admin).
func (f *Follower) Tune(set serving.Settings) {
	f.ckptMu.Lock()
	defer f.ckptMu.Unlock()
	f.settings = set
	if sys := f.sys.Load(); sys != nil {
		sys.Tune(set)
	}
}

// Save is a no-op: a replica checkpoints into its own directory at the
// primary's rotation points and at Close, under ckptMu.
func (f *Follower) Save(dir string) error { return nil }

// ---------------------------------------------------------------------------
// ClusterFollower: one follower per shard behind a scatter-gather view.

// ClusterFollower replicates every shard of a cluster primary (one
// replication connection per shard, all to the same listener) and serves
// reads through a coordinator engine over the replicated shards —
// the same scatter-gather searches a primary cluster runs.
type ClusterFollower struct {
	serving.Switch

	followers []*Follower
	ctl       *access.Controller

	mu       sync.Mutex
	cached   *Cluster
	settings serving.Settings // re-applied to every rebuilt view
}

// StartClusterFollower starts one follower per shard under opts.Dir
// (shard-NNNN subdirectories, mirroring the primary's layout).
func StartClusterFollower(shards int, opts FollowerOptions) (*ClusterFollower, error) {
	if shards < 1 {
		return nil, fmt.Errorf("eil: shard count %d < 1", shards)
	}
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := writeClusterManifest(opts.Dir, shards); err != nil {
		return nil, err
	}
	cf := &ClusterFollower{ctl: opts.Access}
	cf.Switch = serving.NewSwitch(opts.Metrics, opts.Tracer, cf.current)
	for i := 0; i < shards; i++ {
		so := opts
		so.Dir = shardDir(opts.Dir, i)
		so.Shard = ShardKey(i)
		so.Name = fmt.Sprintf("%s/%s", opts.Name, ShardKey(i))
		sub, err := StartFollower(so)
		if err != nil {
			for _, started := range cf.followers {
				_ = started.Close()
			}
			return nil, fmt.Errorf("eil: shard %d: %w", i, err)
		}
		cf.followers = append(cf.followers, sub)
	}
	return cf, nil
}

// Followers exposes the per-shard followers (status surfaces, tests).
func (cf *ClusterFollower) Followers() []*Follower { return cf.followers }

// Close stops every shard follower.
func (cf *ClusterFollower) Close() error {
	var first error
	for i, sub := range cf.followers {
		if err := sub.Close(); err != nil && first == nil {
			first = fmt.Errorf("eil: shard %d: %w", i, err)
		}
	}
	return first
}

// shards lists every shard follower's current state (nil before its first).
func (cf *ClusterFollower) shards() []*System {
	shards := make([]*System, len(cf.followers))
	for i, sub := range cf.followers {
		shards[i] = sub.sys.Load()
	}
	return shards
}

// current resolves the Switch: the scatter-gather view over the current
// shard states, rebuilt only when some shard's state has been replaced
// since the last call.
func (cf *ClusterFollower) current() (serving.Backend, error) {
	shards := cf.shards()
	if slices.Contains(shards, nil) {
		return nil, ErrNotSynced
	}
	cf.mu.Lock()
	defer cf.mu.Unlock()
	if cf.cached == nil || !slices.Equal(cf.cached.Shards, shards) {
		cf.cached = newCluster(shards, cf.ctl, cf.Registry(), cf.RequestTracer(), false)
		cf.cached.Tune(cf.settings)
	}
	return cf.cached, nil
}

// WaitSynced blocks until every shard is within maxLag of its primary.
func (cf *ClusterFollower) WaitSynced(ctx context.Context, maxLag uint64) error {
	for _, sub := range cf.followers {
		if err := sub.WaitSynced(ctx, maxLag); err != nil {
			return err
		}
	}
	return nil
}

// Status reports every shard follower's replication view.
func (cf *ClusterFollower) Status() []FollowerReport {
	out := make([]FollowerReport, 0, len(cf.followers))
	for _, sub := range cf.followers {
		out = append(out, sub.Status())
	}
	return out
}

// Checks names the cluster replica's readiness checks: replication and
// index per shard, then the scatter-gather view's (serving.Admin).
func (cf *ClusterFollower) Checks(opts HealthOptions) []health.Check {
	return stateChecks(cf.shards(), true, cf.BreakerStates(), cf.followers, opts)
}

// Tune installs the operator's settings on the scatter-gather view, now and
// at every rebuild; snapshot retention reaches each shard's replica.
func (cf *ClusterFollower) Tune(set serving.Settings) {
	cf.mu.Lock()
	defer cf.mu.Unlock()
	cf.settings = set
	if cf.cached != nil {
		cf.cached.Tune(set)
	}
	for _, sub := range cf.followers {
		sub.Tune(serving.Settings{SnapshotKeep: set.SnapshotKeep})
	}
}

// Save is a no-op (see Follower.Save).
func (cf *ClusterFollower) Save(dir string) error { return nil }
