package eil

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	iofs "io/fs"
	"os"
	"path/filepath"
	"time"

	"repro/internal/access"
	"repro/internal/analysis"
	"repro/internal/annotators"
	"repro/internal/crawler"
	"repro/internal/directory"
	"repro/internal/docmodel"
	"repro/internal/durable"
	"repro/internal/failover"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/relstore"
	"repro/internal/repl"
	"repro/internal/synopsis"
	"repro/internal/taxonomy"
)

// Snapshot component names inside a generation directory (<dir>/gen-NNNNNNNN/
// <name>.snap). Every component is a framed, CRC-checksummed container; the
// store's MANIFEST names the last fully committed generation. The synopsis
// database is derived state and is not among them: LoadSystem rebuilds it
// from the pipeline component (a context.snap in an older generation is
// ignored).
const (
	compIndex     = "index"     // semantic full-text index (index.Format)
	compPipeline  = "pipeline"  // retained offline-pipeline state (gob)
	compDirectory = "directory" // personnel directory (JSON lines; optional)
	compReplPos   = "replpos"   // replication position (gob; optional for pre-repl snapshots)
)

// replposFormat versions the replication-position component payload.
const replposFormat = 1

// replposSnapshot pins a snapshot generation to its place in the
// replication history: Seq counts every journal record folded into this
// state since its lineage began, and Gen (followers only) names the
// primary generation the state derives from. A snapshot without it (from
// a pre-replication build) loads at position zero, which merely means a
// restarting follower re-bootstraps instead of tail-resuming.
type replposSnapshot struct {
	Format int
	Gen    uint64
	Seq    uint64
}

// legacyIndexFile detects pre-durability system directories (bare
// un-checksummed gob files) so the error says "re-ingest", not "corrupt".
const legacyIndexFile = "index.gob"

// ErrLegacySnapshot marks a system directory written by a pre-durability
// version (bare index.gob/context.gob, no manifest, no pipeline state).
// Those snapshots cannot be recovered or updated incrementally; re-ingest
// the repository with this version to produce a durable snapshot store.
var ErrLegacySnapshot = errors.New("eil: legacy snapshot layout; re-ingest to enable durable snapshots")

// pipelineFormat versions the pipeline component payload. Load rejects
// other versions with a typed error, never a misdecode.
const pipelineFormat = 1

// pipelineSnapshot is the persisted offline-pipeline state: which annotator
// flow ingested the corpus (so a restored system re-analyzes incremental
// documents the same way) and the CPE builder's accumulated per-deal state
// (so AddDocuments keeps growing existing deals instead of resetting them,
// and so LoadSystem can rebuild every deal synopsis from it).
type pipelineSnapshot struct {
	Format  int
	Flow    string
	Builder *annotators.BuilderState
}

// Save persists the system as a new committed snapshot generation in dir:
// every component is written as a framed, checksummed container with
// fsync-on-file-and-directory, and the MANIFEST swings over only once the
// whole generation is durable. The previous generations (SnapshotKeep, or
// durable.DefaultKeep) are retained as fallbacks. If a journal is attached
// (EnableWAL) and rooted at dir, it is truncated: journaled operations are
// folded into the new generation.
func (s *System) Save(dir string) error {
	_, err := s.Checkpoint(dir)
	return err
}

// Checkpoint is Save returning the committed generation number. It is safe
// to call while the system serves queries: searches proceed concurrently
// (the index snapshot takes only a read lock); incremental updates block
// for the duration so the generation is a consistent cross-component cut.
func (s *System) Checkpoint(dir string) (uint64, error) {
	s.upMu.Lock()
	defer s.upMu.Unlock()
	return s.checkpointLocked(dir)
}

func (s *System) checkpointLocked(dir string) (uint64, error) {
	st, err := durable.OpenStore(dir, durable.StoreOptions{Keep: s.SnapshotKeep, Metrics: s.Metrics})
	if err != nil {
		return 0, fmt.Errorf("eil: save: %w", err)
	}
	comps := []durable.Component{
		{Name: compIndex, Write: func(w io.Writer) error {
			_, err := s.Index.WriteTo(w)
			return err
		}},
		{Name: compPipeline, Write: s.writePipeline},
		{Name: compReplPos, Write: func(w io.Writer) error {
			return gob.NewEncoder(w).Encode(replposSnapshot{
				Format: replposFormat,
				Gen:    s.upstreamGen.Load(),
				Seq:    s.seq.Load(),
			})
		}},
	}
	if s.Directory != nil {
		comps = append(comps, durable.Component{Name: compDirectory, Write: func(w io.Writer) error {
			_, err := s.Directory.WriteTo(w)
			return err
		}})
	}
	gen, err := st.Commit(comps)
	if err != nil {
		return 0, fmt.Errorf("eil: save: %w", err)
	}
	s.gen = gen
	s.ckptSeq = s.seq.Load()
	s.lastCkpt = time.Now()
	if s.wal != nil && s.walDir == dir {
		if err := s.wal.Rotate(gen); err != nil {
			// The journal has poisoned itself: it still extends the
			// superseded base, so further appends there would be discarded
			// on the next load. Subsequent updates fail at the journal
			// step instead of being silently lost.
			return gen, fmt.Errorf("eil: save: %w", err)
		}
		if s.replLog != nil {
			// Tell followers the primary checkpointed: every record
			// through the current sequence is folded into gen, so this is
			// a safe position for them to checkpoint locally too. Appended
			// under upMu, after the records it covers — a follower can
			// never observe the rotation before the records it folds in.
			s.replLog.Append(repl.Entry{Seq: s.seq.Load(), Rotate: true, Gen: gen})
		}
	}
	return gen, nil
}

func (s *System) writePipeline(w io.Writer) error {
	snap := pipelineSnapshot{Format: pipelineFormat}
	if s.flow != nil {
		snap.Flow = s.flow.Name()
	}
	if s.builder != nil {
		snap.Builder = s.builder.State()
	}
	return gob.NewEncoder(w).Encode(snap)
}

// Generation returns the snapshot generation the in-memory state extends:
// the generation LoadSystem restored, or the one the last Checkpoint
// committed (0 until either happens).
func (s *System) Generation() uint64 {
	s.upMu.Lock()
	defer s.upMu.Unlock()
	return s.gen
}

// LastCheckpoint returns the current generation and when this process last
// committed it (the restore time for a loaded system). The zero time means
// no checkpoint has happened in this process — the snapshot-freshness
// health check treats that as "checkpointing not configured", not stale.
func (s *System) LastCheckpoint() (uint64, time.Time) {
	s.upMu.Lock()
	defer s.upMu.Unlock()
	return s.gen, s.lastCkpt
}

// WALProbe reports whether a write-ahead journal is attached and, if so,
// whether it is still appendable (an unconditional fsync on the open
// journal file). enabled=false with a nil error means durability is simply
// not configured — the health check reports that as informational, not
// failing.
func (s *System) WALProbe() (enabled bool, err error) {
	s.upMu.Lock()
	w := s.wal
	s.upMu.Unlock()
	if w == nil {
		return false, nil
	}
	return true, w.Probe()
}

// LoadSystem restores a system saved with Save, recovering to the exact
// pre-crash state: it loads the last-good snapshot generation (falling back
// through retained generations when the newest is torn or corrupt), then
// replays the write-ahead journal's intact records on top. The restored
// system rebuilds its pipeline state, so it accepts AddDocuments exactly
// like a never-restarted one. The access controller (nil means everyone
// sees everything) is supplied by the caller.
//
// LoadSystem never panics and never returns partial state: it returns a
// fully recovered system or a typed error (durable.ErrNoSnapshot,
// durable.ErrCorrupt, durable.ErrTorn, durable.ErrVersion,
// ErrLegacySnapshot).
func LoadSystem(dir string, ctl *access.Controller) (*System, error) {
	return loadSystemWith(dir, ctl, obs.NewRegistry())
}

// loadSystemWith is LoadSystem recording into a caller-supplied registry —
// LoadCluster restores every shard into one shared registry.
func loadSystemWith(dir string, ctl *access.Controller, metrics *obs.Registry) (*System, error) {
	st, err := durable.OpenStore(dir, durable.StoreOptions{Metrics: metrics})
	if err != nil {
		return nil, fmt.Errorf("eil: load: %w", err)
	}
	var sys *System
	gen, err := st.Load(func(gen uint64, open durable.OpenComponent) error {
		loaded, lerr := loadGeneration(open, ctl, metrics)
		if lerr != nil {
			return lerr
		}
		sys = loaded
		return nil
	})
	if err != nil {
		if _, lerr := os.Stat(filepath.Join(dir, legacyIndexFile)); lerr == nil {
			return nil, fmt.Errorf("%w: %s", ErrLegacySnapshot, dir)
		}
		return nil, fmt.Errorf("eil: load %s: %w", dir, err)
	}
	sys.gen = gen
	sys.lastCkpt = time.Now()

	// Restore the fencing term: a node that was promoted (or fenced)
	// carries its epoch across restarts, so its replication hellos and
	// write guard come back up under the right term without operator
	// input. A corrupt EPOCH record fails the load — guessing a term
	// could let a fenced node write again.
	if ep, ok, eperr := durable.ReadEpoch(nil, dir); eperr != nil {
		return nil, fmt.Errorf("eil: load %s: %w", dir, eperr)
	} else if ok {
		sys.fenceEpoch.Store(ep.Epoch)
		sys.fencedBy.Store(ep.FencedBy)
		sys.prevEpoch = ep.PrevEpoch
		sys.sealSeq = ep.SealedSeq
	}

	// Replay the journal tail: every operation acknowledged since the
	// loaded generation committed. A torn tail (crash mid-append) is cut
	// off; a journal extending a different generation than the one that
	// actually loaded (snapshot fallback) cannot be applied and is skipped.
	rep, rerr := durable.ReplayWAL(dir, durable.WALOptions{Metrics: metrics})
	switch {
	case rerr == nil:
		if rep.Base != gen {
			metrics.Counter("durable_recovery_events_total", "kind", "wal_base").Inc()
		} else if err := sys.replay(rep.Records); err != nil {
			return nil, fmt.Errorf("eil: load %s: %w", dir, err)
		} else {
			// Each replayed record advances the position past the
			// checkpoint the snapshot recorded.
			sys.seq.Add(uint64(len(rep.Records)))
		}
	case errors.Is(rerr, iofs.ErrNotExist), errors.Is(rerr, os.ErrNotExist):
		// No journal: the snapshot is the whole state.
	default:
		return nil, fmt.Errorf("eil: load %s: %w", dir, rerr)
	}

	// The synopsis database is derived state, built once from the analysis
	// state the generation and the tail left, the way bulk ingest fills it:
	// End finalizes every deal and loads them into the empty store.
	if err := sys.builder.End(); err != nil {
		return nil, fmt.Errorf("eil: load %s: %w", dir, &durable.CorruptError{Path: compPipeline, Detail: err.Error()})
	}
	return sys, nil
}

// loadGeneration builds a complete fresh System from one snapshot
// generation's components. State is never shared across attempts, so a
// generation that fails mid-decode leaks nothing into the next candidate.
func loadGeneration(open durable.OpenComponent, ctl *access.Controller, metrics *obs.Registry) (*System, error) {
	var ix *index.Index
	if err := decodeComponent(open, compIndex, func(r io.Reader) error {
		var err error
		ix, err = index.Load(r)
		return err
	}); err != nil {
		return nil, err
	}
	var ps pipelineSnapshot
	if err := decodeComponent(open, compPipeline, func(r io.Reader) error {
		return gob.NewDecoder(r).Decode(&ps)
	}); err != nil {
		return nil, err
	}
	if ps.Format != pipelineFormat {
		return nil, &durable.VersionError{Path: compPipeline, Got: uint32(ps.Format), Want: pipelineFormat}
	}
	var dir *directory.Directory
	err := decodeComponent(open, compDirectory, func(r io.Reader) error {
		var derr error
		dir, derr = directory.Load(r)
		return derr
	})
	if err != nil && !errors.Is(err, iofs.ErrNotExist) && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	var rp replposSnapshot
	err = decodeComponent(open, compReplPos, func(r io.Reader) error {
		return gob.NewDecoder(r).Decode(&rp)
	})
	switch {
	case err == nil:
		if rp.Format != replposFormat {
			return nil, &durable.VersionError{Path: compReplPos, Got: uint32(rp.Format), Want: replposFormat}
		}
	case errors.Is(err, iofs.ErrNotExist), errors.Is(err, os.ErrNotExist):
		// Pre-replication snapshot: position zero.
	default:
		return nil, err
	}

	tax := taxonomy.Default()
	flow, err := flowByName(ps.Flow, tax)
	if err != nil {
		return nil, err
	}
	// The synopsis store stays empty until loadSystemWith has replayed the
	// journal tail; a state End would refuse fails this generation here.
	store, err := synopsis.NewStore(relstore.NewDB())
	if err != nil {
		return nil, err
	}
	builder := annotators.NewBuilder(store, dir)
	if ps.Builder != nil {
		if err := builder.RestoreState(ps.Builder); err != nil {
			return nil, &durable.CorruptError{Path: compPipeline, Detail: err.Error()}
		}
	}
	writer := &crawler.IndexWriter{Ix: ix, Metrics: metrics}
	sys := newSystem(&System{
		searchFront: searchFront{Taxonomy: tax, Access: ctl, Metrics: metrics},
		Synopses:    store,
		Directory:   dir,
		flow:        flow,
		builder:     builder,
		writer:      writer,
	}, ix, false)
	sys.ckptSeq = rp.Seq
	sys.seq.Store(rp.Seq)
	sys.upstreamGen.Store(rp.Gen)
	return sys, nil
}

// flowByName rebuilds the annotator flow a snapshot was ingested with, so
// replayed and incremental documents go through the same analysis.
func flowByName(name string, tax *taxonomy.Taxonomy) (analysis.Annotator, error) {
	switch name {
	case "", "eil-flow":
		return annotators.NewEILFlow(tax), nil
	case "eil-flow-blob":
		return blobFlow(tax), nil
	case "eil-flow-entity":
		return entityFlow(tax), nil
	}
	return nil, &durable.CorruptError{Path: compPipeline, Detail: fmt.Sprintf("unknown annotator flow %q", name)}
}

// decodeComponent streams one component through its decoder with every
// frame checksum-verified, then drains the container so trailing corruption
// the decoder did not happen to read still fails the load. Decoder errors
// that are not already typed durable errors are wrapped as corruption.
func decodeComponent(open durable.OpenComponent, name string, decode func(io.Reader) error) error {
	cr, err := open(name)
	if err != nil {
		return err
	}
	defer cr.Close()
	if err := decode(cr); err != nil {
		if isDurableErr(err) {
			return err
		}
		return &durable.CorruptError{Path: name, Detail: err.Error()}
	}
	if err := cr.Drain(); err != nil {
		return err
	}
	return nil
}

func isDurableErr(err error) bool {
	return errors.Is(err, durable.ErrTorn) || errors.Is(err, durable.ErrCorrupt) ||
		errors.Is(err, durable.ErrVersion)
}

// Write-ahead journal operation kinds. Payloads: AddDocuments carries the
// batch's documents gob-serialized via docmodel; RemoveDeal carries the
// deal ID; Compact is empty.
const (
	walOpAddDocuments uint8 = 1
	walOpRemoveDeal   uint8 = 2
	walOpCompact      uint8 = 3
)

// EnableWAL attaches a write-ahead journal rooted at dir: every subsequent
// AddDocuments, RemoveDeal, and Compact is recorded (checksummed, fsynced
// per syncEvery — <=1 fsyncs every append) before the call returns, so a
// crash at any instruction later loses nothing that was acknowledged.
// Checkpoint(dir) truncates the journal as it commits each generation.
//
// If dir has no committed snapshot matching the in-memory state, EnableWAL
// checkpoints first, so the journal always extends a real generation. An
// existing journal for the current generation is resumed (its torn tail,
// if any, truncated); a stale or foreign journal is atomically replaced.
func (s *System) EnableWAL(dir string, syncEvery int) error {
	s.upMu.Lock()
	defer s.upMu.Unlock()
	if s.wal != nil {
		return errors.New("eil: wal already enabled")
	}
	if s.replica.Load() {
		return errReplica
	}
	st, err := durable.OpenStore(dir, durable.StoreOptions{Keep: s.SnapshotKeep, Metrics: s.Metrics})
	if err != nil {
		return fmt.Errorf("eil: enable wal: %w", err)
	}
	if committed, ok := st.Committed(); !ok || committed != s.gen || s.gen == 0 {
		if _, err := s.checkpointLocked(dir); err != nil {
			return fmt.Errorf("eil: enable wal: %w", err)
		}
	}
	opts := durable.WALOptions{FS: s.WALFS, SyncEvery: syncEvery, Metrics: s.Metrics}
	var w *durable.WAL
	if rep, rerr := durable.ReplayWAL(dir, durable.WALOptions{}); rerr == nil && rep.Base == s.gen {
		w, err = durable.OpenWAL(dir, opts)
	} else {
		w, err = durable.CreateWAL(dir, s.gen, opts)
	}
	if err != nil {
		return fmt.Errorf("eil: enable wal: %w", err)
	}
	s.wal, s.walDir = w, dir
	return nil
}

// CloseWAL detaches and closes the journal after a final fsync. Further
// updates are applied in memory only (until the next EnableWAL or Save).
func (s *System) CloseWAL() error {
	s.upMu.Lock()
	defer s.upMu.Unlock()
	if s.wal == nil {
		return nil
	}
	err := s.wal.Close()
	s.wal, s.walDir = nil, ""
	return err
}

// errReplica refuses a local mutation or journal on a follower's state.
var errReplica = errors.New("eil: read-only replica: it neither writes nor journals; its history and durability follow the primary's")

// writeGuardLocked is the refusal gate every mutation passes before it
// is staged for commit: a fenced node refuses outright — a newer epoch
// owns the history now, and writing here would be a lost write at best and
// a split brain at worst — a follower's state refuses because only the
// shipped journal may change it, and a poisoned journal (a failed append
// or rotation) refuses until a successful checkpoint replaces it.
func (s *System) writeGuardLocked() error {
	if by := s.fencedBy.Load(); by != 0 {
		return &failover.FencedError{Mine: s.fenceEpoch.Load(), Current: by}
	}
	if s.replica.Load() {
		return errReplica
	}
	if s.wal != nil {
		if err := s.wal.Healthy(); err != nil {
			return fmt.Errorf("eil: journal: %w (writes refused until a checkpoint)", err)
		}
	}
	return nil
}

// writeLocked commits one staged local write: journal first, when a
// journal is attached, and only then apply (commitLocked). The record is
// the commit point: a failed append leaves memory untouched and poisons
// the journal, so no write is acknowledged after it until a checkpoint,
// and a read sees a write only once the write is durable. Callers hold
// upMu and have passed writeGuardLocked.
func (s *System) writeLocked(kind uint8, payload []byte, cases []*analysis.CAS) error {
	if s.wal != nil {
		if err := s.wal.Append(kind, payload); err != nil {
			return fmt.Errorf("eil: journal: %w (not applied)", err)
		}
	}
	return s.commitLocked(kind, payload, cases)
}

// commitLocked is the step the primary and a follower share once a record
// is journaled (by this state, or by the primary that shipped it): apply
// it, publish the synopses of the deals it touched, advance the position
// and tee the record into the ship log. The synopsis store is a derived
// view, so a failed publish does not un-commit the record: the position
// still advances and the error names the deal left unpublished. Callers
// hold upMu.
func (s *System) commitLocked(kind uint8, payload []byte, cases []*analysis.CAS) error {
	touched, err := s.applyLocked(kind, payload, cases)
	if err != nil {
		return fmt.Errorf("eil: apply: %w", err)
	}
	failed, perr := s.publishDeals(touched)
	// seq counts the journal records this state folds in, its own or its
	// primary's; a write with no journal attached is in no history.
	if s.wal != nil || s.replica.Load() {
		seq := s.seq.Add(1)
		if s.replLog != nil {
			// Under upMu, so ship order is exactly journal order.
			s.replLog.Append(repl.Entry{Seq: seq, Kind: kind, Payload: payload})
		}
	}
	if perr != nil {
		return fmt.Errorf("eil: write committed, but deal %s's synopsis was not published: %w", failed, perr)
	}
	return nil
}

func encodeDocs(docs []*docmodel.Document) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(docs); err != nil {
		return nil, fmt.Errorf("eil: journal encode: %w", err)
	}
	return buf.Bytes(), nil
}

// replay applies the journal's recovered records in append order through
// the apply every role uses, minus the synopsis writes: the records change
// the index and the analysis state only, and the caller builds the
// synopsis database once after the last. Any record that fails to apply
// aborts the load with a typed error — the caller discards the partially
// replayed system, so partial state never escapes.
func (s *System) replay(records []durable.Record) error {
	for i, rec := range records {
		cases, err := s.stage(rec.Kind, rec.Payload)
		if err == nil {
			_, err = s.applyLocked(rec.Kind, rec.Payload, cases)
		}
		if err != nil {
			return fmt.Errorf("eil: replay record %d: %w", i, err)
		}
	}
	return nil
}

// stage decodes a journal record and analyzes an add's documents: what
// replay and a follower do with a record before applyLocked, as the live
// writer analyzes its batch before journaling it.
func (s *System) stage(kind uint8, payload []byte) ([]*analysis.CAS, error) {
	if kind != walOpAddDocuments {
		return nil, nil
	}
	var docs []*docmodel.Document
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&docs); err != nil {
		return nil, &durable.CorruptError{Path: durable.WALName, Detail: err.Error()}
	}
	cases, err := s.analyze(docs)
	if err != nil {
		return nil, fmt.Errorf("add: analyze %w", err)
	}
	return cases, nil
}

// applyLocked applies one staged record to the index and the analysis
// state: the one apply of every role — the primary after its append, a
// follower (applyReplicated) and replay — so a follower's state and a
// recovered one evolve by exactly the transitions the primary made. It
// writes no synopsis; it returns the deals whose synopses the record
// changed, for a caller that serves reads between records to publish.
// Callers hold upMu (or own the system exclusively during replay).
func (s *System) applyLocked(kind uint8, payload []byte, cases []*analysis.CAS) ([]string, error) {
	switch kind {
	case walOpAddDocuments:
		return s.applyDocsLocked(cases)
	case walOpRemoveDeal:
		dealID := string(payload)
		return []string{dealID}, s.applyRemoveDeal(dealID)
	case walOpCompact:
		s.publish(s.Index.Compact())
		return nil, nil
	}
	return nil, &durable.CorruptError{Path: durable.WALName, Detail: fmt.Sprintf("unknown op %d", kind)}
}
