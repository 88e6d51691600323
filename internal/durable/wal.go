package durable

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"sync"

	"repro/internal/obs"
)

// WALVersion is the journal container format version.
const WALVersion = 1

// ErrSealed marks a journal sealed by fencing: a newer epoch took over the
// write lineage, so no further append may ever extend this history.
var ErrSealed = errors.New("durable: journal sealed by fencing")

// WALName is the journal file inside a system directory.
const WALName = "wal.log"

// walHeader is the journal's first frame: which snapshot generation the
// journal extends. A journal whose base does not match the generation that
// actually loaded must be discarded, not replayed.
type walHeader struct {
	Format int    `json:"format"`
	Base   uint64 `json:"base"`
}

// Record is one journal entry: an operation kind (owned by the caller) and
// its serialized payload.
type Record struct {
	Kind    uint8
	Payload []byte
}

// WALOptions configures journal opening and syncing.
type WALOptions struct {
	// FS is the filesystem seam; nil means the real one.
	FS FS
	// SyncEvery batches fsyncs: the journal fsyncs after every SyncEvery
	// appends (<=1 means every append — full durability, the default).
	// Batched mode trades the tail of the batch on power loss for append
	// throughput.
	SyncEvery int
	// Metrics receives durable_wal_* telemetry; nil disables.
	Metrics *obs.Registry
}

// WAL is an append-only, checksummed journal of logical operations since
// the last committed snapshot generation. Appends are safe for concurrent
// use; replay tolerates a torn tail (the crash left a half-written record —
// every complete record before it is recovered).
type WAL struct {
	mu       sync.Mutex
	fs       FS
	path     string
	f        File
	base     uint64
	syncEach int
	unsynced int
	// broken poisons the journal: every append is refused until a
	// successful Rotate replaces the file. A failed Write may have left a
	// torn frame, and replay stops there, so a record appended after it
	// would be lost; after a failed Sync nothing the page cache holds can
	// be trusted; after a failed Rotate the snapshot has committed, so the
	// on-disk journal extends a superseded base. Refusing keeps "Append
	// returned nil" meaning "recoverable". Seal sets it for good.
	broken  error
	metrics *obs.Registry
}

func walOpts(opts WALOptions) (FS, int) {
	fs := opts.FS
	if fs == nil {
		fs = OS
	}
	every := opts.SyncEvery
	if every < 1 {
		every = 1
	}
	return fs, every
}

// CreateWAL atomically replaces dir's journal with an empty one extending
// generation base, and returns it open for appending. The replacement is
// crash-safe: the old journal stays in force until the rename commits.
func CreateWAL(dir string, base uint64, opts WALOptions) (*WAL, error) {
	fs, every := walOpts(opts)
	path := filepath.Join(dir, WALName)
	hdr, err := json.Marshal(walHeader{Format: WALVersion, Base: base})
	if err != nil {
		return nil, err
	}
	err = WriteFileAtomic(fs, path, func(w io.Writer) error {
		fw, err := NewFrameWriter(w, "wal", WALVersion)
		if err != nil {
			return err
		}
		return fw.WriteFrame(hdr)
	})
	if err != nil {
		return nil, err
	}
	f, err := fs.Append(path)
	if err != nil {
		return nil, fmt.Errorf("durable: open wal: %w", err)
	}
	return &WAL{fs: fs, path: path, f: f, base: base, syncEach: every, metrics: opts.Metrics}, nil
}

// OpenWAL opens an existing journal for appending (after the caller has
// replayed it). A torn tail is truncated back to the last intact record, so
// new appends extend good bytes, not garbage. It fails if the journal is
// missing or its header is unreadable — create a fresh one with CreateWAL
// instead.
func OpenWAL(dir string, opts WALOptions) (*WAL, error) {
	fs, every := walOpts(opts)
	path := filepath.Join(dir, WALName)
	rep, err := ReplayWAL(dir, WALOptions{FS: fs})
	if err != nil {
		return nil, err
	}
	if rep.Torn {
		if err := fs.Truncate(path, rep.IntactSize); err != nil {
			return nil, fmt.Errorf("durable: truncate torn wal tail: %w", err)
		}
	}
	f, err := fs.Append(path)
	if err != nil {
		return nil, fmt.Errorf("durable: open wal: %w", err)
	}
	return &WAL{fs: fs, path: path, f: f, base: rep.Base, syncEach: every, metrics: opts.Metrics}, nil
}

// Replayed is what ReplayWAL recovers from a journal.
type Replayed struct {
	// Base is the snapshot generation the journal extends.
	Base uint64
	// Records are the intact records, in append order.
	Records []Record
	// Torn reports a half-written tail (crash mid-append): every record in
	// Records precedes it and is trustworthy.
	Torn bool
	// IntactSize is the byte offset of the end of the last intact record —
	// where appending may safely resume after truncating the tail.
	IntactSize int64
}

// ReplayWAL reads dir's journal: the base generation it extends and every
// intact record. A torn tail (crash mid-append) is tolerated and reported —
// replay recovers every record before it. A missing journal returns an
// error satisfying errors.Is(err, fs.ErrNotExist).
func ReplayWAL(dir string, opts WALOptions) (Replayed, error) {
	fsi, _ := walOpts(opts)
	path := filepath.Join(dir, WALName)
	f, err := fsi.Open(path)
	if err != nil {
		return Replayed{}, err
	}
	defer f.Close()
	cr := &countingReader{r: f}
	fr, err := NewJournalReader(cr, path, "wal", WALVersion)
	if err != nil {
		return Replayed{}, err
	}
	hdrFrame, err := fr.Next()
	if err != nil {
		return Replayed{}, &CorruptError{Path: path, Detail: "missing journal header"}
	}
	var hdr walHeader
	if err := json.Unmarshal(hdrFrame, &hdr); err != nil || hdr.Format != WALVersion {
		return Replayed{}, &CorruptError{Path: path, Detail: "bad journal header"}
	}
	rep := Replayed{Base: hdr.Base, IntactSize: cr.n}
	for {
		frame, err := fr.Next()
		if err == io.EOF {
			return rep, nil
		}
		if err != nil || len(frame) == 0 {
			// Torn or corrupt record: everything before it is intact, and
			// nothing after it can be trusted (frame boundaries are lost).
			rep.Torn = true
			opts.Metrics.Counter("durable_recovery_events_total", "kind", "wal_tail").Inc()
			return rep, nil
		}
		rep.Records = append(rep.Records, Record{Kind: frame[0], Payload: frame[1:]})
		rep.IntactSize = cr.n
		opts.Metrics.Counter("durable_wal_replay_records_total").Inc()
	}
}

// countingReader tracks exactly how many bytes have been consumed, so the
// replayer knows where the last intact record ends. The frame reader does
// no read-ahead, so the count after a successful frame is its end offset.
type countingReader struct {
	r io.Reader
	n int64
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n += int64(n)
	return n, err
}

// Base returns the snapshot generation this journal extends.
func (w *WAL) Base() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.base
}

// Append journals one operation. The record is on disk (though possibly
// unsynced, per SyncEvery) when Append returns; with SyncEvery <= 1 it is
// also fsynced. A failed Write or Sync poisons the journal (see broken).
func (w *WAL) Append(kind uint8, payload []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.poisonedLocked(); err != nil {
		return err
	}
	body := make([]byte, 0, len(payload)+9)
	body = append(body, kind)
	body = append(body, payload...)
	frame := make([]byte, 8, 8+len(body))
	binary.BigEndian.PutUint32(frame[0:], uint32(len(body)))
	binary.BigEndian.PutUint32(frame[4:], crc32.Checksum(body, castagnoli))
	frame = append(frame, body...)
	if _, err := w.f.Write(frame); err != nil {
		w.broken = fmt.Errorf("durable: wal append: %w", err)
		return w.broken
	}
	w.metrics.Counter("durable_wal_appends_total").Inc()
	w.unsynced++
	if w.unsynced >= w.syncEach {
		if err := w.syncLocked(); err != nil {
			w.broken = err
			return fmt.Errorf("%w (the record reached the file, so whether a crash keeps it is unknown)", err)
		}
	}
	return nil
}

// Healthy reports whether the journal can accept appends: the poisoning
// error, if any, so callers can refuse a mutation up front.
func (w *WAL) Healthy() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.poisonedLocked()
}

// poisonedLocked is the one check of the poison; it wraps the failure that
// set it.
func (w *WAL) poisonedLocked() error {
	if w.broken != nil {
		return fmt.Errorf("durable: journal poisoned: %w", w.broken)
	}
	return nil
}

// Probe verifies the journal is still appendable by forcing an fsync on the
// open file regardless of pending state. Health checks use it: a probe
// failing means the next real Append would too (disk gone, volume
// read-only, fd revoked). A failed probe does not poison the journal: it
// acknowledged nothing.
func (w *WAL) Probe() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.poisonedLocked(); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("durable: wal probe: %w", err)
	}
	w.unsynced = 0
	return nil
}

func (w *WAL) syncLocked() error {
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("durable: wal fsync: %w", err)
	}
	w.unsynced = 0
	w.metrics.Counter("durable_wal_fsyncs_total").Inc()
	return nil
}

// Seal permanently poisons the journal: every future Append, Probe and
// Healthy fails with an error wrapping ErrSealed. Fencing calls it when a
// newer epoch takes over the write lineage — unlike a failed append or
// rotation, sealing is not recoverable by re-establishing a journal; the
// node must re-sync under the new epoch. Pending appends are fsynced first
// so the sealed history is at least complete.
func (w *WAL) Seal(reason string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.unsynced > 0 {
		_ = w.syncLocked()
	}
	w.broken = fmt.Errorf("%w: %s", ErrSealed, reason)
	w.metrics.Counter("durable_wal_seals_total").Inc()
}

// Rotate truncates the journal after a snapshot commit: a fresh empty
// journal extending newBase atomically replaces the current one. Operations
// journaled before Rotate are folded into generation newBase's snapshot, so
// they are not lost — they are superseded.
//
// If the replacement fails, the journal poisons itself: the caller's
// snapshot already committed at newBase, so the surviving on-disk journal
// extends a superseded generation. Accepting further appends there would
// acknowledge operations the next load silently discards (base mismatch);
// instead Append fails until a later Rotate succeeds. A successful Rotate
// clears any poison but a seal.
func (w *WAL) Rotate(newBase uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if errors.Is(w.broken, ErrSealed) {
		// A seal is permanent: the write lineage moved to a newer epoch and
		// no local recovery may resurrect this journal.
		return fmt.Errorf("durable: wal rotate: %w", w.broken)
	}
	dir := filepath.Dir(w.path)
	fresh, err := CreateWAL(dir, newBase, WALOptions{FS: w.fs, SyncEvery: w.syncEach, Metrics: w.metrics})
	if err != nil {
		w.broken = err
		w.metrics.Counter("durable_recovery_events_total", "kind", "wal_rotate").Inc()
		return err
	}
	old := w.f
	w.f = fresh.f
	w.base = newBase
	w.unsynced = 0
	w.broken = nil
	return old.Close()
}

// Close releases the journal after a final sync.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.unsynced > 0 {
		if err := w.syncLocked(); err != nil {
			w.f.Close()
			return err
		}
	}
	return w.f.Close()
}
