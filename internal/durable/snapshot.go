package durable

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/obs"
)

// SnapshotVersion is the on-disk MANIFEST container format. Loaders reject
// other versions with a typed *VersionError, never a decode failure.
const SnapshotVersion = 1

// ComponentVersion is the container version Commit writes components at.
// Load and Import read every version from 1 up to it, so older generations
// stay readable, while a build that knows only an older version refuses a
// newer component as a *VersionError (and falls back to an older
// generation). Version 2 marks the index's format-2 snapshot.
const ComponentVersion = 2

// manifestName is the committed-generation marker file.
const manifestName = "MANIFEST"

// DefaultKeep is how many committed generations a store retains when the
// caller does not say: the current one plus one fallback.
const DefaultKeep = 2

// Component is one named piece of a snapshot generation (the semantic
// index, the context database, the pipeline state...).
type Component struct {
	Name string
	// Write serializes the component into w (already framed and
	// checksummed by the store).
	Write func(w io.Writer) error
}

// StoreOptions configures a snapshot store.
type StoreOptions struct {
	// FS is the filesystem seam; nil means the real one.
	FS FS
	// Keep is how many committed generations to retain (0 = DefaultKeep).
	Keep int
	// Metrics receives durable_snapshot_* telemetry; nil disables.
	Metrics *obs.Registry
}

// Store is a generation-numbered snapshot directory:
//
//	MANIFEST            committed-generation marker (framed, checksummed)
//	gen-00000007/       one directory per generation
//	  index.snap        framed, CRC-checksummed component containers
//	  pipeline.snap
//	  ...
//	wal.log             journal of operations since the committed generation
//
// Commit writes a complete new generation, fsyncs it, then atomically
// republishes MANIFEST — so the manifest always names a fully written
// generation, and a crash anywhere leaves the previous one committed.
type Store struct {
	dir     string
	fs      FS
	keep    int
	metrics *obs.Registry
}

// OpenStore opens (creating if needed) the snapshot store rooted at dir.
func OpenStore(dir string, opts StoreOptions) (*Store, error) {
	fs := opts.FS
	if fs == nil {
		fs = OS
	}
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: open store %s: %w", dir, err)
	}
	keep := opts.Keep
	if keep <= 0 {
		keep = DefaultKeep
	}
	return &Store{dir: dir, fs: fs, keep: keep, metrics: opts.Metrics}, nil
}

// componentReader validates a component container's header, accepting
// versions 1 through ComponentVersion.
func componentReader(r io.Reader, path, name string) (*FrameReader, error) {
	return newFrameReader(r, path, "component:"+name, 1, ComponentVersion, false)
}

// Dir returns the store's root directory.
func (st *Store) Dir() string { return st.dir }

// manifest is the MANIFEST payload.
type manifest struct {
	Format     int      `json:"format"`
	Generation uint64   `json:"generation"`
	Components []string `json:"components"`
}

func genDirName(gen uint64) string { return fmt.Sprintf("gen-%08d", gen) }

// parseGenDir extracts the generation from a "gen-%08d" directory name.
func parseGenDir(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "gen-") {
		return 0, false
	}
	var gen uint64
	if _, err := fmt.Sscanf(name[len("gen-"):], "%d", &gen); err != nil {
		return 0, false
	}
	return gen, true
}

// generations lists the generation numbers present on disk, ascending.
func (st *Store) generations() ([]uint64, error) {
	entries, err := st.fs.ReadDir(st.dir)
	if err != nil {
		return nil, err
	}
	var gens []uint64
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if gen, ok := parseGenDir(e.Name()); ok {
			gens = append(gens, gen)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens, nil
}

// readManifest returns the committed manifest, or an error when it is
// missing, torn, or corrupt (the caller falls back to a directory scan).
func (st *Store) readManifest() (*manifest, error) {
	path := filepath.Join(st.dir, manifestName)
	f, err := st.fs.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fr, err := NewFrameReader(f, path, "manifest", SnapshotVersion)
	if err != nil {
		return nil, err
	}
	payload, err := fr.Next()
	if err != nil {
		return nil, err
	}
	if err := fr.Drain(); err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(payload, &m); err != nil {
		return nil, &CorruptError{Path: path, Detail: "manifest not decodable"}
	}
	if m.Format != SnapshotVersion {
		return nil, &VersionError{Path: path, Got: uint32(m.Format), Want: SnapshotVersion}
	}
	return &m, nil
}

// Committed returns the last committed generation (0, false when none).
func (st *Store) Committed() (uint64, bool) {
	if m, err := st.readManifest(); err == nil {
		return m.Generation, true
	}
	return 0, false
}

// Commit writes the components as the next generation and publishes it:
// every component file is written atomically (tmp + fsync + rename), the
// generation directory is fsynced, and only then does MANIFEST swing over —
// the commit point. Old generations beyond the retention window are pruned
// afterwards. Returns the new generation number.
func (st *Store) Commit(components []Component) (uint64, error) {
	t := obs.StartTimer()
	var gen uint64 = 1
	if m, err := st.readManifest(); err == nil {
		gen = m.Generation + 1
	} else if gens, err := st.generations(); err == nil && len(gens) > 0 {
		gen = gens[len(gens)-1] + 1
	}

	genDir, err := st.freshGenDir(gen)
	if err != nil {
		return 0, fmt.Errorf("durable: commit: %w", err)
	}
	var totalBytes int64
	var names []string
	for _, comp := range components {
		path := filepath.Join(genDir, comp.Name+".snap")
		var n int64
		err := WriteFileAtomic(st.fs, path, func(w io.Writer) error {
			cw := &countingWriter{w: w}
			fw, err := NewFrameWriter(cw, "component:"+comp.Name, ComponentVersion)
			if err != nil {
				return err
			}
			if err := comp.Write(fw); err != nil {
				return fmt.Errorf("durable: component %s: %w", comp.Name, err)
			}
			if err := fw.Close(); err != nil {
				return err
			}
			n = cw.n
			return nil
		})
		if err != nil {
			st.fs.RemoveAll(genDir)
			return 0, err
		}
		totalBytes += n
		names = append(names, comp.Name)
	}
	if err := st.publish(gen, genDir, names); err != nil {
		return 0, err
	}
	st.prune(gen)

	st.metrics.Histogram("durable_snapshot_save_seconds", nil).ObserveDuration(t.Elapsed())
	st.metrics.Histogram("durable_snapshot_bytes", obs.DefSizeBuckets).Observe(float64(totalBytes))
	st.metrics.Gauge("durable_snapshot_generation").Set(float64(gen))
	return gen, nil
}

// freshGenDir creates generation gen's directory empty. A crash during an
// earlier attempt at the same generation number can leave a half-written
// directory behind; it is cleared first so stale component files from the
// dead attempt cannot survive into this one.
func (st *Store) freshGenDir(gen uint64) (string, error) {
	dir := filepath.Join(st.dir, genDirName(gen))
	_ = st.fs.RemoveAll(dir)
	if err := st.fs.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("gen %d: %w", gen, err)
	}
	return dir, nil
}

// publish makes generation gen, whose component files are written in
// genDir, the committed one: the directory is fsynced, and only then does
// the framed MANIFEST naming the components swing over atomically. That
// swing is the commit point.
func (st *Store) publish(gen uint64, genDir string, names []string) error {
	if err := SyncDir(st.fs, genDir); err != nil {
		return err
	}
	payload, err := json.Marshal(manifest{Format: SnapshotVersion, Generation: gen, Components: names})
	if err != nil {
		return err
	}
	return WriteFileAtomic(st.fs, filepath.Join(st.dir, manifestName), func(w io.Writer) error {
		fw, err := NewFrameWriter(w, "manifest", SnapshotVersion)
		if err != nil {
			return err
		}
		if err := fw.WriteFrame(payload); err != nil {
			return err
		}
		return fw.Close()
	})
}

// prune removes generations outside the retention window. Failures are
// ignored: retention is best-effort cleanup, never a commit failure.
func (st *Store) prune(committed uint64) {
	gens, err := st.generations()
	if err != nil {
		return
	}
	for _, g := range gens {
		if g+uint64(st.keep) <= committed {
			_ = st.fs.RemoveAll(filepath.Join(st.dir, genDirName(g)))
		}
	}
}

// ComponentReader streams one component's payload with every frame
// checksum-verified. Callers decode from it, then call Drain to verify any
// trailing frames the decoder did not consume, then Close.
type ComponentReader struct {
	*FrameReader
	f  File
	fs FS
}

// Close releases the underlying file.
func (cr *ComponentReader) Close() error { return cr.f.Close() }

// Size is the component file's size, its payload plus the framing, so a
// decoder that reads the whole payload can size its buffer once (0 when the
// file cannot be statted).
func (cr *ComponentReader) Size() int64 {
	info, err := cr.fs.Stat(cr.f.Name())
	if err != nil {
		return 0
	}
	return info.Size()
}

// OpenComponent is the per-generation opener Load hands to its callback.
// Opening a component that does not exist returns an error satisfying
// errors.Is(err, os.ErrNotExist), so loaders can skip optional components.
type OpenComponent func(name string) (*ComponentReader, error)

func (st *Store) opener(gen uint64) OpenComponent {
	return func(name string) (*ComponentReader, error) {
		path := filepath.Join(st.dir, genDirName(gen), name+".snap")
		f, err := st.fs.Open(path)
		if err != nil {
			return nil, err
		}
		fr, err := componentReader(f, path, name)
		if err != nil {
			f.Close()
			return nil, err
		}
		return &ComponentReader{FrameReader: fr, f: f, fs: st.fs}, nil
	}
}

// Load restores the last-good generation: it tries the manifest's committed
// generation first, then falls back through older on-disk generations until
// load succeeds. load must build fresh state per attempt (so a mid-decode
// corruption never leaks partial state) and return an error to reject a
// generation. Load returns the generation that served, or ErrNoSnapshot
// (wrapping the last failure) when nothing is loadable.
func (st *Store) Load(load func(gen uint64, open OpenComponent) error) (uint64, error) {
	var candidates []uint64
	seen := map[uint64]bool{}
	m, merr := st.readManifest()
	if merr == nil {
		candidates = append(candidates, m.Generation)
		seen[m.Generation] = true
	} else if !os.IsNotExist(merr) {
		// The manifest exists but is unreadable: that is itself a recovery
		// event, even if a directory scan saves the load.
		st.metrics.Counter("durable_recovery_events_total", "kind", "manifest").Inc()
	}
	gens, err := st.generations()
	if err != nil && merr != nil {
		return 0, fmt.Errorf("%w: %s", ErrNoSnapshot, st.dir)
	}
	for i := len(gens) - 1; i >= 0; i-- {
		g := gens[i]
		if seen[g] {
			continue
		}
		// Generations newer than the committed one were never published
		// (crash mid-commit); they are not trustworthy load sources.
		if merr == nil && g > m.Generation {
			continue
		}
		candidates = append(candidates, g)
	}
	if len(candidates) == 0 {
		return 0, fmt.Errorf("%w: %s", ErrNoSnapshot, st.dir)
	}
	var lastErr error
	for i, gen := range candidates {
		if err := load(gen, st.opener(gen)); err != nil {
			lastErr = err
			st.metrics.Counter("durable_snapshot_fallbacks_total").Inc()
			st.metrics.Counter("durable_recovery_events_total", "kind", "snapshot").Inc()
			continue
		}
		if i > 0 {
			// Served by a fallback generation, not the manifest's first
			// choice.
			st.metrics.Gauge("durable_snapshot_generation").Set(float64(gen))
		}
		return gen, nil
	}
	return 0, fmt.Errorf("%w: %s (last error: %v)", ErrNoSnapshot, st.dir, lastErr)
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}
