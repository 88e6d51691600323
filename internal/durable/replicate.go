package durable

import (
	"fmt"
	"io"
	"path/filepath"
)

// This file is the snapshot store's replication surface: exporting the
// committed generation as raw container bytes (for a primary shipping a
// bootstrap snapshot) and importing such bytes as a published generation
// (for a follower installing one). Raw bytes, not decoded state — the
// frame CRCs already in every container travel with the data, so a
// follower verifies exactly what the primary's own loader would.

// RawComponent is one component container opened for raw streaming.
type RawComponent struct {
	Name string
	Size int64
	R    io.ReadCloser
}

// ExportGeneration opens every component of the committed generation for
// raw transfer. The files are opened before this returns, so a concurrent
// Commit pruning the generation cannot tear the copy (POSIX keeps an open
// file readable after unlink). The caller owns closing the readers.
func (st *Store) ExportGeneration() (uint64, []RawComponent, error) {
	m, err := st.readManifest()
	if err != nil {
		return 0, nil, fmt.Errorf("durable: export: %w", err)
	}
	genDir := filepath.Join(st.dir, genDirName(m.Generation))
	var out []RawComponent
	for _, name := range m.Components {
		path := filepath.Join(genDir, name+".snap")
		info, err := st.fs.Stat(path)
		var f File
		if err == nil {
			f, err = st.fs.Open(path)
		}
		if err != nil {
			for _, c := range out {
				c.R.Close()
			}
			return 0, nil, fmt.Errorf("durable: export component %s: %w", name, err)
		}
		out = append(out, RawComponent{Name: name, Size: info.Size(), R: f})
	}
	return m.Generation, out, nil
}

// Import installs one received generation. Components stream in one at a
// time; Commit is the publish point (manifest swing), so a crash anywhere
// before it leaves the store exactly as it was.
type Import struct {
	st    *Store
	gen   uint64
	dir   string
	names []string
	done  bool
}

// BeginImport starts installing generation gen (the sender's numbering —
// a follower adopts the primary's generation names wholesale). Any
// half-written directory from a dead attempt at the same number is
// cleared first.
func (st *Store) BeginImport(gen uint64) (*Import, error) {
	if gen == 0 {
		return nil, fmt.Errorf("durable: import: generation 0")
	}
	dir, err := st.freshGenDir(gen)
	if err != nil {
		return nil, fmt.Errorf("durable: import: %w", err)
	}
	return &Import{st: st, gen: gen, dir: dir}, nil
}

// validComponentName rejects anything that could escape the generation
// directory or collide with store bookkeeping — component names come off
// the wire.
func validComponentName(name string) bool {
	if name == "" || len(name) > 128 {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '_', r == '-':
		default:
			return false
		}
	}
	return true
}

// Component writes one component's raw container bytes, then re-reads and
// drains every frame so a corrupt transfer is rejected before Commit can
// ever publish it.
func (imp *Import) Component(name string, r io.Reader) error {
	if !validComponentName(name) {
		return fmt.Errorf("durable: import: bad component name %q", name)
	}
	path := filepath.Join(imp.dir, name+".snap")
	err := WriteFileAtomic(imp.st.fs, path, func(w io.Writer) error {
		_, err := io.Copy(w, r)
		return err
	})
	if err != nil {
		return fmt.Errorf("durable: import component %s: %w", name, err)
	}
	f, err := imp.st.fs.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fr, err := componentReader(f, path, name)
	if err != nil {
		return fmt.Errorf("durable: import component %s: %w", name, err)
	}
	if err := fr.Drain(); err != nil {
		return fmt.Errorf("durable: import component %s: %w", name, err)
	}
	imp.names = append(imp.names, name)
	return nil
}

// Commit fsyncs the generation directory and swings the manifest to it —
// after this, Load serves the imported state. Stale generations (both the
// retention overflow below and any unpublished ones numbered above the
// import) are cleaned up best-effort afterwards.
func (imp *Import) Commit() error {
	if imp.done {
		return fmt.Errorf("durable: import gen %d already finished", imp.gen)
	}
	imp.done = true
	if err := imp.st.publish(imp.gen, imp.dir, imp.names); err != nil {
		return err
	}
	imp.st.prune(imp.gen)
	if gens, err := imp.st.generations(); err == nil {
		for _, g := range gens {
			if g > imp.gen {
				_ = imp.st.fs.RemoveAll(filepath.Join(imp.st.dir, genDirName(g)))
			}
		}
	}
	imp.st.metrics.Gauge("durable_snapshot_generation").Set(float64(imp.gen))
	return nil
}

// Abort discards the unpublished generation directory.
func (imp *Import) Abort() {
	if imp.done {
		return
	}
	imp.done = true
	_ = imp.st.fs.RemoveAll(imp.dir)
}
