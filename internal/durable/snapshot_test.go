package durable

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// commitBlobs commits one generation whose components hold the given blobs.
func commitBlobs(t *testing.T, st *Store, blobs map[string]string) uint64 {
	t.Helper()
	var comps []Component
	for name, data := range blobs {
		data := data
		comps = append(comps, Component{Name: name, Write: func(w io.Writer) error {
			_, err := w.Write([]byte(data))
			return err
		}})
	}
	gen, err := st.Commit(comps)
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

// loadBlobs loads the store and returns the generation plus component
// contents for the given names.
func loadBlobs(st *Store, names ...string) (uint64, map[string]string, error) {
	got := map[string]string{}
	gen, err := st.Load(func(gen uint64, open OpenComponent) error {
		for k := range got {
			delete(got, k)
		}
		for _, name := range names {
			cr, err := open(name)
			if err != nil {
				return err
			}
			data, err := io.ReadAll(cr)
			if err != nil {
				cr.Close()
				return err
			}
			if err := cr.Drain(); err != nil {
				cr.Close()
				return err
			}
			cr.Close()
			got[name] = string(data)
		}
		return nil
	})
	return gen, got, err
}

func TestStoreCommitLoadRoundTrip(t *testing.T) {
	st, err := OpenStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gen := commitBlobs(t, st, map[string]string{"index": "the index", "context": "the context"})
	if gen != 1 {
		t.Fatalf("first generation = %d", gen)
	}
	if committed, ok := st.Committed(); !ok || committed != 1 {
		t.Fatalf("Committed = %d, %v", committed, ok)
	}
	loaded, got, err := loadBlobs(st, "index", "context")
	if err != nil {
		t.Fatal(err)
	}
	if loaded != 1 || got["index"] != "the index" || got["context"] != "the context" {
		t.Fatalf("load: gen %d, %v", loaded, got)
	}
}

func TestStoreLoadEmpty(t *testing.T) {
	st, err := OpenStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := loadBlobs(st, "index"); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("err = %v, want ErrNoSnapshot", err)
	}
}

func TestStoreFallbackOnCorruptGeneration(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	commitBlobs(t, st, map[string]string{"index": "generation one"})
	commitBlobs(t, st, map[string]string{"index": "generation two"})

	// Corrupt the newest generation's component: flip a payload byte.
	path := filepath.Join(dir, "gen-00000002", "index.snap")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-12] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	gen, got, err := loadBlobs(st, "index")
	if err != nil {
		t.Fatal(err)
	}
	if gen != 1 || got["index"] != "generation one" {
		t.Fatalf("fallback: gen %d, %v", gen, got)
	}
}

func TestStorePruneRetention(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, StoreOptions{Keep: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		commitBlobs(t, st, map[string]string{"index": fmt.Sprintf("generation %d", i)})
	}
	gens, err := st.generations()
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 2 || gens[0] != 3 || gens[1] != 4 {
		t.Fatalf("retained generations = %v, want [3 4]", gens)
	}
}

func TestStoreIgnoresUnpublishedNewerGeneration(t *testing.T) {
	// A generation directory newer than the manifest is a crashed commit:
	// it was never published and must not be loaded.
	dir := t.TempDir()
	st, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	commitBlobs(t, st, map[string]string{"index": "published"})
	ghost := filepath.Join(dir, "gen-00000009")
	if err := os.MkdirAll(ghost, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(ghost, "index.snap"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	gen, got, err := loadBlobs(st, "index")
	if err != nil {
		t.Fatal(err)
	}
	if gen != 1 || got["index"] != "published" {
		t.Fatalf("gen %d, %v", gen, got)
	}
}

func TestStoreManifestLossFallsBackToScan(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	commitBlobs(t, st, map[string]string{"index": "one"})
	commitBlobs(t, st, map[string]string{"index": "two"})
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
		t.Fatal(err)
	}
	gen, got, err := loadBlobs(st, "index")
	if err != nil {
		t.Fatal(err)
	}
	if gen != 2 || got["index"] != "two" {
		t.Fatalf("scan fallback: gen %d, %v", gen, got)
	}
}

func TestStoreRecommitClearsStaleGeneration(t *testing.T) {
	// A crashed commit can leave a half-written directory at the next
	// generation number; the re-commit must not inherit its files.
	dir := t.TempDir()
	st, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	commitBlobs(t, st, map[string]string{"index": "one"})
	stale := filepath.Join(dir, "gen-00000002")
	if err := os.MkdirAll(stale, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(stale, "leftover.snap"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if gen := commitBlobs(t, st, map[string]string{"index": "two"}); gen != 2 {
		t.Fatalf("generation = %d", gen)
	}
	if _, err := os.Stat(filepath.Join(stale, "leftover.snap")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stale component survived re-commit: %v", err)
	}
	gen, got, err := loadBlobs(st, "index")
	if err != nil || gen != 2 || got["index"] != "two" {
		t.Fatalf("gen %d, %v, %v", gen, got, err)
	}
}

// reframe rewrites one component of generation gen as a container at
// version holding payload, as a build writing that version would have.
func reframe(t *testing.T, dir string, gen uint64, name string, version uint32, payload string) {
	t.Helper()
	var buf bytes.Buffer
	fw, err := NewFrameWriter(&buf, "component:"+name, version)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Write([]byte(payload)); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, genDirName(gen), name+".snap"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestComponentVersionUpgrade: components are written at ComponentVersion,
// and a generation an older build wrote at version 1 stays readable. A
// reader that knows only an older version refuses a newer component as
// ErrVersion — opening it, loading it (falling back to the generation
// before) and importing it.
func TestComponentVersionUpgrade(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	commitBlobs(t, st, map[string]string{"index": "index one", "context": "context one"})
	reframe(t, dir, 1, "index", 1, "index one")
	reframe(t, dir, 1, "context", 1, "context one")
	if gen, got, err := loadBlobs(st, "index", "context"); err != nil || gen != 1 || got["index"] != "index one" {
		t.Fatalf("version 1 is unreadable: gen %d, %v, %v", gen, got, err)
	}
	commitBlobs(t, st, map[string]string{"index": "index two", "context": "context two"})
	if gen, got, err := loadBlobs(st, "index", "context"); err != nil || gen != 2 || got["index"] != "index two" {
		t.Fatalf("version %d is unreadable: gen %d, %v, %v", ComponentVersion, gen, got, err)
	}

	path := filepath.Join(dir, genDirName(2), "index.snap")
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewFrameReader(f, path, "component:index", 1)
	f.Close()
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("the version-1 reader opened a version-%d index: err = %v, want ErrVersion", ComponentVersion, err)
	}

	for _, c := range []struct {
		version uint32
		want    error
	}{
		{ComponentVersion, nil},
		{ComponentVersion + 1, ErrVersion},
	} {
		reframe(t, dir, 2, "index", c.version, "index two")
		wantGen, wantIndex := uint64(2), "index two"
		if c.want != nil {
			wantGen, wantIndex = 1, "index one"
		}
		if gen, got, err := loadBlobs(st, "index", "context"); err != nil || gen != wantGen || got["index"] != wantIndex {
			t.Fatalf("index at version %d: loaded gen %d, %v, %v; want gen %d", c.version, gen, got, err, wantGen)
		}

		_, comps, err := st.ExportGeneration()
		if err != nil {
			t.Fatal(err)
		}
		dst, err := OpenStore(t.TempDir(), StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		imp, err := dst.BeginImport(2)
		if err != nil {
			t.Fatal(err)
		}
		for _, comp := range comps {
			err := imp.Component(comp.Name, comp.R)
			comp.R.Close()
			if comp.Name == "index" && !errors.Is(err, c.want) || comp.Name != "index" && err != nil {
				t.Fatalf("index at version %d: import %s: err = %v, want %v", c.version, comp.Name, err, c.want)
			}
		}
		imp.Abort()
	}
}
