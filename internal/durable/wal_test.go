package durable

import (
	"bytes"
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fault"
)

func TestWALAppendReplay(t *testing.T) {
	dir := t.TempDir()
	w, err := CreateWAL(dir, 7, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	records := []Record{
		{Kind: 1, Payload: []byte("first")},
		{Kind: 2, Payload: []byte("")},
		{Kind: 3, Payload: bytes.Repeat([]byte("x"), 4096)},
	}
	for _, r := range records {
		if err := w.Append(r.Kind, r.Payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := ReplayWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Base != 7 || rep.Torn || len(rep.Records) != len(records) {
		t.Fatalf("replay = base %d torn %v, %d records", rep.Base, rep.Torn, len(rep.Records))
	}
	for i, r := range records {
		if rep.Records[i].Kind != r.Kind || !bytes.Equal(rep.Records[i].Payload, r.Payload) {
			t.Fatalf("record %d = %+v", i, rep.Records[i])
		}
	}
}

func TestWALTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	w, err := CreateWAL(dir, 1, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(1, []byte("intact record")); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(2, []byte("doomed record")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the last record mid-frame, as a crash mid-append would.
	path := filepath.Join(dir, WALName)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-4); err != nil {
		t.Fatal(err)
	}

	rep, err := ReplayWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Torn || len(rep.Records) != 1 || string(rep.Records[0].Payload) != "intact record" {
		t.Fatalf("replay = torn %v, %d records", rep.Torn, len(rep.Records))
	}

	// OpenWAL truncates the tail; new appends extend good bytes.
	w2, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if w2.Base() != 1 {
		t.Fatalf("base = %d", w2.Base())
	}
	if err := w2.Append(3, []byte("after recovery")); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err = ReplayWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Torn || len(rep.Records) != 2 || string(rep.Records[1].Payload) != "after recovery" {
		t.Fatalf("post-recovery replay = torn %v, %d records", rep.Torn, len(rep.Records))
	}
}

func TestWALRotate(t *testing.T) {
	dir := t.TempDir()
	w, err := CreateWAL(dir, 1, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(1, []byte("pre-checkpoint")); err != nil {
		t.Fatal(err)
	}
	if err := w.Rotate(2); err != nil {
		t.Fatal(err)
	}
	if w.Base() != 2 {
		t.Fatalf("base after rotate = %d", w.Base())
	}
	if err := w.Append(1, []byte("post-checkpoint")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := ReplayWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Base != 2 || len(rep.Records) != 1 || string(rep.Records[0].Payload) != "post-checkpoint" {
		t.Fatalf("replay after rotate = base %d, %d records", rep.Base, len(rep.Records))
	}
}

func TestWALSyncBatching(t *testing.T) {
	dir := t.TempDir()
	w, err := CreateWAL(dir, 1, WALOptions{SyncEvery: 100})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := w.Append(1, []byte("record")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Probe(); err != nil { // force-flush the batch
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := ReplayWAL(dir, WALOptions{})
	if err != nil || len(rep.Records) != 5 {
		t.Fatalf("replay = %d records, %v", len(rep.Records), err)
	}
}

func TestWALMissing(t *testing.T) {
	_, err := ReplayWAL(t.TempDir(), WALOptions{})
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("err = %v, want fs.ErrNotExist", err)
	}
}

func TestWALCorruptHeader(t *testing.T) {
	dir := t.TempDir()
	w, err := CreateWAL(dir, 1, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, WALName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[2] ^= 0xFF // inside the magic
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayWAL(dir, WALOptions{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// TestWALFailedAppendPoisons: a failed Write (which may leave a torn
// frame) or Sync of an append poisons the journal, as a failed Rotate
// does: every later Append is refused with the failure wrapped, even after
// the disk recovers, until a successful Rotate replaces the file. A failed
// Probe acknowledged nothing and poisons nothing.
func TestWALFailedAppendPoisons(t *testing.T) {
	for _, site := range []string{SiteWrite, SiteSync} {
		t.Run(site, func(t *testing.T) {
			dir := t.TempDir()
			inj := fault.New(1)
			w, err := CreateWAL(dir, 1, WALOptions{FS: &FaultFS{Ctx: fault.With(context.Background(), inj)}})
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			if err := w.Append(1, []byte("acked")); err != nil {
				t.Fatal(err)
			}
			inj.Add(&fault.Rule{Site: site, Mode: fault.ModeError, Times: 1})
			if err := w.Append(1, []byte("failed")); !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("append under a %s fault = %v", site, err)
			}
			for name, op := range map[string]func() error{
				"Append":  func() error { return w.Append(1, []byte("refused")) },
				"Healthy": w.Healthy,
				"Probe":   w.Probe,
			} {
				if err := op(); err == nil || !strings.HasPrefix(err.Error(), "durable: journal poisoned: ") || !errors.Is(err, fault.ErrInjected) {
					t.Fatalf("%s after a failed append = %v, want the poison wrapping the fault", name, err)
				}
			}
			if err := w.Rotate(2); err != nil {
				t.Fatal(err)
			}
			if err := w.Append(1, []byte("after rotate")); err != nil {
				t.Fatalf("append after a successful rotate: %v", err)
			}
			rep, err := ReplayWAL(dir, WALOptions{})
			if err != nil || rep.Base != 2 || rep.Torn || len(rep.Records) != 1 || string(rep.Records[0].Payload) != "after rotate" {
				t.Fatalf("replay after rotate = %+v, %v", rep, err)
			}
		})
	}

	t.Run("probe", func(t *testing.T) {
		inj := fault.New(1)
		w, err := CreateWAL(t.TempDir(), 1, WALOptions{FS: &FaultFS{Ctx: fault.With(context.Background(), inj)}})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		inj.Add(&fault.Rule{Site: SiteSync, Mode: fault.ModeError, Times: 1})
		if err := w.Probe(); err == nil {
			t.Fatal("probe under a sync fault succeeded")
		}
		if err := w.Append(1, []byte("after probe")); err != nil {
			t.Fatalf("a failed probe poisoned the journal: %v", err)
		}
	})
}
