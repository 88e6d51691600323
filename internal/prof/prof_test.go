package prof

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestRingAddListOpen(t *testing.T) {
	dir := t.TempDir()
	r, err := OpenRing(dir, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Add(KindHeap, "unit test", []byte("profile-a")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Add(KindCPU, "page /api/search!", []byte("profile-b")); err != nil {
		t.Fatal(err)
	}
	caps := r.List()
	if len(caps) != 2 {
		t.Fatalf("list = %d captures, want 2", len(caps))
	}
	if caps[0].Kind != KindHeap || caps[0].Reason != "unit-test" || caps[0].Seq != 1 {
		t.Errorf("first capture = %+v", caps[0])
	}
	if caps[1].Kind != KindCPU || !strings.Contains(caps[1].Reason, "page") {
		t.Errorf("second capture = %+v", caps[1])
	}
	rc, err := r.Open(caps[1].Name)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(rc)
	rc.Close()
	if string(data) != "profile-b" {
		t.Errorf("content = %q", data)
	}
}

func TestRingSeqSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	r, _ := OpenRing(dir, 8, 0)
	r.Add(KindHeap, "one", []byte("x"))
	r.Add(KindHeap, "two", []byte("y"))
	r2, err := OpenRing(dir, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := r2.Add(KindHeap, "three", []byte("z"))
	if err != nil {
		t.Fatal(err)
	}
	if c.Seq != 3 {
		t.Errorf("seq after reopen = %d, want 3", c.Seq)
	}
}

func TestRingPrunesOldest(t *testing.T) {
	dir := t.TempDir()
	r, _ := OpenRing(dir, 3, 0)
	for i := 0; i < 6; i++ {
		if _, err := r.Add(KindHeap, "n", []byte("data")); err != nil {
			t.Fatal(err)
		}
	}
	caps := r.List()
	if len(caps) != 3 {
		t.Fatalf("retained %d captures, want 3", len(caps))
	}
	if caps[0].Seq != 4 || caps[2].Seq != 6 {
		t.Errorf("retained seqs %d..%d, want 4..6", caps[0].Seq, caps[2].Seq)
	}

	// Byte budget prunes too.
	rb, _ := OpenRing(t.TempDir(), 100, 10)
	rb.Add(KindHeap, "a", []byte("12345678")) // 8 bytes
	rb.Add(KindHeap, "b", []byte("12345678")) // 16 total > 10: a goes
	caps = rb.List()
	if len(caps) != 1 || caps[0].Reason != "b" {
		t.Errorf("byte-pruned ring = %+v, want only b", caps)
	}
}

func TestRingOpenRejectsTraversal(t *testing.T) {
	dir := t.TempDir()
	r, _ := OpenRing(dir, 8, 0)
	// A real file outside the capture namespace must be unreachable.
	os.WriteFile(filepath.Join(dir, "secrets.txt"), []byte("no"), 0o644)
	for _, name := range []string{
		"../secrets.txt", "..%2Fsecrets.txt", "/etc/passwd",
		"secrets.txt", "00000001-heap.pprof", "x-heap-y.pprof",
	} {
		if _, err := r.Open(name); err == nil {
			t.Errorf("Open(%q) succeeded, want rejection", name)
		}
	}
}

func TestCaptureNowHeapAndGoroutine(t *testing.T) {
	r, _ := OpenRing(t.TempDir(), 8, 0)
	p := New(Options{Ring: r})
	caps, err := p.CaptureNow("unit", KindHeap, KindGoroutine)
	if err != nil {
		t.Fatal(err)
	}
	if len(caps) != 2 {
		t.Fatalf("captures = %d, want 2", len(caps))
	}
	for _, c := range caps {
		if c.Size == 0 {
			t.Errorf("capture %s is empty", c.Name)
		}
	}
}

func TestCaptureEventRateLimited(t *testing.T) {
	r, _ := OpenRing(t.TempDir(), 16, 0)
	p := New(Options{Ring: r, EventKinds: []string{KindGoroutine}, MinEventGap: time.Hour})
	p.CaptureEvent("page-1")
	p.CaptureEvent("page-2") // inside the gap: dropped
	p.Stop()                 // waits for the async capture
	caps := r.List()
	if len(caps) != 1 {
		t.Fatalf("captures = %d, want 1 (second event rate-limited)", len(caps))
	}
	if caps[0].Reason != "page-1" {
		t.Errorf("capture reason = %q", caps[0].Reason)
	}
}

func TestCPUGuard(t *testing.T) {
	r, _ := OpenRing(t.TempDir(), 8, 0)
	p := New(Options{Ring: r, CPUSeconds: 1})

	// Someone else (a -cpuprofile run, say) holds the CPU profiler.
	var sink strings.Builder
	if err := pprof.StartCPUProfile(&sink); err != nil {
		t.Skipf("cannot start ambient cpu profile: %v", err)
	}
	_, err := p.CaptureNow("busy", KindCPU)
	pprof.StopCPUProfile()
	if err == nil {
		t.Fatal("cpu capture with ambient profile active should fail")
	}
	if cpuActive.Load() {
		t.Fatal("failed cpu capture left the guard held")
	}

	// Our own guard: a second capture while one is in flight reports
	// ErrCPUBusy and stores nothing, and the other kinds still land.
	cpuActive.Store(true)
	caps, err := p.CaptureNow("guarded", KindCPU, KindHeap)
	cpuActive.Store(false)
	if !errors.Is(err, ErrCPUBusy) {
		t.Errorf("err = %v, want ErrCPUBusy", err)
	}
	if len(caps) != 1 || caps[0].Kind != KindHeap {
		t.Errorf("guarded captures = %+v, want the heap capture only", caps)
	}
}

func TestScheduledCaptures(t *testing.T) {
	r, _ := OpenRing(t.TempDir(), 16, 0)
	p := New(Options{Ring: r, Interval: 30 * time.Millisecond, ScheduledKinds: []string{KindGoroutine}})
	p.Start()
	deadline := time.Now().Add(5 * time.Second)
	for len(r.List()) < 2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	p.Stop()
	if got := len(r.List()); got < 2 {
		t.Fatalf("scheduled captures = %d, want >= 2", got)
	}
	for _, c := range r.List() {
		if c.Reason != "schedule" || c.Kind != KindGoroutine {
			t.Errorf("capture = %+v", c)
		}
	}
}
