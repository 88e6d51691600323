package runtimetel

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestSampleNowFillsRuntimeFields(t *testing.T) {
	reg := obs.NewRegistry()
	c := New(Options{Registry: reg})
	runtime.GC() // at least one pause in the cumulative distribution
	s := c.SampleNow()

	if s.Time.IsZero() {
		t.Fatal("sample has no timestamp")
	}
	if s.Goroutines <= 0 {
		t.Fatalf("goroutines = %d, want > 0", s.Goroutines)
	}
	if s.HeapLiveBytes == 0 || s.HeapGoalBytes == 0 {
		t.Fatalf("heap live/goal = %d/%d, want both nonzero", s.HeapLiveBytes, s.HeapGoalBytes)
	}
	if s.GCCycles == 0 {
		t.Fatal("gc cycles = 0 after an explicit runtime.GC()")
	}
	if v := reg.Gauge("runtime_goroutines").Value(); v != float64(s.Goroutines) {
		t.Fatalf("runtime_goroutines gauge = %v, sample says %d", v, s.Goroutines)
	}
	if v := reg.Gauge("runtime_heap_live_bytes").Value(); v == 0 {
		t.Fatal("runtime_heap_live_bytes gauge not set")
	}
}

func TestRingBoundsHistory(t *testing.T) {
	c := New(Options{})
	var last Sample
	for i := 0; i < DefRingSize+3; i++ {
		last = c.SampleNow()
	}
	h := c.History()
	if len(h) != DefRingSize {
		t.Fatalf("history length = %d, want ring size %d", len(h), DefRingSize)
	}
	for i := 1; i < len(h); i++ {
		if h[i].Time.Before(h[i-1].Time) {
			t.Fatal("history not oldest-first")
		}
	}
	if !h[len(h)-1].Time.Equal(last.Time) {
		t.Fatal("newest history entry is not the last sample taken")
	}
}

func TestAppSamplerFoldsInto(t *testing.T) {
	var prevSeen bool
	c := New(Options{
		AppSampler: func(prev, cur *Sample) {
			prevSeen = prev != nil
			if cur.App == nil {
				cur.App = map[string]float64{}
			}
			cur.App["qps"] = 42
		},
	})
	first := c.SampleNow()
	if prevSeen {
		t.Fatal("AppSampler saw a prev on the first tick")
	}
	if first.App["qps"] != 42 {
		t.Fatalf("first sample App = %v, want qps 42", first.App)
	}
	c.SampleNow()
	if !prevSeen {
		t.Fatal("AppSampler did not receive prev on the second tick")
	}
}

func TestStartStop(t *testing.T) {
	c := New(Options{Interval: time.Millisecond})
	c.Start()
	deadline := time.After(time.Second)
	for {
		if len(c.History()) > 0 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("no sample within 1s of Start")
		case <-time.After(time.Millisecond):
		}
	}
	c.Stop()
	c.Stop() // idempotent

	unstarted := New(Options{})
	unstarted.Stop() // must not hang
}

func TestSetBuildInfo(t *testing.T) {
	reg := obs.NewRegistry()
	SetBuildInfo(reg)
	found := false
	for _, s := range reg.Snapshots() {
		if s.Name == "eil_build_info" {
			found = true
			if s.Value != 1 {
				t.Fatalf("eil_build_info = %v, want constant 1", s.Value)
			}
			if s.Labels["go_version"] == "" {
				t.Fatal("eil_build_info lacks go_version label")
			}
			if s.Labels["revision"] == "" {
				t.Fatal("eil_build_info lacks revision label (should be 'unknown' outside VCS)")
			}
		}
	}
	if !found {
		t.Fatal("eil_build_info gauge not exported")
	}
}

func TestHistQuantile(t *testing.T) {
	if got := histQuantile(nil, 0.5); got != 0 {
		t.Fatalf("nil histogram quantile = %v, want 0", got)
	}
}
