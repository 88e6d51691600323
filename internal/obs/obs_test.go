package obs

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, per = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Counter("hits_total", "worker", "shared").Inc()
				r.Gauge("inflight").Add(1)
				r.Gauge("inflight").Add(-1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits_total", "worker", "shared").Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if got := r.Gauge("inflight").Value(); got != 0 {
		t.Fatalf("gauge = %v, want 0", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", []float64{0.01, 0.1, 1})
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(0.05)
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != workers*per {
		t.Fatalf("count = %d, want %d", got, workers*per)
	}
	want := 0.05 * workers * per
	if got := h.Sum(); got < want*0.999 || got > want*1.001 {
		t.Fatalf("sum = %v, want ~%v", got, want)
	}
	cum := h.CumulativeCounts()
	if cum[0] != 0 || cum[1] != workers*per || cum[3] != workers*per {
		t.Fatalf("cumulative = %v", cum)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("b", []float64{0.01, 0.1, 1})
	// Exact boundary values land in their own bucket (le semantics).
	h.Observe(0.01)
	h.Observe(0.1)
	h.Observe(1)
	// Interior and overflow values.
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(42)
	cum := h.CumulativeCounts()
	want := []int64{2, 4, 5, 6} // le=0.01: {0.01, 0.005}; le=0.1: +{0.1, 0.05}; le=1: +{1}; +Inf: +{42}
	for i := range want {
		if cum[i] != want[i] {
			t.Fatalf("cumulative = %v, want %v", cum, want)
		}
	}
	if got := h.Count(); got != 6 {
		t.Fatalf("count = %d", got)
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q", []float64{1, 2, 4})
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %v", got)
	}
	for i := 0; i < 100; i++ {
		h.Observe(0.5) // all in the le=1 bucket
	}
	p50 := h.Quantile(0.5)
	if p50 <= 0 || p50 > 1 {
		t.Fatalf("p50 = %v, want within (0, 1]", p50)
	}
	h.Observe(100) // +Inf bucket clamps to the top finite bound
	if got := h.Quantile(1); got != 4 {
		t.Fatalf("p100 = %v, want 4", got)
	}

	// Interpolation inside the owning bucket, and a rank that ends exactly
	// on a bound.
	h = r.Histogram("q2", []float64{0.1, 0.2})
	for i := 0; i < 50; i++ {
		h.Observe(0.05)
		h.Observe(0.15)
	}
	if got := h.Quantile(0.5); got != 0.1 {
		t.Errorf("p50 = %v, want 0.1", got)
	}
	// rank 75 is halfway through the second bucket's 50 observations.
	if got := h.Quantile(0.75); got < 0.1499 || got > 0.1501 {
		t.Errorf("p75 = %v, want ~0.15", got)
	}
}

func TestHistogramCountLE(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("le", []float64{0.1, 0.25, 0.5})
	// 10 <=0.1, 20 in (0.1,0.25], 10 in (0.25,0.5], and one in +Inf, which
	// counts as above every finite threshold.
	for i := 0; i < 10; i++ {
		h.Observe(0.05)
		h.Observe(0.2)
		h.Observe(0.2)
		h.Observe(0.4)
	}
	h.Observe(7)
	cases := []struct {
		threshold float64
		want      float64
	}{
		{0.1, 10},   // exact bound
		{0.25, 30},  // exact bound
		{0.175, 20}, // midpoint of (0.1, 0.25] -> half its 20
		{0.05, 5},   // halfway into the first bucket
		{1.0, 40},   // past the last bound: everything finite
		{0.375, 35}, // midpoint of (0.25, 0.5]
	}
	for _, c := range cases {
		if got := h.CountLE(c.threshold); got != c.want {
			t.Errorf("CountLE(%v) = %v, want %v", c.threshold, got, c.want)
		}
	}
	if got := r.Histogram("none", []float64{}).CountLE(0.5); got != 0 {
		t.Errorf("CountLE with no buckets = %v, want 0", got)
	}
	var nilHist *Histogram
	if got := nilHist.CountLE(0.5); got != 0 {
		t.Errorf("nil CountLE = %v, want 0", got)
	}
}

func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("http_requests_total", "route", "/api/search", "code", "2xx").Add(3)
	r.Counter("http_requests_total", "route", "/healthz", "code", "2xx").Inc()
	r.Gauge("ingest_docs_per_second").Set(1250.5)
	h := r.Histogram("search_seconds", []float64{0.001, 0.01})
	h.Observe(0.0005)
	h.Observe(0.5)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE http_requests_total counter
http_requests_total{code="2xx",route="/api/search"} 3
http_requests_total{code="2xx",route="/healthz"} 1
# TYPE ingest_docs_per_second gauge
ingest_docs_per_second 1250.5
# TYPE search_seconds histogram
search_seconds_bucket{le="0.001"} 1
search_seconds_bucket{le="0.01"} 1
search_seconds_bucket{le="+Inf"} 2
search_seconds_sum 0.5005
search_seconds_count 2
`
	if got := b.String(); got != want {
		t.Fatalf("rendering mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("c", "k", "a\"b\\c\nd").Inc()
	var b strings.Builder
	r.WritePrometheus(&b)
	if !strings.Contains(b.String(), `c{k="a\"b\\c\nd"} 1`) {
		t.Fatalf("unescaped labels: %q", b.String())
	}
}

func TestSameLabelsDifferentOrder(t *testing.T) {
	r := NewRegistry()
	r.Counter("c", "a", "1", "b", "2").Inc()
	r.Counter("c", "b", "2", "a", "1").Inc()
	if got := r.Counter("c", "a", "1", "b", "2").Value(); got != 2 {
		t.Fatalf("label order split the metric: %d", got)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter held a value")
	}
	g := r.Gauge("y")
	g.Set(1)
	g.Add(2)
	if g.Value() != 0 {
		t.Fatal("nil gauge held a value")
	}
	h := r.Histogram("z", nil)
	h.Observe(1)
	h.ObserveDuration(time.Second)
	if h.Count() != 0 || h.Sum() != 0 || h.CumulativeCounts() != nil || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram held state")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	if r.Snapshots() != nil {
		t.Fatal("nil registry produced snapshots")
	}
	StartTimer().ObserveInto(nil)
}

func TestSnapshotsJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total").Add(7)
	r.Gauge("b").Set(2.5)
	r.Histogram("c_seconds", []float64{1}).Observe(0.5)
	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var snaps []Snapshot
	if err := json.Unmarshal([]byte(b.String()), &snaps); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(snaps) != 3 {
		t.Fatalf("snapshots = %d", len(snaps))
	}
	if snaps[0].Name != "a_total" || snaps[0].Value != 7 {
		t.Fatalf("counter snapshot = %+v", snaps[0])
	}
	if snaps[2].Name != "c_seconds" || snaps[2].Count != 1 || snaps[2].Buckets["1"] != 1 || snaps[2].Buckets["+Inf"] != 1 {
		t.Fatalf("histogram snapshot = %+v", snaps[2])
	}
}

func TestTimer(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("t_seconds", nil)
	tm := StartTimer()
	time.Sleep(time.Millisecond)
	d := tm.ObserveInto(h)
	if d < time.Millisecond {
		t.Fatalf("elapsed = %v", d)
	}
	if h.Count() != 1 || h.Sum() < 0.001 {
		t.Fatalf("histogram = count %d sum %v", h.Count(), h.Sum())
	}
}

func TestRegistryConcurrentCreation(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Counter("created_total", "shard", "s").Inc()
				r.Histogram("created_seconds", nil, "shard", "s").Observe(0.001)
				r.Gauge("created", "shard", "s").Set(1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("created_total", "shard", "s").Value(); got != 1600 {
		t.Fatalf("counter = %d", got)
	}
	if got := r.Histogram("created_seconds", nil, "shard", "s").Count(); got != 1600 {
		t.Fatalf("histogram count = %d", got)
	}
}

func TestObserveWithExemplar(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("stage_seconds", []float64{0.01, 0.1, 1})
	h.ObserveWithExemplar(0.005, "aaaa000000000001")
	h.ObserveWithExemplar(0.008, "aaaa000000000002") // same bucket: most recent wins
	h.ObserveWithExemplar(0.5, "bbbb000000000001")
	h.ObserveWithExemplar(5, "cccc000000000001") // +Inf bucket
	h.ObserveWithExemplar(0.05, "")              // empty trace ID: plain Observe

	ex := h.Exemplars()
	if len(ex) != 4 {
		t.Fatalf("want 4 exemplar slots, got %d", len(ex))
	}
	if ex[0] == nil || ex[0].TraceID != "aaaa000000000002" || ex[0].Value != 0.008 {
		t.Fatalf("bucket 0 exemplar = %+v, want most recent", ex[0])
	}
	if ex[1] != nil {
		t.Fatalf("bucket 1 got an exemplar from an empty trace ID: %+v", ex[1])
	}
	if ex[2] == nil || ex[2].TraceID != "bbbb000000000001" {
		t.Fatalf("bucket 2 exemplar = %+v", ex[2])
	}
	if ex[3] == nil || ex[3].TraceID != "cccc000000000001" {
		t.Fatalf("+Inf exemplar = %+v", ex[3])
	}
	if h.Count() != 5 {
		t.Fatalf("exemplar observations must still count: %d", h.Count())
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	want := `stage_seconds_bucket{le="0.01"} 2 # {trace_id="aaaa000000000002"} 0.008 `
	if !strings.Contains(out, want) {
		t.Fatalf("exposition missing exemplar line %q:\n%s", want, out)
	}
	if !strings.Contains(out, `le="+Inf"} 5 # {trace_id="cccc000000000001"} 5 `) {
		t.Fatalf("exposition missing +Inf exemplar:\n%s", out)
	}
	// The no-exemplar bucket renders exactly as before.
	if !strings.Contains(out, "stage_seconds_bucket{le=\"0.1\"} 3\n") {
		t.Fatalf("plain bucket line changed:\n%s", out)
	}
}

func TestObserveWithExemplarNilSafe(t *testing.T) {
	var r *Registry
	h := r.Histogram("z", nil)
	h.ObserveWithExemplar(1, "deadbeefdeadbeef")
	h.ObserveDurationWithExemplar(time.Second, "deadbeefdeadbeef")
	if h.Exemplars() != nil {
		t.Fatal("nil histogram retained exemplars")
	}
}

func TestExemplarConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("c", []float64{1})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := fmt.Sprintf("%016x", w)
			for i := 0; i < 1000; i++ {
				h.ObserveWithExemplar(0.5, id)
				_ = h.Exemplars()
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d", h.Count())
	}
	if ex := h.Exemplars(); ex[0] == nil {
		t.Fatal("no exemplar retained")
	}
}

func TestSetBuildInfo(t *testing.T) {
	reg := NewRegistry()
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
