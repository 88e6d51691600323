package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// smoke runs one workload at the toy scale, in-process.
func smoke(t *testing.T, workload string, traced bool) (*bench, result) {
	t.Helper()
	sc, err := scaleByName("smoke")
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{sc: sc, wl: workload, seed: 7, window: 600 * time.Millisecond, traced: traced, outDir: t.TempDir(), start: time.Now()}
	res, err := b.measure()
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	for _, note := range b.notes {
		t.Errorf("%s: wrong answer: %s", workload, note)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", workload, res.Correct, res.Attempted, res.Failed)
	}
	return b, res
}

// Every workload reports every end-to-end metric, finite and above zero,
// with no failed operation and a passing durability check.
func TestWorkloadsSmoke(t *testing.T) {
	for _, wl := range workloads {
		_, res := smoke(t, wl, false)
		if len(res.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics, want %d", wl, len(res.Metrics), len(endToEnd))
		}
		for _, d := range endToEnd {
			m, ok := res.Metrics[d.name]
			if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value <= 0 {
				t.Errorf("%s: %s = %+v (present %v)", wl, d.name, m, ok)
			}
		}
	}
}

// The traced run reports every per-layer metric, its span file is
// well-formed, and the layers nest: a layer's median is not below the
// median of the layer it calls. eil adds almost nothing to core, so the
// comparison leaves room for noise between two near-equal medians.
func TestTracedSmoke(t *testing.T) {
	b, res := smoke(t, "mixed", true)
	for _, d := range perLayer() {
		m, ok := res.Metrics[d.name]
		if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0 {
			t.Errorf("%s = %+v (present %v)", d.name, m, ok)
		}
	}
	if len(res.Metrics) != len(perLayer()) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(perLayer()))
	}
	spans, err := readSpans(b.spanFile())
	if err != nil {
		t.Fatal(err)
	}
	byID := map[int64]span{}
	for _, s := range spans {
		if s.End < s.Start || s.ID == 0 || s.Req == 0 {
			t.Fatalf("malformed span %+v", s)
		}
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok || p.Req != s.Req {
			t.Fatalf("span %+v: parent does not resolve within its request", s)
		}
	}
	for _, name := range []string{"web.search", "eil.search", "core.search", "synopsis.search", "siapi.activities",
		"sqlx.query", "index.search", "eil.add", "analysis.flow", "durable.append", "eil.checkpoint", "eil.load"} {
		if res.Metrics[name+".calls"].Value == 0 {
			t.Errorf("no %s span recorded", name)
		}
	}

	_, res = smoke(t, "read_cold", true)
	web, eil, core := res.Metrics["web.search.p50_us"].Value, res.Metrics["eil.search.p50_us"].Value, res.Metrics["core.search.p50_us"].Value
	if web < eil/2 || eil < core/2 {
		t.Errorf("layers do not nest: web.search %.1f us, eil.search %.1f us, core.search %.1f us", web, eil, core)
	}
}

// The same seed generates the same request stream; another seed another.
func TestStreamDeterminism(t *testing.T) {
	sc, _ := scaleByName("smoke")
	in, err := ingest(sc.c103)
	if err != nil {
		t.Fatal(err)
	}
	p, err := buildPools(in.sys)
	if err != nil {
		t.Fatal(err)
	}
	a, again, other := streamHash(p, 1, 500), streamHash(p, 1, 500), streamHash(p, 2, 500)
	if a != again {
		t.Errorf("seed 1 hashed to %s, then %s", a, again)
	}
	if a == other {
		t.Errorf("seeds 1 and 2 both hash to %s", a)
	}
	// Pools depend on the corpus alone: rebuilt, they give the same stream.
	q, err := buildPools(in.sys)
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt := streamHash(q, 1, 500); rebuilt != a {
		t.Errorf("rebuilt pools hash to %s, want %s", rebuilt, a)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v %v %v", q1, q2, q3)
	}
}

// BENCHMARK.json and the program list the same workloads and metrics.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		RunSeconds float64 `json:"run_seconds"`
		Workloads  []struct{ Name string }
		EndToEnd   []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer   []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, w := range file.Workloads {
		got = append(got, w.Name)
	}
	if !reflect.DeepEqual(got, workloads) {
		t.Errorf("workloads %v, program has %v", got, workloads)
	}
	same := func(kind string, file []struct{ Name, Unit string }, defs []metricDef) {
		got, want = nil, nil
		for _, m := range file {
			got = append(got, m.Name+" "+m.Unit)
		}
		for _, d := range defs {
			want = append(want, d.name+" "+d.unit)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s metrics differ:\n file    %v\n program %v", kind, got, want)
		}
	}
	same("end-to-end", file.EndToEnd, endToEnd)
	same("per-layer", file.PerLayer, perLayer())
	if sc, _ := scaleByName("full"); sc.window.Seconds() != file.RunSeconds {
		t.Errorf("run_seconds %v, the full scale's default window is %v", file.RunSeconds, sc.window)
	}
}
