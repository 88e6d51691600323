package web

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/fault"
	"repro/internal/slo"
	"repro/internal/synth"
)

// The dashboard draws its panels from the SLO engine's sample history: two
// samples with real traffic between them render the QPS and goroutine
// panels as sparklines. /debug/pprof is the one profiler the server mounts;
// nothing answers at /debug/prof.
func TestDashDrawsSampledHistory(t *testing.T) {
	corpus, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := eil.Ingest(corpus.Docs, eil.Options{Directory: corpus.Directory})
	if err != nil {
		t.Fatal(err)
	}
	sloEng := slo.New(slo.Options{Registry: sys.Registry()})
	srv := httptest.NewServer(HandlerFor(sys, WithSLO(sloEng), WithPprof()))
	defer srv.Close()

	sloEng.Tick(time.Now())
	for i := 0; i < 40; i++ {
		resp, body := get(t, srv.URL+"/api/search?tower="+url.QueryEscape("Desktop Support"), nil)
		if resp.StatusCode != http.StatusOK || body == "" {
			t.Fatalf("search %d = %d, %d bytes", i, resp.StatusCode, len(body))
		}
	}
	sloEng.Tick(time.Now())

	resp, body := get(t, srv.URL+"/debug/dash", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/dash = %d", resp.StatusCode)
	}
	for _, want := range []string{`<div class="panel"><h3>QPS</h3>`, `<h3>Goroutines</h3>`, "<polyline", "2 samples"} {
		if !strings.Contains(body, want) {
			t.Fatalf("/debug/dash lacks %q", want)
		}
	}
	if strings.Contains(body, `<h3>QPS</h3><div class="v">0.0</div>`) {
		t.Fatal("QPS panel reads 0.0 after 40 searches between the two samples")
	}

	if resp, _ := get(t, srv.URL+"/debug/pprof/", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/ = %d, want 200", resp.StatusCode)
	}
	for _, path := range []string{"/debug/prof", "/debug/prof/00000001-heap-page.pprof"} {
		if resp, _ := get(t, srv.URL+path, nil); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s = %d, want 404", path, resp.StatusCode)
		}
	}
}

// One tick feeds every surface: after it, /metrics, the dashboard and
// /api/slo report the figures History's newest sample holds. The ticks run
// at a fixed past time, so a surface that re-read the runtime or
// re-evaluated the burn rates at request time would disagree.
func TestOneTickFeedsMetricsSLOAndDash(t *testing.T) {
	inj := fault.New(1)
	srv, sys, sloEng := opsServer(t, inj)
	search := func(tower string) string {
		return srv.URL + "/api/search?tower=" + url.QueryEscape(tower) + "&all=the"
	}
	towers := sys.Taxonomy.TowerNames()
	t0 := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	sloEng.Tick(t0)
	for i := 0; i < 4; i++ {
		get(t, search(towers[1]), nil)
	}
	inj.Add(&fault.Rule{Site: fault.SiteSynopsisSearch, Mode: fault.ModeError})
	inj.Add(&fault.Rule{Site: fault.SiteSIAPISearch, Mode: fault.ModeError})
	for i := 0; i < 4; i++ {
		if resp, _ := get(t, search(towers[0]), nil); resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("faulted search = %d, want 503", resp.StatusCode)
		}
	}
	sloEng.Tick(t0.Add(time.Minute))
	hist := sloEng.History()
	last := hist[len(hist)-1]

	_, metrics := get(t, srv.URL+"/metrics", nil)
	_, dash := get(t, srv.URL+"/debug/dash", nil)
	_, body := get(t, srv.URL+"/api/slo", nil)
	// gauge is the largest value /metrics reports under a name whose
	// labels include label.
	gauge := func(prefix, label string) (peak float64) {
		found := false
		for _, line := range strings.Split(metrics, "\n") {
			if name, v, ok := strings.Cut(line, " "); ok && strings.HasPrefix(name, prefix) && strings.Contains(name, label) {
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					t.Fatalf("/metrics line %q: %v", line, err)
				}
				peak, found = max(peak, f), true
			}
		}
		if !found {
			t.Fatalf("/metrics lacks %s", prefix)
		}
		return peak
	}
	panel := func(title string) string {
		m := regexp.MustCompile(`<h3>` + regexp.QuoteMeta(title) + `</h3><div class="v">([^<]*)</div>`).FindStringSubmatch(dash)
		if m == nil {
			t.Fatalf("/debug/dash lacks the %q panel", title)
		}
		return m[1]
	}

	if got := gauge("runtime_heap_live_bytes", ""); got != float64(last.HeapLiveBytes) {
		t.Errorf("runtime_heap_live_bytes = %v, newest sample %d", got, last.HeapLiveBytes)
	}
	wantHeap := fmt.Sprintf("%.1f MiB (goal %.1f)", float64(last.HeapLiveBytes)/(1<<20), float64(last.HeapGoalBytes)/(1<<20))
	if got := panel("Heap live"); got != wantHeap {
		t.Errorf("dash heap = %q, newest sample %q", got, wantHeap)
	}

	var rep slo.Report
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.CheckedAt.Equal(t0.Add(time.Minute)) {
		t.Errorf("/api/slo checked_at = %v, want the last tick's %v", rep.CheckedAt, t0.Add(time.Minute))
	}
	apiPeak := 0.0
	for _, rr := range rep.Routes {
		apiPeak = max(apiPeak, rr.Windows[0].AvailabilityBurn, rr.Windows[0].LatencyBurn)
	}
	if apiPeak <= 0 {
		t.Fatalf("/api/slo 5m peak burn = %v after four 503s, want > 0", apiPeak)
	}
	if got := gauge("eil_slo_burn_rate{", `window="5m0s"`); got != apiPeak {
		t.Errorf("worst eil_slo_burn_rate = %v, /api/slo says %v", got, apiPeak)
	}
	if last.PeakBurn != apiPeak {
		t.Errorf("newest sample's PeakBurn = %v, /api/slo says %v", last.PeakBurn, apiPeak)
	}
	if got, want := panel("SLO burn (5m, worst route)"), fmt.Sprintf("%.2fx", apiPeak); got != want {
		t.Errorf("dash SLO burn = %q, /api/slo says %q", got, want)
	}
}
