package web

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro"
	"repro/internal/runtimetel"
	"repro/internal/serving"
	"repro/internal/slo"
	"repro/internal/synth"
)

// The dashboard draws its panels from the collector's sample history: two
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
	collector := runtimetel.New(runtimetel.Options{AppSampler: serving.AppSampler(sys, sloEng)})
	srv := httptest.NewServer(HandlerFor(sys, WithSLO(sloEng), WithRuntime(collector), WithPprof()))
	defer srv.Close()

	collector.SampleNow()
	for i := 0; i < 40; i++ {
		resp, body := get(t, srv.URL+"/api/search?tower="+url.QueryEscape("Desktop Support"), nil)
		if resp.StatusCode != http.StatusOK || body == "" {
			t.Fatalf("search %d = %d, %d bytes", i, resp.StatusCode, len(body))
		}
	}
	collector.SampleNow()

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
