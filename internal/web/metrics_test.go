package web

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro"
	"repro/internal/synth"
)

// TestMetricsEndpoint drives real traffic through the middleware and
// asserts the Prometheus exposition carries per-route request histograms,
// per-stage search timings, and ingest pipeline counters.
func TestMetricsEndpoint(t *testing.T) {
	srv, _ := testServer(t, nil)
	// Generate traffic: a scoped search (2xx), a bad request (4xx), a
	// keyword query, and a not-found page.
	get(t, srv.URL+"/api/search?"+url.Values{"tower": {"Storage Management Services"}, "exact": {"data replication"}}.Encode(), nil)
	get(t, srv.URL+"/api/deal", nil)
	get(t, srv.URL+"/api/keyword?q=replication", nil)
	get(t, srv.URL+"/nope", nil)

	resp, body := get(t, srv.URL+"/metrics", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	for _, want := range []string{
		// HTTP middleware.
		`http_requests_total{code="2xx",route="/api/search"} 1`,
		`http_requests_total{code="4xx",route="/api/deal"} 1`,
		`http_request_seconds_bucket{route="/api/search",le="+Inf"} 1`,
		`http_request_seconds_count{route="/api/search"} 1`,
		"# TYPE http_requests_total counter",
		"# TYPE http_request_seconds histogram",
		"http_in_flight_requests",
		// Online search stages.
		`search_stage_seconds_count{stage="synopsis"} 1`,
		`search_stage_seconds_count{stage="siapi"} 1`,
		`search_stage_seconds_count{stage="merge"} 1`,
		`search_stage_seconds_count{stage="access"} 1`,
		"search_total 1",
		"search_scoped_total 1",
		// Offline pipeline.
		"ingest_docs_total",
		"ingest_pipeline_seconds_count 1",
		`ingest_annotator_seconds_count{annotator="scope-ontology"}`,
		"ingest_docs_per_second",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, body)
		}
	}
	// The 404 hit the fallback "/" pattern, not an unmatched label.
	if !strings.Contains(body, `http_requests_total{code="4xx",route="/"} 1`) {
		t.Fatalf("/metrics missing 404 accounting:\n%s", body)
	}
}

func TestAPIMetricsJSON(t *testing.T) {
	srv, _ := testServer(t, nil)
	get(t, srv.URL+"/api/search?"+url.Values{"tower": {"EUS"}}.Encode(), nil)
	resp, body := get(t, srv.URL+"/api/metrics", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var snaps []struct {
		Name string
		Type string
	}
	if err := json.Unmarshal([]byte(body), &snaps); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	names := map[string]bool{}
	for _, s := range snaps {
		names[s.Name] = true
	}
	for _, want := range []string{"search_total", "ingest_docs_total", "http_requests_total"} {
		if !names[want] {
			t.Fatalf("/api/metrics missing %s in %v", want, names)
		}
	}
}

func TestPprofOption(t *testing.T) {
	corpus, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := eil.Ingest(corpus.Docs, eil.Options{Directory: corpus.Directory})
	if err != nil {
		t.Fatal(err)
	}
	// Without the option pprof is absent.
	plain := httptest.NewServer(HandlerFor(sys))
	t.Cleanup(plain.Close)
	if resp, _ := get(t, plain.URL+"/debug/pprof/", nil); resp.StatusCode != 404 {
		t.Fatalf("pprof mounted without option: %d", resp.StatusCode)
	}
	srv := httptest.NewServer(HandlerFor(sys, WithPprof()))
	t.Cleanup(srv.Close)
	resp, body := get(t, srv.URL+"/debug/pprof/", nil)
	if resp.StatusCode != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index: %d %q", resp.StatusCode, body[:min(len(body), 120)])
	}
}

func TestAccessLogOption(t *testing.T) {
	corpus, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := eil.Ingest(corpus.Docs, eil.Options{Directory: corpus.Directory})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	srv := httptest.NewServer(HandlerFor(sys, WithAccessLog(logger)))
	t.Cleanup(srv.Close)
	get(t, srv.URL+"/healthz", map[string]string{"X-EIL-User": "alice"})
	out := buf.String()
	for _, want := range []string{"route=/healthz", "status=200", "user=alice", "method=GET"} {
		if !strings.Contains(out, want) {
			t.Fatalf("access log missing %q: %s", want, out)
		}
	}
}
