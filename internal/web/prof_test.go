package web

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/prof"
	"repro/internal/runtimetel"
	"repro/internal/slo"
	"repro/internal/synth"
)

// The profile-capture path end to end: the server has taken traffic, the SLO
// engine pages, the page event triggers an automatic profile capture, and
// the capture is retrievable from the ring over /debug/prof.
func TestPageEventCapturesRetrievableProfile(t *testing.T) {
	corpus, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := eil.Ingest(corpus.Docs, eil.Options{Directory: corpus.Directory})
	if err != nil {
		t.Fatal(err)
	}

	ring, err := prof.OpenRing(t.TempDir(), 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	// CPU is excluded from the event bundle here only to keep the test
	// fast; heap and goroutine are real pprof captures.
	profiler := prof.New(prof.Options{
		Ring:        ring,
		EventKinds:  []string{prof.KindHeap, prof.KindGoroutine},
		MinEventGap: time.Millisecond,
		Registry:    sys.Registry(),
	})
	var pages []string
	sloEng := slo.New(slo.Options{
		Registry: sys.Registry(),
		Interval: time.Minute,
		OnAlert: func(route, alert string) {
			pages = append(pages, route+":"+alert)
			if alert == "page" {
				profiler.CaptureEvent("page-" + route)
			}
		},
	})

	collector := runtimetel.New(runtimetel.Options{})
	srv := httptest.NewServer(HandlerFor(sys, WithSLO(sloEng), WithProfiles(ring), WithRuntime(collector)))
	defer srv.Close()

	// Real traffic against the live server before the page (the captures
	// should reflect a system that has served, not an idle one).
	collector.SampleNow()
	for i := 0; i < 40; i++ {
		resp, body := get(t, srv.URL+"/api/search?tower="+url.QueryEscape("Desktop Support"), nil)
		if resp.StatusCode != http.StatusOK || body == "" {
			t.Fatalf("search %d = %d, %d bytes", i, resp.StatusCode, len(body))
		}
	}
	collector.SampleNow()

	// The dashboard draws its sparkline panels from the two samples.
	resp, body := get(t, srv.URL+"/debug/dash", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/dash = %d", resp.StatusCode)
	}
	for _, want := range []string{`<div class="panel"><h3>QPS</h3>`, `<h3>Goroutines</h3>`, "<polyline"} {
		if !strings.Contains(body, want) {
			t.Fatalf("/debug/dash lacks %q", want)
		}
	}

	// Force the page: a burst of 5xx against the availability budget. The
	// burn-rate windows need a pre-outage base sample, so tick, fail, tick.
	t0 := time.Now()
	sloEng.Tick(t0)
	for i := 0; i < 50; i++ {
		sys.Registry().Counter("http_requests_total", "route", "/api/search", "code", "5xx").Inc()
	}
	sloEng.Tick(t0.Add(time.Minute))
	profiler.Stop() // waits for the async event capture

	if len(pages) == 0 || !strings.Contains(strings.Join(pages, ","), "page") {
		t.Fatalf("no page alert fired; transitions = %v", pages)
	}
	caps := ring.List()
	if len(caps) == 0 {
		t.Fatal("page event stored no captures in the ring")
	}
	for _, c := range caps {
		if !strings.HasPrefix(c.Reason, "page-") {
			t.Errorf("capture %s reason = %q, want page-*", c.Name, c.Reason)
		}
	}

	// The capture must be retrievable over the ops surface: listed by
	// /debug/prof and downloadable by name.
	resp, body = get(t, srv.URL+"/debug/prof?format=json", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/prof = %d", resp.StatusCode)
	}
	var listed []prof.Capture
	if err := json.Unmarshal([]byte(body), &listed); err != nil {
		t.Fatalf("prof list JSON: %v", err)
	}
	if len(listed) != len(caps) {
		t.Fatalf("listed %d captures, ring has %d", len(listed), len(caps))
	}
	resp, body = get(t, srv.URL+"/debug/prof/"+listed[0].Name, nil)
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("capture download = %d, %d bytes", resp.StatusCode, len(body))
	}

	// HTML listing renders too.
	resp, body = get(t, srv.URL+"/debug/prof", nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, listed[0].Name) {
		t.Fatalf("/debug/prof HTML missing capture link (status %d)", resp.StatusCode)
	}

	// Traversal attempts bounce.
	resp, _ = get(t, srv.URL+"/debug/prof/..%2F..%2Fetc%2Fpasswd", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("traversal fetch = %d, want 404", resp.StatusCode)
	}
}
