package web

// HTTP semantics of the resilient search path: a backend outage the engine
// can degrade around is a 200 with degraded:true; an outage that leaves no
// serving tier is a 503 with Retry-After. Faults are forced through the
// engine-configured injector, the same activation -fault-spec uses.

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/synth"
	"repro/internal/trace"
)

// chaosServer builds a test server whose engine runs with the given fault
// injector and a short search budget.
func chaosServer(t *testing.T, inj *fault.Injector) (*httptest.Server, *eil.System) {
	t.Helper()
	corpus, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := eil.Ingest(corpus.Docs, eil.Options{
		Directory: corpus.Directory,
		Tracer:    trace.New(trace.Options{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Engine.Faults = inj
	sys.Engine.Resilient = core.Resilience{Budget: 2 * time.Second, MaxRetries: 1}
	srv := httptest.NewServer(HandlerFor(sys))
	t.Cleanup(srv.Close)
	return srv, sys
}

func TestSearchDegraded200WhenSynopsisDown(t *testing.T) {
	inj := fault.New(1)
	inj.Add(&fault.Rule{Site: fault.SiteSynopsisSearch, Mode: fault.ModeError})
	srv, sys := chaosServer(t, inj)

	tower := sys.Taxonomy.TowerNames()[0]
	resp, body := get(t, srv.URL+"/api/search?tower="+strings.ReplaceAll(tower, " ", "+")+"&all=the", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d, want 200; body %s", resp.StatusCode, body)
	}
	var res core.Result
	if err := json.Unmarshal([]byte(body), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Fatalf("degraded=false in %s", body)
	}
	if len(res.DegradedCauses) == 0 || res.DegradedCauses[0] != core.BackendSynopsis {
		t.Fatalf("causes = %v, want [synopsis]", res.DegradedCauses)
	}
	if !strings.Contains(body, `"degraded": true`) {
		t.Fatalf("JSON body lacks degraded:true: %s", body)
	}
	if sys.Metrics.Counter("http_degraded_total", "route", "/api/search", "cause", "synopsis").Value() == 0 {
		t.Fatal("http_degraded_total not counted")
	}
}

func TestSearchSynopsisPlusContactsWhenIndexDown(t *testing.T) {
	inj := fault.New(1)
	inj.Add(&fault.Rule{Site: fault.SiteSIAPISearch, Mode: fault.ModeError})
	srv, sys := chaosServer(t, inj)

	tower := sys.Taxonomy.TowerNames()[0]
	resp, body := get(t, srv.URL+"/api/search?tower="+strings.ReplaceAll(tower, " ", "+")+"&all=the", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d, want 200; body %s", resp.StatusCode, body)
	}
	var res core.Result
	if err := json.Unmarshal([]byte(body), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || len(res.DegradedCauses) == 0 || res.DegradedCauses[0] != core.BackendSIAPI {
		t.Fatalf("degraded=%v causes=%v, want siapi degrade", res.Degraded, res.DegradedCauses)
	}
	if len(res.Activities) == 0 {
		t.Fatal("no activities in synopsis-plus-contacts degrade")
	}
	for _, a := range res.Activities {
		if len(a.Docs) != 0 {
			t.Fatalf("activity %s still lists documents with the index down", a.DealID)
		}
		if a.Synopsis == nil {
			t.Fatalf("activity %s lacks a synopsis", a.DealID)
		}
		if len(a.Synopsis.People) == 0 {
			t.Fatalf("activity %s synopsis lacks contacts", a.DealID)
		}
	}
}

func TestSearch503WhenAllTiersDown(t *testing.T) {
	inj := fault.New(1)
	inj.Add(&fault.Rule{Site: fault.SiteSynopsisSearch, Mode: fault.ModeError})
	inj.Add(&fault.Rule{Site: fault.SiteSIAPISearch, Mode: fault.ModeError})
	srv, sys := chaosServer(t, inj)

	tower := sys.Taxonomy.TowerNames()[0]
	resp, body := get(t, srv.URL+"/api/search?tower="+strings.ReplaceAll(tower, " ", "+")+"&all=the", nil)
	if resp.StatusCode != 503 {
		t.Fatalf("status %d, want 503; body %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if sys.Metrics.Counter("http_unavailable_total", "route", "/api/search", "cause", "siapi").Value() == 0 {
		t.Fatal("http_unavailable_total not counted")
	}

	// A bad query must stay 4xx, not be confused with an outage.
	resp, _ = get(t, srv.URL+"/api/explore", nil)
	if resp.StatusCode != 400 {
		t.Fatalf("missing-id explore: %d, want 400", resp.StatusCode)
	}
}

func TestExplainCarriesDegradedSpanAttributes(t *testing.T) {
	inj := fault.New(1)
	inj.Add(&fault.Rule{Site: fault.SiteSynopsisSearch, Mode: fault.ModeError})
	srv, sys := chaosServer(t, inj)

	tower := sys.Taxonomy.TowerNames()[0]
	resp, body := get(t, srv.URL+"/api/search?explain=1&tower="+strings.ReplaceAll(tower, " ", "+")+"&all=the", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d; body %s", resp.StatusCode, body)
	}
	// The root span must carry the degraded attributes so the explain span
	// tree shows the outage (the web middleware forces a trace for explain).
	if !strings.Contains(body, "degraded_synopsis") {
		t.Fatalf("explain span tree lacks degraded attributes: %s", body)
	}
	_ = sys
}

func TestHomeDegradedBanner(t *testing.T) {
	inj := fault.New(1)
	inj.Add(&fault.Rule{Site: fault.SiteSynopsisSearch, Mode: fault.ModeError})
	srv, sys := chaosServer(t, inj)

	tower := sys.Taxonomy.TowerNames()[0]
	resp, body := get(t, srv.URL+"/?tower="+strings.ReplaceAll(tower, " ", "+")+"&all=the", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !strings.Contains(body, "Partial results") {
		t.Fatal("home page lacks the degraded banner")
	}
}
