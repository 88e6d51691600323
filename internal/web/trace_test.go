package web

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/obs"
	"repro/internal/serving"
	"repro/internal/siapi"
	"repro/internal/slo"
	"repro/internal/synth"
	"repro/internal/trace"
)

// tracedServer is testServer with request tracing enabled.
func tracedServer(t *testing.T) (*httptest.Server, *eil.System) {
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
	srv := httptest.NewServer(HandlerFor(sys))
	t.Cleanup(srv.Close)
	return srv, sys
}

func TestTraceIDRoundTrip(t *testing.T) {
	srv, _ := tracedServer(t)
	u := srv.URL + "/api/search?" + url.Values{"tower": {"EUS"}}.Encode()

	// A traced request gets a minted ID echoed in the response header.
	resp, _ := get(t, u, nil)
	minted := resp.Header.Get("X-Trace-ID")
	if len(minted) != 16 {
		t.Fatalf("minted trace id = %q", minted)
	}

	// An inbound X-Trace-ID is adopted and echoed back verbatim.
	resp, _ = get(t, u, map[string]string{"X-Trace-ID": "cafe0123cafe0123"})
	if got := resp.Header.Get("X-Trace-ID"); got != "cafe0123cafe0123" {
		t.Fatalf("inbound trace id not echoed: %q", got)
	}

	// Both traces are findable in the debug listing by their IDs.
	_, body := get(t, srv.URL+"/debug/traces?format=json", nil)
	var listing struct {
		Recent []struct {
			ID    string `json:"id"`
			Route string `json:"route"`
		} `json:"recent"`
	}
	if err := json.Unmarshal([]byte(body), &listing); err != nil {
		t.Fatalf("bad listing JSON: %v", err)
	}
	// The ingest tracer is shared, so flush traces are listed too; only the
	// two search traces matter here.
	routes := map[string]string{}
	for _, s := range listing.Recent {
		routes[s.ID] = s.Route
	}
	if routes[minted] != "/api/search" || routes["cafe0123cafe0123"] != "/api/search" {
		t.Fatalf("search traces missing from listing: %v", routes)
	}
}

func TestDebugTraceDetail(t *testing.T) {
	srv, _ := tracedServer(t)
	u := srv.URL + "/api/search?" + url.Values{
		"tower": {"Storage Management Services"},
		"exact": {"data replication"},
	}.Encode()
	resp, _ := get(t, u, nil)
	id := resp.Header.Get("X-Trace-ID")
	if id == "" {
		t.Fatal("no trace id on search response")
	}

	_, body := get(t, srv.URL+"/debug/trace/"+id+"?format=json", nil)
	var detail struct {
		Summary trace.Summary `json:"summary"`
		Tree    *trace.Node   `json:"tree"`
	}
	if err := json.Unmarshal([]byte(body), &detail); err != nil {
		t.Fatalf("bad detail JSON: %v", err)
	}
	if detail.Summary.ID != id || detail.Tree == nil {
		t.Fatalf("detail = %+v", detail)
	}
	names := map[string]bool{}
	detail.Tree.Walk(func(n *trace.Node) { names[n.Name] = true })
	for _, want := range []string{"search.compose", "search.synopsis", "search.siapi", "search.combine", "search.access"} {
		if !names[want] {
			t.Fatalf("stage %q missing from tree: %v", want, names)
		}
	}

	// HTML rendering works too.
	resp, html := get(t, srv.URL+"/debug/trace/"+id, nil)
	if resp.StatusCode != 200 || !strings.Contains(html, "search.siapi") {
		t.Fatalf("html detail: %d", resp.StatusCode)
	}

	// Unknown IDs 404.
	resp, _ = get(t, srv.URL+"/debug/trace/ffffffffffffffff", nil)
	if resp.StatusCode != 404 {
		t.Fatalf("unknown trace status = %d", resp.StatusCode)
	}
}

func TestAPISearchExplain(t *testing.T) {
	srv, _ := tracedServer(t)
	u := srv.URL + "/api/search?explain=1&" + url.Values{
		"tower": {"Storage Management Services"},
		"exact": {"data replication"},
	}.Encode()
	resp, body := get(t, u, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Result struct {
			Activities []struct {
				DealID string  `json:"DealID"`
				Score  float64 `json:"Score"`
			}
		} `json:"result"`
		Explain struct {
			TraceID string      `json:"trace_id"`
			Trace   *trace.Node `json:"trace"`
			Stages  []string    `json:"stages"`
			Scores  []struct {
				DealID            string  `json:"deal_id"`
				SynopsisComponent float64 `json:"synopsis_component"`
				DocComponent      float64 `json:"doc_component"`
				Total             float64 `json:"total"`
			} `json:"scores"`
		} `json:"explain"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if out.Explain.TraceID != resp.Header.Get("X-Trace-ID") {
		t.Fatalf("explain trace id %q != header %q", out.Explain.TraceID, resp.Header.Get("X-Trace-ID"))
	}
	if out.Explain.Trace == nil || len(out.Explain.Stages) < 4 {
		t.Fatalf("stages = %v", out.Explain.Stages)
	}
	if len(out.Result.Activities) == 0 || len(out.Explain.Scores) != len(out.Result.Activities) {
		t.Fatalf("activities = %d, scores = %d", len(out.Result.Activities), len(out.Explain.Scores))
	}
	for i, sc := range out.Explain.Scores {
		a := out.Result.Activities[i]
		if sc.DealID != a.DealID {
			t.Fatalf("score %d deal mismatch", i)
		}
		if sc.SynopsisComponent+sc.DocComponent != sc.Total || sc.Total != a.Score {
			t.Fatalf("%s: %v + %v != %v (score %v)", sc.DealID, sc.SynopsisComponent, sc.DocComponent, sc.Total, a.Score)
		}
	}

	// The forced explain trace is retained and linkable.
	resp, _ = get(t, srv.URL+"/debug/trace/"+out.Explain.TraceID+"?format=json", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("explain trace not retained: %d", resp.StatusCode)
	}
}

func TestUntracedRoutes(t *testing.T) {
	srv, sys := tracedServer(t)
	for _, path := range []string{"/metrics", "/healthz", "/debug/traces"} {
		resp, _ := get(t, srv.URL+path, nil)
		if resp.Header.Get("X-Trace-ID") != "" {
			t.Fatalf("%s was traced", path)
		}
	}
	for _, tr := range sys.Tracer.Recent(0) {
		if slo.OperatorRoute(tr.Route) {
			t.Fatalf("retained trace for untraced route %q", tr.Route)
		}
	}
}

// flushRecorder observes Flush pass-through.
type flushRecorder struct {
	*httptest.ResponseRecorder
	flushed bool
}

func (f *flushRecorder) Flush() { f.flushed = true }

func TestStatusWriterFlusher(t *testing.T) {
	var w http.ResponseWriter = &statusWriter{ResponseWriter: &flushRecorder{ResponseRecorder: httptest.NewRecorder()}}
	f, ok := w.(http.Flusher)
	if !ok {
		t.Fatal("statusWriter does not implement http.Flusher")
	}
	f.Flush()
	if !w.(*statusWriter).ResponseWriter.(*flushRecorder).flushed {
		t.Fatal("Flush not passed through")
	}
	// A non-Flusher underlying writer must not panic.
	(&statusWriter{ResponseWriter: nonFlusher{}}).Flush()
}

// nonFlusher is a ResponseWriter without Flush.
type nonFlusher struct{ http.ResponseWriter }

func (nonFlusher) Header() http.Header         { return http.Header{} }
func (nonFlusher) Write(b []byte) (int, error) { return len(b), nil }
func (nonFlusher) WriteHeader(int)             {}

func TestQueryLogSlowWithTraceID(t *testing.T) {
	srv, _ := tracedServer(t)
	u := srv.URL + "/api/search?" + url.Values{"tower": {"EUS"}}.Encode()
	resp, _ := get(t, u, nil)
	id := resp.Header.Get("X-Trace-ID")

	_, body := get(t, srv.URL+"/api/qlog?slow=5", nil)
	var entries []struct {
		TraceID string
		Latency int64
	}
	if err := json.Unmarshal([]byte(body), &entries); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(entries) != 1 || entries[0].TraceID != id || entries[0].Latency <= 0 {
		t.Fatalf("slow entries = %+v, want one with trace %q", entries, id)
	}
}

// TestOneReadingPerRequest: the middleware reads the clock once per request,
// and the route histogram, its exemplar and the root span all carry that
// reading, so the query log (the trace ring) reports what the deleted
// separate log reported, with the histogram's latencies.
func TestOneReadingPerRequest(t *testing.T) {
	srv, sys := tracedServer(t)
	search := sys.Registry().Histogram("http_request_seconds", nil, "route", "/api/search")

	resp, _ := get(t, srv.URL+"/api/search?"+url.Values{"tower": {"EUS"}}.Encode(), nil)
	id := resp.Header.Get("X-Trace-ID")
	tr := sys.Tracer.Find(id)
	if tr == nil {
		t.Fatalf("trace %q not retained", id)
	}
	var ex *obs.Exemplar
	for _, e := range search.Exemplars() {
		if e != nil && e.TraceID == id {
			ex = e
		}
	}
	if ex == nil || ex.Value != tr.Duration.Seconds() {
		t.Fatalf("exemplar %+v, want value %v (the trace's duration)", ex, tr.Duration.Seconds())
	}

	// The rest of the mix; the parent's separate log reported the figures
	// below for this sequence (the search above included).
	searchIDs := map[string]bool{id: true}
	for _, p := range []string{
		"/",
		"/?" + url.Values{"tower": {"EUS"}}.Encode(),
		"/api/search?" + url.Values{"exact": {"data replication"}}.Encode(),
		"/api/search?" + url.Values{"all": {"replication"}}.Encode(),
		"/api/keyword?" + url.Values{"q": {"cross tower"}}.Encode(),
		"/api/keyword?" + url.Values{"q": {"zzqxv"}}.Encode(),
		"/api/search?" + url.Values{"tower": {"EUS"}, "exact": {"zzqxv"}}.Encode(),
		"/api/search?" + url.Values{"tower": {"Storage Management Services"}, "explain": {"1"}}.Encode(),
		"/metrics",
	} {
		resp, _ := get(t, srv.URL+p, nil)
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d", p, resp.StatusCode)
		}
		if strings.HasPrefix(p, "/api/search") {
			searchIDs[resp.Header.Get("X-Trace-ID")] = true
		}
	}
	_, body := get(t, srv.URL+"/api/qlog", nil)
	var s serving.QuerySummary
	if err := json.Unmarshal([]byte(body), &s); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	want := []serving.ConceptCount{{Concept: "EUS", Count: 3}, {Concept: "Storage Management Services", Count: 1}}
	if s.Total != 8 || s.Zero != 2 || s.Fallbacks != 2 || s.Keyword != 2 || fmt.Sprint(s.TopConcepts) != fmt.Sprint(want) {
		t.Fatalf("summary = %+v, want 8 total, 2 zero, 2 fallbacks, 2 keyword, concepts %v", s, want)
	}

	_, body = get(t, srv.URL+"/api/qlog?slow=100", nil)
	var entries []serving.QueryEntry
	if err := json.Unmarshal([]byte(body), &entries); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	var sum time.Duration
	n := 0
	for _, e := range entries {
		if searchIDs[e.TraceID] {
			sum += e.Latency
			n++
		}
	}
	if n != len(searchIDs) || int64(n) != search.Count() {
		t.Fatalf("%d /api/search entries, %d requests, %d observations", n, len(searchIDs), search.Count())
	}
	if diff := math.Abs(sum.Seconds() - search.Sum()); diff > float64(n)*1e-9 {
		t.Fatalf("logged /api/search latencies sum to %v, histogram to %vs (diff %v)", sum, search.Sum(), diff)
	}
}

// TestKeywordEvaluatesOnce: a keyword request that misses every cache
// evaluates its query once — one index.search span, one cache miss, the
// count served from what the search left behind — and the span says what
// the evaluation cost. The same attributes reach ?explain=1 through the
// span tree.
func TestKeywordEvaluatesOnce(t *testing.T) {
	srv, sys := tracedServer(t)
	misses := sys.Registry().Counter("search_cache_misses_total")
	hits := sys.Registry().Counter("search_cache_hits_total")
	m0, h0 := misses.Value(), hits.Value()

	u := srv.URL + "/api/keyword?" + url.Values{"q": {`replication "data replication"`}, "limit": {"5"}}.Encode()
	resp, body := get(t, u, nil)
	var out struct {
		Count int
		Hits  []struct{ Path string }
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if want := sys.LiveSIAPI().Index().Count(sys.LiveSIAPI().Compile(siapi.ParseKeywords(`replication "data replication"`))); out.Count != want || out.Count == 0 {
		t.Fatalf("count %d, index count %d", out.Count, want)
	}
	if got := misses.Value() - m0; got != 1 {
		t.Fatalf("keyword miss cost %d evaluations, want 1", got)
	}
	if got := hits.Value() - h0; got < 1 {
		t.Fatalf("the handler's count was not served from the cache (%d hits)", got)
	}

	_, detail := get(t, srv.URL+"/debug/trace/"+resp.Header.Get("X-Trace-ID")+"?format=json", nil)
	var tr struct {
		Tree *trace.Node `json:"tree"`
	}
	if err := json.Unmarshal([]byte(detail), &tr); err != nil || tr.Tree == nil {
		t.Fatalf("bad trace detail: %v", err)
	}
	var searches []*trace.Node
	tr.Tree.Walk(func(n *trace.Node) {
		if n.Name == "index.search" {
			searches = append(searches, n)
		}
	})
	if len(searches) != 1 {
		t.Fatalf("%d index.search spans, want 1", len(searches))
	}
	attrs := map[string]string{}
	for _, a := range searches[0].Attrs {
		attrs[a.Key] = a.Value
	}
	for _, key := range []string{"driver", "postings_visited", "candidates_probed", "candidates", "returned"} {
		if attrs[key] == "" {
			t.Fatalf("index.search span lacks %q: %v", key, attrs)
		}
	}
	if !strings.HasPrefix(attrs["driver"], "must[") {
		t.Fatalf("driver = %q", attrs["driver"])
	}

	_, explain := get(t, srv.URL+"/api/search?explain=1&"+url.Values{
		"tower": {"Storage Management Services"},
		"exact": {"data replication"},
	}.Encode(), nil)
	for _, key := range []string{`"driver"`, `"postings_visited"`, `"candidates_probed"`} {
		if !strings.Contains(explain, key) {
			t.Fatalf("explain output lacks %s", key)
		}
	}
}
