package web

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro"
	"repro/internal/access"
	"repro/internal/synth"
)

func testServer(t *testing.T, ctl *access.Controller) (*httptest.Server, *synth.Corpus) {
	t.Helper()
	corpus, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := eil.Ingest(corpus.Docs, eil.Options{Directory: corpus.Directory, Access: ctl})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(HandlerFor(sys))
	t.Cleanup(srv.Close)
	return srv, corpus
}

func get(t *testing.T, url string, headers map[string]string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return resp, sb.String()
}

func TestHealthz(t *testing.T) {
	srv, _ := testServer(t, nil)
	resp, body := get(t, srv.URL+"/healthz", nil)
	if resp.StatusCode != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}
}

func TestHomeForm(t *testing.T) {
	srv, _ := testServer(t, nil)
	resp, body := get(t, srv.URL+"/", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	for _, want := range []string{"EIL Search Editor", "Tower / Sub tower", "the exact phrase"} {
		if !strings.Contains(body, want) {
			t.Fatalf("home missing %q", want)
		}
	}
}

func TestHomeSearchResults(t *testing.T) {
	srv, _ := testServer(t, nil)
	u := srv.URL + "/?" + url.Values{"tower": {"Storage Management Services"}, "exact": {"data replication"}}.Encode()
	resp, body := get(t, u, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !strings.Contains(body, "relevant business activities") {
		t.Fatalf("no results header: %q", body[:200])
	}
	if !strings.Contains(body, synth.PlantedDealID) {
		t.Fatal("planted deal missing from HTML results")
	}
	if !strings.Contains(body, "<em>") {
		t.Fatal("snippet highlights lost")
	}
}

func TestHomeNotFound(t *testing.T) {
	srv, _ := testServer(t, nil)
	resp, _ := get(t, srv.URL+"/nope", nil)
	if resp.StatusCode != 404 {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestAPISearch(t *testing.T) {
	srv, _ := testServer(t, nil)
	u := srv.URL + "/api/search?" + url.Values{"tower": {"EUS"}}.Encode()
	resp, body := get(t, u, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var res struct {
		Activities []struct {
			DealID string
		}
	}
	if err := json.Unmarshal([]byte(body), &res); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(res.Activities) == 0 {
		t.Fatal("no activities over API")
	}
}

func TestAPIDeal(t *testing.T) {
	srv, corpus := testServer(t, nil)
	u := srv.URL + "/api/deal?" + url.Values{"id": {corpus.DealIDs[0]}}.Encode()
	resp, body := get(t, u, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var deal struct {
		Overview struct{ DealID string }
	}
	if err := json.Unmarshal([]byte(body), &deal); err != nil {
		t.Fatal(err)
	}
	if deal.Overview.DealID != corpus.DealIDs[0] {
		t.Fatalf("deal = %+v", deal)
	}
	if resp, _ := get(t, srv.URL+"/api/deal", nil); resp.StatusCode != 400 {
		t.Fatalf("missing id status %d", resp.StatusCode)
	}
	if resp, _ := get(t, srv.URL+"/api/deal?id=GHOST", nil); resp.StatusCode != 404 {
		t.Fatalf("ghost deal status %d", resp.StatusCode)
	}
}

func TestAPIKeyword(t *testing.T) {
	srv, _ := testServer(t, nil)
	u := srv.URL + "/api/keyword?" + url.Values{"q": {`"cross tower TSA"`}, "limit": {"5"}}.Encode()
	resp, body := get(t, u, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out struct {
		Count int
		Hits  []struct{ Path string }
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if out.Count == 0 || len(out.Hits) == 0 || len(out.Hits) > 5 {
		t.Fatalf("keyword out = %+v", out)
	}
	if resp, _ := get(t, srv.URL+"/api/keyword", nil); resp.StatusCode != 400 {
		t.Fatalf("missing q status %d", resp.StatusCode)
	}
}

func TestAccessHeadersEnforced(t *testing.T) {
	ctl := access.NewController()
	srv, corpus := testServer(t, ctl)
	deal := corpus.DealIDs[0]
	// Default anonymous sales: synopsis visible.
	resp, _ := get(t, srv.URL+"/api/deal?id="+url.QueryEscape(deal), nil)
	if resp.StatusCode != 200 {
		t.Fatalf("sales denied synopsis: %d", resp.StatusCode)
	}
	// Delivery role without grants: nothing.
	resp, _ = get(t, srv.URL+"/api/deal?id="+url.QueryEscape(deal),
		map[string]string{"X-EIL-User": "dan", "X-EIL-Roles": "delivery"})
	if resp.StatusCode != 404 {
		t.Fatalf("delivery saw synopsis: %d", resp.StatusCode)
	}
	// Search results carry no documents at synopsis level.
	u := srv.URL + "/api/search?" + url.Values{"exact": {"data replication"}}.Encode()
	_, body := get(t, u, nil)
	var res struct {
		Activities []struct {
			Level int
			Docs  []struct{ Path string }
		}
	}
	if err := json.Unmarshal([]byte(body), &res); err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Activities {
		if len(a.Docs) != 0 {
			t.Fatal("synopsis-level response leaked documents")
		}
	}
}

func TestDealPage(t *testing.T) {
	srv, corpus := testServer(t, nil)
	resp, body := get(t, srv.URL+"/deal?"+url.Values{"id": {corpus.DealIDs[0]}}.Encode(), nil)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	for _, want := range []string{"Synopsis for", "People", "Win Strategies", "Technology Solutions", "Total Contract Value"} {
		if !strings.Contains(body, want) {
			t.Fatalf("deal page missing %q", want)
		}
	}
	if resp, _ := get(t, srv.URL+"/deal", nil); resp.StatusCode != 400 {
		t.Fatalf("missing id status %d", resp.StatusCode)
	}
	if resp, _ := get(t, srv.URL+"/deal?id=GHOST", nil); resp.StatusCode != 404 {
		t.Fatalf("ghost status %d", resp.StatusCode)
	}
}

func TestHomeSuggestions(t *testing.T) {
	srv, _ := testServer(t, nil)
	u := srv.URL + "/?" + url.Values{"tower": {"Strorage Management Services"}}.Encode()
	resp, body := get(t, u, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !strings.Contains(body, "Did you mean") || !strings.Contains(body, "storage management services") {
		t.Fatal("suggestions missing from HTML")
	}
}

func TestResultsLinkToDealPage(t *testing.T) {
	srv, _ := testServer(t, nil)
	u := srv.URL + "/?" + url.Values{"tower": {"Storage Management Services"}}.Encode()
	_, body := get(t, u, nil)
	if !strings.Contains(body, `href="/deal?id=`) {
		t.Fatal("results do not link to deal pages")
	}
}

func TestAPIQueryLog(t *testing.T) {
	// The query log is the trace ring: without a tracer there is none.
	untracedSrv, _ := testServerWithSystem(t)
	resp, _ := get(t, untracedSrv.URL+"/api/qlog", nil)
	if resp.StatusCode != 404 {
		t.Fatalf("status without tracing = %d", resp.StatusCode)
	}
	srv, _ := tracedServer(t)
	get(t, srv.URL+"/?"+url.Values{"tower": {"EUS"}}.Encode(), nil)
	get(t, srv.URL+"/api/search?"+url.Values{"exact": {"data replication"}}.Encode(), nil)
	resp, body := get(t, srv.URL+"/api/qlog", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var s struct {
		Total       int
		TopConcepts []struct{ Concept string }
	}
	if err := json.Unmarshal([]byte(body), &s); err != nil {
		t.Fatal(err)
	}
	if s.Total != 2 {
		t.Fatalf("summary = %+v", s)
	}
	if len(s.TopConcepts) == 0 || s.TopConcepts[0].Concept != "EUS" {
		t.Fatalf("concepts = %+v", s.TopConcepts)
	}
}

// testServerWithSystem exposes the system so tests can toggle runtime knobs.
func testServerWithSystem(t *testing.T) (*httptest.Server, *eil.System) {
	t.Helper()
	corpus, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := eil.Ingest(corpus.Docs, eil.Options{Directory: corpus.Directory})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(HandlerFor(sys))
	t.Cleanup(srv.Close)
	return srv, sys
}

func TestAPIExploreAndSimilar(t *testing.T) {
	srv, corpus := testServer(t, nil)
	deal := synth.PlantedDealID
	u := srv.URL + "/api/explore?" + url.Values{"id": {deal}, "exact": {"data replication"}}.Encode()
	resp, body := get(t, u, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("explore status %d: %s", resp.StatusCode, body)
	}
	var hits []struct{ Path, DealID string }
	if err := json.Unmarshal([]byte(body), &hits); err != nil {
		t.Fatal(err)
	}
	for _, h := range hits {
		if h.DealID != deal {
			t.Fatalf("explore leaked other deals: %+v", h)
		}
	}
	if resp, _ := get(t, srv.URL+"/api/explore?exact=x", nil); resp.StatusCode != 400 {
		t.Fatalf("missing id status %d", resp.StatusCode)
	}

	u = srv.URL + "/api/similar?" + url.Values{"id": {corpus.DealIDs[1]}, "k": {"3"}}.Encode()
	resp, body = get(t, u, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("similar status %d: %s", resp.StatusCode, body)
	}
	var sims []struct {
		DealID string
		Score  float64
	}
	if err := json.Unmarshal([]byte(body), &sims); err != nil {
		t.Fatal(err)
	}
	if len(sims) == 0 || len(sims) > 3 {
		t.Fatalf("similar = %+v", sims)
	}
	for _, s := range sims {
		if s.DealID == corpus.DealIDs[1] || s.Score <= 0 {
			t.Fatalf("bad similar hit %+v", s)
		}
	}
	if resp, _ := get(t, srv.URL+"/api/similar", nil); resp.StatusCode != 400 {
		t.Fatalf("missing id status %d", resp.StatusCode)
	}
}

// TestOperatorRoutes: /api/promote and /api/repl answer what their options
// wire, and are absent (404) without them.
func TestOperatorRoutes(t *testing.T) {
	corpus, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := eil.Ingest(corpus.Docs, eil.Options{Directory: corpus.Directory})
	if err != nil {
		t.Fatal(err)
	}
	info := func() FailoverInfo { return FailoverInfo{Role: "follower", Epoch: 2} }
	var promoted string
	promote := func(target string) error {
		if target == "a" {
			return errors.New(`this node is "b": POST /api/promote to the node being promoted`)
		}
		promoted = target
		return nil
	}
	repl := WithReplStatus(func() any { return map[string]any{"role": "follower", "seq": 42} })
	for _, tc := range []struct {
		name, method, path string
		opts               []Option
		status             int
		header, body       string // a header that must be set ("Key: value"), a body substring
	}{
		{"promote needs POST", "GET", "/api/promote", []Option{WithFailover(info, promote)}, 405, "Allow: POST", "requires POST"},
		{"promote refused", "POST", "/api/promote?target=a", []Option{WithFailover(info, promote)}, 409, "", `this node is "b"`},
		{"promote", "POST", "/api/promote?target=b", []Option{WithFailover(info, promote)}, 200, "", "\"promoted\": true,\n  \"target\": \"b\""},
		{"promote without failover", "POST", "/api/promote?target=b", nil, 404, "", ""},
		{"repl without status", "GET", "/api/repl", nil, 404, "", "replication disabled"},
		{"repl", "GET", "/api/repl", []Option{repl}, 200, "Content-Type: application/json", `"seq": 42`},
	} {
		rec := httptest.NewRecorder()
		HandlerFor(sys, tc.opts...).ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, nil))
		if rec.Code != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, rec.Code, tc.status, rec.Body)
		}
		if k, v, ok := strings.Cut(tc.header, ": "); ok && rec.Header().Get(k) != v {
			t.Errorf("%s: %s = %q, want %q", tc.name, k, rec.Header().Get(k), v)
		}
		if !strings.Contains(rec.Body.String(), tc.body) {
			t.Errorf("%s: body %q lacks %q", tc.name, rec.Body, tc.body)
		}
	}
	if promoted != "b" {
		t.Errorf("promote called with %q, want b", promoted)
	}
}
