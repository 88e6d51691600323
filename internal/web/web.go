// Package web serves EIL over HTTP: a minimal HTML front-end standing in
// for the paper's Lotus Notes GUI, plus a JSON API. Authentication is
// simulated through the X-EIL-User and X-EIL-Roles headers (the paper's
// front-end delegates to the enterprise SSO); authorization is the real
// access-control component.
package web

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"html/template"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/health"
	"repro/internal/obs"
	"repro/internal/serving"
	"repro/internal/slo"
	"repro/internal/trace"
)

// Option configures optional handler subsystems.
type Option func(*config)

type config struct {
	pprof      bool
	accessLog  *slog.Logger
	health     *health.Registry
	slo        *slo.Engine
	replFn     func() any
	failoverFn func() FailoverInfo
	promoteFn  func(target string) error
}

// WithReplStatus mounts /api/repl serving whatever the callback reports —
// a primary's shipper view, a follower's client position, or a failover
// node's role and writes. The callback runs per request, so the
// payload is always current.
func WithReplStatus(fn func() any) Option {
	return func(c *config) { c.replFn = fn }
}

// FailoverInfo is a node's place in a failover deployment: its current
// role, the fencing epoch it serves under, and when it was last promoted
// (zero if never).
type FailoverInfo struct {
	Role       string    `json:"role"` // primary | follower | fenced
	Epoch      uint64    `json:"epoch"`
	PromotedAt time.Time `json:"promoted_at"`
}

// WithFailover surfaces failover state. info feeds /debug/dash and folds
// into /readyz: a fenced node answers 503, because it must not take traffic
// until it rejoins as a follower. promote (optional) mounts
// POST /api/promote — the manual promotion trigger, sent to the node being
// promoted (an empty target, or that node's name).
func WithFailover(info func() FailoverInfo, promote func(target string) error) Option {
	return func(c *config) { c.failoverFn, c.promoteFn = info, promote }
}

// WithPprof mounts net/http/pprof under /debug/pprof/.
func WithPprof() Option {
	return func(c *config) { c.pprof = true }
}

// WithAccessLog emits one structured log line per request to logger.
func WithAccessLog(logger *slog.Logger) Option {
	return func(c *config) { c.accessLog = logger }
}

// WithHealth supplies the component-check registry /readyz evaluates. A
// nil registry (or omitting the option) leaves /readyz always ready —
// liveness-equivalent — so the endpoint exists unconditionally and gains
// judgment when checks are wired.
func WithHealth(reg *health.Registry) Option {
	return func(c *config) { c.health = reg }
}

// WithSLO mounts /api/slo backed by the engine's last report and feeds
// /debug/dash from its sample history.
func WithSLO(engine *slo.Engine) Option {
	return func(c *config) { c.slo = engine }
}

// Backend is the serving surface the handler needs: the read facet and the
// telemetry it renders. Every deployment shape supplies it — a system, a
// sharded cluster, a replica, a failover node — and the HTTP layer is
// identical over all of them, down to the metric names and degraded-cause
// labels.
type Backend = serving.Frontend

// HandlerFor serves the EIL UI and API over a Backend. Every route is
// wrapped in the metrics middleware (request counts, status classes, and
// latency histograms in the backend's registry), and the registry itself is
// served at /metrics (Prometheus text exposition) and /api/metrics (JSON).
func HandlerFor(sys Backend, opts ...Option) http.Handler {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	h := &handler{sys: sys, health: cfg.health, slo: cfg.slo, replFn: cfg.replFn, failoverFn: cfg.failoverFn, promoteFn: cfg.promoteFn}
	mux := http.NewServeMux()
	mux.HandleFunc("/", h.home)
	mux.HandleFunc("/deal", h.dealPage)
	mux.HandleFunc("/api/search", h.apiSearch)
	mux.HandleFunc("/api/deal", h.apiDeal)
	mux.HandleFunc("/api/keyword", h.apiKeyword)
	mux.HandleFunc("/api/qlog", h.apiQueryLog)
	mux.HandleFunc("/api/explore", h.apiExplore)
	mux.HandleFunc("/api/similar", h.apiSimilar)
	mux.HandleFunc("/api/metrics", h.apiMetrics)
	mux.HandleFunc("/metrics", h.metrics)
	// /healthz is pure liveness: it answers "ok" as long as the process can
	// serve HTTP at all. Readiness judgment lives at /readyz, which
	// evaluates the component checks and refuses traffic (503 with a JSON
	// cause list) when the system should be drained.
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", h.readyz)
	mux.HandleFunc("/api/slo", h.apiSLO)
	mux.HandleFunc("/api/repl", h.apiRepl)
	if cfg.promoteFn != nil {
		mux.HandleFunc("/api/promote", h.apiPromote)
	}
	mux.HandleFunc("/debug/dash", h.debugDash)
	if sys.RequestTracer() != nil {
		mux.HandleFunc("/debug/traces", h.debugTraces)
		mux.HandleFunc("/debug/trace/", h.debugTrace)
	}
	if cfg.pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return &middleware{next: mux, mux: mux, reg: sys.Registry(), tracer: sys.RequestTracer(), accessLog: cfg.accessLog}
}

type handler struct {
	sys        Backend
	health     *health.Registry
	slo        *slo.Engine
	replFn     func() any
	failoverFn func() FailoverInfo
	promoteFn  func(target string) error
}

// middleware wraps every route with request counting, status-class
// counting, and a per-route latency histogram. All metric handles are
// nil-safe, so a system without a registry costs nothing extra.
type middleware struct {
	next      http.Handler
	mux       *http.ServeMux
	reg       *obs.Registry
	tracer    *trace.Tracer
	accessLog *slog.Logger
}

// statusWriter captures the response status for metrics and access logs.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Flush passes streaming flushes through to the underlying writer, so
// wrapping a handler in the middleware does not silently break server-sent
// events or incremental responses.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (m *middleware) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// Label by registered pattern, not raw path, to bound cardinality.
	_, route := m.mux.Handler(r)
	if route == "" {
		route = "unmatched"
	}
	inflight := m.reg.Gauge("http_in_flight_requests")
	inflight.Add(1)
	defer inflight.Add(-1)

	// Root span for the request. An inbound X-Trace-ID is adopted (and
	// bypasses sampling), as does explain mode — an explanation without its
	// span tree would be useless. The assigned ID is echoed in the response
	// so callers can pull the trace from /debug/trace/{id}.
	var tr *trace.Trace
	if m.tracer != nil && !slo.OperatorRoute(route) {
		inbound := r.Header.Get("X-Trace-ID")
		ctx, started := m.tracer.Start(r.Context(), route, trace.StartOptions{
			ID:    inbound,
			Force: r.URL.Query().Has("explain"),
		})
		if started != nil {
			tr = started
			w.Header().Set("X-Trace-ID", tr.ID)
			root := trace.FromContext(ctx)
			root.Set("method", r.Method)
			root.Set("path", r.URL.Path)
			r = r.WithContext(ctx)
		}
	}

	// d is the request's one clock reading: the route histogram, its
	// exemplar, the access log and the root span (and so the query log) all
	// carry it.
	sw := &statusWriter{ResponseWriter: w}
	t := obs.StartTimer()
	m.next.ServeHTTP(sw, r)
	d := t.Elapsed()
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	var traceID string
	if tr != nil {
		traceID = tr.ID
		root := trace.FromContext(r.Context())
		root.SetInt("status", sw.status)
		root.Duration = d // Finish keeps a duration already set
		tr.Finish()
	}
	m.reg.Counter("http_requests_total", "route", route, "code", statusClass(sw.status)).Inc()
	m.reg.Histogram("http_request_seconds", nil, "route", route).ObserveDurationWithExemplar(d, traceID)
	if !slo.OperatorRoute(route) {
		// Aggregate histogram behind the dashboard's QPS/p99 panel: user
		// traffic only, so scrape and probe polling does not dilute it.
		m.reg.Histogram("http_requests_overall_seconds", nil).ObserveDuration(d)
	}
	if m.accessLog != nil {
		m.accessLog.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"route", route,
			"status", sw.status,
			"duration", d,
			"user", r.Header.Get("X-EIL-User"),
			"remote", r.RemoteAddr,
			"trace", traceID,
		)
	}
}

// statusClass buckets an HTTP status into 2xx/3xx/4xx/5xx.
func statusClass(code int) string {
	switch {
	case code >= 500:
		return "5xx"
	case code >= 400:
		return "4xx"
	case code >= 300:
		return "3xx"
	default:
		return "2xx"
	}
}

// metrics serves the registry in Prometheus text exposition format.
func (h *handler) metrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	h.sys.Registry().WritePrometheus(w)
}

// apiMetrics serves the registry as JSON snapshots.
func (h *handler) apiMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, h.sys.Registry().Snapshots())
}

// readyz evaluates the component checks and answers with the verdict: 200
// for a ready instance, 503 (with Retry-After, so pollers back off) when
// the verdict is degraded or unready. The body is always the full JSON
// report — verdict, flat cause list, and every check's state — so "why is
// this instance out" is one curl away. A nil health registry evaluates to
// ready, keeping the endpoint meaningful before any checks are wired.
// Failover folds in on top of the component checks: a fenced node's writes
// are refused and its replica set has moved on, so it should not take
// traffic, whatever the disks say.
func (h *handler) readyz(w http.ResponseWriter, _ *http.Request) {
	rep := h.health.Evaluate()
	if h.failoverFn != nil {
		if fo := h.failoverFn(); fo.Role == "fenced" {
			rep.Verdict = health.VerdictUnready
			rep.Causes = append(rep.Causes, "failover: node is "+fo.Role)
		}
	}
	w.Header().Set("Content-Type", "application/json")
	if !rep.Ready() {
		w.Header().Set("Retry-After", "5")
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	encodeJSON(w, rep)
}

// apiRepl serves the replication status report (404 when this process is
// neither shipping nor following).
func (h *handler) apiRepl(w http.ResponseWriter, _ *http.Request) {
	if h.replFn == nil {
		http.Error(w, "replication disabled", http.StatusNotFound)
		return
	}
	writeJSON(w, h.replFn())
}

// apiPromote triggers a manual promotion of this node. POST-only — it is a
// mutation with cluster-wide effect — and promoting the current primary is
// a no-op error. 409 carries the refusal (another node named, already
// primary, the lease claim or the promotion failed).
func (h *handler) apiPromote(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "promotion requires POST", http.StatusMethodNotAllowed)
		return
	}
	target := strings.TrimSpace(r.FormValue("target"))
	if err := h.promoteFn(target); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	writeJSON(w, map[string]any{"promoted": true, "target": target})
}

// apiSLO serves the last tick's burn-rate report (404 when no SLO engine is
// wired).
func (h *handler) apiSLO(w http.ResponseWriter, _ *http.Request) {
	if h.slo == nil {
		http.Error(w, "slo engine disabled", http.StatusNotFound)
		return
	}
	writeJSON(w, h.slo.Report())
}

// userFrom reconstructs the principal from the simulated SSO headers. An
// anonymous request gets the sales role (the community the system serves).
func userFrom(r *http.Request) access.User {
	u := access.User{ID: r.Header.Get("X-EIL-User"), Name: r.Header.Get("X-EIL-User")}
	if u.ID == "" {
		u.ID = "anonymous"
	}
	roles := r.Header.Get("X-EIL-Roles")
	if roles == "" {
		roles = string(access.RoleSales)
	}
	for _, role := range strings.Split(roles, ",") {
		if role = strings.TrimSpace(role); role != "" {
			u.Roles = append(u.Roles, access.Role(role))
		}
	}
	return u
}

// formQuery builds a FormQuery from request parameters (shared by the HTML
// and JSON endpoints).
func formQuery(r *http.Request) core.FormQuery {
	get := func(k string) string { return strings.TrimSpace(r.FormValue(k)) }
	words := func(k string) []string {
		f := strings.Fields(get(k))
		if len(f) == 0 {
			return nil
		}
		return f
	}
	q := core.FormQuery{
		Tower:       get("tower"),
		SubTower:    get("subtower"),
		Industry:    get("industry"),
		Consultant:  get("consultant"),
		Geography:   get("geography"),
		Country:     get("country"),
		AllWords:    words("all"),
		ExactPhrase: get("exact"),
		AnyWords:    words("any"),
		NoneWords:   words("none"),
		PersonName:  get("person"),
		PersonOrg:   get("org"),
		Target:      core.TextTarget(get("target")),
	}
	if n, err := strconv.Atoi(get("limit")); err == nil && n > 0 {
		q.Limit = n
	}
	return q
}

// fail maps a read failure to HTTP semantics: a backend outage (every
// serving tier gone, or a replica with no state yet) is 503 with
// Retry-After, so load balancers and clients back off instead of hammering a
// dead backend; anything else is a caller problem and gets the route's own
// status. Outages are counted per backend cause.
func (h *handler) fail(w http.ResponseWriter, route string, err error, status int) {
	if core.IsUnavailable(err) {
		cause := "backend"
		var be *core.BackendError
		if errors.As(err, &be) {
			cause = be.Backend
		}
		h.sys.Registry().Counter("http_unavailable_total", "route", route, "cause", cause).Inc()
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	http.Error(w, err.Error(), status)
}

// countDegraded records a degraded-but-served search (HTTP 200 with
// degraded:true) per failed-backend cause.
func (h *handler) countDegraded(route string, res core.Result) {
	if !res.Degraded {
		return
	}
	for _, cause := range res.DegradedCauses {
		h.sys.Registry().Counter("http_degraded_total", "route", route, "cause", cause).Inc()
	}
}

func (h *handler) apiSearch(w http.ResponseWriter, r *http.Request) {
	q := formQuery(r)
	if r.URL.Query().Has("explain") {
		res, ex, err := h.sys.SearchExplain(r.Context(), userFrom(r), q)
		if err != nil {
			h.fail(w, "/api/search", err, http.StatusBadRequest)
			return
		}
		h.countDegraded("/api/search", res)
		writeJSON(w, explainResponse{Result: res, Explain: ex})
		return
	}
	res, err := h.sys.SearchCtx(r.Context(), userFrom(r), q)
	if err != nil {
		h.fail(w, "/api/search", err, http.StatusBadRequest)
		return
	}
	h.countDegraded("/api/search", res)
	writeJSON(w, res)
}

// explainResponse is the ?explain=1 envelope: the normal result plus the
// span tree and score decomposition.
type explainResponse struct {
	Result  core.Result       `json:"result"`
	Explain *core.Explanation `json:"explain"`
}

func (h *handler) apiDeal(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimSpace(r.FormValue("id"))
	if id == "" {
		http.Error(w, "missing id", http.StatusBadRequest)
		return
	}
	deal, err := h.sys.Deal(userFrom(r), id)
	if err != nil {
		h.fail(w, "/api/deal", err, http.StatusNotFound)
		return
	}
	writeJSON(w, deal)
}

func (h *handler) apiKeyword(w http.ResponseWriter, r *http.Request) {
	q := strings.TrimSpace(r.FormValue("q"))
	if q == "" {
		http.Error(w, "missing q", http.StatusBadRequest)
		return
	}
	limit := 20
	if n, err := strconv.Atoi(r.FormValue("limit")); err == nil && n > 0 {
		limit = n
	}
	// The keyword reads cannot report an error, so "no state yet" is asked
	// for rather than answered as an empty page.
	if !h.sys.Ready() {
		h.fail(w, "/api/keyword", serving.ErrNotSynced, http.StatusServiceUnavailable)
		return
	}
	// Search first: its evaluation leaves the match count in siapi's count
	// cache, so the count below does not evaluate the query a second time.
	hits := h.sys.KeywordSearchCtx(r.Context(), q, limit)
	writeJSON(w, map[string]any{
		"count": h.sys.KeywordCount(q),
		"hits":  hits,
	})
}

// apiExplore drills into one activity's documents.
func (h *handler) apiExplore(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimSpace(r.FormValue("id"))
	if id == "" {
		http.Error(w, "missing id", http.StatusBadRequest)
		return
	}
	hits, err := h.sys.ExploreCtx(r.Context(), userFrom(r), id, formQuery(r))
	if err != nil {
		h.fail(w, "/api/explore", err, http.StatusForbidden)
		return
	}
	writeJSON(w, hits)
}

// apiSimilar lists activities similar to one activity.
func (h *handler) apiSimilar(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimSpace(r.FormValue("id"))
	if id == "" {
		http.Error(w, "missing id", http.StatusBadRequest)
		return
	}
	k := 5
	if n, err := strconv.Atoi(r.FormValue("k")); err == nil && n > 0 {
		k = n
	}
	hits, err := h.sys.SimilarDeals(userFrom(r), id, k)
	if err != nil {
		h.fail(w, "/api/similar", err, http.StatusNotFound)
		return
	}
	writeJSON(w, hits)
}

// apiQueryLog summarizes the searches among the retained traces: the query
// log is a view of the trace ring (404 when tracing is off).
func (h *handler) apiQueryLog(w http.ResponseWriter, r *http.Request) {
	tracer := h.sys.RequestTracer()
	if tracer == nil {
		http.Error(w, "query log needs tracing", http.StatusNotFound)
		return
	}
	entries := serving.LoggedQueries(tracer.Recent(0))
	if n, err := strconv.Atoi(r.FormValue("slow")); err == nil && n > 0 {
		writeJSON(w, serving.SlowestQueries(entries, n))
		return
	}
	topK := 10
	if n, err := strconv.Atoi(r.FormValue("top")); err == nil && n > 0 {
		topK = n
	}
	writeJSON(w, serving.SummarizeQueries(entries, topK))
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	encodeJSON(w, v)
}

// jsonBuffer is an indenting encoder bound to its own buffer. Pooled, the
// encoder's indent scratch and the buffer keep the size of the pages they
// have written instead of growing from zero on every response.
type jsonBuffer struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonBuffers = sync.Pool{New: func() any {
	jb := &jsonBuffer{}
	jb.enc = json.NewEncoder(&jb.buf)
	jb.enc.SetIndent("", "  ")
	return jb
}}

// maxPooledJSON bounds what goes back to the pool: one oversized page must
// not keep its buffers alive for the small ones.
const maxPooledJSON = 1 << 20

// encodeJSON writes v to w indented, with a trailing newline, in one Write —
// the bytes json.NewEncoder(w) with SetIndent("", "  ") writes. A value that
// does not encode writes nothing.
func encodeJSON(w io.Writer, v any) {
	jb := jsonBuffers.Get().(*jsonBuffer)
	if jb.enc.Encode(v) == nil {
		w.Write(jb.buf.Bytes())
	}
	if jb.buf.Cap() > maxPooledJSON {
		return
	}
	jb.buf.Reset()
	jsonBuffers.Put(jb)
}

var homeTmpl = template.Must(template.New("home").Parse(`<!doctype html>
<html><head><title>EIL — Enterprise Information Leverage</title>
<style>
 body{font-family:sans-serif;margin:2em;max-width:70em}
 fieldset{margin-bottom:1em} label{display:inline-block;width:11em}
 .deal{border:1px solid #ccc;margin:.6em 0;padding:.6em}
 .degraded{background:#fff3cd;border:1px solid #d4b106;padding:.5em}
 .towers{color:#046} .score{color:#666;font-size:.85em}
 .doc{margin-left:1.5em;font-size:.9em} em{background:#ffc}
</style></head><body>
<h1>EIL Search Editor</h1>
<form method="get" action="/">
<fieldset><legend>Find deals with these characteristics</legend>
 <label>Tower / Sub tower</label><input name="tower" value="{{.Q.Tower}}"><br>
 <label>Sector / Industry</label><input name="industry" value="{{.Q.Industry}}"><br>
 <label>Out Sourcing Consultant</label><input name="consultant" value="{{.Q.Consultant}}"><br>
 <label>Geography / Country</label><input name="geography" value="{{.Q.Geography}}">
</fieldset>
<fieldset><legend>with this text</legend>
 <label>all of these words</label><input name="all"><br>
 <label>the exact phrase</label><input name="exact" value="{{.Q.ExactPhrase}}"><br>
 <label>any of these words</label><input name="any"><br>
 <label>none of these words</label><input name="none">
</fieldset>
<fieldset><legend>with these people and/or skills</legend>
 <label>Organization</label><input name="org" value="{{.Q.PersonOrg}}"><br>
 <label>Name</label><input name="person" value="{{.Q.PersonName}}">
</fieldset>
<button>Search</button></form>
{{if .Suggestions}}<p>Did you mean: {{range $i, $s := .Suggestions}}{{if $i}}, {{end}}<a href="/?tower={{$s}}">{{$s}}</a>{{end}}?</p>{{end}}
{{if .Degraded}}<p class="degraded">&#9888; Partial results: a search backend is unavailable, so some context or documents may be missing.</p>{{end}}
{{if .Ran}}
<h2>{{len .Activities}} relevant business activities</h2>
{{range .Activities}}
 <div class="deal"><strong><a href="/deal?id={{.DealID}}">{{.DealID}}</a></strong> <span class="score">score {{printf "%.2f" .Score}} ({{.Level}})</span><br>
 {{if .Synopsis}}<span class="towers">{{range $i, $t := .Synopsis.Towers}}{{if $i}}, {{end}}{{$t.Tower}}{{if $t.SubTower}} / {{$t.SubTower}}{{end}}{{end}}</span>
 — {{.Synopsis.Overview.Industry}}; {{.Synopsis.Overview.Consultant}}; {{.Synopsis.Overview.TCVBand}}{{end}}
 {{range .Docs}}<div class="doc">{{printf "%.2f" .Score}} <strong>{{.Title}}</strong> — {{.SnippetHTML}}</div>{{end}}
 </div>
{{end}}
{{end}}
</body></html>`))

type homeData struct {
	Q           core.FormQuery
	Ran         bool
	Degraded    bool
	Activities  []viewActivity
	Suggestions []string
}

type viewActivity struct {
	core.Activity
	Docs []viewDoc
}

type viewDoc struct {
	Title       string
	Score       float64
	SnippetHTML template.HTML
}

func (h *handler) home(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	q := formQuery(r)
	data := homeData{Q: q}
	if q.HasConcepts() || q.HasText() {
		res, err := h.sys.SearchCtx(r.Context(), userFrom(r), q)
		if err != nil {
			h.fail(w, "/", err, http.StatusBadRequest)
			return
		}
		h.countDegraded("/", res)
		data.Ran = true
		data.Degraded = res.Degraded
		data.Suggestions = res.Suggestions
		for _, a := range res.Activities {
			va := viewActivity{Activity: a}
			for _, d := range a.Docs {
				va.Docs = append(va.Docs, viewDoc{
					Title: d.Title,
					Score: d.Score,
					// Snippets wrap matches in <em>; the rest of the text
					// is escaped before the tags are re-introduced.
					SnippetHTML: highlightHTML(d.Snippet),
				})
			}
			data.Activities = append(data.Activities, va)
		}
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := homeTmpl.Execute(w, data); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

var dealTmpl = template.Must(template.New("deal").Parse(`<!doctype html>
<html><head><title>{{.Overview.DealID}} — EIL Synopsis</title>
<style>
 body{font-family:sans-serif;margin:2em;max-width:70em}
 h2{border-bottom:1px solid #ccc} table{border-collapse:collapse}
 td,th{padding:.25em .8em;text-align:left;border-bottom:1px solid #eee}
 .towers{color:#046}
</style></head><body>
<p><a href="/">&larr; search</a></p>
<h1>Synopsis for {{.Overview.DealID}}</h1>
<h2>Overview</h2>
<table>
<tr><th>Towers</th><td class="towers">{{range $i, $t := .Towers}}{{if $i}}, {{end}}{{$t.Tower}}{{if $t.SubTower}} / {{$t.SubTower}}{{end}}{{end}}</td></tr>
<tr><th>Customer name</th><td>{{.Overview.Customer}}</td></tr>
<tr><th>Industry</th><td>{{.Overview.Industry}}</td></tr>
<tr><th>Out Sourcing Consultant</th><td>{{.Overview.Consultant}}</td></tr>
<tr><th>Geography / Country</th><td>{{.Overview.Geography}} / {{.Overview.Country}}</td></tr>
<tr><th>Contract Term Start</th><td>{{.Overview.TermStart}}</td></tr>
<tr><th>Term Duration (months)</th><td>{{.Overview.TermMonths}}</td></tr>
<tr><th>Total Contract Value</th><td>{{.Overview.TCVBand}}</td></tr>
<tr><th>Is International?</th><td>{{if .Overview.International}}Y{{else}}N{{end}}</td></tr>
</table>
<h2>People</h2>
<table><tr><th>Name</th><th>Role</th><th>Category</th><th>Email</th><th>Phone</th><th>Org</th><th>Validated</th></tr>
{{range .People}}<tr><td>{{.Name}}</td><td>{{.Role}}</td><td>{{.Category}}</td><td>{{.Email}}</td><td>{{.Phone}}</td><td>{{.Org}}</td><td>{{if .Validated}}yes{{end}}</td></tr>{{end}}
</table>
<h2>Win Strategies</h2>
<ul>{{range .WinStrategies}}<li>{{.}}</li>{{end}}</ul>
<h2>Client References</h2>
<ul>{{range .ClientRefs}}<li>{{.}}</li>{{end}}</ul>
<h2>Technology Solutions</h2>
<table>{{range $tower, $text := .TechSolutions}}<tr><th>{{$tower}}</th><td>{{$text}}</td></tr>{{end}}</table>
</body></html>`))

// dealPage renders the Figure 6 synopsis view, subject to access control.
func (h *handler) dealPage(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimSpace(r.FormValue("id"))
	if id == "" {
		http.Error(w, "missing id", http.StatusBadRequest)
		return
	}
	deal, err := h.sys.Deal(userFrom(r), id)
	if err != nil {
		h.fail(w, "/deal", err, http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := dealTmpl.Execute(w, deal); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// highlightHTML escapes snippet text while preserving the <em> highlight
// tags the snippet generator produced.
func highlightHTML(snippet string) template.HTML {
	esc := template.HTMLEscapeString(snippet)
	esc = strings.ReplaceAll(esc, "&lt;em&gt;", "<em>")
	esc = strings.ReplaceAll(esc, "&lt;/em&gt;", "</em>")
	return template.HTML(esc)
}
