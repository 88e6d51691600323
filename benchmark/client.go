package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"time"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/relstore"
	"repro/internal/siapi"
	"repro/internal/sqlx"
	"repro/internal/synopsis"
	"repro/internal/textproc"
)

// depths is how many entry points the traced run rotates through: 0 calls
// web, 1 eil, 2 core, 3 does by hand what core does and times synopsis and
// siapi, 4 times the sqlx statements and index calls beneath those. Each
// request enters at exactly one depth and is served once, so the caches see
// the stream they would see untraced and every depth sees the same inputs.
const depths = 5

// respWriter is the in-memory ResponseWriter reads are served into.
type respWriter struct {
	hdr    http.Header
	status int
	buf    bytes.Buffer
}

func (w *respWriter) Header() http.Header {
	if w.hdr == nil {
		w.hdr = http.Header{}
	}
	return w.hdr
}
func (w *respWriter) WriteHeader(code int)        { w.status = code }
func (w *respWriter) Write(p []byte) (int, error) { return w.buf.Write(p) }
func (w *respWriter) ok() bool                    { return w.status == 0 || w.status == http.StatusOK }
func (w *respWriter) reset() {
	w.status = 0
	w.buf.Reset()
	clear(w.hdr)
}

// client is one goroutine's view of the run: its request source, its
// response buffer, its samples and, in the traced run, its span log.
type client struct {
	b    *bench
	next func() *request
	w    respWriter
	log  *spanLog // nil unless this client's requests are traced
	n    int      // requests served, for the depth rotation

	attempted   int
	reads       []float64 // ms
	writes      []float64 // ms
	late        []float64 // ms
	inflightMax int
	docs        int       // documents acknowledged (open loop)
	addBytes    int64     // their text
	searchUS    []float64 // web.search µs, reference slice
	respBytes   []float64
	classUS     [3][]float64
}

// user is the principal the web layer assigns an anonymous request.
var user = access.User{ID: "anonymous", Name: "", Roles: []access.Role{access.RoleSales}}

func (b *bench) newClient(id int, mode readMode) *client {
	c := &client{b: b}
	if mode == modeTimed {
		c.log = b.newLog()
	}
	// Each (client, mode) pair draws its own sequence from the seed.
	lane := int64(id) + procs*int64(mode)
	if b.wl == "read_cold" {
		c.next = newGenerator(b.pools, coldSeed(b.seed, int(lane))).next
	} else {
		c.next = newHotDrawer(b.pop, b.seed*7919+lane).next
	}
	return c
}

// read serves one request and checks the answer: status 200, valid JSON and
// the target deal present. It returns the time spent in the layer calls.
func (c *client) read(r *request) (time.Duration, bool) {
	c.attempted++
	if c.log == nil {
		d, ok := c.viaWeb(r)
		if c.b.traced && !r.isKeyword() {
			c.searchUS = append(c.searchUS, us(d))
		}
		return d, ok
	}
	c.log.request()
	depth := c.n % depths
	c.n++
	if depth == 0 {
		d, ok := c.viaWeb(r)
		if !r.isKeyword() {
			c.respBytes = append(c.respBytes, float64(c.w.buf.Len()))
			k := 1
			switch r.class {
			case classConcept:
				k = 0
			case classUnscoped:
				k = 2
			}
			c.classUS[k] = append(c.classUS[k], us(d))
		}
		return d, ok
	}
	d, found := c.below(r, depth)
	return d, found || r.unpinned
}

// below enters beneath the web layer at depth 1 to 4.
func (c *client) below(r *request, depth int) (time.Duration, bool) {
	switch {
	case depth == 1:
		return c.viaEIL(r)
	case r.isKeyword() && depth < 4:
		return c.viaSIAPI(r)
	case depth == 2:
		return c.viaCore(r)
	case depth == 3:
		return c.byHand(r)
	case r.isKeyword():
		return c.beneathKeyword(r)
	}
	return c.beneath(r)
}

func (c *client) viaWeb(r *request) (time.Duration, bool) {
	req, err := http.NewRequest(http.MethodGet, r.url, nil)
	if err != nil {
		return 0, false
	}
	c.w.reset()
	name := "web.search"
	if r.isKeyword() {
		name = "web.keyword"
	}
	_, d := c.log.timed(name, 0, func() { c.b.h.ServeHTTP(&c.w, req) })
	body := c.w.buf.Bytes()
	return d, c.w.ok() && json.Valid(body) && (r.unpinned || bytes.Contains(body, r.needle))
}

func (c *client) viaEIL(r *request) (time.Duration, bool) {
	sys, ctx := c.b.main.sys, context.Background()
	if r.isKeyword() {
		i := c.log.begin("eil.keyword", 0)
		sys.KeywordCount(r.keyword)
		hits := sys.KeywordSearchCtx(ctx, r.keyword, pageLimit)
		_, d := c.log.end(i)
		return d, hasDoc(hits, r.target)
	}
	i := c.log.begin("eil.search", 0)
	res, err := sys.SearchCtx(ctx, user, r.form)
	_, d := c.log.end(i)
	return d, err == nil && hasActivity(res, r.target)
}

func (c *client) viaCore(r *request) (time.Duration, bool) {
	i := c.log.begin("core.search", 0)
	res, err := c.b.main.sys.Engine.SearchCtx(context.Background(), user, r.form)
	_, d := c.log.end(i)
	return d, err == nil && hasActivity(res, r.target)
}

func hasActivity(res core.Result, deal string) bool {
	for _, a := range res.Activities {
		if a.DealID == deal {
			return true
		}
	}
	return false
}

// viaSIAPI is the keyword path beneath eil: the handler counts, then
// searches. Only the search is the siapi.search span; the count still runs
// so the count cache sees the stream.
func (c *client) viaSIAPI(r *request) (time.Duration, bool) {
	sia := c.b.main.sys.LiveSIAPI()
	sia.Count(r.dq)
	i := c.log.begin("siapi.search", 0)
	hits := sia.SearchCtx(context.Background(), r.dq, pageLimit)
	_, d := c.log.end(i)
	return d, hasDoc(hits, r.target)
}

func hasDoc(hits []siapi.DocHit, deal string) bool {
	for _, h := range hits {
		if h.DealID == deal {
			return true
		}
	}
	return false
}

// byHand does what core.Engine.search does for a form query — synopsis
// search, scoped (or unscoped) activity search, one synopsis fetch per
// presented activity — timing each backend call.
func (c *client) byHand(r *request) (time.Duration, bool) {
	sys, ctx := c.b.main.sys, context.Background()
	root := c.log.begin("core.search.manual", 0)
	rootID := c.log.spans[root].ID
	var hits []synopsis.Hit
	var err error
	if !r.sq.Empty() {
		i := c.log.begin("synopsis.search", rootID)
		hits, err = sys.Synopses.SearchCtx(ctx, r.sq)
		c.log.end(i)
		if err != nil {
			c.log.end(root)
			return 0, false
		}
	}
	var deals []string
	switch {
	case r.dq.Empty():
		for _, h := range hits {
			deals = append(deals, h.DealID)
		}
	case r.sq.Empty() || len(hits) > 0:
		dq := r.dq
		for _, h := range hits {
			dq.Deals = append(dq.Deals, h.DealID)
		}
		i := c.log.begin("siapi.activities", rootID)
		acts, err := sys.LiveSIAPI().TrySearchActivitiesCtx(ctx, dq, 5)
		c.log.end(i)
		if err != nil {
			c.log.end(root)
			return 0, false
		}
		for _, a := range acts {
			deals = append(deals, a.DealID)
		}
	}
	if len(deals) > pageLimit {
		deals = deals[:pageLimit]
	}
	found := false
	for _, id := range deals {
		i := c.log.begin("synopsis.get", rootID)
		_, err := sys.Synopses.Get(id)
		c.log.end(i)
		found = found || (err == nil && id == r.target)
	}
	_, d := c.log.end(root)
	return d, found
}

// The statement texts synopsis.Store.Search issues, one per set criterion.
const (
	stmtTowerSub = `SELECT deal_id, tower, significance FROM deal_towers
				WHERE tower = ? AND subtower = ? ORDER BY significance DESC`
	stmtSub = `SELECT deal_id, tower, significance FROM deal_towers
				WHERE subtower = ? ORDER BY significance DESC`
	stmtTower = `SELECT deal_id, tower, significance FROM deal_towers
				WHERE tower = ? ORDER BY significance DESC`
	stmtPerson = `SELECT deal_id, validated FROM contacts WHERE LOWER(name) LIKE ?`
)

type statement struct {
	text string
	args []relstore.Value
}

// statements lists what synopsis.Store.Search would run for sq, bound with
// the request's values.
func statements(sq synopsis.Query) []statement {
	var out []statement
	switch {
	case sq.Tower != "" && sq.SubTower != "":
		out = append(out, statement{stmtTowerSub, []relstore.Value{sq.Tower, sq.SubTower}})
	case sq.SubTower != "":
		out = append(out, statement{stmtSub, []relstore.Value{sq.SubTower}})
	case sq.Tower != "":
		out = append(out, statement{stmtTower, []relstore.Value{sq.Tower}})
	}
	for _, c := range []struct{ col, val string }{
		{"industry", sq.Industry}, {"consultant", sq.Consultant},
		{"geography", sq.Geography}, {"country", sq.Country},
	} {
		if c.val != "" {
			out = append(out, statement{`SELECT id FROM deals WHERE ` + c.col + ` = ?`, []relstore.Value{c.val}})
		}
	}
	if sq.PersonName != "" {
		out = append(out, statement{stmtPerson, []relstore.Value{"%" + strings.ToLower(sq.PersonName) + "%"}})
	}
	return out
}

// beneath times what lies under synopsis and siapi for a form query: each
// sqlx statement (and its parse alone), the index search on the compiled
// query and the snippets of the documents that would be presented.
func (c *client) beneath(r *request) (time.Duration, bool) {
	sys := c.b.main.sys
	var total time.Duration
	var hits []synopsis.Hit
	if !r.sq.Empty() {
		root := c.log.begin("synopsis.search.manual", 0)
		rootID := c.log.spans[root].ID
		conn := sys.Synopses.Conn()
		for _, st := range statements(r.sq) {
			i := c.log.begin("sqlx.parse", rootID)
			_, perr := sqlx.Parse(st.text)
			c.log.end(i)
			i = c.log.begin("sqlx.query", rootID)
			_, qerr := conn.Query(st.text, st.args...)
			c.log.end(i)
			if perr != nil || qerr != nil {
				c.log.end(root)
				return 0, false
			}
		}
		_, d := c.log.end(root)
		total += d
		var err error
		if hits, err = sys.Synopses.Search(r.sq); err != nil {
			return total, false
		}
	}
	if r.dq.Empty() {
		for _, h := range hits {
			if h.DealID == r.target {
				return total, true
			}
		}
		return total, false
	}
	if !r.sq.Empty() && len(hits) == 0 {
		return total, false
	}
	dq := r.dq
	for _, h := range hits {
		dq.Deals = append(dq.Deals, h.DealID)
	}
	d, found := c.indexCalls("siapi.activities.manual", dq, 0, 5, r.target)
	return total + d, found
}

func (c *client) beneathKeyword(r *request) (time.Duration, bool) {
	c.b.main.sys.LiveSIAPI().Count(r.dq)
	return c.indexCalls("siapi.search.manual", r.dq, pageLimit, 0, r.target)
}

// indexCalls compiles dq, times the index search and then one snippet per
// document siapi would present: every hit when perDeal is 0, else the first
// perDeal of each deal.
func (c *client) indexCalls(rootName string, dq siapi.Query, limit, perDeal int, target string) (time.Duration, bool) {
	sia := c.b.main.sys.LiveSIAPI()
	ix := sia.Index()
	root := c.log.begin(rootName, 0)
	rootID := c.log.spans[root].ID
	iq := sia.Compile(dq)
	i := c.log.begin("index.search", rootID)
	hits := ix.SearchCtx(context.Background(), iq, limit)
	c.log.end(i)
	terms := queryTerms(ix.Analyzer(), dq)
	shown := map[string]int{}
	found := false
	for _, h := range hits {
		deal := ix.Meta(h.Doc, "deal")
		found = found || deal == target
		if perDeal > 0 && shown[deal] >= perDeal {
			continue
		}
		shown[deal]++
		j := c.log.begin("index.snippet", rootID)
		ix.Snippet(h.Doc, siapi.FieldBody, terms, 30)
		c.log.end(j)
	}
	_, d := c.log.end(root)
	return d, found
}

// queryTerms normalizes a query's positive terms the way siapi does for
// snippet highlighting.
func queryTerms(an textproc.Analyzer, q siapi.Query) []string {
	var terms []string
	for _, w := range q.All {
		terms = append(terms, an.NormalizeTerm(w))
	}
	terms = append(terms, an.Terms(q.Exact)...)
	for _, w := range q.Any {
		terms = append(terms, an.NormalizeTerm(w))
	}
	return terms
}
