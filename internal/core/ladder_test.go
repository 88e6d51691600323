package core

// The degradation ladder, tested once over every engine shape: the same
// fault on every backend must put a monolith, a one-shard cluster and a
// three-shard cluster on the same rung, and the partial rungs — which need a
// backend that answered beside one that failed — are reached only by N > 1.

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/access"
	"repro/internal/fault"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/siapi"
	"repro/internal/synopsis"
)

// ladderShapes are the backend lists the table runs over. Among three
// backends ShardFor puts DEAL A and DEAL B on shard-0, DEAL C on shard-1 and
// nothing on shard-2, so the scoped stages also meet a backend with no deal
// in scope.
var ladderShapes = []struct {
	name     string
	backends []string
}{
	{"monolith", []string{""}},
	{"one shard", []string{"shard-0"}},
	{"three shards", []string{"shard-0", "shard-1", "shard-2"}},
}

// ladderEngine is the two-deal corpus plus DEAL C, a second storage deal
// whose document also says "replication", partitioned over the named
// backends.
func ladderEngine(t *testing.T, names []string) *Engine {
	t.Helper()
	deals := append(fixtureDeals(), synopsis.Deal{
		Overview: synopsis.Overview{DealID: "DEAL C", Customer: "Cobalt", Industry: "Retail"},
		Towers:   []synopsis.TowerScope{{Tower: "Storage Management Services", Significance: 0.7}},
		People:   []synopsis.Contact{{Name: "Lee Moss", Role: "PE", Category: "core deal team"}},
	})
	docs := append(fixtureDocs(), index.Document{ExtID: "DEAL C/plan.doc", Fields: []index.Field{
		{Name: siapi.FieldTitle, Text: "Transition Plan"},
		{Name: siapi.FieldBody, Text: "tape library replication schedule"},
		{Name: siapi.FieldDeal, Text: "DEAL C", Keyword: true},
	}, Meta: map[string]string{"deal": "DEAL C"}})
	e := newEngineOver(t, names, deals, docs)
	e.Metrics = obs.NewRegistry()
	return e
}

// rung is where on the ladder one search landed.
type rung struct {
	Unavailable string   // the hop the error names; "" when the search was served
	Causes      []string // Result.DegradedCauses
	Fallback    bool     // Result.UnscopedFallback
	WithDocs    []string // activities served with documents, sorted
	Synopsis    []string // activities served without, sorted
}

// observe runs q and reports the rung; a served search must carry explain as
// one of its lines, an unavailable one must be a *BackendError from shard
// with the injected fault at the end of its chain.
func observe(t *testing.T, label string, e *Engine, q FormQuery, explain, shard string) rung {
	t.Helper()
	res, err := e.Search(anyUser(), q)
	if err != nil {
		var be *BackendError
		if !errors.As(err, &be) || !IsUnavailable(err) || !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("%s: err = %v (%T), want a *BackendError wrapping the injected fault", label, err, err)
		}
		if be.Shard != shard {
			t.Errorf("%s: error names shard %q, want %q", label, be.Shard, shard)
		}
		return rung{Unavailable: be.Backend}
	}
	r := rung{Causes: res.DegradedCauses, Fallback: res.UnscopedFallback}
	if res.Degraded != (len(r.Causes) > 0) {
		t.Errorf("%s: Degraded = %v with causes %v", label, res.Degraded, r.Causes)
	}
	for _, a := range res.Activities {
		if len(a.Docs) > 0 {
			r.WithDocs = append(r.WithDocs, a.DealID)
		} else {
			r.Synopsis = append(r.Synopsis, a.DealID)
		}
		if a.Synopsis == nil {
			t.Errorf("%s: %s served without its synopsis", label, a.DealID)
		}
	}
	sort.Strings(r.WithDocs)
	sort.Strings(r.Synopsis)
	if !strings.Contains(strings.Join(res.Explain, "\n"), explain) {
		t.Errorf("%s: explain %q lacks %q", label, res.Explain, explain)
	}
	return r
}

func injector(sites ...string) *fault.Injector {
	inj := fault.New(7)
	for _, s := range sites {
		inj.Add(&fault.Rule{Site: s, Mode: fault.ModeError})
	}
	return inj
}

func TestLadderAgreesAcrossShapes(t *testing.T) {
	concept := FormQuery{Tower: "Storage Management Services"}
	text := FormQuery{AllWords: []string{"replication"}}
	nomatch := FormQuery{Tower: "Network Services", AllWords: []string{"replication"}}
	const syn, doc = fault.SiteSynopsisSearch, fault.SiteSIAPISearch
	all, storage := []string{"DEAL A", "DEAL B", "DEAL C"}, []string{"DEAL A", "DEAL C"}

	rows := []struct {
		name    string
		faults  []string // sites failing on every backend
		q       FormQuery
		want    rung
		explain string
	}{
		{"healthy/concept", nil, concept, rung{Synopsis: storage}, "synopsis query matched 2 activities"},
		{"healthy/concept+text", nil, scopedQuery(), rung{WithDocs: storage}, "scoped SIAPI query over 2 activities"},
		{"healthy/text", nil, text, rung{Fallback: true, WithDocs: all}, "unscoped SIAPI query (no concept criteria)"},
		{"healthy/no concept match", nil, nomatch, rung{}, "concept criteria matched no activities"},

		{"synopsis down/concept", []string{syn}, concept, rung{Unavailable: BackendSynopsis}, ""},
		{"synopsis down/concept+text", []string{syn}, scopedQuery(),
			rung{Causes: []string{BackendSynopsis}, Fallback: true, WithDocs: all}, "synopsis backend unavailable; degraded to unscoped full-text"},
		{"synopsis down/text", []string{syn}, text, rung{Fallback: true, WithDocs: all}, "unscoped SIAPI query (no concept criteria)"},
		{"synopsis down/no concept match", []string{syn}, nomatch,
			rung{Causes: []string{BackendSynopsis}, Fallback: true, WithDocs: all}, "unscoped SIAPI query (synopsis degraded)"},

		{"siapi down/concept", []string{doc}, concept, rung{Synopsis: storage}, "synopsis query matched 2 activities"},
		{"siapi down/concept+text", []string{doc}, scopedQuery(),
			rung{Causes: []string{BackendSIAPI}, Synopsis: storage}, "document index unavailable; degraded to synopsis-plus-contacts"},
		{"siapi down/text", []string{doc}, text, rung{Unavailable: BackendSIAPI}, ""},
		{"siapi down/no concept match", []string{doc}, nomatch, rung{}, "concept criteria matched no activities"},

		{"both down/concept", []string{syn, doc}, concept, rung{Unavailable: BackendSynopsis}, ""},
		{"both down/concept+text", []string{syn, doc}, scopedQuery(), rung{Unavailable: BackendSIAPI}, ""},
		{"both down/text", []string{syn, doc}, text, rung{Unavailable: BackendSIAPI}, ""},

		{"access down/concept+text", []string{fault.SiteAccessLevels}, scopedQuery(),
			rung{Causes: []string{BackendAccess}, Synopsis: storage}, "access control unavailable; degraded to synopsis-only"},
	}
	for _, row := range rows {
		for _, shape := range ladderShapes {
			label := row.name + " on " + shape.name
			e := ladderEngine(t, shape.backends)
			e.Access = access.NewController()
			if row.faults != nil {
				e.Faults = injector(row.faults...)
			}
			// Every backend fails alike, so the error names the first one.
			if got := observe(t, label, e, row.q, row.explain, shape.backends[0]); !reflect.DeepEqual(got, row.want) {
				t.Errorf("%s: rung %+v, want %+v", label, got, row.want)
			}
		}
	}
}

// TestLadderPartialOutage: the rungs between all-ok and all-failed. shard-1
// owns DEAL C and is the one that fails; shard-0's deals keep their tier.
func TestLadderPartialOutage(t *testing.T) {
	const syn, doc = fault.SiteSynopsisSearch, fault.SiteSIAPISearch
	rows := []struct {
		name    string
		site    string
		q       FormQuery
		want    rung
		explain string
	}{
		{"synopsis shard down/concept", syn, FormQuery{Tower: "Storage Management Services"},
			rung{Causes: []string{BackendSynopsis}, Synopsis: []string{"DEAL A"}}, "1 of 3 synopsis shards unavailable; serving partial business context"},
		{"synopsis shard down/concept+text", syn, scopedQuery(),
			rung{Causes: []string{BackendSynopsis}, WithDocs: []string{"DEAL A"}}, "scoped SIAPI query over 1 activities"},
		{"document shard down/concept+text", doc, scopedQuery(),
			rung{Causes: []string{BackendSIAPI}, WithDocs: []string{"DEAL A"}, Synopsis: []string{"DEAL C"}},
			"1 document shards unavailable; affected activities degraded to synopsis-plus-contacts"},
		{"document shard down/text", doc, FormQuery{AllWords: []string{"replication"}},
			rung{Causes: []string{BackendSIAPI}, Fallback: true, WithDocs: []string{"DEAL A", "DEAL B"}}, "1 of 3 document shards unavailable; serving partial results"},
	}
	for _, row := range rows {
		e := ladderEngine(t, ladderShapes[2].backends)
		e.Backends[1].Faults = injector(row.site)
		if got := observe(t, row.name, e, row.q, row.explain, ""); !reflect.DeepEqual(got, row.want) {
			t.Errorf("%s: rung %+v, want %+v", row.name, got, row.want)
		}
		if c := e.Metrics.Counter("eil_shard_search_errors_total", "shard", "shard-1").Value(); c == 0 {
			t.Errorf("%s: the failed shard's error counter did not move", row.name)
		}
	}
}

// TestLadderKeyword: the search-box baseline over the same shapes. A shard
// whose document index is down costs only its own hits, its circuit counts
// the failure, and the statistics merged without it are not memoized, so the
// first search after it heals scores against every shard again.
func TestLadderKeyword(t *testing.T) {
	ctx := context.Background()
	kq := siapi.ParseKeywords("replication")
	paths := func(hits []siapi.DocHit) []string {
		var out []string
		for _, h := range hits {
			out = append(out, h.Path)
		}
		sort.Strings(out)
		return out
	}
	all := []string{"DEAL A/sol.deck", "DEAL B/notes.txt", "DEAL C/plan.doc"}
	var mono []siapi.DocHit
	for _, shape := range ladderShapes {
		e := ladderEngine(t, shape.backends)
		hits := e.KeywordSearchCtx(ctx, kq, 0)
		if got := paths(hits); !reflect.DeepEqual(got, all) {
			t.Errorf("%s: hits %v, want %v", shape.name, got, all)
		}
		if n := e.KeywordCount(kq); n != len(all) {
			t.Errorf("%s: count %d, want %d", shape.name, n, len(all))
		}
		if mono == nil {
			mono = hits
		} else if len(hits) == len(mono) {
			for i := range hits {
				if hits[i].Path != mono[i].Path || hits[i].Score != mono[i].Score {
					t.Errorf("%s: hit %d = (%s, %v), monolith (%s, %v)", shape.name, i, hits[i].Path, hits[i].Score, mono[i].Path, mono[i].Score)
				}
			}
		}
	}

	e := ladderEngine(t, ladderShapes[2].backends)
	e.Backends[1].Faults = injector(fault.SiteSIAPISearch)
	misses := func() int64 { return e.Metrics.Counter("shard_stats_cache_misses_total").Value() }
	for i := 1; i <= 2; i++ {
		if got, want := paths(e.KeywordSearchCtx(ctx, kq, 0)), all[:2]; !reflect.DeepEqual(got, want) {
			t.Errorf("shard-1 down, search %d: hits %v, want the healthy shards' %v", i, got, want)
		}
		if n := misses(); n != int64(i) {
			t.Errorf("shard-1 down, search %d: %d stats misses — the partial statistics were memoized", i, n)
		}
	}
	if n := e.Metrics.Counter("search_backend_errors_total", "backend", "siapi#shard-1").Value(); n == 0 {
		t.Error("search_backend_errors_total{backend=siapi#shard-1} did not move")
	}
	e.Backends[1].Faults = nil
	for i := 0; i < 2; i++ {
		if got := paths(e.KeywordSearchCtx(ctx, kq, 0)); !reflect.DeepEqual(got, all) {
			t.Errorf("shard-1 healed: hits %v, want %v", got, all)
		}
	}
	if n, hits := misses(), e.Metrics.Counter("shard_stats_cache_hits_total").Value(); n != 3 || hits != 1 {
		t.Errorf("after healing: %d stats misses and %d hits, want 3 and 1", n, hits)
	}
}

// TestOneBackendHotPath guards the path a monolith's reads take, by count:
// a memoized search allocates no more than it did when the monolithic ladder
// was its own function (69, 48 and 60 allocations per search for these three
// queries at 504e819, measured with this fixture), a memoized keyword search
// plus its count allocates no more than System.KeywordSearchCtx and
// KeywordCount did before the keyword path moved into the engine (16 at
// c005d47, with this fixture), and a read over one backend — named or not —
// never enters the scatter: no goroutine, no per-shard span or metric.
func TestOneBackendHotPath(t *testing.T) {
	ctx, user := context.Background(), anyUser()
	ceilings := []struct {
		q   FormQuery
		max float64
	}{
		{scopedQuery(), 69},
		{FormQuery{Tower: "Storage Management Services"}, 48},
		{FormQuery{AllWords: []string{"replication"}}, 60},
	}
	for _, c := range ceilings {
		e := newEngine(t)
		e.Metrics = obs.NewRegistry()
		search := func() {
			if _, err := e.SearchCtx(ctx, user, c.q); err != nil {
				t.Fatal(err)
			}
		}
		search() // fill the memos
		if got := testing.AllocsPerRun(200, search); got > c.max && !raceEnabled {
			t.Errorf("%+v: %v allocations per memoized search, ceiling %v", c.q, got, c.max)
		}
	}
	const keyword, keywordCeiling = "storage replication", 16
	keywordRead := func(e *Engine) {
		if len(e.KeywordSearchCtx(ctx, siapi.ParseKeywords(keyword), 10)) == 0 || e.KeywordCount(siapi.ParseKeywords(keyword)) == 0 {
			t.Fatalf("%q: no hits", keyword)
		}
	}
	e := newEngine(t)
	e.Metrics = obs.NewRegistry()
	keywordRead(e) // fill the caches
	if got := testing.AllocsPerRun(200, func() { keywordRead(e) }); got > keywordCeiling && !raceEnabled {
		t.Errorf("%q: %v allocations per memoized keyword search plus count, ceiling %v", keyword, got, keywordCeiling)
	}

	e = ladderEngine(t, []string{"shard-0"})
	before := runtime.NumGoroutine()
	for i := 0; i < 1000; i++ {
		for _, c := range ceilings {
			if _, err := e.SearchCtx(ctx, user, c.q); err != nil {
				t.Fatal(err)
			}
		}
		keywordRead(e)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines: %d before, %d after 4,000 one-backend reads", before, after)
	}
	if n := e.Metrics.Counter("eil_shard_search_total", "shard", "shard-0").Value(); n != 0 {
		t.Errorf("a one-backend engine scattered %d times", n)
	}
	// What is per backend stays per backend on the inline path: its circuit
	// is keyed by its name and its own injector still reaches its calls.
	e.Backends[0].Faults = injector(fault.SiteSIAPISearch)
	res, err := e.SearchCtx(ctx, user, ceilings[0].q)
	if err != nil || !reflect.DeepEqual(res.DegradedCauses, []string{BackendSIAPI}) {
		t.Errorf("the backend's own fault: err=%v causes=%v", err, res.DegradedCauses)
	}
	if n := e.Metrics.Counter("search_backend_errors_total", "backend", "siapi#shard-0").Value(); n != 1 {
		t.Errorf("search_backend_errors_total{backend=siapi#shard-0} = %d, want 1", n)
	}
}
