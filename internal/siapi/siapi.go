// Package siapi implements EIL's Search and Index API layer — the query
// interface the paper's system uses against the OmniFind semantic index.
// It exposes the text section of the Figure 8 search form ("all of these
// words", "the exact phrase", "any of these words", "none of these words",
// each targeted at a document section), compiles it to the low-level index
// query algebra, and supports scoping a search to a set of business
// activities (step 8 of the Figure 1 algorithm).
package siapi

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/fault"
	"repro/internal/index"
	"repro/internal/lru"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Default field targets. "anywhere in EWB" searches body and title;
// annotators add concept fields (tower, person, role, techsolution) that
// queries may target directly.
const (
	FieldBody  = "body"
	FieldTitle = "title"
	FieldDeal  = "deal" // keyword field carrying the activity ID
)

// snippetWidth is the highlighted-extract length, in tokens.
const snippetWidth = 30

// Query is a SIAPI search request.
type Query struct {
	// All of these words must occur (in any target field).
	All []string
	// Exact is a phrase that must occur contiguously in one field.
	Exact string
	// Any requires at least one of these words when non-empty.
	Any []string
	// None excludes documents containing any of these words.
	None []string
	// Fuzzy words must occur up to one edit away (typo tolerance for names
	// and client terms); each behaves like an All word with slack.
	Fuzzy []string
	// Prefix terms must occur as the start of some indexed term (the
	// search box's trailing wildcard, `stor*`). Note the dictionary holds
	// stemmed terms, so prefixes longer than a word's stem will not match.
	Prefix []string
	// Fields are the index fields to search; empty means body + title
	// ("anywhere in EWB").
	Fields []string
	// Deals restricts matches to these business activities; empty means
	// unscoped (steps 13–15 of Figure 1).
	Deals []string
}

// Empty reports whether the query has no text criteria (deal scoping alone
// does not make a query).
func (q Query) Empty() bool {
	return len(q.All) == 0 && q.Exact == "" && len(q.Any) == 0 && len(q.None) == 0 &&
		len(q.Fuzzy) == 0 && len(q.Prefix) == 0
}

// ParseKeywords builds a query from a free-text search-box string, the way
// the OmniFind keyword baseline is driven in the paper's evaluation.
// Double-quoted runs become the exact phrase; '-' prefixed words become
// exclusions; everything else is an All word.
func ParseKeywords(s string) Query {
	var q Query
	rest := s
	for {
		open := strings.IndexByte(rest, '"')
		if open < 0 {
			break
		}
		close := strings.IndexByte(rest[open+1:], '"')
		if close < 0 {
			break
		}
		phrase := rest[open+1 : open+1+close]
		if q.Exact == "" {
			q.Exact = strings.TrimSpace(phrase)
		} else {
			q.All = append(q.All, strings.Fields(phrase)...)
		}
		rest = rest[:open] + " " + rest[open+1+close+1:]
	}
	for _, w := range strings.Fields(rest) {
		switch {
		case strings.HasPrefix(w, "-") && len(w) > 1:
			q.None = append(q.None, w[1:])
		case strings.HasSuffix(w, "*") && len(w) > 1:
			q.Prefix = append(q.Prefix, strings.TrimSuffix(w, "*"))
		default:
			q.All = append(q.All, w)
		}
	}
	return q
}

// DocHit is one scored document.
type DocHit struct {
	Path    string // repository path (index external ID)
	DealID  string
	Title   string
	Score   float64
	Snippet string
	// doc is the internal index document ID, kept so the activity path can
	// generate snippets lazily — only for the documents that survive the
	// per-deal cut, not for every scored candidate. Valid only within the
	// engine that produced the hit.
	doc index.DocID
}

// ActivityHit groups a search's documents by business activity, the
// presentation unit of EIL results (Figure 9: activities first, then each
// activity's documents).
type ActivityHit struct {
	DealID string
	// Score is the normalized average of the activity's document scores —
	// the paper's "normalize the document relevance scores from OmniFind
	// (e.g., compute an average score)".
	Score float64
	Docs  []DocHit
}

// Engine executes SIAPI queries against a document index. Search and Count
// results are memoized in epoch-invalidated LRUs (see cache.go); any index
// write invalidates them through the index generation counter.
type Engine struct {
	ix         *index.Index
	hitCache   *lru.Versioned[string, []DocHit]
	countCache *lru.Versioned[string, int]
	snipCache  *lru.Cache[string, string]
	// Cache telemetry; nil-safe no-ops until SetMetrics is called.
	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
}

// NewEngine wraps an index.
func NewEngine(ix *index.Index) *Engine {
	return &Engine{ix: ix, hitCache: newHitCache(), countCache: newCountCache(), snipCache: newSnippetCache()}
}

// Index exposes the wrapped index (the ingest pipeline writes through it).
func (e *Engine) Index() *index.Index { return e.ix }

// Compile lowers a SIAPI query to the index algebra. Exposed for tests and
// for the core layer's explain output.
func (e *Engine) Compile(q Query) index.Query {
	analyzer := e.ix.Analyzer()
	fields := q.Fields
	if len(fields) == 0 {
		fields = []string{FieldBody, FieldTitle}
	}
	// A query word matches if it appears in any target field. Words that
	// tokenize into several terms (email addresses, hyphenations) become
	// per-field phrases.
	termAcross := func(word string) index.Query {
		terms := analyzer.Terms(word)
		if len(terms) == 0 {
			terms = []string{analyzer.NormalizeTerm(word)}
		}
		should := make([]index.Query, 0, len(fields))
		for _, f := range fields {
			if len(terms) == 1 {
				should = append(should, index.TermQuery{Field: f, Term: terms[0]})
			} else {
				should = append(should, index.PhraseQuery{Field: f, Terms: terms})
			}
		}
		if len(should) == 1 {
			return should[0]
		}
		return index.BoolQuery{Should: should}
	}
	var root index.BoolQuery
	for _, w := range q.All {
		root.Must = append(root.Must, termAcross(w))
	}
	for _, w := range q.Fuzzy {
		term := analyzer.NormalizeTerm(w)
		should := make([]index.Query, 0, len(fields))
		for _, f := range fields {
			should = append(should, index.FuzzyQuery{Field: f, Term: term, MaxDist: 1})
		}
		if len(should) == 1 {
			root.Must = append(root.Must, should[0])
		} else {
			root.Must = append(root.Must, index.BoolQuery{Should: should})
		}
	}
	for _, w := range q.Prefix {
		prefix := strings.ToLower(strings.TrimSpace(w))
		should := make([]index.Query, 0, len(fields))
		for _, f := range fields {
			should = append(should, index.PrefixQuery{Field: f, Prefix: prefix})
		}
		if len(should) == 1 {
			root.Must = append(root.Must, should[0])
		} else {
			root.Must = append(root.Must, index.BoolQuery{Should: should})
		}
	}
	if q.Exact != "" {
		terms := analyzer.Terms(q.Exact)
		phrases := make([]index.Query, 0, len(fields))
		for _, f := range fields {
			phrases = append(phrases, index.PhraseQuery{Field: f, Terms: terms})
		}
		if len(phrases) == 1 {
			root.Must = append(root.Must, phrases[0])
		} else {
			root.Must = append(root.Must, index.BoolQuery{Should: phrases})
		}
	}
	for _, w := range q.Any {
		root.Should = append(root.Should, termAcross(w))
	}
	for _, w := range q.None {
		root.MustNot = append(root.MustNot, termAcross(w))
	}
	if len(q.Deals) > 0 {
		scope := make([]index.Query, 0, len(q.Deals))
		for _, d := range q.Deals {
			scope = append(scope, index.TermQuery{Field: FieldDeal, Term: index.KeywordTerm(d)})
		}
		root.Must = append(root.Must, index.BoolQuery{Should: scope})
	}
	return root
}

// queryTerms returns the normalized positive terms, for snippet
// highlighting.
func (e *Engine) queryTerms(q Query) []string {
	analyzer := e.ix.Analyzer()
	var terms []string
	for _, w := range q.All {
		terms = append(terms, analyzer.NormalizeTerm(w))
	}
	terms = append(terms, analyzer.Terms(q.Exact)...)
	for _, w := range q.Any {
		terms = append(terms, analyzer.NormalizeTerm(w))
	}
	for _, w := range q.Fuzzy {
		terms = append(terms, analyzer.NormalizeTerm(w))
	}
	return terms
}

// Search runs the query and returns up to limit document hits with
// snippets. limit <= 0 returns all. Results are served from the
// epoch-invalidated cache when the same query repeats against an unchanged
// index.
func (e *Engine) Search(q Query, limit int) []DocHit {
	return e.SearchCtx(context.Background(), q, limit)
}

// SearchCtx is Search recording a trace span when ctx carries one: cache
// hit or miss, the scope size, and the hit count. Injected faults surface
// as an empty hit list; callers that need the failure use TrySearchCtx.
func (e *Engine) SearchCtx(ctx context.Context, q Query, limit int) []DocHit {
	hits, _ := e.TrySearchCtx(ctx, q, limit)
	return hits
}

// TrySearchCtx is SearchCtx surfacing backend failure: it is the engine's
// fault-injection boundary (site "siapi.search", standing in for an
// unreachable OmniFind), and the error return is what the core resilience
// layer retries, breaks, and degrades on. A healthy engine never errors.
func (e *Engine) TrySearchCtx(ctx context.Context, q Query, limit int) ([]DocHit, error) {
	return e.trySearch(ctx, q, limit, nil, "")
}

// TrySearchStatsCtx is TrySearchCtx scoring against merged cluster-global
// statistics (see index.SearchStatsCtx). statsEpoch keys the result cache:
// it must identify the cluster state the stats were collected at, so a
// cached entry is only served while every shard is unchanged.
func (e *Engine) TrySearchStatsCtx(ctx context.Context, q Query, limit int, st *index.Stats, statsEpoch string) ([]DocHit, error) {
	return e.trySearch(ctx, q, limit, st, statsEpoch)
}

func (e *Engine) trySearch(ctx context.Context, q Query, limit int, st *index.Stats, statsEpoch string) ([]DocHit, error) {
	return e.trySearchSnippets(ctx, q, limit, st, statsEpoch, true)
}

// trySearchSnippets is trySearch with snippet generation optional. A
// snippet re-tokenizes the document body — by far the most expensive part
// of materializing a hit — so the activity path, which scores every
// matching document but presents only a handful per deal, asks for bare
// hits and snippets just the survivors (see tryActivities). Bare and
// snippeted hit lists cache under distinct keys.
func (e *Engine) trySearchSnippets(ctx context.Context, q Query, limit int, st *index.Stats, statsEpoch string, withSnippets bool) ([]DocHit, error) {
	if q.Empty() {
		return nil, nil
	}
	if err := fault.Inject(ctx, fault.SiteSIAPISearch); err != nil {
		return nil, fmt.Errorf("siapi: search: %w", err)
	}
	sctx, sp := trace.StartSpan(ctx, "siapi.search")
	key := cacheKey(q, limit)
	if statsEpoch != "" {
		key += "|s:" + statsEpoch
	}
	if !withSnippets {
		key += "|bare"
	}
	hits, cached := e.cachedSearchKey(key, func(epoch uint64) []DocHit {
		hits, total := e.ix.SearchTotalCtx(sctx, e.Compile(q), limit, st)
		// The evaluation already counted its matches: seed the count cache
		// so a Count of the same query against the same index state does not
		// evaluate again. Merged statistics change what matches only through
		// their fuzzy and prefix expansions, which Count does not see.
		local := st == nil || len(q.Fuzzy)+len(q.Prefix) == 0
		if local && total >= 0 && e.countCache != nil {
			e.countCache.Put(cacheKey(q, countLimit), epoch, total)
		}
		terms := e.queryTerms(q)
		out := make([]DocHit, 0, len(hits))
		// One locked pass for the whole list, so a page is never half of
		// one index state and half of the next.
		for i, d := range e.ix.StoredFor(hits, "deal", FieldTitle) {
			if d.ExtID == "" {
				continue // deleted since it was scored
			}
			h := hits[i]
			snippet := ""
			if withSnippets {
				snippet = e.snippet(h.Doc, terms)
			}
			out = append(out, DocHit{
				Path:    d.ExtID,
				DealID:  d.Meta,
				Title:   d.Text,
				Score:   h.Score,
				Snippet: snippet,
				doc:     h.Doc,
			})
		}
		return out
	})
	if sp != nil {
		sp.SetBool("cache_hit", cached)
		sp.SetInt("scope_deals", len(q.Deals))
		sp.SetInt("hits", len(hits))
		sp.End()
	}
	return hits, nil
}

// Count returns the number of matching documents — the "N documents
// returned" figure quoted throughout the paper's keyword-baseline analysis.
func (e *Engine) Count(q Query) int {
	if q.Empty() {
		return 0
	}
	n, _ := e.cachedCount(q, func() int {
		return e.ix.Count(e.Compile(q))
	})
	return n
}

// SearchActivities groups document hits by business activity and ranks
// activities by their normalized average document score. perDeal bounds the
// documents listed per activity (<= 0 keeps all).
func (e *Engine) SearchActivities(q Query, perDeal int) []ActivityHit {
	return e.SearchActivitiesCtx(context.Background(), q, perDeal)
}

// SearchActivitiesCtx is SearchActivities under a trace span recording the
// grouped activity count. Backend failure surfaces as no activities; the
// resilient core path uses TrySearchActivitiesCtx instead.
func (e *Engine) SearchActivitiesCtx(ctx context.Context, q Query, perDeal int) []ActivityHit {
	hits, _ := e.TrySearchActivitiesCtx(ctx, q, perDeal)
	return hits
}

// TrySearchActivitiesCtx is SearchActivitiesCtx surfacing backend failure
// for the core resilience layer.
func (e *Engine) TrySearchActivitiesCtx(ctx context.Context, q Query, perDeal int) ([]ActivityHit, error) {
	return e.tryActivities(ctx, q, perDeal, nil, "", true)
}

// TrySearchActivitiesRawCtx is the sharded scatter-gather variant: it
// scores documents against merged cluster-global statistics and returns
// raw per-activity average scores (no [0, 1] normalization), so the
// coordinator can normalize once against the best activity across every
// shard — exactly what the monolithic engine computes.
func (e *Engine) TrySearchActivitiesRawCtx(ctx context.Context, q Query, perDeal int, st *index.Stats, statsEpoch string) ([]ActivityHit, error) {
	return e.tryActivities(ctx, q, perDeal, st, statsEpoch, false)
}

func (e *Engine) tryActivities(ctx context.Context, q Query, perDeal int, st *index.Stats, statsEpoch string, normalize bool) ([]ActivityHit, error) {
	ctx, sp := trace.StartSpan(ctx, "siapi.activities")
	docs, err := e.trySearchSnippets(ctx, q, 0, st, statsEpoch, false)
	if err != nil {
		if sp != nil {
			sp.Set("error", err.Error())
			sp.End()
		}
		return nil, err
	}
	byDeal := map[string][]DocHit{}
	for _, d := range docs {
		if d.DealID == "" {
			continue
		}
		byDeal[d.DealID] = append(byDeal[d.DealID], d)
	}
	terms := e.queryTerms(q)
	hits := make([]ActivityHit, 0, len(byDeal))
	maxAvg := 0.0
	for deal, ds := range byDeal {
		sum := 0.0
		for _, d := range ds {
			sum += d.Score
		}
		avg := sum / float64(len(ds))
		if avg > maxAvg {
			maxAvg = avg
		}
		if perDeal > 0 && len(ds) > perDeal {
			ds = ds[:perDeal]
		}
		// Snippet only what will be presented: the activity average above
		// is computed over every scored document, but only these survivors
		// pay the re-tokenization cost.
		for i := range ds {
			ds[i].Snippet = e.snippet(ds[i].doc, terms)
		}
		hits = append(hits, ActivityHit{DealID: deal, Score: avg, Docs: ds})
	}
	// Normalize activity scores into [0, 1] relative to the best activity.
	if normalize && maxAvg > 0 {
		for i := range hits {
			hits[i].Score /= maxAvg
		}
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].DealID < hits[j].DealID
	})
	if sp != nil {
		sp.SetInt("activities", len(hits))
		sp.End()
	}
	return hits, nil
}
