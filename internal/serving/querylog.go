package serving

import (
	"slices"
	"sort"
	"strconv"
	"time"

	"repro/internal/trace"
)

// The query log is a view of the trace ring. A search sets its facts on its
// request's root span (LogQuery, called by package eil); /api/qlog reads them
// back from the tracer's retained traces (LoggedQueries). Each request is
// timed once: an entry's latency is its trace's duration, which the web
// middleware sets from the same clock reading it records in
// http_request_seconds.

// Root-span attributes of a logged search.
const (
	AttrQueryKind       = "query.kind"
	AttrQuerySummary    = "query.summary"
	AttrQueryConcept    = "query.concept" // one attribute per concept
	AttrQueryActivities = "query.activities"
	AttrQueryFallback   = "query.fallback"
	AttrQueryUser       = "query.user"
)

// Query kinds.
const (
	KindForm    = "form"    // business-activity driven search
	KindKeyword = "keyword" // search-box baseline
)

// QueryEntry is one logged search.
type QueryEntry struct {
	Time       time.Time // when the request started
	User       string
	Kind       string
	Summary    string // human-readable rendering of the query
	Concepts   []string
	Activities int  // activities returned, or a keyword query's true match count
	Fallback   bool // the unscoped SIAPI fallback fired
	// Latency is the request's duration, the one the route histogram holds.
	Latency time.Duration
	// TraceID links the entry to its trace — the bridge from "this query
	// was slow" to "here is where its time went".
	TraceID string
}

// LogQuery sets e's facts on root, the request's root span. Time, Latency
// and TraceID are the trace's own and are not written.
func LogQuery(root *trace.Span, e QueryEntry) {
	root.Set(AttrQueryKind, e.Kind)
	root.Set(AttrQuerySummary, e.Summary)
	for _, c := range e.Concepts {
		root.Set(AttrQueryConcept, c)
	}
	root.SetInt(AttrQueryActivities, e.Activities)
	root.SetBool(AttrQueryFallback, e.Fallback)
	root.Set(AttrQueryUser, e.User)
}

// LoggedQueries returns the searches among traces (as Tracer.Recent returns
// them, newest first), oldest first: every trace whose root span carries a
// query kind.
func LoggedQueries(traces []*trace.Trace) []QueryEntry {
	var out []QueryEntry
	for i := len(traces) - 1; i >= 0; i-- {
		tr := traces[i]
		e := QueryEntry{Time: tr.Start, Latency: tr.Duration, TraceID: tr.ID}
		for _, a := range tr.Spans()[0].Attrs {
			switch a.Key {
			case AttrQueryKind:
				e.Kind = a.Value
			case AttrQuerySummary:
				e.Summary = a.Value
			case AttrQueryConcept:
				e.Concepts = append(e.Concepts, a.Value)
			case AttrQueryActivities:
				e.Activities, _ = strconv.Atoi(a.Value) // written by SetInt
			case AttrQueryFallback:
				e.Fallback = a.Value == "true"
			case AttrQueryUser:
				e.User = a.Value
			}
		}
		if e.Kind != "" {
			out = append(out, e)
		}
	}
	return out
}

// SlowestQueries sorts entries slowest first and returns up to k of them
// (k <= 0 means 10).
func SlowestQueries(entries []QueryEntry, k int) []QueryEntry {
	if k <= 0 {
		k = 10
	}
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].Latency > entries[j].Latency })
	if len(entries) > k {
		entries = entries[:k]
	}
	return entries
}

// ConceptCount is one concept with its query frequency.
type ConceptCount struct {
	Concept string
	Count   int
}

// QuerySummary aggregates logged searches.
type QuerySummary struct {
	Total     int
	Zero      int // queries returning nothing
	Fallbacks int // unscoped-fallback queries
	Keyword   int // search-box queries
	// AvgLatency and MaxLatency aggregate the entries' latencies.
	AvgLatency time.Duration
	MaxLatency time.Duration
	// P50/P95/P99Latency are exact nearest-rank quantiles: the smallest
	// latency with at least that share of the entries at or below it. The
	// window is the trace ring, already in memory, so no estimate is needed.
	P50Latency  time.Duration
	P95Latency  time.Duration
	P99Latency  time.Duration
	TopConcepts []ConceptCount
}

// SummarizeQueries aggregates entries; top concepts are capped at topK (<= 0
// means 10).
func SummarizeQueries(entries []QueryEntry, topK int) QuerySummary {
	if topK <= 0 {
		topK = 10
	}
	var s QuerySummary
	counts := map[string]int{}
	var latSum time.Duration
	lats := make([]time.Duration, 0, len(entries))
	for _, e := range entries {
		s.Total++
		if e.Activities == 0 {
			s.Zero++
		}
		if e.Fallback {
			s.Fallbacks++
		}
		if e.Kind == KindKeyword {
			s.Keyword++
		}
		latSum += e.Latency
		lats = append(lats, e.Latency)
		for _, c := range e.Concepts {
			counts[c]++
		}
	}
	if n := len(lats); n > 0 {
		slices.Sort(lats)
		// Integer ranks: ceil(pct·n/100), so p99 of 100 entries is the 99th.
		rank := func(pct int) time.Duration { return lats[(pct*n+99)/100-1] }
		s.AvgLatency = latSum / time.Duration(n)
		s.MaxLatency = lats[n-1]
		s.P50Latency, s.P95Latency, s.P99Latency = rank(50), rank(95), rank(99)
	}
	for c, n := range counts {
		s.TopConcepts = append(s.TopConcepts, ConceptCount{Concept: c, Count: n})
	}
	sort.Slice(s.TopConcepts, func(i, j int) bool {
		if s.TopConcepts[i].Count != s.TopConcepts[j].Count {
			return s.TopConcepts[i].Count > s.TopConcepts[j].Count
		}
		return s.TopConcepts[i].Concept < s.TopConcepts[j].Concept
	})
	if len(s.TopConcepts) > topK {
		s.TopConcepts = s.TopConcepts[:topK]
	}
	return s
}
