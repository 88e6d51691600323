// Package qlog is EIL's query log: a bounded in-memory record of searches
// and their outcomes. The paper's evaluation method — "analyzing a
// collection of queries and results" — and its plan to improve the system
// "as more data becomes available and additional evaluation is performed"
// both need this telemetry: which concepts people ask for, which queries
// return nothing, and how often the unscoped fallback fires.
package qlog

import (
	"slices"
	"sort"
	"sync"
	"time"
)

// Kind classifies a logged query.
type Kind string

// Query kinds.
const (
	KindForm    Kind = "form"    // business-activity driven search
	KindKeyword Kind = "keyword" // search-box baseline
)

// Entry is one logged query.
type Entry struct {
	Time       time.Time
	User       string
	Kind       Kind
	Summary    string // human-readable rendering of the query
	Concepts   []string
	Activities int  // activities (or matching documents, for keyword) returned
	Fallback   bool // the unscoped SIAPI fallback fired
	// Latency is the end-to-end search duration, when the caller measured
	// one (zero otherwise).
	Latency time.Duration
	// TraceID links the entry to a retained trace when the request was
	// traced (empty otherwise) — the bridge from "this query was slow" to
	// "here is where its time went".
	TraceID string
}

// Log is a bounded ring of entries, safe for concurrent use.
type Log struct {
	mu      sync.Mutex
	entries []Entry
	next    int
	full    bool
	cap     int
}

// New returns a log keeping the most recent capacity entries (minimum 16).
func New(capacity int) *Log {
	if capacity < 16 {
		capacity = 16
	}
	return &Log{entries: make([]Entry, capacity), cap: capacity}
}

// Record appends an entry, evicting the oldest when full. A zero Time is
// stamped with the current time.
func (l *Log) Record(e Entry) {
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.entries[l.next] = e
	l.next++
	if l.next == l.cap {
		l.next = 0
		l.full = true
	}
}

// Entries returns the logged entries, oldest first.
func (l *Log) Entries() []Entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.full {
		out := make([]Entry, l.next)
		copy(out, l.entries[:l.next])
		return out
	}
	out := make([]Entry, 0, l.cap)
	out = append(out, l.entries[l.next:]...)
	out = append(out, l.entries[:l.next]...)
	return out
}

// Len reports the number of retained entries.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.full {
		return l.cap
	}
	return l.next
}

// Slowest returns up to k retained entries that carried a measured latency,
// slowest first (k <= 0 means 10).
func (l *Log) Slowest(k int) []Entry {
	if k <= 0 {
		k = 10
	}
	var out []Entry
	for _, e := range l.Entries() {
		if e.Latency > 0 {
			out = append(out, e)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Latency > out[j].Latency })
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// ConceptCount is one concept with its query frequency.
type ConceptCount struct {
	Concept string
	Count   int
}

// Summary aggregates the retained entries.
type Summary struct {
	Total     int
	Zero      int // queries returning nothing
	Fallbacks int // unscoped-fallback queries
	Keyword   int // search-box queries
	// AvgLatency and MaxLatency aggregate the entries that carried a
	// measured latency (zero when none did).
	AvgLatency time.Duration
	MaxLatency time.Duration
	// P50/P95/P99Latency are exact nearest-rank quantiles over the same
	// entries: the smallest measured latency with at least that share of
	// the entries at or below it. The window is the log's ring, which is
	// already in memory, so no estimate is needed.
	P50Latency  time.Duration
	P95Latency  time.Duration
	P99Latency  time.Duration
	TopConcepts []ConceptCount
}

// Summarize computes the summary over the retained entries; top concepts
// are capped at topK (<= 0 means 10).
func (l *Log) Summarize(topK int) Summary {
	if topK <= 0 {
		topK = 10
	}
	var s Summary
	counts := map[string]int{}
	var latSum time.Duration
	var lats []time.Duration
	for _, e := range l.Entries() {
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
		if e.Latency > 0 {
			latSum += e.Latency
			lats = append(lats, e.Latency)
		}
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
