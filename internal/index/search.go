package index

import (
	"context"
	"math"
	"slices"
	"sort"

	"repro/internal/fault"
	"repro/internal/trace"
)

// Query is the low-level query tree evaluated directly against the index.
// The SIAPI layer compiles its richer surface syntax into this algebra.
type Query interface{ isQuery() }

// TermQuery matches documents containing Term in Field. Term must already be
// normalized with the index analyzer (or with KeywordTerm for keyword
// fields).
type TermQuery struct {
	Field string
	Term  string
}

// PhraseQuery matches documents where Terms occur at consecutive token
// positions within Field.
type PhraseQuery struct {
	Field string
	Terms []string
}

// BoolQuery combines sub-queries: all Must and at least one Should (when
// Should is non-empty) must match, and no MustNot may match. Scores sum over
// matching Must and Should clauses.
type BoolQuery struct {
	Must    []Query
	Should  []Query
	MustNot []Query
}

// AllQuery matches every live document with a constant score of 1.
type AllQuery struct{}

func (TermQuery) isQuery()   {}
func (PhraseQuery) isQuery() {}
func (BoolQuery) isQuery()   {}
func (AllQuery) isQuery()    {}

// Hit is a scored search result.
type Hit struct {
	Doc   DocID
	Score float64
}

// BM25 constants — conventional values.
const (
	bm25K1 = 1.2
	bm25B  = 0.75
)

// phraseBoost multiplies the score of phrase matches; adjacency is stronger
// evidence of relevance than bag-of-words co-occurrence.
const phraseBoost = 1.2

// acc is a reusable per-query scoring accumulator: a dense score table plus
// the list of matched documents. Evaluation only ever adds the documents
// that survive every clause, so ids holds exactly the members, without
// duplicates.
type acc struct {
	scores []float64
	member []bool
	ids    []DocID
}

// grow sizes the dense tables for n documents. Pooled accumulators keep
// their backing arrays zeroed (reset clears every touched slot), so
// re-slicing within capacity exposes only zeroes.
func (a *acc) grow(n int) {
	if cap(a.scores) < n {
		a.scores = make([]float64, n)
		a.member = make([]bool, n)
		return
	}
	a.scores = a.scores[:n]
	a.member = a.member[:n]
}

// add inserts or score-accumulates one document.
func (a *acc) add(id DocID, s float64) {
	if a.member[id] {
		a.scores[id] += s
		return
	}
	a.member[id] = true
	a.scores[id] = s
	a.ids = append(a.ids, id)
}

// addMax inserts or keeps the maximum score (fuzzy/prefix disjunctions).
func (a *acc) addMax(id DocID, s float64) {
	if a.member[id] {
		if s > a.scores[id] {
			a.scores[id] = s
		}
		return
	}
	a.member[id] = true
	a.scores[id] = s
	a.ids = append(a.ids, id)
}

// reset clears every touched slot so the accumulator can return to the pool
// with all-zero backing arrays.
func (a *acc) reset() {
	for _, id := range a.ids {
		a.scores[id] = 0
		a.member[id] = false
	}
	a.ids = a.ids[:0]
}

// getAcc leases an accumulator sized for the current document space.
// Callers must hold at least a read lock (len(ix.docs) must be stable).
func (ix *Index) getAcc() *acc {
	a, _ := ix.accPool.Get().(*acc)
	if a == nil {
		a = &acc{}
	}
	a.grow(len(ix.docs))
	return a
}

// putAcc resets and returns an accumulator to the pool.
func (ix *Index) putAcc(a *acc) {
	a.reset()
	ix.accPool.Put(a)
}

// Search evaluates q and returns hits sorted by descending score (ties broken
// by ascending DocID for determinism). limit <= 0 returns all hits; a
// positive limit selects the top-k through a bounded min-heap without
// materializing or sorting the full result set.
func (ix *Index) Search(q Query, limit int) []Hit {
	return ix.SearchCtx(context.Background(), q, limit)
}

// SearchCtx is Search recording a trace span when ctx carries one: the
// candidate count before top-k selection, the returned count, and whether
// the bounded heap truncated the result set. Untraced contexts cost one
// context lookup.
func (ix *Index) SearchCtx(ctx context.Context, q Query, limit int) []Hit {
	return ix.SearchStatsCtx(ctx, q, limit, nil)
}

// SearchStatsCtx is SearchCtx scoring against externally supplied global
// statistics instead of this index's own: document frequencies, corpus
// size, average field lengths, and fuzzy/prefix expansions come from st
// where collected, so a shard of a partitioned corpus produces exactly
// the scores the monolithic index would. st == nil scores locally.
func (ix *Index) SearchStatsCtx(ctx context.Context, q Query, limit int, st *Stats) []Hit {
	hits, _ := ix.SearchTotalCtx(ctx, q, limit, st)
	return hits
}

// SearchTotalCtx is SearchStatsCtx also reporting how many documents matched
// before limit cut the page — what Count would return for q against the same
// index state (and the same st) — so a caller that wants both evaluates
// once. The total is -1 when the search was cut off before it evaluated.
//
// The span says what the search cost: which clause drove the outermost
// conjunction, how many posting entries were touched, and how many of the
// driver's candidates were probed against the other clauses.
func (ix *Index) SearchTotalCtx(ctx context.Context, q Query, limit int, st *Stats) ([]Hit, int) {
	_, sp := trace.StartSpan(ctx, "index.search")
	// Fault-injection boundary (site "index.search"): the index cannot
	// surface errors, so injected faults here model a degraded — not dead —
	// backend: added latency/hang (bounded by the caller's deadline) and
	// partial harvest. A caller whose deadline already expired gets nothing,
	// matching a scan that was cut off.
	if err := fault.Delay(ctx, fault.SiteIndexSearch); err != nil {
		if sp != nil {
			sp.Set("error", err.Error())
			sp.End()
		}
		return nil, -1
	}
	ev := eval{ix: ix, st: st, scoring: true}
	ix.mu.RLock()
	a, driver := ev.run(q, sp != nil)
	ix.mu.RUnlock()
	total := len(a.ids)
	hits := collectHits(a, limit)
	ix.putAcc(a)
	if keep := fault.Keep(ctx, fault.SiteIndexSearch, len(hits)); keep < len(hits) {
		hits = hits[:keep]
	}
	if sp != nil {
		sp.Set("driver", driver)
		sp.SetInt("postings_visited", ev.postings)
		sp.SetInt("candidates_probed", ev.probed)
		sp.SetInt("candidates", total)
		sp.SetInt("returned", len(hits))
		sp.SetBool("heap_truncated", limit > 0 && total > limit)
		sp.End()
	}
	return hits, total
}

// Count evaluates q without scoring and returns only the number of matching
// documents. AllQuery short-circuits to the maintained live-document count.
func (ix *Index) Count(q Query) int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if _, ok := q.(AllQuery); ok {
		return ix.liveDocs
	}
	ev := eval{ix: ix}
	a, _ := ev.run(q, false)
	n := len(a.ids)
	ix.putAcc(a)
	return n
}

// hitWorse reports whether a ranks strictly below b: lower score, or equal
// score and higher DocID. It is the strict total order behind both the final
// sort and the top-k heap, so bounded and unbounded search agree exactly.
func hitWorse(a, b Hit) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Doc > b.Doc
}

// collectHits turns an accumulator into a ranked hit list.
func collectHits(a *acc, limit int) []Hit {
	if limit <= 0 || len(a.ids) <= limit {
		hits := make([]Hit, 0, len(a.ids))
		for _, id := range a.ids {
			hits = append(hits, Hit{Doc: id, Score: a.scores[id]})
		}
		sort.Slice(hits, func(i, j int) bool { return hitWorse(hits[j], hits[i]) })
		return hits
	}
	// Bounded selection: a min-heap of size limit ordered worst-at-root.
	h := make([]Hit, 0, limit)
	for _, id := range a.ids {
		cand := Hit{Doc: id, Score: a.scores[id]}
		if len(h) < limit {
			h = append(h, cand)
			siftUp(h, len(h)-1)
			continue
		}
		if hitWorse(h[0], cand) {
			h[0] = cand
			siftDown(h, 0)
		}
	}
	sort.Slice(h, func(i, j int) bool { return hitWorse(h[j], h[i]) })
	return h
}

// siftUp restores the worst-at-root heap property after appending at i.
func siftUp(h []Hit, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !hitWorse(h[i], h[parent]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// siftDown restores the heap property after replacing the root.
func siftDown(h []Hit, i int) {
	n := len(h)
	for {
		worst := i
		if l := 2*i + 1; l < n && hitWorse(h[l], h[worst]) {
			worst = l
		}
		if r := 2*i + 2; r < n && hitWorse(h[r], h[worst]) {
			worst = r
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// bm25IDF is the BM25 inverse document frequency of a term found in df of n
// live documents; 0 when either is 0, which zeroes every score built on it.
func bm25IDF(df, n int) float64 {
	if df == 0 || n == 0 {
		return 0
	}
	return math.Log(1 + (float64(n)-float64(df)+0.5)/(float64(df)+0.5))
}

// bm25TF completes the BM25 contribution of a term of inverse document
// frequency idf occurring tf times in a field of length fieldLen, given the
// field's average length.
func bm25TF(idf float64, tf, fieldLen int, avgLen float64) float64 {
	if tf == 0 || idf == 0 {
		return 0
	}
	norm := float64(fieldLen)
	if avgLen > 0 {
		norm = float64(fieldLen) / avgLen
	}
	tfc := float64(tf) * (bm25K1 + 1) / (float64(tf) + bm25K1*(1-bm25B+bm25B*norm))
	return idf * tfc
}

func (ix *Index) fieldStats(field string) (avgLen float64, docs int) {
	docs = ix.fieldDocs[field]
	if docs > 0 {
		avgLen = float64(ix.fieldTotals[field]) / float64(docs)
	}
	return avgLen, docs
}

// findPosting binary-searches a posting list for a document and returns its
// entry index.
func findPosting(pl *postingList, id DocID) (int, bool) {
	return slices.BinarySearch(pl.docs, id)
}
