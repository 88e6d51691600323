package index

// Distributed scoring statistics. BM25 scores depend on corpus-global
// quantities — document frequency, live-document count, average field
// length — so a sharded deployment that scored each shard against its own
// local statistics would rank documents differently than a monolithic
// index over the same corpus. CollectStats walks a query tree against one
// shard and records every global input the evaluator would consult;
// Merge folds per-shard stats into cluster-wide totals; Search with a
// *Stats evaluates locally but scores globally. The protocol is the
// classic two-phase "distributed frequencies" scheme (Elasticsearch's
// DFS_QUERY_THEN_FETCH): phase one scatters CollectStats, phase two
// scatters the search carrying the merged stats.
//
// Fuzzy and prefix leaves need more than frequencies: their dictionary
// expansions must be computed over the union of every shard's term
// dictionary, or a shard that happens to hold few matching terms would
// expand differently than the monolith. CollectStats therefore records
// each shard's capped candidate list; Merge unions and re-caps them under
// the same total order the evaluator uses. Because any term ranked inside
// the global cap is necessarily inside the cap of every shard whose
// dictionary contains it (a shard's dictionary is a subset of the
// global one, so local rank <= global rank), the merged list and every
// candidate's summed document frequency are exact, and merging is
// associative.

import "sort"

// TermKey identifies one term leaf in the stats table.
type TermKey struct {
	Field string
	Term  string
}

// TermDist is one fuzzy-expansion candidate: a dictionary term and its
// edit distance from the query term.
type TermDist struct {
	Term string
	Dist int
}

// Stats carries the corpus-global scoring inputs for one query tree.
// A nil *Stats means "score against local statistics" everywhere.
type Stats struct {
	// LiveDocs is the total live-document count (BM25 n).
	LiveDocs int
	// FieldTotals/FieldDocs hold per-field token totals and document
	// counts for average-length normalization. They are copied wholesale
	// (every field, not just queried ones): the maps are tiny and the
	// copy removes any dependency on which leaves the walk visits.
	FieldTotals map[string]int
	FieldDocs   map[string]int
	// TermDF maps term leaves (and fuzzy/prefix expansion candidates) to
	// their global document frequency. A term absent from the map scores
	// with its local frequency — deliberately, so deal-routing keyword
	// terms (a deal lives wholly on one shard, making local df global)
	// stay exact without being collected.
	TermDF map[TermKey]int
	// PhraseDF maps phrase leaves to their global match count.
	PhraseDF map[string]int
	// FuzzyExp/PrefixExp map fuzzy and prefix leaves to their merged,
	// capped dictionary expansions.
	FuzzyExp  map[string][]TermDist
	PrefixExp map[string][]string
}

// newStats allocates an empty stats table.
func newStats() *Stats {
	return &Stats{
		FieldTotals: map[string]int{},
		FieldDocs:   map[string]int{},
		TermDF:      map[TermKey]int{},
		PhraseDF:    map[string]int{},
		FuzzyExp:    map[string][]TermDist{},
		PrefixExp:   map[string][]string{},
	}
}

// phraseKey builds an injective key for a phrase leaf (length-prefixed so
// distinct term lists cannot collide).
func phraseKey(field string, terms []string) string {
	key := field
	for _, t := range terms {
		key += "\x00" + t
	}
	return key
}

func fuzzyLeafKey(q FuzzyQuery) string {
	d := q.MaxDist
	if d <= 0 {
		d = 1
	}
	return q.Field + "\x00" + q.Term + "\x00" + string(rune('0'+d))
}

func prefixLeafKey(q PrefixQuery) string {
	return q.Field + "\x00" + q.Prefix
}

// CollectStats walks q and returns this index's contribution to the
// global scoring statistics: local document frequencies for every term
// and phrase leaf, local dictionary expansions (with per-candidate
// frequencies) for fuzzy and prefix leaves, and the corpus-size and
// field-length totals.
func (ix *Index) CollectStats(q Query) *Stats {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	st := newStats()
	st.LiveDocs = ix.liveDocs
	for f, v := range ix.fieldTotals {
		st.FieldTotals[f] = v
	}
	for f, v := range ix.fieldDocs {
		st.FieldDocs[f] = v
	}
	ix.collectStats(q, st)
	return st
}

// collectStats records each leaf's local frequency by assignment, not
// addition: a leaf that occurs twice in one tree (the same word under All and
// Any) is still one term with one document frequency. Only Merge adds.
func (ix *Index) collectStats(q Query, st *Stats) {
	switch t := q.(type) {
	case TermQuery:
		st.TermDF[TermKey{t.Field, t.Term}] = ix.liveDF(t.Field, t.Term)
	case PhraseQuery:
		switch len(t.Terms) {
		case 0:
		case 1:
			// The evaluator delegates single-term phrases to the term
			// path, so the stats walk must too.
			st.TermDF[TermKey{t.Field, t.Terms[0]}] = ix.liveDF(t.Field, t.Terms[0])
		default:
			st.PhraseDF[phraseKey(t.Field, t.Terms)] = ix.phraseCount(t.Field, t.Terms)
		}
	case BoolQuery:
		for _, sub := range t.Must {
			ix.collectStats(sub, st)
		}
		for _, sub := range t.Should {
			ix.collectStats(sub, st)
		}
		for _, sub := range t.MustNot {
			ix.collectStats(sub, st)
		}
	case FuzzyQuery:
		cands := ix.fuzzyCandidates(t)
		st.FuzzyExp[fuzzyLeafKey(t)] = cands
		for _, c := range cands {
			st.TermDF[TermKey{t.Field, c.Term}] = ix.liveDF(t.Field, c.Term)
		}
	case PrefixQuery:
		terms := ix.prefixCandidates(t)
		st.PrefixExp[prefixLeafKey(t)] = terms
		for _, term := range terms {
			st.TermDF[TermKey{t.Field, term}] = ix.liveDF(t.Field, term)
		}
	}
}

// liveDF returns the live document frequency of one term, 0 when absent.
func (ix *Index) liveDF(field, term string) int {
	if pl := ix.postings[fieldTerm{field, term}]; pl != nil {
		return pl.live
	}
	return 0
}

// phraseCount counts documents matching the phrase — the df the phrase
// evaluator derives from its intersection pass.
func (ix *Index) phraseCount(field string, terms []string) int {
	ev := eval{ix: ix}
	a := ev.phraseCounts(field, terms)
	n := len(a.ids)
	ix.putAcc(a)
	return n
}

// Merge folds another shard's stats into st: counts sum, expansions union
// and re-cap under the evaluator's candidate order. Merging is
// commutative and associative, so shards may be folded in any order.
func (st *Stats) Merge(o *Stats) {
	if o == nil {
		return
	}
	st.LiveDocs += o.LiveDocs
	for f, v := range o.FieldTotals {
		st.FieldTotals[f] += v
	}
	for f, v := range o.FieldDocs {
		st.FieldDocs[f] += v
	}
	for k, v := range o.TermDF {
		st.TermDF[k] += v
	}
	for k, v := range o.PhraseDF {
		st.PhraseDF[k] += v
	}
	for k, exp := range o.FuzzyExp {
		st.FuzzyExp[k] = mergeFuzzyExp(st.FuzzyExp[k], exp)
	}
	for k, exp := range o.PrefixExp {
		st.PrefixExp[k] = mergePrefixExp(st.PrefixExp[k], exp)
	}
}

// mergeFuzzyExp unions two candidate lists, re-sorts by (distance, term)
// — the same order fuzzyCandidates caps under — and re-caps.
func mergeFuzzyExp(a, b []TermDist) []TermDist {
	seen := make(map[string]bool, len(a)+len(b))
	out := make([]TermDist, 0, len(a)+len(b))
	for _, c := range a {
		if !seen[c.Term] {
			seen[c.Term] = true
			out = append(out, c)
		}
	}
	for _, c := range b {
		if !seen[c.Term] {
			seen[c.Term] = true
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].Term < out[j].Term
	})
	if len(out) > maxFuzzyExpansions {
		out = out[:maxFuzzyExpansions]
	}
	return out
}

// mergePrefixExp unions two term lists, re-sorts by (length, term) — the
// prefixCandidates cap order — and re-caps.
func mergePrefixExp(a, b []string) []string {
	seen := make(map[string]bool, len(a)+len(b))
	out := make([]string, 0, len(a)+len(b))
	for _, t := range a {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	for _, t := range b {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) < len(out[j])
		}
		return out[i] < out[j]
	})
	if len(out) > maxPrefixExpansions {
		out = out[:maxPrefixExpansions]
	}
	return out
}

// termDF resolves a term's document frequency: the global count when the
// stats walk collected it, the local count otherwise (deal-scope keyword
// terms, whose deals are shard-local, score exactly either way).
func (st *Stats) termDF(field, term string, local int) int {
	if df, ok := st.TermDF[TermKey{field, term}]; ok {
		return df
	}
	return local
}

// phraseDF resolves a phrase leaf's document frequency.
func (st *Stats) phraseDF(field string, terms []string, local int) int {
	if df, ok := st.PhraseDF[phraseKey(field, terms)]; ok {
		return df
	}
	return local
}

// fieldAvg computes the global average field length, mirroring
// Index.fieldStats over the summed totals.
func (st *Stats) fieldAvg(field string) float64 {
	if docs := st.FieldDocs[field]; docs > 0 {
		return float64(st.FieldTotals[field]) / float64(docs)
	}
	return 0
}
