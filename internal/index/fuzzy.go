package index

// Fuzzy term matching: a FuzzyQuery expands against the field's term
// dictionary to all terms within a bounded edit distance, then evaluates as
// a disjunction. EIL uses it for the search box's tolerance to typos in
// client and person names, which autocorrect-free enterprise mail is full
// of.

// FuzzyQuery matches documents containing any term within MaxDist edits of
// Term in Field. Term must already be analyzer-normalized. MaxDist <= 0
// defaults to 1; the expansion is capped to keep worst-case cost bounded.
type FuzzyQuery struct {
	Field   string
	Term    string
	MaxDist int
}

func (FuzzyQuery) isQuery() {}

// maxFuzzyExpansions bounds how many dictionary terms one fuzzy leaf may
// expand to; the closest terms win.
const maxFuzzyExpansions = 32

// PrefixQuery matches documents containing any term starting with Prefix in
// Field (the search box's trailing-wildcard form, `storag*`). Prefix must
// be analyzer-normalized without stemming applied by the caller — prefixes
// are matched against the stemmed dictionary as-is.
type PrefixQuery struct {
	Field  string
	Prefix string
}

func (PrefixQuery) isQuery() {}

// maxPrefixExpansions bounds dictionary expansion for prefix leaves.
const maxPrefixExpansions = 64

// prefixCandidates enumerates the dictionary terms a prefix leaf expands
// to, sorted shorter-first (they carry the most postings mass) and capped.
// Callers must hold at least a read lock.
func (ix *Index) prefixCandidates(q PrefixQuery) []string {
	if q.Prefix == "" {
		return nil
	}
	var terms []string
	for key := range ix.postings {
		if key.field != q.Field {
			continue
		}
		if len(key.term) > 0 && key.term[0] == '\x00' {
			continue
		}
		if len(key.term) >= len(q.Prefix) && key.term[:len(q.Prefix)] == q.Prefix {
			terms = append(terms, key.term)
		}
	}
	// Shorter terms first on the cap.
	for i := 1; i < len(terms); i++ {
		for j := i; j > 0 && (len(terms[j]) < len(terms[j-1]) ||
			(len(terms[j]) == len(terms[j-1]) && terms[j] < terms[j-1])); j-- {
			terms[j], terms[j-1] = terms[j-1], terms[j]
		}
	}
	if len(terms) > maxPrefixExpansions {
		terms = terms[:maxPrefixExpansions]
	}
	return terms
}

// prefix materialises a prefix leaf: the prefix expands against the
// dictionary and a document scores the best of its expansions' full term
// scores. When st carries a merged expansion for this leaf (sharded search),
// that global list replaces local enumeration so every shard evaluates the
// same terms the monolith would.
func (ev *eval) prefix(q PrefixQuery) node {
	terms, ok := []string(nil), false
	if ev.st != nil {
		terms, ok = ev.st.PrefixExp[prefixLeafKey(q)]
	}
	if !ok {
		terms = ev.ix.prefixCandidates(q)
	}
	out := ev.hold()
	for _, term := range terms {
		ev.term(q.Field, term).fillMax(out, 1)
	}
	return leafNode{out}
}

// fuzzyCandidates enumerates the dictionary terms within edit distance of
// a fuzzy leaf, sorted closest-first and capped. Callers must hold at
// least a read lock.
func (ix *Index) fuzzyCandidates(q FuzzyQuery) []TermDist {
	maxDist := q.MaxDist
	if maxDist <= 0 {
		maxDist = 1
	}
	var cands []TermDist
	for key := range ix.postings {
		if key.field != q.Field {
			continue
		}
		// Keyword terms (whole-value concepts) are not fuzzy-matchable.
		if len(key.term) > 0 && key.term[0] == '\x00' {
			continue
		}
		d, ok := editDistanceAtMost(q.Term, key.term, maxDist)
		if !ok {
			continue
		}
		cands = append(cands, TermDist{Term: key.term, Dist: d})
	}
	// Prefer closer terms when capping.
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && (cands[j].Dist < cands[j-1].Dist ||
			(cands[j].Dist == cands[j-1].Dist && cands[j].Term < cands[j-1].Term)); j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	if len(cands) > maxFuzzyExpansions {
		cands = cands[:maxFuzzyExpansions]
	}
	return cands
}

// fuzzy materialises a fuzzy leaf: the query term expands against the
// dictionary and a document scores the best of its expansions' term scores,
// scaled down by edit distance (distance-1 matches count 60%, distance-2
// matches 35%). When st carries a merged expansion for this leaf, it
// replaces local enumeration.
func (ev *eval) fuzzy(q FuzzyQuery) node {
	cands, ok := []TermDist(nil), false
	if ev.st != nil {
		cands, ok = ev.st.FuzzyExp[fuzzyLeafKey(q)]
	}
	if !ok {
		cands = ev.ix.fuzzyCandidates(q)
	}
	out := ev.hold()
	for _, c := range cands {
		scale := 1.0
		switch c.Dist {
		case 1:
			scale = 0.6
		case 2:
			scale = 0.35
		}
		ev.term(q.Field, c.Term).fillMax(out, scale)
	}
	return leafNode{out}
}

// editDistanceAtMost computes the Levenshtein distance between a and b if
// it is <= limit, using the banded dynamic program; ok is false when the
// distance exceeds the limit.
func editDistanceAtMost(a, b string, limit int) (int, bool) {
	la, lb := len(a), len(b)
	if la-lb > limit || lb-la > limit {
		return 0, false
	}
	if a == b {
		return 0, true
	}
	// Classic two-row DP; rows are short (terms), so the band is implicit.
	prev := make([]int, lb+1)
	cur := make([]int, lb+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		cur[0] = i
		rowMin := cur[0]
		for j := 1; j <= lb; j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			m := prev[j] + 1
			if v := cur[j-1] + 1; v < m {
				m = v
			}
			if v := prev[j-1] + cost; v < m {
				m = v
			}
			cur[j] = m
			if m < rowMin {
				rowMin = m
			}
		}
		if rowMin > limit {
			return 0, false
		}
		prev, cur = cur, prev
	}
	if prev[lb] > limit {
		return 0, false
	}
	return prev[lb], true
}
