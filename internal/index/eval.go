package index

// Query evaluation. Under the read lock a query tree compiles into a tree of
// nodes, and every node can do two things: fill an accumulator with all the
// documents it matches (one sequential pass per posting list — the cheap way
// to enumerate) and probe a single document (a forward seek — the cheap way
// to test). A conjunction fills only its cheapest Must clause, the driver,
// and probes every other clause for the driver's documents in ascending
// DocID order, so a search costs about what its rarest clause costs: the
// deal scope siapi appends to a text query is a membership test per
// surviving candidate, not a scored union of every document of ten deals.
//
// Three kinds of leaf cannot be probed from their posting lists and are
// materialised when the tree compiles: a phrase's score needs the phrase's
// document frequency, which is only known once every document of its rarest
// term has been visited; a fuzzy or prefix leaf is a maximum over up to 64
// dictionary terms. They are probed from their accumulators instead.
//
// Ranking is float-exact with the seed evaluator kept in
// differential_test.go, because a clause's score for a document does not
// depend on how the document was reached, and the sums associate the way the
// seed's do: Must clauses left to right, then the Should union — itself
// summed left to right over the sub-clauses that match — added once.

import (
	"fmt"
	"slices"
	"strings"
)

// node is one compiled clause.
type node interface {
	// est bounds the number of documents the node matches, from the live
	// document frequency of its leaves; it is exact for materialised leaves
	// and 0 only when nothing can match.
	est() int
	// fill adds every matching live document to a, exactly once, with the
	// node's score for it.
	fill(a *acc)
	// probe reports whether a live document matches, and its score. Calls
	// on one node must come in ascending id order: cursors only move forward.
	probe(id DocID) (float64, bool)
}

// eval is the state of one evaluation: what to score against, the
// accumulators its materialised leaves hold, and what the search cost.
type eval struct {
	ix *Index
	st *Stats
	// scoring is false for Count: leaves carry a zero idf and every score
	// collapses to 0 without the BM25 arithmetic.
	scoring bool
	held    []*acc
	// postings counts posting entries touched: every entry of a list a fill
	// scanned, every entry a seek compared. probed counts the candidates a
	// driver offered to the other clauses of its conjunction.
	postings int
	probed   int
}

// run evaluates q into a pooled accumulator the caller must return with
// putAcc. Callers hold at least the read lock. With describe set it also
// reports which clause drove the outermost conjunction.
func (ev *eval) run(q Query, describe bool) (a *acc, driver string) {
	root := ev.compile(q)
	if describe {
		driver = describeDriver(q, root)
	}
	a = ev.ix.getAcc()
	root.fill(a)
	for _, h := range ev.held {
		ev.ix.putAcc(h)
	}
	return a, driver
}

// hold leases an accumulator that lives until the evaluation ends.
func (ev *eval) hold() *acc {
	a := ev.ix.getAcc()
	ev.held = append(ev.held, a)
	return a
}

func (ev *eval) compile(q Query) node {
	switch t := q.(type) {
	case TermQuery:
		return ev.term(t.Field, t.Term)
	case PhraseQuery:
		switch len(t.Terms) {
		case 0:
			return ev.none()
		case 1:
			return ev.term(t.Field, t.Terms[0])
		}
		return ev.phrase(t.Field, t.Terms)
	case BoolQuery:
		return ev.bool(t)
	case FuzzyQuery:
		return ev.fuzzy(t)
	case PrefixQuery:
		return ev.prefix(t)
	case AllQuery:
		return allNode{ev}
	default:
		return ev.none()
	}
}

// none is the node that matches nothing: a term without postings.
func (ev *eval) none() node { return &termNode{ev: ev} }

// termNode is one posting list with its BM25 inputs resolved once: the idf
// is a function of the term alone, so it is not recomputed per posting.
type termNode struct {
	ev     *eval
	pl     postingList
	fd     *fieldData
	idf    float64
	avgLen float64
	at     int // probe cursor: every entry before it is below the last probed id
}

func (ev *eval) term(field, term string) *termNode {
	ix := ev.ix
	t := &termNode{ev: ev}
	pl := ix.postings[fieldTerm{field, term}]
	if pl == nil || pl.live == 0 {
		return t
	}
	t.pl = *pl
	if !ev.scoring {
		return t
	}
	df, n := pl.live, ix.liveDocs
	t.avgLen, _ = ix.fieldStats(field)
	if ev.st != nil {
		df = ev.st.termDF(field, term, df)
		n = ev.st.LiveDocs
		t.avgLen = ev.st.fieldAvg(field)
	}
	t.idf = bm25IDF(df, n)
	t.fd = ix.fieldLens[field]
	return t
}

func (t *termNode) est() int { return t.pl.live }

// score is the term's score for entry i of its list.
func (t *termNode) score(i int) float64 {
	fl, w := t.fd.at(t.pl.docs[i])
	return w * bm25TF(t.idf, t.pl.tf(i), fl, t.avgLen)
}

func (t *termNode) fill(a *acc) {
	deleted := t.ev.ix.deleted
	t.ev.postings += len(t.pl.docs)
	for i, id := range t.pl.docs {
		if !deleted[id] {
			a.add(id, t.score(i))
		}
	}
}

// fillMax is fill for the expansions of a fuzzy or prefix leaf: a document
// keeps the best scaled score any expansion gives it.
func (t *termNode) fillMax(a *acc, scale float64) {
	deleted := t.ev.ix.deleted
	t.ev.postings += len(t.pl.docs)
	for i, id := range t.pl.docs {
		if !deleted[id] {
			a.addMax(id, t.score(i)*scale)
		}
	}
}

func (t *termNode) probe(id DocID) (float64, bool) {
	t.at = t.ev.seek(t.pl.docs, t.at, id)
	if t.at < len(t.pl.docs) && t.pl.docs[t.at] == id {
		return t.score(t.at), true
	}
	return 0, false
}

// seek returns the first index at or after from whose document is not below
// id, galloping from the cursor: a probe that lands close costs one
// comparison, one that lands far costs a logarithm of the distance.
func (ev *eval) seek(docs []DocID, from int, id DocID) int {
	if from >= len(docs) || docs[from] >= id {
		ev.postings++
		return from
	}
	// docs[lo] is below id; hi is the first index not yet known to be.
	lo, step, cmp := from, 1, 1
	hi := lo + step
	for hi < len(docs) && docs[hi] < id {
		lo, step = hi, step*2
		hi = lo + step
		cmp++
	}
	if hi > len(docs) {
		hi = len(docs)
	}
	lo++
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if docs[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
		cmp++
	}
	ev.postings += cmp
	return lo
}

// leafNode is a clause materialised at compile time.
type leafNode struct{ a *acc }

func (l leafNode) est() int { return len(l.a.ids) }

func (l leafNode) fill(a *acc) {
	for _, id := range l.a.ids {
		a.add(id, l.a.scores[id])
	}
}

func (l leafNode) probe(id DocID) (float64, bool) {
	return l.a.scores[id], l.a.member[id]
}

// phrase materialises a phrase leaf: the intersection pass leaves each
// matching document's occurrence count in the accumulator, and once their
// number — the phrase's document frequency — is known the counts are
// rescaled into BM25 scores.
func (ev *eval) phrase(field string, terms []string) node {
	ix := ev.ix
	a := ev.phraseCounts(field, terms)
	ev.held = append(ev.held, a)
	if len(a.ids) == 0 || !ev.scoring {
		return leafNode{a}
	}
	avgLen, _ := ix.fieldStats(field)
	df, n := len(a.ids), ix.liveDocs
	if ev.st != nil {
		df = ev.st.phraseDF(field, terms, df)
		n = ev.st.LiveDocs
		avgLen = ev.st.fieldAvg(field)
	}
	idf := bm25IDF(df, n)
	fd := ix.fieldLens[field]
	for _, id := range a.ids {
		fl, w := fd.at(id)
		a.scores[id] = phraseBoost * w * bm25TF(idf, int(a.scores[id]), fl, avgLen)
	}
	return leafNode{a}
}

// phraseCursor is one term of a phrase during the intersection pass.
type phraseCursor struct {
	pl        *postingList
	entry     int      // forward cursor into pl's entries
	positions []uint32 // of the document under test
	at        int      // forward cursor into positions
}

// phraseCounts runs the intersection pass of phrase evaluation, driven by
// the phrase's rarest term with forward cursors over the others: the
// returned accumulator holds each matching document's phrase occurrence
// count (not yet a score), in ascending DocID order. The whole of the rarest
// list is visited whatever else the query holds, because how many documents
// match is an input to every one of their scores.
func (ev *eval) phraseCounts(field string, terms []string) *acc {
	ix := ev.ix
	a := ix.getAcc()
	cur := make([]phraseCursor, len(terms))
	k, rarest := 0, 0
	for i, term := range terms {
		pl := ix.postings[fieldTerm{field, term}]
		if pl == nil || pl.live == 0 {
			return a
		}
		cur[i].pl = pl
		if i == 0 || pl.live < rarest {
			k, rarest = i, pl.live
		}
	}
	driver := cur[k].pl
	ev.postings += len(driver.docs)
scan:
	for di, id := range driver.docs {
		if ix.deleted[id] {
			continue
		}
		cur[k].positions = driver.positions(di)
		for i := range cur {
			if i == k {
				continue
			}
			c := &cur[i]
			c.entry = ev.seek(c.pl.docs, c.entry, id)
			if c.entry == len(c.pl.docs) {
				break scan // the list is exhausted: no later document can match
			}
			if c.pl.docs[c.entry] != id {
				continue scan
			}
			c.positions = c.pl.positions(c.entry)
		}
		if count := countPhraseAt(cur, k); count > 0 {
			a.add(id, float64(count))
		}
	}
	return a
}

// countPhraseAt counts the phrase's occurrences in one document: positions q
// of term k such that every other term i occurs at q-k+i. Position lists are
// ascending, so the positions wanted of each term ascend with q and one
// forward pass over every list decides them all; the keyword sentinel, the
// largest position, never takes part in adjacency.
func countPhraseAt(cur []phraseCursor, k int) int {
	for i := range cur {
		cur[i].at = 0
	}
	count := 0
occurrence:
	for _, q := range cur[k].positions {
		if q == keywordPos || q < uint32(k) {
			continue
		}
		for i := range cur {
			if i == k {
				continue
			}
			c, want := &cur[i], q-uint32(k)+uint32(i)
			for c.at < len(c.positions) && c.positions[c.at] < want {
				c.at++
			}
			if c.at == len(c.positions) {
				return count // nothing later in this document can match
			}
			if c.positions[c.at] != want {
				continue occurrence
			}
		}
		count++
	}
	return count
}

// allNode matches every live document with a constant score of 1.
type allNode struct{ ev *eval }

func (n allNode) est() int { return n.ev.ix.liveDocs }

func (n allNode) fill(a *acc) {
	for id, dead := range n.ev.ix.deleted {
		if !dead {
			a.add(DocID(id), 1)
		}
	}
}

func (allNode) probe(DocID) (float64, bool) { return 1, true }

// boolNode is a compiled BoolQuery. Its base — the set it enumerates — is
// its cheapest Must clause, or the union of its Should clauses when it has
// no Must, or every live document when it has neither; everything else is
// probed per base document.
type boolNode struct {
	ev      *eval
	must    []node
	should  []node
	mustNot []node
	driver  int // index into must of the cheapest clause; -1 without Must
	n       int // est
}

func (ev *eval) bool(q BoolQuery) node {
	b := &boolNode{ev: ev, driver: -1, n: ev.ix.liveDocs}
	for i, sub := range q.Must {
		c := ev.compile(sub)
		e := c.est()
		if e == 0 {
			return ev.none() // nothing to intersect with: skip compiling the rest
		}
		if i == 0 || e < b.n {
			b.driver, b.n = i, e
		}
		b.must = append(b.must, c)
	}
	union := 0
	for _, sub := range q.Should {
		c := ev.compile(sub)
		union += c.est()
		b.should = append(b.should, c)
	}
	if b.driver < 0 && len(b.should) > 0 && union < b.n {
		b.n = union
	}
	for _, sub := range q.MustNot {
		b.mustNot = append(b.mustNot, ev.compile(sub))
	}
	return b
}

func (b *boolNode) est() int { return b.n }

func (b *boolNode) fill(dst *acc) {
	pure := len(b.mustNot) == 0 && (b.driver < 0 || len(b.must)+len(b.should) == 1)
	if pure && len(dst.ids) == 0 {
		b.fillBase(dst) // nothing to probe and nothing to keep apart from
		return
	}
	tmp := b.ev.ix.getAcc()
	b.fillBase(tmp)
	if !pure {
		slices.Sort(tmp.ids)
		b.ev.probed += len(tmp.ids)
	}
	for _, id := range tmp.ids {
		if s, ok := b.complete(id, tmp.scores[id]); ok {
			dst.add(id, s)
		}
	}
	b.ev.ix.putAcc(tmp)
}

// fillBase enumerates the base into an empty accumulator. Filling the
// Should clauses one after another into the same accumulator sums each
// document's scores in clause order.
func (b *boolNode) fillBase(a *acc) {
	switch {
	case b.driver >= 0:
		b.must[b.driver].fill(a)
	case len(b.should) > 0:
		for _, c := range b.should {
			c.fill(a)
		}
	default:
		allNode{b.ev}.fill(a)
	}
}

func (b *boolNode) probe(id DocID) (float64, bool) {
	var base float64
	switch {
	case b.driver >= 0:
		s, ok := b.must[b.driver].probe(id)
		if !ok {
			return 0, false
		}
		base = s
	case len(b.should) > 0:
		s, ok := probeUnion(b.should, id)
		if !ok {
			return 0, false
		}
		base = s
	default:
		base = 1
	}
	return b.complete(id, base)
}

// complete finishes a document the base matched with score base: the other
// Must clauses must match, no MustNot may, and beside Must clauses the Should
// union only adds score. The Must sum runs left to right with the driver's
// score in the driver's place.
func (b *boolNode) complete(id DocID, base float64) (float64, bool) {
	s := base
	if b.driver >= 0 {
		for i, c := range b.must {
			cs := base
			if i != b.driver {
				var ok bool
				if cs, ok = c.probe(id); !ok {
					return 0, false
				}
			}
			if i == 0 {
				s = cs
			} else {
				s += cs
			}
		}
	}
	for _, c := range b.mustNot {
		if _, hit := c.probe(id); hit {
			return 0, false
		}
	}
	if b.driver >= 0 && len(b.should) > 0 {
		if u, ok := probeUnion(b.should, id); ok {
			s += u
		}
	}
	return s, true
}

// probeUnion sums, left to right, the scores of the clauses that match id.
func probeUnion(clauses []node, id DocID) (float64, bool) {
	var sum float64
	matched := false
	for _, c := range clauses {
		s, ok := c.probe(id)
		switch {
		case !ok:
		case matched:
			sum += s
		default:
			sum, matched = s, true
		}
	}
	return sum, matched
}

// describeDriver names the clause that drives q's outermost conjunction —
// the path of Must indexes down to the first clause that is not itself a
// conjunction — and its estimate, for the index.search span.
func describeDriver(q Query, n node) string {
	var path strings.Builder
	for {
		b, isBool := n.(*boolNode)
		bq, _ := q.(BoolQuery)
		if !isBool || b.driver < 0 {
			break
		}
		fmt.Fprintf(&path, "must[%d] ", b.driver)
		q, n = bq.Must[b.driver], b.must[b.driver]
	}
	var what string
	switch t := q.(type) {
	case TermQuery:
		what = fmt.Sprintf("term %s:%q", t.Field, t.Term)
	case PhraseQuery:
		what = fmt.Sprintf("phrase %s:%q", t.Field, strings.Join(t.Terms, " "))
	case FuzzyQuery:
		what = fmt.Sprintf("fuzzy %s:%q", t.Field, t.Term)
	case PrefixQuery:
		what = fmt.Sprintf("prefix %s:%q", t.Field, t.Prefix)
	case BoolQuery:
		switch {
		case len(t.Must) > 0:
			what = "empty must"
		case len(t.Should) > 0:
			what = fmt.Sprintf("should(%d)", len(t.Should))
		default:
			what = "all"
		}
	case AllQuery:
		what = "all"
	default:
		what = "none"
	}
	return fmt.Sprintf("%s%s est=%d", path.String(), what, n.est())
}
