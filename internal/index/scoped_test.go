package index

// Scope-shaped queries — the form siapi compiles a business-activity scoped
// search to: a text conjunction of terms and phrases over two fields, and a
// Should union of deal keyword terms as one more Must clause — checked
// float-exactly against the seed evaluator, and checked for what they cost.

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/textproc"
)

const scopeField = "deal"

func dealName(i int) string { return fmt.Sprintf("Deal %d", i) }

func normTerm(w string) string { return textproc.DefaultAnalyzer.NormalizeTerm(w) }

// buildScopedIndex indexes docs documents spread round-robin over deals
// business activities. Every seventh document has no deal field, and the
// first three documents of deal 1 carry the words "zebra crossing".
func buildScopedIndex(tb testing.TB, rng *rand.Rand, docs, deals int) *Index {
	tb.Helper()
	batch := make([]Document, docs)
	for i := range batch {
		body := randText(rng, 6+rng.Intn(20))
		if i%deals == 1 && i/deals < 3 {
			body += " zebra crossing"
		}
		d := Document{
			ExtID: fmt.Sprintf("doc-%d", i),
			Fields: []Field{
				{Name: "title", Text: randText(rng, 2+rng.Intn(3)), Weight: 2},
				{Name: "body", Text: body},
			},
		}
		if i%7 != 6 {
			d.Fields = append(d.Fields, Field{Name: scopeField, Text: dealName(i % deals), Keyword: true})
		}
		batch[i] = d
	}
	ix := New(textproc.DefaultAnalyzer)
	if _, err := ix.AddBatch(batch, 2); err != nil {
		tb.Fatalf("add batch: %v", err)
	}
	return ix
}

// scopeOf is the clause siapi scopes a search with: a Should union of one
// keyword term per deal.
func scopeOf(deals ...int) Query {
	var scope BoolQuery
	for _, d := range deals {
		scope.Should = append(scope.Should, TermQuery{Field: scopeField, Term: KeywordTerm(dealName(d))})
	}
	return scope
}

// scopeClause scopes to n deals drawn from deals+2 names: the two beyond
// the corpus are absent from the dictionary.
func scopeClause(rng *rand.Rand, deals, n int) Query {
	return scopeOf(rng.Perm(deals + 2)[:n]...)
}

// zebraInTenDeals is a text term found in three documents, in body or title,
// scoped to all ten deals of a corpus.
func zebraInTenDeals() BoolQuery {
	return BoolQuery{Must: []Query{
		BoolQuery{Should: []Query{
			TermQuery{Field: "body", Term: "zebra"},
			TermQuery{Field: "title", Term: "zebra"},
		}},
		scopeOf(0, 1, 2, 3, 4, 5, 6, 7, 8, 9),
	}}
}

// textClause is one text criterion the way siapi compiles it: a term or a
// phrase in one field, or the same in body or title.
func textClause(rng *rand.Rand) Query {
	word := func() string { return normTerm(diffVocab[rng.Intn(len(diffVocab))]) }
	leaf := func(field string, terms []string) Query {
		if len(terms) == 1 {
			return TermQuery{Field: field, Term: terms[0]}
		}
		return PhraseQuery{Field: field, Terms: terms}
	}
	terms := []string{word()}
	switch rng.Intn(6) {
	case 0:
		terms = append(terms, word())
	case 1:
		terms = []string{"zebra", "cross"}
	case 2:
		terms = []string{"zebra"}
	case 3:
		terms = []string{"absentword"}
	}
	if rng.Intn(3) == 0 {
		return leaf([]string{"body", "title"}[rng.Intn(2)], terms)
	}
	return BoolQuery{Should: []Query{leaf("body", terms), leaf("title", terms)}}
}

// scopedQuery puts the scope clause at a random position among one to three
// text clauses, sometimes with any-words and none-words beside them.
func scopedQuery(rng *rand.Rand, deals int) BoolQuery {
	var q BoolQuery
	for i := 1 + rng.Intn(3); i > 0; i-- {
		q.Must = append(q.Must, textClause(rng))
	}
	at := rng.Intn(len(q.Must) + 1)
	q.Must = append(q.Must[:at], append([]Query{scopeClause(rng, deals, 1+rng.Intn(10))}, q.Must[at:]...)...)
	if rng.Intn(4) == 0 {
		q.Should = append(q.Should, textClause(rng), textClause(rng))
	}
	if rng.Intn(4) == 0 {
		q.MustNot = append(q.MustNot, textClause(rng))
	}
	return q
}

// checkAgainstSeed compares one query with the seed evaluator: the ranked
// hits at each limit, scored locally and with a supplied Stats (collected
// from this index alone, so the global inputs equal the local ones), the
// reported total and Count.
func checkAgainstSeed(t *testing.T, ix *Index, q Query, limits ...int) {
	t.Helper()
	ix.mu.RLock()
	wantN := len(seedEval(ix, q))
	ix.mu.RUnlock()
	st := ix.CollectStats(q)
	for _, limit := range limits {
		want := seedSearch(ix, q, limit)
		got, total := ix.SearchTotalCtx(context.Background(), q, limit, nil)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("query=%#v limit=%d:\nwant %v\ngot  %v", q, limit, want, got)
		}
		if total != wantN {
			t.Fatalf("query=%#v limit=%d: total %d, want %d", q, limit, total, wantN)
		}
		if got := ix.SearchStatsCtx(context.Background(), q, limit, st); !reflect.DeepEqual(want, got) {
			t.Fatalf("query=%#v limit=%d with stats:\nwant %v\ngot  %v", q, limit, want, got)
		}
	}
	if got := ix.Count(q); got != wantN {
		t.Fatalf("query=%#v: count %d, want %d", q, got, wantN)
	}
}

// TestDifferentialScoped: the scope clause at every position, deals with no
// surviving documents, documents without the field, scope terms absent from
// the dictionary, tombstoned candidates and an empty first clause all rank
// exactly as the seed evaluator ranks them.
func TestDifferentialScoped(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const deals = 12
		docs := 200 + rng.Intn(300)
		ix := buildScopedIndex(t, rng, docs, deals)
		// Deal 0 loses every document, the others a random tenth.
		for i := 0; i < docs; i++ {
			if i%deals == 0 || rng.Intn(10) == 0 {
				_ = ix.Delete(fmt.Sprintf("doc-%d", i))
			}
		}
		for qi := 0; qi < 80; qi++ {
			checkAgainstSeed(t, ix, scopedQuery(rng, deals), 0, 5)
		}
		// An empty first clause, and the total of every query of the
		// unscoped generator.
		checkAgainstSeed(t, ix, BoolQuery{Must: []Query{
			TermQuery{Field: "body", Term: "absentword"},
			scopeClause(rng, deals, 10),
		}}, 0, 5)
		for qi := 0; qi < 40; qi++ {
			checkAgainstSeed(t, ix, randomQuery(rng, 0), 0, 3)
		}
	}
}

// TestScopedSearchCost is the cost regression test: a scoped search whose
// text term occurs in three documents touches a number of postings bounded
// by those three and a logarithm of each scope list's length — not by the
// twenty thousand documents the scope holds.
func TestScopedSearchCost(t *testing.T) {
	const docs, deals = 20000, 10
	ix := buildScopedIndex(t, rand.New(rand.NewSource(3)), docs, deals)
	q := zebraInTenDeals()
	df := ix.DocFreq("body", "zebra")
	listLen := ix.DocFreq(scopeField, KeywordTerm(dealName(1)))
	if df != 3 || listLen < docs/deals*3/4 {
		t.Fatalf("corpus: df=%d, scope list %d", df, listLen)
	}
	ev := eval{ix: ix, scoring: true}
	ix.mu.RLock()
	a, driver := ev.run(q, true)
	ix.mu.RUnlock()
	matched := len(a.ids)
	ix.putAcc(a)
	if matched != df {
		t.Fatalf("matched %d documents, want %d", matched, df)
	}
	// The driver's list, then per candidate one gallop-and-bisect per scope
	// list: at most 2·log2(len)+2 comparisons each.
	perSeek := 2*int(math.Ceil(math.Log2(float64(listLen)))) + 2
	if bound := df + df*deals*perSeek; ev.postings > bound {
		t.Fatalf("visited %d postings, bound %d (driver %s)", ev.postings, bound, driver)
	}
	if ev.postings > docs/10 {
		t.Fatalf("visited %d postings: the cost follows the scope's size", ev.postings)
	}
	if ev.probed != df {
		t.Fatalf("probed %d candidates, want %d (driver %s)", ev.probed, df, driver)
	}
	if want := `must[0] should(2) est=3`; driver != want {
		t.Fatalf("driver %q, want %q", driver, want)
	}
	checkAgainstSeed(t, ix, q, 0, 2)
}

// fuzzCorpus is the fixed index FuzzSearchDifferential queries: small, with
// tombstones, a keyword scope field and documents without it.
func fuzzCorpus(tb testing.TB) *Index {
	rng := rand.New(rand.NewSource(5))
	ix := buildScopedIndex(tb, rng, 120, 5)
	for i := 0; i < 120; i += 9 {
		_ = ix.Delete(fmt.Sprintf("doc-%d", i))
	}
	return ix
}

// decodeQuery turns fuzzer bytes into a query tree: one byte picks the node
// kind, the following ones its words, and Bool nodes recurse until the
// input or the depth runs out.
func decodeQuery(r *bytes.Reader, depth int) Query {
	next := func() int {
		b, err := r.ReadByte()
		if err != nil {
			return 0
		}
		return int(b)
	}
	word := func() string {
		b := next()
		if b%16 == 15 {
			return "absentword"
		}
		return normTerm(diffVocab[b%len(diffVocab)])
	}
	field := func() string { return []string{"body", "title"}[next()%2] }
	switch kind := next() % 9; {
	case kind == 0:
		return TermQuery{Field: field(), Term: word()}
	case kind == 1:
		terms := make([]string, next()%4)
		for i := range terms {
			terms[i] = word()
		}
		return PhraseQuery{Field: field(), Terms: terms}
	case kind == 2:
		return FuzzyQuery{Field: field(), Term: word(), MaxDist: next() % 3}
	case kind == 3:
		w := word()
		return PrefixQuery{Field: field(), Prefix: w[:next()%(len(w)+1)]}
	case kind == 4:
		return TermQuery{Field: scopeField, Term: KeywordTerm(dealName(next() % 7))}
	case kind == 5:
		return AllQuery{}
	case depth >= 3:
		return TermQuery{Field: "body", Term: word()}
	default:
		var b BoolQuery
		shape := next()
		for i := shape % 4; i > 0; i-- {
			b.Must = append(b.Must, decodeQuery(r, depth+1))
		}
		for i := shape / 4 % 4; i > 0; i-- {
			b.Should = append(b.Should, decodeQuery(r, depth+1))
		}
		for i := shape / 16 % 3; i > 0; i-- {
			b.MustNot = append(b.MustNot, decodeQuery(r, depth+1))
		}
		return b
	}
}

// FuzzSearchDifferential drives arbitrary query trees through the index and
// the seed evaluator: they never panic and never disagree.
func FuzzSearchDifferential(f *testing.F) {
	// The first byte is the limit; then kind bytes and their operands.
	f.Add([]byte{5, 6, 2, 0, 0, 0, 4, 1})                                     // Must[body term, deal]
	f.Add([]byte{3, 7, 18, 1, 2, 1, 2, 0, 8, 12, 4, 1, 4, 2, 4, 6, 0, 0, 15}) // Must[phrase, Should of three deals], MustNot[absent word]
	f.Add([]byte{0, 8, 16, 0, 1, 7})                                          // only MustNot
	f.Add([]byte{2, 6, 3, 3, 0, 0, 3, 2, 0, 1, 1, 5})                         // Must[prefix, fuzzy, all]
	ix := fuzzCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		limit := 0
		if b, err := r.ReadByte(); err == nil {
			limit = int(b) % 8
		}
		checkAgainstSeed(t, ix, decodeQuery(r, 0), 0, limit)
	})
}

var benchHits []Hit

// BenchmarkScopedSearch: a rare text term scoped to ten deals of 2,000
// documents each.
func BenchmarkScopedSearch(b *testing.B) {
	const docs, deals = 20000, 10
	ix := buildScopedIndex(b, rand.New(rand.NewSource(3)), docs, deals)
	q := zebraInTenDeals()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchHits = ix.Search(q, 20)
	}
}

// BenchmarkPhraseRareLast: a phrase whose first term is in every document
// and whose last is in four.
func BenchmarkPhraseRareLast(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	batch := make([]Document, 20000)
	for i := range batch {
		body := "common " + randText(rng, 10)
		if i%5000 == 7 {
			body += " common zebra"
		}
		batch[i] = Document{ExtID: fmt.Sprintf("doc-%d", i), Fields: []Field{{Name: "body", Text: body}}}
	}
	ix := New(textproc.DefaultAnalyzer)
	if _, err := ix.AddBatch(batch, 2); err != nil {
		b.Fatal(err)
	}
	q := PhraseQuery{Field: "body", Terms: []string{normTerm("common"), "zebra"}}
	if n := ix.Count(q); n != 4 {
		b.Fatalf("phrase matches %d documents", n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchHits = ix.Search(q, 20)
	}
}

// TestDecodeQuerySeeds pins the shapes the fuzz seeds are meant to decode to.
func TestDecodeQuerySeeds(t *testing.T) {
	q := decodeQuery(bytes.NewReader([]byte{6, 2, 0, 0, 0, 4, 1}), 0)
	want := BoolQuery{Must: []Query{
		TermQuery{Field: "body", Term: normTerm(diffVocab[0])},
		TermQuery{Field: scopeField, Term: KeywordTerm(dealName(1))},
	}}
	if !reflect.DeepEqual(q, want) {
		t.Fatalf("decoded %#v, want %#v", q, want)
	}
}
