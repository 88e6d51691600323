package index

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/textproc"
)

func newTestIndex(t *testing.T) *Index {
	t.Helper()
	ix := New(textproc.DefaultAnalyzer)
	docs := []Document{
		{ExtID: "d1", Fields: []Field{
			{Name: "title", Text: "Disaster Recovery proposal", Weight: 2},
			{Name: "body", Text: "The engagement scope includes Storage Management Services and data replication across sites."},
			{Name: "deal", Text: "DEAL A", Keyword: true},
		}, Meta: map[string]string{"deal": "DEAL A"}},
		{ExtID: "d2", Fields: []Field{
			{Name: "title", Text: "Network services overview"},
			{Name: "body", Text: "Network Services and LAN management. Data center consolidation with replication of databases."},
			{Name: "deal", Text: "DEAL B", Keyword: true},
		}, Meta: map[string]string{"deal": "DEAL B"}},
		{ExtID: "d3", Fields: []Field{
			{Name: "title", Text: "End User Services scope"},
			{Name: "body", Text: "Customer Service Center staffing plan. End User Services towers for the client."},
			{Name: "deal", Text: "DEAL A", Keyword: true},
		}, Meta: map[string]string{"deal": "DEAL A"}},
	}
	for _, d := range docs {
		if _, err := ix.Add(d); err != nil {
			t.Fatalf("Add(%s): %v", d.ExtID, err)
		}
	}
	return ix
}

func term(field, word string) TermQuery {
	return TermQuery{Field: field, Term: textproc.DefaultAnalyzer.NormalizeTerm(word)}
}

func phrase(field string, words ...string) PhraseQuery {
	terms := make([]string, len(words))
	for i, w := range words {
		terms[i] = textproc.DefaultAnalyzer.NormalizeTerm(w)
	}
	return PhraseQuery{Field: field, Terms: terms}
}

func extIDs(t *testing.T, ix *Index, hits []Hit) []string {
	t.Helper()
	out := make([]string, len(hits))
	for i, h := range hits {
		id, err := ix.ExtID(h.Doc)
		if err != nil {
			t.Fatalf("ExtID(%d): %v", h.Doc, err)
		}
		out[i] = id
	}
	return out
}

func TestAddAndCount(t *testing.T) {
	ix := newTestIndex(t)
	if got := ix.DocCount(); got != 3 {
		t.Fatalf("DocCount = %d, want 3", got)
	}
	if ix.TermCount() == 0 {
		t.Fatal("no terms indexed")
	}
}

func TestAddDuplicate(t *testing.T) {
	ix := newTestIndex(t)
	_, err := ix.Add(Document{ExtID: "d1", Fields: []Field{{Name: "body", Text: "x"}}})
	if !errors.Is(err, ErrDuplicate) {
		t.Fatalf("err = %v, want ErrDuplicate", err)
	}
}

func TestAddEmptyExtID(t *testing.T) {
	ix := New(textproc.DefaultAnalyzer)
	if _, err := ix.Add(Document{}); err == nil {
		t.Fatal("expected error for empty ExtID")
	}
}

func TestTermSearch(t *testing.T) {
	ix := newTestIndex(t)
	hits := ix.Search(term("body", "replication"), 0)
	if len(hits) != 2 {
		t.Fatalf("hits = %v, want 2", extIDs(t, ix, hits))
	}
}

func TestTermSearchMiss(t *testing.T) {
	ix := newTestIndex(t)
	if hits := ix.Search(term("body", "mainframe"), 0); len(hits) != 0 {
		t.Fatalf("unexpected hits %v", extIDs(t, ix, hits))
	}
	if hits := ix.Search(term("nosuchfield", "replication"), 0); len(hits) != 0 {
		t.Fatalf("unexpected hits in absent field")
	}
}

func TestPhraseSearch(t *testing.T) {
	ix := newTestIndex(t)
	hits := ix.Search(phrase("body", "data", "replication"), 0)
	got := extIDs(t, ix, hits)
	if len(got) != 1 || got[0] != "d1" {
		t.Fatalf("phrase hits = %v, want [d1]", got)
	}
}

func TestPhraseAcrossStopword(t *testing.T) {
	// "replication of databases": stopword "of" keeps a positional gap, so
	// the phrase "replication databases" must NOT match d2.
	ix := newTestIndex(t)
	hits := ix.Search(phrase("body", "replication", "databases"), 0)
	if len(hits) != 0 {
		t.Fatalf("phrase bridged a stopword gap: %v", extIDs(t, ix, hits))
	}
}

func TestPhraseSingleTermEqualsTerm(t *testing.T) {
	ix := newTestIndex(t)
	a := ix.Search(phrase("body", "replication"), 0)
	b := ix.Search(term("body", "replication"), 0)
	if len(a) != len(b) {
		t.Fatalf("single-term phrase %d hits vs term %d", len(a), len(b))
	}
}

func TestBoolMust(t *testing.T) {
	ix := newTestIndex(t)
	q := BoolQuery{Must: []Query{term("body", "replication"), term("body", "storage")}}
	got := extIDs(t, ix, ix.Search(q, 0))
	if len(got) != 1 || got[0] != "d1" {
		t.Fatalf("must hits = %v, want [d1]", got)
	}
}

func TestBoolShould(t *testing.T) {
	ix := newTestIndex(t)
	q := BoolQuery{Should: []Query{term("body", "staffing"), term("body", "lan")}}
	got := extIDs(t, ix, ix.Search(q, 0))
	if len(got) != 2 {
		t.Fatalf("should hits = %v, want 2", got)
	}
}

func TestBoolMustNot(t *testing.T) {
	ix := newTestIndex(t)
	q := BoolQuery{
		Must:    []Query{term("body", "replication")},
		MustNot: []Query{term("body", "lan")},
	}
	got := extIDs(t, ix, ix.Search(q, 0))
	if len(got) != 1 || got[0] != "d1" {
		t.Fatalf("hits = %v, want [d1]", got)
	}
}

func TestBoolOnlyMustNot(t *testing.T) {
	ix := newTestIndex(t)
	q := BoolQuery{MustNot: []Query{term("body", "replication")}}
	got := extIDs(t, ix, ix.Search(q, 0))
	if len(got) != 1 || got[0] != "d3" {
		t.Fatalf("hits = %v, want [d3]", got)
	}
}

func TestAllQuery(t *testing.T) {
	ix := newTestIndex(t)
	if n := ix.Count(AllQuery{}); n != 3 {
		t.Fatalf("Count(All) = %d", n)
	}
}

func TestKeywordField(t *testing.T) {
	ix := newTestIndex(t)
	q := TermQuery{Field: "deal", Term: KeywordTerm("deal a")}
	got := extIDs(t, ix, ix.Search(q, 0))
	if len(got) != 2 {
		t.Fatalf("keyword hits = %v, want d1 and d3", got)
	}
	// Keyword term must not be a phrase participant nor collide with tokens.
	if n := ix.Count(TermQuery{Field: "deal", Term: KeywordTerm("deal")}); n != 0 {
		t.Fatalf("partial keyword matched: %d", n)
	}
}

func TestFieldWeightBoostsScore(t *testing.T) {
	ix := New(textproc.DefaultAnalyzer)
	mustAdd(t, ix, Document{ExtID: "plain", Fields: []Field{{Name: "title", Text: "recovery plan"}}})
	mustAdd(t, ix, Document{ExtID: "boosted", Fields: []Field{{Name: "title", Text: "recovery plan", Weight: 3}}})
	hits := ix.Search(term("title", "recovery"), 0)
	if len(hits) != 2 {
		t.Fatalf("hits = %d", len(hits))
	}
	top, _ := ix.ExtID(hits[0].Doc)
	if top != "boosted" {
		t.Fatalf("weighted field did not rank first: %v", extIDs(t, ix, hits))
	}
	if hits[0].Score <= hits[1].Score {
		t.Fatalf("scores not ordered: %v", hits)
	}
}

func TestDelete(t *testing.T) {
	ix := newTestIndex(t)
	if err := ix.Delete("d1"); err != nil {
		t.Fatal(err)
	}
	if got := ix.DocCount(); got != 2 {
		t.Fatalf("DocCount after delete = %d", got)
	}
	hits := ix.Search(phrase("body", "data", "replication"), 0)
	if len(hits) != 0 {
		t.Fatalf("deleted doc still matches: %v", extIDs(t, ix, hits))
	}
	if err := ix.Delete("d1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete err = %v", err)
	}
	if err := ix.Delete("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing delete err = %v", err)
	}
	// DocFreq must reflect the tombstone.
	if df := ix.DocFreq("body", textproc.DefaultAnalyzer.NormalizeTerm("replication")); df != 1 {
		t.Fatalf("DocFreq = %d, want 1", df)
	}
}

func TestLimit(t *testing.T) {
	ix := newTestIndex(t)
	hits := ix.Search(AllQuery{}, 2)
	if len(hits) != 2 {
		t.Fatalf("limit ignored: %d hits", len(hits))
	}
}

func TestDeterministicOrder(t *testing.T) {
	ix := newTestIndex(t)
	a := extIDs(t, ix, ix.Search(AllQuery{}, 0))
	for i := 0; i < 5; i++ {
		b := extIDs(t, ix, ix.Search(AllQuery{}, 0))
		if strings.Join(a, ",") != strings.Join(b, ",") {
			t.Fatalf("order unstable: %v vs %v", a, b)
		}
	}
}

func TestMetaAndFieldText(t *testing.T) {
	ix := newTestIndex(t)
	id, ok := ix.Lookup("d1")
	if !ok {
		t.Fatal("lookup failed")
	}
	if got := ix.Meta(id, "deal"); got != "DEAL A" {
		t.Fatalf("Meta = %q", got)
	}
	if got := ix.Meta(id, "missing"); got != "" {
		t.Fatalf("missing meta = %q", got)
	}
	if txt := ix.FieldText(id, "title"); !strings.Contains(txt, "Disaster") {
		t.Fatalf("FieldText = %q", txt)
	}
	if txt := ix.FieldText(id, "absent"); txt != "" {
		t.Fatalf("absent FieldText = %q", txt)
	}
}

// TestStoredFor: one locked pass returns what ExtID, Meta and FieldText
// return per document, in hit order, and a zero value for documents deleted
// since they were scored.
func TestStoredFor(t *testing.T) {
	ix := newTestIndex(t)
	hits := ix.Search(AllQuery{}, 0)
	if err := ix.Delete("d2"); err != nil {
		t.Fatal(err)
	}
	hits = append(hits, Hit{Doc: 99})
	live := 0
	for i, d := range ix.StoredFor(hits, "deal", "title") {
		id := hits[i].Doc
		ext, _ := ix.ExtID(id)
		if d.ExtID != ext || d.Meta != ix.Meta(id, "deal") || d.Text != ix.FieldText(id, "title") {
			t.Fatalf("hit %d (doc %d): %+v", i, id, d)
		}
		if d.ExtID != "" {
			live++
		}
	}
	if live != 2 {
		t.Fatalf("%d live documents, want 2", live)
	}
}

func TestFieldNames(t *testing.T) {
	ix := newTestIndex(t)
	names := ix.FieldNames()
	want := map[string]bool{"title": true, "body": true, "deal": true}
	if len(names) != len(want) {
		t.Fatalf("FieldNames = %v", names)
	}
	for _, n := range names {
		if !want[n] {
			t.Fatalf("unexpected field %q", n)
		}
	}
}

func TestSnippetHighlights(t *testing.T) {
	ix := newTestIndex(t)
	id, _ := ix.Lookup("d1")
	terms := []string{textproc.DefaultAnalyzer.NormalizeTerm("replication")}
	snip := ix.Snippet(id, "body", terms, 20)
	if !strings.Contains(snip, "<em>replication</em>") {
		t.Fatalf("snippet missing highlight: %q", snip)
	}
}

func TestSnippetNoTerms(t *testing.T) {
	ix := newTestIndex(t)
	id, _ := ix.Lookup("d2")
	snip := ix.Snippet(id, "body", nil, 5)
	if snip == "" || strings.Contains(snip, "<em>") {
		t.Fatalf("lead snippet wrong: %q", snip)
	}
}

func TestSnippetAbsentField(t *testing.T) {
	ix := newTestIndex(t)
	id, _ := ix.Lookup("d1")
	if snip := ix.Snippet(id, "nothere", []string{"x"}, 10); snip != "" {
		t.Fatalf("snippet for absent field: %q", snip)
	}
}

func TestPersistRoundTrip(t *testing.T) {
	ix := newTestIndex(t)
	if err := ix.Delete("d2"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.DocCount() != ix.DocCount() {
		t.Fatalf("DocCount %d vs %d", loaded.DocCount(), ix.DocCount())
	}
	for _, q := range []Query{
		term("body", "replication"),
		phrase("body", "data", "replication"),
		TermQuery{Field: "deal", Term: KeywordTerm("DEAL A")},
		AllQuery{},
	} {
		a := ix.Search(q, 0)
		b := loaded.Search(q, 0)
		if len(a) != len(b) {
			t.Fatalf("query %+v: %d vs %d hits", q, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("query %+v hit %d: %+v vs %+v", q, i, a[i], b[i])
			}
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a gob"))); err == nil {
		t.Fatal("expected decode error")
	}
}

// Property: every search hit is a live document and scores are positive.
func TestSearchHitsLiveProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ix := New(textproc.DefaultAnalyzer)
	vocab := []string{"storage", "network", "recovery", "deal", "tower", "services", "scope", "replication", "client", "contract"}
	for i := 0; i < 60; i++ {
		var words []string
		for j := 0; j < 20; j++ {
			words = append(words, vocab[rng.Intn(len(vocab))])
		}
		mustAdd(t, ix, Document{ExtID: fmt.Sprintf("doc%d", i), Fields: []Field{{Name: "body", Text: strings.Join(words, " ")}}})
	}
	for i := 0; i < 10; i++ {
		if err := ix.Delete(fmt.Sprintf("doc%d", rng.Intn(60))); err != nil && !errors.Is(err, ErrNotFound) {
			t.Fatal(err)
		}
	}
	err := quick.Check(func(a, b uint8) bool {
		q := BoolQuery{Should: []Query{
			term("body", vocab[int(a)%len(vocab)]),
			term("body", vocab[int(b)%len(vocab)]),
		}}
		for _, h := range ix.Search(q, 0) {
			if _, err := ix.ExtID(h.Doc); err != nil {
				return false
			}
			if h.Score <= 0 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}

// Property: phrase hits are a subset of the conjunction of their terms.
func TestPhraseSubsetOfMustProperty(t *testing.T) {
	ix := newTestIndex(t)
	pairs := [][2]string{{"data", "replication"}, {"storage", "management"}, {"customer", "service"}, {"end", "user"}}
	for _, p := range pairs {
		ph := ix.Search(phrase("body", p[0], p[1]), 0)
		must := ix.Search(BoolQuery{Must: []Query{term("body", p[0]), term("body", p[1])}}, 0)
		mustSet := map[DocID]bool{}
		for _, h := range must {
			mustSet[h.Doc] = true
		}
		for _, h := range ph {
			if !mustSet[h.Doc] {
				t.Fatalf("phrase %v matched doc %d outside conjunction", p, h.Doc)
			}
		}
	}
}

func mustAdd(t *testing.T, ix *Index, d Document) DocID {
	t.Helper()
	id, err := ix.Add(d)
	if err != nil {
		t.Fatalf("Add(%s): %v", d.ExtID, err)
	}
	return id
}

func BenchmarkIndexAdd(b *testing.B) {
	body := strings.Repeat("storage management services data replication disaster recovery network ", 20)
	b.ReportAllocs()
	ix := New(textproc.DefaultAnalyzer)
	for i := 0; i < b.N; i++ {
		ix.Add(Document{ExtID: fmt.Sprintf("d%d", i), Fields: []Field{{Name: "body", Text: body}}})
	}
}

func BenchmarkTermSearch(b *testing.B) {
	ix := New(textproc.DefaultAnalyzer)
	rng := rand.New(rand.NewSource(1))
	vocab := []string{"storage", "network", "recovery", "deal", "tower", "services", "scope", "replication"}
	for i := 0; i < 5000; i++ {
		var words []string
		for j := 0; j < 50; j++ {
			words = append(words, vocab[rng.Intn(len(vocab))])
		}
		ix.Add(Document{ExtID: fmt.Sprintf("d%d", i), Fields: []Field{{Name: "body", Text: strings.Join(words, " ")}}})
	}
	q := term2("body", "replication")
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ix.Search(q, 10)
	}
}

func term2(field, word string) TermQuery {
	return TermQuery{Field: field, Term: textproc.DefaultAnalyzer.NormalizeTerm(word)}
}

func TestCompact(t *testing.T) {
	ix := newTestIndex(t)
	if err := ix.Delete("d2"); err != nil {
		t.Fatal(err)
	}
	fresh := ix.Compact()
	if fresh.DocCount() != 2 {
		t.Fatalf("DocCount = %d", fresh.DocCount())
	}
	// Query equivalence on live docs, including keyword fields.
	for _, q := range []Query{
		term("body", "replication"),
		phrase("body", "data", "replication"),
		TermQuery{Field: "deal", Term: KeywordTerm("DEAL A")},
		AllQuery{},
	} {
		a := extIDs(t, ix, ix.Search(q, 0))
		b := extIDs(t, fresh, fresh.Search(q, 0))
		if strings.Join(a, ",") != strings.Join(b, ",") {
			t.Fatalf("query %+v: %v vs %v", q, a, b)
		}
	}
	// Tombstone gone: d2's path is reusable in the fresh index.
	if _, err := fresh.Add(Document{ExtID: "d2", Fields: []Field{{Name: "body", Text: "back"}}}); err != nil {
		t.Fatalf("re-add after compact: %v", err)
	}
	// The original is untouched.
	if ix.DocCount() != 2 {
		t.Fatal("compact mutated the source index")
	}
	if _, err := ix.Add(Document{ExtID: "d1", Fields: nil}); err == nil {
		t.Fatal("source index lost its live entries")
	}
}

func TestCompactEmptyAndFull(t *testing.T) {
	ix := New(textproc.DefaultAnalyzer)
	if got := ix.Compact().DocCount(); got != 0 {
		t.Fatalf("empty compact = %d", got)
	}
	ix = newTestIndex(t)
	fresh := ix.Compact() // nothing deleted: identical
	if fresh.DocCount() != 3 || fresh.TermCount() != ix.TermCount() {
		t.Fatalf("full compact: %d docs, %d vs %d terms", fresh.DocCount(), fresh.TermCount(), ix.TermCount())
	}
}
