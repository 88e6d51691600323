package index

import (
	"bytes"
	"os"
	"reflect"
	"testing"

	"repro/internal/textproc"
)

// upgradeFixture is a snapshot written by WriteTo at commit 905dfb1, when a
// posting list still held one record per posting, from upgradeDocs with
// upgradeDeleted deleted. It must stay as that code wrote it: regenerating
// it with the current WriteTo would prove nothing about reading old stores.
const upgradeFixture = "testdata/upgrade-v1.snap"

const upgradeDeleted = "deal-b/team.grid"

// upgradeDocs is seedSnapshot's corpus plus documents carrying phrases,
// keyword fields and a repeated field name (two person fields, whose
// positions Add lists one field after the other, each restarting from 0).
func upgradeDocs() []Document {
	return []Document{
		{ExtID: "deal-a/overview.txt", Meta: map[string]string{"deal": "DEAL A"}, Fields: []Field{
			{Name: "body", Text: "network services scope baseline for the data replication program"},
			{Name: "tower", Text: "Network Services", Keyword: true, Weight: 2},
		}},
		{ExtID: "deal-b/team.grid", Meta: map[string]string{"deal": "DEAL B"}, Fields: []Field{
			{Name: "body", Text: "deal team roster with one client services executive"},
		}},
		{ExtID: "deal-c/solution.deck", Meta: map[string]string{"deal": "DEAL C"}, Fields: []Field{
			{Name: "title", Text: "Data Replication Solution", Weight: 2},
			{Name: "body", Text: "data replication between the primary data center and the recovery data center; replication runs nightly and data replication is verified weekly"},
			{Name: "tower", Text: "Storage Management Services", Keyword: true},
			{Name: "person", Text: "Anne Smith", Keyword: true},
			{Name: "person", Text: "Smith Jones", Keyword: true},
		}},
		{ExtID: "deal-c/notes.txt", Meta: map[string]string{"deal": "DEAL C"}, Fields: []Field{
			{Name: "body", Text: "storage services notes: the client asked for storage management of the data center"},
			{Name: "tower", Text: "Storage Management Services", Keyword: true},
		}},
		{ExtID: "deal-d/scope.doc", Meta: map[string]string{"deal": "DEAL D"}, Fields: []Field{
			{Name: "title", Text: "End User Services scope", Weight: 2},
			{Name: "body", Text: "help desk and desktop services for the end user; network services are out of scope"},
			{Name: "tower", Text: "End User Services", Keyword: true},
			{Name: "role", Text: "Client Executive", Keyword: true},
			{Name: "role", Text: "Client Executive", Keyword: true},
		}},
	}
}

// upgradeQueries covers every query kind over upgradeDocs.
func upgradeQueries() []Query {
	a := textproc.DefaultAnalyzer
	phrase := func(field, text string) Query { return PhraseQuery{Field: field, Terms: a.Terms(text)} }
	term := func(field, word string) Query { return TermQuery{Field: field, Term: a.NormalizeTerm(word)} }
	return []Query{
		term("body", "replication"),
		term("body", "services"),
		term("title", "data"),
		term("person", "smith"),
		TermQuery{Field: "tower", Term: KeywordTerm("storage management services")},
		TermQuery{Field: "role", Term: KeywordTerm("client executive")},
		phrase("body", "data replication"),
		phrase("body", "data center"),
		phrase("body", "network services"),
		phrase("title", "data replication solution"),
		phrase("person", "anne smith"),
		// Matches nothing: the forward cursors meet "smith" at 1 before 0.
		phrase("person", "smith jones"),
		BoolQuery{
			Must:   []Query{term("body", "data")},
			Should: []Query{phrase("body", "data center"), TermQuery{Field: "tower", Term: KeywordTerm("storage management services")}},
		},
		BoolQuery{Must: []Query{term("body", "services")}, MustNot: []Query{term("body", "network")}},
		BoolQuery{Should: []Query{term("body", "desk"), term("body", "roster")}},
		FuzzyQuery{Field: "body", Term: "storag", MaxDist: 1},
		FuzzyQuery{Field: "body", Term: "sorage", MaxDist: 2},
		PrefixQuery{Field: "body", Prefix: "da"},
		PrefixQuery{Field: "body", Prefix: "serv"},
		AllQuery{},
	}
}

// buildUpgradeIndex builds upgradeDocs the way the fixture was built.
func buildUpgradeIndex(t testing.TB) *Index {
	t.Helper()
	ix := New(textproc.DefaultAnalyzer)
	for _, d := range upgradeDocs() {
		if _, err := ix.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Delete(upgradeDeleted); err != nil {
		t.Fatal(err)
	}
	return ix
}

// sameIndex requires b to hold exactly what a holds and to answer every
// upgrade query with the same hits and float-identical scores.
func sameIndex(t *testing.T, what string, a, b *Index) {
	t.Helper()
	if !reflect.DeepEqual(a.postings, b.postings) {
		t.Errorf("%s: posting lists differ", what)
	}
	if !reflect.DeepEqual(a.deleted, b.deleted) || a.liveDocs != b.liveDocs || !reflect.DeepEqual(a.byExt, b.byExt) {
		t.Errorf("%s: document tables differ", what)
	}
	for _, q := range upgradeQueries() {
		if want, got := a.Search(q, 0), b.Search(q, 0); !reflect.DeepEqual(want, got) {
			t.Errorf("%s: %#v:\nwant %v\ngot  %v", what, q, want, got)
		}
		if want, got := a.Count(q), b.Count(q); want != got {
			t.Errorf("%s: count %#v: want %d got %d", what, q, want, got)
		}
	}
}

// TestLoadReadsRowLayoutSnapshot: a store written before postings became
// columnar loads, ranks float-exactly as the same documents indexed now,
// and round-trips through the current WriteTo.
func TestLoadReadsRowLayoutSnapshot(t *testing.T) {
	data, err := os.ReadFile(upgradeFixture)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("the row-layout snapshot does not load: %v", err)
	}
	fresh := buildUpgradeIndex(t)
	sameIndex(t, "fixture vs fresh build", fresh, loaded)
	if pl := loaded.postings[fieldTerm{"person", "smith"}]; pl == nil || ascending(pl.positions(0)) {
		t.Fatal("the fixture lost its repeated-field positions: it no longer tests them")
	}
	hits := loaded.Search(upgradeQueries()[6], 0)
	if len(hits) == 0 {
		t.Fatal("the fixture's phrase query matches nothing: it no longer tests phrases")
	}

	var buf bytes.Buffer
	if _, err := loaded.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	again, err := Load(&buf)
	if err != nil {
		t.Fatalf("a re-written snapshot does not load: %v", err)
	}
	sameIndex(t, "round trip", loaded, again)
}
