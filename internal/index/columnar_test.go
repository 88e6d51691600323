package index

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/textproc"
)

// columnarDocs is a corpus whose lowercase words need no stemming, so that
// tokenizing a field allocates its token slice and nothing per token: what
// AddBatch allocates beyond that is the posting storage.
func columnarDocs(n int) []Document {
	rng := rand.New(rand.NewSource(3))
	word := func() string { return fmt.Sprintf("w%d", rng.Intn(400)) }
	docs := make([]Document, n)
	for i := range docs {
		var body strings.Builder
		for j := 0; j < 40; j++ {
			body.WriteString(word())
			body.WriteByte(' ')
		}
		docs[i] = Document{ExtID: fmt.Sprintf("doc-%d", i), Fields: []Field{
			{Name: "title", Text: word() + " " + word(), Weight: 2},
			{Name: "body", Text: body.String()},
			{Name: "deal", Text: fmt.Sprintf("deal %d", i%20), Keyword: true},
		}}
	}
	return docs
}

// TestPostingStorageIsColumnar: building an index allocates per posting list
// (each column grows by doubling) and per document, never per posting. A
// layout with a heap object per posting allocates at least once for each of
// the 86,204 postings here (121,504 allocations with one positions slice per
// posting); the columns take 33,934.
func TestPostingStorageIsColumnar(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	docs := columnarDocs(2000)
	ix := New(textproc.Analyzer{})
	if _, err := ix.AddBatch(docs, 1); err != nil {
		t.Fatal(err)
	}
	terms, postings := len(ix.postings), 0
	for _, pl := range ix.postings {
		postings += len(pl.docs)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := New(textproc.Analyzer{}).AddBatch(docs, 1); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d docs, %d terms, %d postings: %.0f allocations", len(docs), terms, postings, allocs)
	if limit := float64(postings / 2); allocs > limit {
		t.Fatalf("AddBatch allocated %.0f objects for %d postings in %d lists, want at most %.0f",
			allocs, postings, terms, limit)
	}
}

// BenchmarkPhraseCommonPair is the shape of the slowest index searches on a
// cold read: a phrase of two words that each occur in about nine documents
// in ten, over 20,000 documents, so the intersection pass walks two long
// lists and compares positions in most of their documents.
func BenchmarkPhraseCommonPair(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	docs := make([]Document, 20000)
	for i := range docs {
		docs[i] = Document{ExtID: fmt.Sprintf("doc-%d", i), Fields: []Field{
			{Name: "body", Text: randText(rng, 60)},
		}}
	}
	ix := New(textproc.DefaultAnalyzer)
	if _, err := ix.AddBatch(docs, 2); err != nil {
		b.Fatal(err)
	}
	q := PhraseQuery{Field: "body", Terms: ix.Analyzer().Terms("storage network")}
	if len(ix.Search(q, 0)) == 0 {
		b.Fatal("the phrase matches nothing")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Search(q, 20)
	}
}
