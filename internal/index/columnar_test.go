package index

import (
	"bytes"
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

// TestLoadSizesColumnsExactly: Load reads a format-2 list's counts before
// its columns and allocates each column once, at its size, so loading
// allocates a fixed number of objects per posting list (the list, its three
// columns, its term) and per document (its external ID, its fields, their
// texts), never one per posting: the 86,204 postings here would add at
// least that many.
func TestLoadSizesColumnsExactly(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	docs := columnarDocs(2000)
	ix := New(textproc.Analyzer{})
	if _, err := ix.AddBatch(docs, 1); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	postings := 0
	for _, pl := range ix.postings {
		postings += len(pl.docs)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Load(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	})
	lists := len(ix.postings)
	t.Logf("%d docs, %d lists, %d postings, %d bytes: %.0f allocations", len(docs), lists, postings, len(data), allocs)
	if limit := float64(6*lists + 6*len(docs) + 200); allocs > limit {
		t.Fatalf("Load allocated %.0f objects for %d lists and %d documents, want at most %.0f",
			allocs, lists, len(docs), limit)
	}
}

// BenchmarkSnapshotRoundTrip writes a 20,000-document index with WriteTo
// and loads it back: the index's share of a checkpoint and of a recovery.
func BenchmarkSnapshotRoundTrip(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	docs := make([]Document, 20000)
	for i := range docs {
		docs[i] = Document{ExtID: fmt.Sprintf("doc-%d", i), Meta: map[string]string{"deal": fmt.Sprintf("DEAL %d", i%500)}, Fields: []Field{
			{Name: "title", Text: randText(rng, 4), Weight: 2},
			{Name: "body", Text: randText(rng, 60)},
			{Name: "tower", Text: fmt.Sprintf("tower %d", i%12), Keyword: true},
		}}
	}
	ix := New(textproc.DefaultAnalyzer)
	if _, err := ix.AddBatch(docs, 2); err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	var n int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		var err error
		if n, err = ix.WriteTo(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := Load(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n), "snapshot_bytes")
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
