package index

import (
	"bytes"
	"cmp"
	"encoding/gob"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/textproc"
)

// seedSnapshot serializes a small real index — the fuzzer mutates from a
// valid snapshot, which reaches far deeper into the decoder than random
// bytes would.
func seedSnapshot(t interface{ Fatal(...any) }) []byte {
	ix := New(textproc.DefaultAnalyzer)
	docs := []Document{
		{ExtID: "deal-a/overview.txt", Meta: map[string]string{"deal": "DEAL A"}, Fields: []Field{
			{Name: "body", Text: "network services scope baseline for the data replication program"},
			{Name: "tower", Text: "Network Services", Keyword: true, Weight: 2},
		}},
		{ExtID: "deal-b/team.grid", Meta: map[string]string{"deal": "DEAL B"}, Fields: []Field{
			{Name: "body", Text: "deal team roster with one client services executive"},
		}},
	}
	for _, d := range docs {
		if _, err := ix.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Delete("deal-b/team.grid"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// corruptSnapshot is a well-formed snapshot of two live documents with
// mutate applied to its one posting list, body:"storag".
func corruptSnapshot(t interface{ Fatal(...any) }, mutate func(*snapPosting)) []byte {
	field := func(text string) []snapField {
		return []snapField{{Name: "body", Text: text, Length: 2, Weight: 1}}
	}
	snap := snapshot{
		Format:   persistFormat,
		Analyzer: textproc.DefaultAnalyzer,
		Docs: []snapDoc{
			{ExtID: "a", Fields: field("storage network")},
			{ExtID: "b", Fields: field("network storage")},
		},
		Postings: []snapPosting{{Field: "body", Term: "storag", Entries: []snapEntry{
			{Doc: 0, Positions: []uint32{0}},
			{Doc: 1, Positions: []uint32{1}},
		}}},
		FieldTotals: map[string]int{"body": 4},
		FieldDocs:   map[string]int{"body": 2},
		LiveDocs:    2,
	}
	mutate(&snap.Postings[0])
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadRejectsWhatCursorsCannotRank: the evaluator gallops over a list's
// documents and merges positions with forward cursors, so a list whose
// documents do not strictly ascend, or an entry whose positions within one
// field do not, would load and rank wrong; Load refuses them. Positions of
// a repeated field name restart from 0 in a list Add built, and load.
func TestLoadRejectsWhatCursorsCannotRank(t *testing.T) {
	for _, c := range []struct {
		name   string
		mutate func(*snapPosting)
		want   string // "" loads
	}{
		{"well formed", func(*snapPosting) {}, ""},
		{"docs descending", func(p *snapPosting) {
			p.Entries[0], p.Entries[1] = p.Entries[1], p.Entries[0]
		}, "lists doc 0 after doc 1"},
		{"doc listed twice", func(p *snapPosting) { p.Entries[1].Doc = 0 }, "lists doc 0 after doc 0"},
		{"positions descending", func(p *snapPosting) { p.Entries[1].Positions = []uint32{1, 0} }, "positions out of order for doc 1"},
		{"position repeated", func(p *snapPosting) { p.Entries[0].Positions = []uint32{0, 0} }, "positions out of order for doc 0"},
		{"no positions", func(p *snapPosting) { p.Entries[0].Positions = nil }, "no positions for doc 0"},
	} {
		_, err := Load(bytes.NewReader(corruptSnapshot(t, c.mutate)))
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}

	// The same out-of-order positions load when the document has two fields
	// of the posting's name, as Add writes them.
	ix := New(textproc.DefaultAnalyzer)
	if _, err := ix.Add(Document{ExtID: "d", Fields: []Field{
		{Name: "person", Text: "anne smith"},
		{Name: "person", Text: "smith jones"},
	}}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatalf("a repeated field's positions were refused: %v", err)
	}
	if got := loaded.postings[fieldTerm{"person", "smith"}].positions(0); !reflect.DeepEqual(got, []uint32{1, 0}) {
		t.Fatalf("smith positions = %v, want [1 0] as Add wrote them", got)
	}
}

// checkAccepted checks an index the loader accepted: every posting list's
// documents strictly ascend and its offsets end at its positions; and a term
// search, a phrase search and a Count over its first terms return hits
// ranked, once each and live, with Count agreeing with the unlimited search.
func checkAccepted(t *testing.T, ix *Index) {
	keys := make([]fieldTerm, 0, len(ix.postings))
	for k, pl := range ix.postings {
		keys = append(keys, k)
		for i := 1; i < len(pl.docs); i++ {
			if pl.docs[i] <= pl.docs[i-1] {
				t.Fatalf("%v: doc %d listed after doc %d", k, pl.docs[i], pl.docs[i-1])
			}
		}
		if n := len(pl.ends); n != len(pl.docs) || n > 0 && int(pl.ends[n-1]) != len(pl.pos) {
			t.Fatalf("%v: %d docs, %d offsets, %d positions", k, len(pl.docs), n, len(pl.pos))
		}
	}
	slices.SortFunc(keys, func(a, b fieldTerm) int {
		return cmp.Or(strings.Compare(a.field, b.field), strings.Compare(a.term, b.term))
	})
	if len(keys) > 8 {
		keys = keys[:8]
	}
	for i, k := range keys {
		qs := []Query{TermQuery{Field: k.field, Term: k.term}}
		if i > 0 && keys[i-1].field == k.field {
			qs = append(qs, PhraseQuery{Field: k.field, Terms: []string{keys[i-1].term, k.term}})
		}
		for _, q := range qs {
			hits := ix.Search(q, 0)
			for j, h := range hits {
				if int(h.Doc) >= len(ix.docs) || ix.deleted[h.Doc] {
					t.Fatalf("%#v: hit %d is doc %d, not a live document", q, j, h.Doc)
				}
				if j > 0 && (h.Doc == hits[j-1].Doc || hitWorse(hits[j-1], h)) {
					t.Fatalf("%#v: hits %d and %d out of order: %v", q, j-1, j, hits)
				}
			}
			if n := ix.Count(q); n != len(hits) {
				t.Fatalf("%#v: Count = %d, search found %d", q, n, len(hits))
			}
		}
	}
}

// FuzzIndexLoad drives arbitrary bytes through the snapshot loader. The
// invariant under fuzzing: Load never panics — it returns a working index
// or an error. Corrupt postings, impossible doc IDs, and truncated gob
// streams must all surface as errors, and what loads must search correctly.
func FuzzIndexLoad(f *testing.F) {
	seed := seedSnapshot(f)
	f.Add(seed)
	old, err := os.ReadFile(upgradeFixture)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(old)
	f.Add(seed[:len(seed)/2])                    // torn tail
	f.Add([]byte{})                              // empty
	f.Add([]byte("not a gob stream at all"))     // garbage
	f.Add(bytes.Repeat([]byte{0xFF, 0x00}, 256)) // binary noise
	mut := bytes.Clone(seed)                     // single corrupt byte
	mut[len(mut)/3] ^= 0xFF
	f.Add(mut)

	f.Fuzz(func(t *testing.T, data []byte) {
		ix, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A snapshot the loader accepted must behave like an index: the
		// exercised surface must not panic either.
		_ = ix.DocCount()
		_ = ix.TermCount()
		for _, id := range ix.ExtIDsByMeta("deal", "DEAL A") {
			_, _ = ix.Lookup(id)
		}
		checkAccepted(t, ix)
		var buf bytes.Buffer
		if _, err := ix.WriteTo(&buf); err != nil {
			t.Fatalf("accepted snapshot did not re-serialize: %v", err)
		}
	})
}

func TestIndexLoadRejectsOtherFormats(t *testing.T) {
	// A format bump (or an ancient snapshot) must be rejected with a clear
	// error naming the format — never misread field-by-field.
	for _, format := range []int{0, persistFormat + 1, persistFormat + 40} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(snapshot{Format: format}); err != nil {
			t.Fatal(err)
		}
		_, err := Load(&buf)
		if err == nil {
			t.Fatalf("format %d loaded", format)
		}
		if !strings.Contains(err.Error(), "unsupported snapshot format") {
			t.Fatalf("format %d: err = %v, want unsupported-format", format, err)
		}
	}
}
