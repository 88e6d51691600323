package index

import (
	"bytes"
	"cmp"
	"encoding/gob"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/textproc"
)

// seedSnapshot serializes a small real index — the fuzzer mutates from a
// valid snapshot, which reaches far deeper into the decoder than random
// bytes would.
func seedSnapshot(t testing.TB) []byte {
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

// corruptSnapshot indexes two documents, applies mutate to the posting list
// body:"storag" and writes the index in format 1 and in format 2: neither
// writer checks what it writes.
func corruptSnapshot(t testing.TB, mutate func(*snapPosting)) (format1, format2 []byte) {
	t.Helper()
	ix := New(textproc.DefaultAnalyzer)
	for _, d := range []Document{
		{ExtID: "a", Fields: []Field{{Name: "body", Text: "storage network"}}},
		{ExtID: "b", Fields: []Field{{Name: "body", Text: "network storage"}}},
	} {
		if _, err := ix.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	key := fieldTerm{"body", "storag"}
	sp := snapPosting{Field: key.field, Term: key.term}
	for i, id := range ix.postings[key].docs {
		sp.Entries = append(sp.Entries, snapEntry{Doc: id, Positions: ix.postings[key].positions(i)})
	}
	mutate(&sp)
	pl := &postingList{}
	for _, e := range sp.Entries {
		pl.docs = append(pl.docs, e.Doc)
		pl.pos = append(pl.pos, e.Positions...)
		pl.ends = append(pl.ends, uint32(len(pl.pos)))
	}
	ix.postings[key] = pl
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return writeFormat1(t, ix), buf.Bytes()
}

// TestLoadRejectsWhatCursorsCannotRank: the evaluator gallops over a list's
// documents and merges positions with forward cursors, so a list whose
// documents do not strictly ascend, or an entry whose positions within one
// field do not, would load and rank wrong; Load refuses them, in either
// format, with the same words. Positions of a repeated field name restart
// from 0 in a list Add built, and load.
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
		format1, format2 := corruptSnapshot(t, c.mutate)
		for i, data := range [][]byte{format1, format2} {
			_, err := Load(bytes.NewReader(data))
			switch {
			case c.want == "" && err != nil:
				t.Errorf("%s, format %d: %v", c.name, i+1, err)
			case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
				t.Errorf("%s, format %d: err = %v, want %q", c.name, i+1, err, c.want)
			}
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
// or an error. Corrupt postings, impossible doc IDs, counts larger than the
// bytes left, and truncated streams must all surface as errors, and what
// loads must search correctly. The seeds are format 2 (what WriteTo writes)
// and format 1 (the fixture and the test-only encoder); format-1 inputs go
// through the gob decoder, whose claimed lengths nothing bounds.
// testdata/fuzz/FuzzIndexLoad/v2-huge-count claims 2^40 entries.
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
	f.Add(writeFormat1(f, buildUpgradeIndex(f)))

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
	// error naming the format — never misread field-by-field. Format 2 in a
	// gob image is as foreign as format 1 behind the format-2 magic.
	for _, format := range []int{0, Format, Format + 40} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(snapshot{Format: format}); err != nil {
			t.Fatal(err)
		}
		_, err := Load(&buf)
		if err == nil || !strings.Contains(err.Error(), "unsupported snapshot format") {
			t.Fatalf("gob format %d: err = %v, want unsupported-format", format, err)
		}
	}
	for _, format := range []byte{0, formatGob, Format + 1, Format + 40} {
		data := append([]byte(formatMagic), format, analyzerFlags(textproc.DefaultAnalyzer), 0, 0, 0, 0, 0)
		_, err := Load(bytes.NewReader(data))
		if err == nil || !strings.Contains(err.Error(), "unsupported snapshot format") {
			t.Fatalf("format %d: err = %v, want unsupported-format", format, err)
		}
	}
}

// TestLoadBoundsCountsByBytesLeft: the committed corpus entry that claims
// 2^40 entries for one list is refused by its count, before any column is
// allocated for it.
func TestLoadBoundsCountsByBytesLeft(t *testing.T) {
	raw, err := os.ReadFile("testdata/fuzz/FuzzIndexLoad/v2-huge-count")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	lit := strings.TrimSuffix(strings.TrimPrefix(lines[len(lines)-1], "[]byte("), ")")
	data, err := strconv.Unquote(lit)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Load(strings.NewReader(data))
	if err == nil || !strings.Contains(err.Error(), "claims 1099511627776 entries") {
		t.Fatalf("err = %v, want the 2^40 entries refused by their count", err)
	}
}
