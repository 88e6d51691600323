package index

import (
	"bytes"
	"encoding/gob"
	"testing"

	"repro/internal/textproc"
)

// writeFormat1 is the encoder of format 1, the gob image WriteTo wrote
// before format 2: one snapEntry per posting, its positions a sub-slice of
// the list's column. Load still reads format 1; nothing writes it but tests.
func writeFormat1(t testing.TB, ix *Index) []byte {
	t.Helper()
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	snap := snapshot{
		Format:      formatGob,
		Analyzer:    ix.analyzer,
		FieldTotals: ix.fieldTotals,
		FieldDocs:   ix.fieldDocs,
		LiveDocs:    ix.liveDocs,
	}
	for i, d := range ix.docs {
		sd := snapDoc{ExtID: d.extID, Meta: d.meta, Deleted: ix.deleted[i]}
		for _, f := range d.fields {
			sd.Fields = append(sd.Fields, snapField{Name: f.name, Text: f.text, Length: f.length, Weight: f.weight})
		}
		snap.Docs = append(snap.Docs, sd)
	}
	for key, pl := range ix.postings {
		sp := snapPosting{Field: key.field, Term: key.term, Entries: make([]snapEntry, len(pl.docs))}
		for i, id := range pl.docs {
			sp.Entries[i] = snapEntry{Doc: id, Positions: pl.positions(i)}
		}
		snap.Postings = append(snap.Postings, sp)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFormatsLoadTheSameIndex: the same index written in format 1 and in
// format 2 loads column for column equal — documents, tombstones,
// statistics, every list's docs/ends/pos and live count — and answers the
// upgrade queries float-identically.
func TestFormatsLoadTheSameIndex(t *testing.T) {
	for _, build := range []func(testing.TB) *Index{
		buildUpgradeIndex,
		func(t testing.TB) *Index {
			ix := New(textproc.Analyzer{KeepAcronyms: true})
			if _, err := ix.AddBatch(columnarDocs(300), 1); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 300; i += 7 {
				if err := ix.Delete(columnarDocs(300)[i].ExtID); err != nil {
					t.Fatal(err)
				}
			}
			return ix
		},
	} {
		ix := build(t)
		v1, err := Load(bytes.NewReader(writeFormat1(t, ix)))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := ix.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(buf.Bytes(), []byte(formatMagic)) {
			t.Fatal("WriteTo did not write format 2")
		}
		v2, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		sameIndex(t, "format 1 vs format 2", v1, v2)
		sameIndex(t, "built vs format 2", ix, v2)
		sameColumns(t, v1, v2)
	}
}

// sameColumns requires two loaded indexes to hold the same documents and
// statistics, beyond what sameIndex compares.
func sameColumns(t *testing.T, a, b *Index) {
	t.Helper()
	if a.analyzer != b.analyzer {
		t.Errorf("analyzer %+v vs %+v", a.analyzer, b.analyzer)
	}
	if len(a.docs) != len(b.docs) {
		t.Fatalf("%d vs %d documents", len(a.docs), len(b.docs))
	}
	for i := range a.docs {
		da, db := &a.docs[i], &b.docs[i]
		if da.extID != db.extID || len(da.meta) != len(db.meta) || len(da.fields) != len(db.fields) {
			t.Fatalf("doc %d: %+v vs %+v", i, *da, *db)
		}
		for k, v := range da.meta {
			if db.meta[k] != v {
				t.Fatalf("doc %d meta %s: %q vs %q", i, k, v, db.meta[k])
			}
		}
		for j := range da.fields {
			if da.fields[j] != db.fields[j] {
				t.Fatalf("doc %d field %d: %+v vs %+v", i, j, da.fields[j], db.fields[j])
			}
		}
	}
	for _, m := range [][2]map[string]int{{a.fieldTotals, b.fieldTotals}, {a.fieldDocs, b.fieldDocs}} {
		if len(m[0]) != len(m[1]) {
			t.Fatalf("statistics %v vs %v", m[0], m[1])
		}
		for k, v := range m[0] {
			if m[1][k] != v {
				t.Fatalf("statistics %v vs %v", m[0], m[1])
			}
		}
	}
	for name, fa := range a.fieldLens {
		fb := b.fieldLens[name]
		if fb == nil || len(fa.lens) != len(fb.lens) {
			t.Fatalf("field %s lengths differ", name)
		}
		for i := range fa.lens {
			if fa.lens[i] != fb.lens[i] || fa.weights[i] != fb.weights[i] {
				t.Fatalf("field %s doc %d: (%d, %v) vs (%d, %v)", name, i, fa.lens[i], fa.weights[i], fb.lens[i], fb.weights[i])
			}
		}
	}
}
