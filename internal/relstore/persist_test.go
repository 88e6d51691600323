package relstore

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"
)

func TestDBPersistRoundTrip(t *testing.T) {
	db := newDealsDB(t)
	if err := db.CreateIndex("by_industry", "deals", []string{"industry"}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Delete("deals", func(r Row) bool { return r[0] == "DEAL B" }); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := db.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	n, err := loaded.RowCount("deals")
	if err != nil || n != 2 {
		t.Fatalf("RowCount = %d, %v", n, err)
	}
	// Deleted row stayed deleted; PK still enforced.
	if err := loaded.Insert("deals", Row{"DEAL A", "dup", "X", 1.0, int64(1), false}); err == nil {
		t.Fatal("PK lost through persistence")
	}
	// Secondary index survives (functionally).
	if rows := lookup(t, loaded, "deals", []string{"industry"}, "Insurance"); len(rows) != 1 {
		t.Fatalf("indexed lookup after load: %v", rows)
	}
	// Schema types preserved.
	s, err := loaded.Schema("deals")
	if err != nil || s.Columns[3].Type != TFloat {
		t.Fatalf("schema = %+v, %v", s, err)
	}
}

func TestDBLoadGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Fatal("garbage decoded")
	}
}

func TestDBPersistNullValues(t *testing.T) {
	db := NewDB()
	if err := db.CreateTable(Schema{Table: "t", Columns: []Column{{Name: "a", Type: TText}, {Name: "b", Type: TInt}}}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("t", Row{nil, nil}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := db.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := where(t, loaded, "t", nil)[0]; got[0] != nil || got[1] != nil {
		t.Fatalf("NULLs mangled: %v", got)
	}
}

// Snapshots written while the engine had sorted indexes list them per table.
// Loading one keeps every row and every hash index; a sorted index was only
// an access path, so it is dropped.
func TestSortedIndexPersistence(t *testing.T) {
	type sortedIndexSnapshot struct{ Name, Column string }
	type oldTable struct {
		Schema        Schema
		Rows          []Row
		Indexes       []indexSnapshot
		SortedIndexes []sortedIndexSnapshot
	}
	db := newDealsDB(t)
	rows := where(t, db, "deals", nil)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(struct {
		Format int
		Tables []oldTable
	}{persistFormat, []oldTable{{
		Schema:        dealsSchema(),
		Rows:          rows,
		Indexes:       []indexSnapshot{{Name: "by_industry", Columns: []string{"industry"}}},
		SortedIndexes: []sortedIndexSnapshot{{Name: "by_tcv", Column: "tcv"}},
	}}}); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := where(t, loaded, "deals", nil); !reflect.DeepEqual(got, rows) {
		t.Fatalf("rows after load: %v, want %v", got, rows)
	}
	if ix := loaded.tables["deals"].findIndex([]int{2}); ix == nil || ix.name != "by_industry" {
		t.Fatalf("industry pinned after load: served by %v, want by_industry", ix)
	}
}
