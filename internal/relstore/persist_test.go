package relstore

import (
	"bytes"
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
	rows, err := loaded.LookupEqual("deals", []string{"industry"}, []Value{"Insurance"})
	if err != nil || len(rows) != 1 {
		t.Fatalf("indexed lookup after load: %v, %v", rows, err)
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
	var got Row
	loaded.Scan("t", nil, func(r Row) bool { got = r; return false })
	if got[0] != nil || got[1] != nil {
		t.Fatalf("NULLs mangled: %v", got)
	}
}
