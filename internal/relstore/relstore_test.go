package relstore

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

func dealsSchema() Schema {
	return Schema{
		Table: "deals",
		Columns: []Column{
			{Name: "id", Type: TText},
			{Name: "customer", Type: TText},
			{Name: "industry", Type: TText},
			{Name: "tcv", Type: TFloat},
			{Name: "months", Type: TInt},
			{Name: "international", Type: TBool},
		},
		PrimaryKey: []string{"id"},
	}
}

func newDealsDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	if err := db.CreateTable(dealsSchema()); err != nil {
		t.Fatal(err)
	}
	rows := []Row{
		{"DEAL A", "Acme Bank", "Banking", 120.5, int64(60), true},
		{"DEAL B", "Borealis", "Insurance", 75.0, int64(36), false},
		{"DEAL C", "Cygnus", "Insurance", 55.0, int64(60), true},
	}
	for _, r := range rows {
		if err := db.Insert("deals", r); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestCreateTableValidation(t *testing.T) {
	db := NewDB()
	if err := db.CreateTable(Schema{}); err == nil {
		t.Fatal("empty schema accepted")
	}
	if err := db.CreateTable(Schema{Table: "t", Columns: []Column{{Name: "a", Type: TInt}, {Name: "A", Type: TText}}}); err == nil {
		t.Fatal("duplicate column accepted")
	}
	ok := Schema{Table: "t", Columns: []Column{{Name: "a", Type: TInt}}}
	if err := db.CreateTable(ok); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(ok); !errors.Is(err, ErrTableExists) {
		t.Fatalf("err = %v", err)
	}
	bad := Schema{Table: "u", Columns: []Column{{Name: "a", Type: TInt}}, PrimaryKey: []string{"nope"}}
	if err := db.CreateTable(bad); !errors.Is(err, ErrNoColumn) {
		t.Fatalf("err = %v", err)
	}
}

// lookup selects the rows of table whose named columns equal vals.
func lookup(t testing.TB, db *DB, table string, cols []string, vals ...Value) []Row {
	t.Helper()
	schema, err := db.Schema(table)
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]int, len(cols))
	for i, c := range cols {
		pos[i] = schema.ColumnIndex(c)
	}
	rows, err := db.Select(table, Sel{EqCols: pos, EqVals: vals})
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// where selects the rows of table that pred accepts, by a scan.
func where(t *testing.T, db *DB, table string, pred Pred) []Row {
	t.Helper()
	sel := Sel{}
	if pred != nil {
		sel.Pred = func(r Row) (bool, error) { return pred(r), nil }
	}
	rows, err := db.Select(table, sel)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestInsertAndScan(t *testing.T) {
	db := newDealsDB(t)
	n, err := db.RowCount("deals")
	if err != nil || n != 3 {
		t.Fatalf("RowCount = %d, %v", n, err)
	}
	insurance := where(t, db, "deals", func(r Row) bool { return r[2] == "Insurance" })
	if len(insurance) != 2 {
		t.Fatalf("insurance deals = %v", insurance)
	}
}

func TestPrimaryKeyDuplicate(t *testing.T) {
	db := newDealsDB(t)
	err := db.Insert("deals", Row{"DEAL A", "X", "Y", 1.0, int64(1), false})
	if !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("err = %v", err)
	}
}

func TestNotNullOnPrimaryKey(t *testing.T) {
	db := newDealsDB(t)
	err := db.Insert("deals", Row{nil, "X", "Y", 1.0, int64(1), false})
	if !errors.Is(err, ErrNotNull) {
		t.Fatalf("err = %v", err)
	}
}

func TestArity(t *testing.T) {
	db := newDealsDB(t)
	if err := db.Insert("deals", Row{"short"}); !errors.Is(err, ErrArity) {
		t.Fatalf("err = %v", err)
	}
}

func TestTypeCoercion(t *testing.T) {
	db := newDealsDB(t)
	// months is INT: a whole float must coerce, a fractional one must not.
	if err := db.Insert("deals", Row{"DEAL D", "Delta", "Retail", int64(12), 24.0, false}); err != nil {
		t.Fatalf("coercion failed: %v", err)
	}
	err := db.Insert("deals", Row{"DEAL E", "Echo", "Retail", 1.0, 24.5, false})
	if err == nil {
		t.Fatal("fractional float accepted into INT column")
	}
	rows := lookup(t, db, "deals", []string{"id"}, "DEAL D")
	if len(rows) != 1 {
		t.Fatalf("lookup: %v", rows)
	}
	if _, ok := rows[0][3].(float64); !ok {
		t.Fatalf("tcv not coerced to float: %T", rows[0][3])
	}
	if _, ok := rows[0][4].(int64); !ok {
		t.Fatalf("months not int64: %T", rows[0][4])
	}
}

func TestLookupEqualViaPK(t *testing.T) {
	db := newDealsDB(t)
	if ix := db.tables["deals"].findIndex([]int{0}); ix != db.tables["deals"].pkIdx {
		t.Fatalf("id pinned: served by %v, want the primary key", ix)
	}
	rows := lookup(t, db, "deals", []string{"id"}, "DEAL B")
	if len(rows) != 1 || rows[0][1] != "Borealis" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestLookupEqualScanFallback(t *testing.T) {
	db := newDealsDB(t)
	if ix := db.tables["deals"].findIndex([]int{2}); ix != nil {
		t.Fatalf("industry pinned: served by %s, want a scan", ix.name)
	}
	rows := lookup(t, db, "deals", []string{"industry"}, "Insurance")
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestSecondaryIndex(t *testing.T) {
	db := newDealsDB(t)
	if err := db.CreateIndex("by_industry", "deals", []string{"industry"}, false); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("by_industry", "deals", []string{"industry"}, false); !errors.Is(err, ErrIndexExists) {
		t.Fatalf("err = %v", err)
	}
	rows := lookup(t, db, "deals", []string{"industry"}, "Insurance")
	if len(rows) != 2 {
		t.Fatalf("indexed lookup: %v", rows)
	}
	// New inserts must be visible through the index.
	if err := db.Insert("deals", Row{"DEAL D", "Delta", "Insurance", 10.0, int64(12), false}); err != nil {
		t.Fatal(err)
	}
	rows = lookup(t, db, "deals", []string{"industry"}, "Insurance")
	if len(rows) != 3 {
		t.Fatalf("index stale after insert: %v", rows)
	}
}

func TestUniqueSecondaryIndex(t *testing.T) {
	db := newDealsDB(t)
	if err := db.CreateIndex("by_customer", "deals", []string{"customer"}, true); err != nil {
		t.Fatal(err)
	}
	err := db.Insert("deals", Row{"DEAL Z", "Acme Bank", "Banking", 1.0, int64(1), false})
	if !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("unique index not enforced: %v", err)
	}
}

func TestUniqueIndexBuildFailsOnDuplicates(t *testing.T) {
	db := newDealsDB(t)
	err := db.CreateIndex("by_industry", "deals", []string{"industry"}, true)
	if !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("err = %v", err)
	}
}

func TestDelete(t *testing.T) {
	db := newDealsDB(t)
	n, err := db.Delete("deals", func(r Row) bool { return r[2] == "Insurance" })
	if err != nil || n != 2 {
		t.Fatalf("Delete = %d, %v", n, err)
	}
	count, _ := db.RowCount("deals")
	if count != 1 {
		t.Fatalf("RowCount = %d", count)
	}
	// PK slot must be reusable after delete.
	if err := db.Insert("deals", Row{"DEAL B", "New", "X", 1.0, int64(1), false}); err != nil {
		t.Fatalf("reinsert after delete: %v", err)
	}
}

func TestNoSuchTable(t *testing.T) {
	db := NewDB()
	if err := db.Insert("ghost", Row{}); !errors.Is(err, ErrNoTable) {
		t.Fatalf("err = %v", err)
	}
	if _, err := db.Select("ghost", Sel{}); !errors.Is(err, ErrNoTable) {
		t.Fatalf("err = %v", err)
	}
	if _, err := db.Delete("ghost", nil); !errors.Is(err, ErrNoTable) {
		t.Fatalf("err = %v", err)
	}
	if _, err := db.Schema("ghost"); !errors.Is(err, ErrNoTable) {
		t.Fatalf("err = %v", err)
	}
}

func TestScanReturnsCopies(t *testing.T) {
	db := newDealsDB(t)
	for _, r := range where(t, db, "deals", nil) {
		r[1] = "MUTATED"
	}
	rows := lookup(t, db, "deals", []string{"id"}, "DEAL A")
	if rows[0][1] == "MUTATED" {
		t.Fatal("select exposed internal row storage")
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{nil, nil, 0},
		{nil, "x", -1},
		{"x", nil, 1},
		{"a", "b", -1},
		{int64(2), int64(2), 0},
		{int64(2), 3.5, -1},
		{3.5, int64(2), 1},
		{false, true, -1},
		{true, true, 0},
	}
	for _, c := range cases {
		got, err := Compare(c.a, c.b)
		if err != nil || got != c.want {
			t.Errorf("Compare(%v,%v) = %d, %v; want %d", c.a, c.b, got, err, c.want)
		}
	}
	if _, err := Compare("x", int64(1)); err == nil {
		t.Error("cross-type compare accepted")
	}
}

func TestCompareAntisymmetryProperty(t *testing.T) {
	err := quick.Check(func(a, b int64) bool {
		x, _ := Compare(a, b)
		y, _ := Compare(b, a)
		return x == -y
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestHashKeyAgreesWithEqualProperty(t *testing.T) {
	// int64 and its float64 image must share a bucket, matching Equal.
	err := quick.Check(func(n int32) bool {
		i := int64(n)
		f := float64(n)
		return Equal(i, f) == (hashKey(i) == hashKey(f))
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestFormatValue(t *testing.T) {
	cases := map[string]Value{
		"NULL": nil, "hi": "hi", "42": int64(42), "2.5": 2.5, "TRUE": true, "FALSE": false,
	}
	for want, v := range cases {
		if got := FormatValue(v); got != want {
			t.Errorf("FormatValue(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestTypeString(t *testing.T) {
	if TText.String() != "TEXT" || TInt.String() != "INT" || TFloat.String() != "FLOAT" || TBool.String() != "BOOL" {
		t.Error("type names wrong")
	}
}

// Property: insert-then-lookup by PK always finds exactly the row inserted.
func TestInsertLookupRoundTripProperty(t *testing.T) {
	db := NewDB()
	if err := db.CreateTable(Schema{
		Table:      "kv",
		Columns:    []Column{{Name: "k", Type: TText}, {Name: "v", Type: TInt}},
		PrimaryKey: []string{"k"},
	}); err != nil {
		t.Fatal(err)
	}
	seen := map[string]int64{}
	i := 0
	err := quick.Check(func(k string, v int64) bool {
		key := fmt.Sprintf("%d-%s", i, k) // ensure uniqueness
		i++
		if err := db.Insert("kv", Row{key, v}); err != nil {
			return false
		}
		seen[key] = v
		rows := lookup(t, db, "kv", []string{"k"}, key)
		return len(rows) == 1 && rows[0][1] == v
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
	// And every previously inserted key still resolves.
	for k, v := range seen {
		if rows := lookup(t, db, "kv", []string{"k"}, k); len(rows) != 1 || rows[0][1] != v {
			t.Fatalf("lost row %q", k)
		}
	}
}

func BenchmarkInsert(b *testing.B) {
	db := NewDB()
	db.CreateTable(dealsSchema())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		db.Insert("deals", Row{fmt.Sprintf("DEAL %d", i), "Cust", "Ind", 1.0, int64(12), false})
	}
}

func BenchmarkLookupPK(b *testing.B) {
	db := NewDB()
	db.CreateTable(dealsSchema())
	for i := 0; i < 10000; i++ {
		db.Insert("deals", Row{fmt.Sprintf("DEAL %d", i), "Cust", "Ind", 1.0, int64(12), false})
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lookup(b, db, "deals", []string{"id"}, fmt.Sprintf("DEAL %d", i%10000))
	}
}
