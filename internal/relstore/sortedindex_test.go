package relstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func rangeDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	if err := db.CreateTable(Schema{
		Table:      "m",
		Columns:    []Column{{Name: "id", Type: TText}, {Name: "n", Type: TInt}},
		PrimaryKey: []string{"id"},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := db.Insert("m", Row{fmt.Sprintf("r%02d", i), int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func collectRange(t *testing.T, db *DB, lo, hi Value, loInc, hiInc bool) []int64 {
	t.Helper()
	var out []int64
	if err := db.ScanRange("m", "n", lo, hi, loInc, hiInc, func(r Row) bool {
		out = append(out, r[1].(int64))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestScanRangeWithoutIndex(t *testing.T) {
	db := rangeDB(t)
	got := collectRange(t, db, int64(5), int64(8), true, true)
	if len(got) != 4 {
		t.Fatalf("got %v", got)
	}
}

func TestScanRangeWithSortedIndex(t *testing.T) {
	db := rangeDB(t)
	if err := db.CreateSortedIndex("by_n", "m", "n"); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		lo, hi       Value
		loInc, hiInc bool
		want         []int64
	}{
		{int64(5), int64(8), true, true, []int64{5, 6, 7, 8}},
		{int64(5), int64(8), false, true, []int64{6, 7, 8}},
		{int64(5), int64(8), true, false, []int64{5, 6, 7}},
		{int64(5), int64(8), false, false, []int64{6, 7}},
		{nil, int64(2), true, true, []int64{0, 1, 2}},
		{int64(18), nil, false, true, []int64{19}},
		{int64(100), nil, true, true, nil},
		{nil, nil, true, true, seq(0, 20)},
	}
	for _, c := range cases {
		got := collectRange(t, db, c.lo, c.hi, c.loInc, c.hiInc)
		if !equalInts(got, c.want) {
			t.Errorf("range [%v,%v] inc(%v,%v) = %v, want %v", c.lo, c.hi, c.loInc, c.hiInc, got, c.want)
		}
		// Sorted-index scans come back in value order.
		if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
			t.Errorf("range result unsorted: %v", got)
		}
	}
}

func seq(lo, n int) []int64 {
	out := make([]int64, 0, n)
	for i := lo; i < n; i++ {
		out = append(out, int64(i))
	}
	return out
}

func equalInts(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSortedIndexMaintainedOnMutation(t *testing.T) {
	db := rangeDB(t)
	if err := db.CreateSortedIndex("by_n", "m", "n"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Delete("m", func(r Row) bool { return r[1].(int64)%2 == 0 }); err != nil {
		t.Fatal(err)
	}
	got := collectRange(t, db, int64(0), int64(9), true, true)
	if !equalInts(got, []int64{1, 3, 5, 7, 9}) {
		t.Fatalf("after delete: %v", got)
	}
	if _, err := db.Update("m", func(r Row) bool { return r[1].(int64) == 7 }, map[string]Value{"n": int64(100)}); err != nil {
		t.Fatal(err)
	}
	got = collectRange(t, db, int64(50), nil, true, true)
	if !equalInts(got, []int64{100}) {
		t.Fatalf("after update: %v", got)
	}
	if err := db.Insert("m", Row{"new", int64(4)}); err != nil {
		t.Fatal(err)
	}
	got = collectRange(t, db, int64(4), int64(5), true, true)
	if !equalInts(got, []int64{4, 5}) {
		t.Fatalf("after insert: %v", got)
	}
}

func TestSortedIndexIgnoresNulls(t *testing.T) {
	db := rangeDB(t)
	if err := db.CreateSortedIndex("by_n", "m", "n"); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("m", Row{"null-row", nil}); err != nil {
		t.Fatal(err)
	}
	got := collectRange(t, db, nil, nil, true, true)
	if len(got) != 20 {
		t.Fatalf("NULL leaked into range scan: %v", got)
	}
}

func TestSortedIndexErrors(t *testing.T) {
	db := rangeDB(t)
	if err := db.CreateSortedIndex("ix", "ghost", "n"); !errors.Is(err, ErrNoTable) {
		t.Fatalf("err = %v", err)
	}
	if err := db.CreateSortedIndex("ix", "m", "ghost"); !errors.Is(err, ErrNoColumn) {
		t.Fatalf("err = %v", err)
	}
	if err := db.CreateSortedIndex("ix", "m", "n"); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateSortedIndex("ix", "m", "n"); !errors.Is(err, ErrIndexExists) {
		t.Fatalf("err = %v", err)
	}
	if err := db.ScanRange("ghost", "n", nil, nil, true, true, func(Row) bool { return true }); !errors.Is(err, ErrNoTable) {
		t.Fatalf("err = %v", err)
	}
	if err := db.ScanRange("m", "ghost", nil, nil, true, true, func(Row) bool { return true }); !errors.Is(err, ErrNoColumn) {
		t.Fatalf("err = %v", err)
	}
}

// Property: indexed and unindexed range scans agree on random data.
func TestScanRangeIndexEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	plain := NewDB()
	indexed := NewDB()
	schema := Schema{Table: "p", Columns: []Column{{Name: "id", Type: TInt}, {Name: "v", Type: TFloat}}}
	for _, db := range []*DB{plain, indexed} {
		if err := db.CreateTable(schema); err != nil {
			t.Fatal(err)
		}
	}
	if err := indexed.CreateSortedIndex("by_v", "p", "v"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 120; i++ {
		v := rng.Float64() * 100
		for _, db := range []*DB{plain, indexed} {
			if err := db.Insert("p", Row{int64(i), v}); err != nil {
				t.Fatal(err)
			}
		}
	}
	err := quick.Check(func(a, b float64, loInc, hiInc bool) bool {
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		collect := func(db *DB) map[int64]bool {
			out := map[int64]bool{}
			db.ScanRange("p", "v", lo, hi, loInc, hiInc, func(r Row) bool {
				out[r[0].(int64)] = true
				return true
			})
			return out
		}
		p, q := collect(plain), collect(indexed)
		if len(p) != len(q) {
			return false
		}
		for k := range p {
			if !q[k] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Error(err)
	}
}

func TestSortedIndexPersistence(t *testing.T) {
	db := rangeDB(t)
	if err := db.CreateSortedIndex("by_n", "m", "n"); err != nil {
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
	// The restored sorted index must serve ordered range scans.
	var out []int64
	if err := loaded.ScanRange("m", "n", int64(3), int64(6), true, true, func(r Row) bool {
		out = append(out, r[1].(int64))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !equalInts(out, []int64{3, 4, 5, 6}) {
		t.Fatalf("after load: %v", out)
	}
	// And a duplicate CreateSortedIndex on the restored DB errors.
	if err := loaded.CreateSortedIndex("by_n", "m", "n"); !errors.Is(err, ErrIndexExists) {
		t.Fatalf("err = %v", err)
	}
}
