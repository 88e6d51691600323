package relstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// towersDB is a deal_towers-shaped table: no primary key, a hash index on
// each of two columns.
func towersDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	if err := db.CreateTable(Schema{Table: "towers", Columns: []Column{
		{Name: "deal", Type: TText},
		{Name: "tower", Type: TText},
		{Name: "sub", Type: TText},
		{Name: "sig", Type: TFloat},
	}}); err != nil {
		t.Fatal(err)
	}
	for _, ix := range []struct{ name, col string }{{"by_deal", "deal"}, {"by_tower", "tower"}} {
		if err := db.CreateIndex(ix.name, "towers", []string{ix.col}, false); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func putDeal(t *testing.T, db *DB, deal string, r *rand.Rand) {
	t.Helper()
	if _, err := db.Delete("towers", func(row Row) bool { return row[0] == deal }); err != nil {
		t.Fatal(err)
	}
	for i := 1 + r.Intn(4); i > 0; i-- {
		row := Row{deal, fmt.Sprintf("T%d", r.Intn(4)), fmt.Sprintf("S%d", r.Intn(3)), float64(r.Intn(5))}
		if err := db.Insert("towers", row); err != nil {
			t.Fatal(err)
		}
	}
}

func scanWhere(t *testing.T, db *DB, pred Pred) []Row {
	t.Helper()
	return where(t, db, "towers", pred)
}

func reload(t *testing.T, db *DB) *DB {
	t.Helper()
	var buf bytes.Buffer
	if _, err := db.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	twin, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return twin
}

// An index lookup must return rows in the order a scan does, whatever
// deletes, re-inserts and bucket moves came before, and so must a twin
// restored from a snapshot (which never lived that history).
func TestIndexHitsInSlotOrder(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	db := towersDB(t)
	for i := 0; i < 400; i++ {
		putDeal(t, db, fmt.Sprintf("D%d", r.Intn(12)), r)
		if i%5 == 0 { // move rows between by_tower buckets: delete, re-insert
			from, to := fmt.Sprintf("T%d", r.Intn(4)), fmt.Sprintf("T%d", r.Intn(4))
			moving := func(row Row) bool { return row[1] == from && row[3] == 2.0 }
			moved := scanWhere(t, db, moving)
			if _, err := db.Delete("towers", moving); err != nil {
				t.Fatal(err)
			}
			for _, row := range moved {
				row[1] = to
				if err := db.Insert("towers", row); err != nil {
					t.Fatal(err)
				}
			}
		}
		if i%40 != 0 {
			continue
		}
		twin := reload(t, db)
		for k := 0; k < 4; k++ {
			tower := fmt.Sprintf("T%d", k)
			viaIndex := lookup(t, db, "towers", []string{"tower"}, tower)
			viaScan := scanWhere(t, db, func(row Row) bool { return row[1] == tower })
			viaTwin := lookup(t, twin, "towers", []string{"tower"}, tower)
			if !reflect.DeepEqual(viaIndex, viaScan) {
				t.Fatalf("step %d tower %s: index order %v, scan order %v", i, tower, viaIndex, viaScan)
			}
			if !reflect.DeepEqual(viaIndex, viaTwin) {
				t.Fatalf("step %d tower %s: lived %v, restored %v", i, tower, viaIndex, viaTwin)
			}
		}
	}
}

// Pinning more columns than any index has must still use an index over a
// subset of them and filter the rest.
func TestLookupUsesCoveringSubsetIndex(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	db := towersDB(t)
	for i := 0; i < 30; i++ {
		putDeal(t, db, fmt.Sprintf("D%d", i), r)
	}
	tb := db.tables["towers"]
	tower, sub := tb.schema.ColumnIndex("tower"), tb.schema.ColumnIndex("sub")
	if ix := tb.findIndex([]int{tower, sub}); ix == nil || ix.name != "by_tower" {
		t.Fatalf("tower+sub served by %v, want by_tower", ix)
	}
	if ix := tb.findIndex([]int{sub}); ix != nil {
		t.Fatalf("sub alone served by %s, want a scan", ix.name)
	}
	// The wider of two usable indexes wins, whatever their names.
	if err := db.CreateIndex("a_tower_sub", "towers", []string{"sub", "tower"}, false); err != nil {
		t.Fatal(err)
	}
	if ix := tb.findIndex([]int{tower, sub}); ix.name != "a_tower_sub" {
		t.Fatalf("tower+sub served by %s, want a_tower_sub", ix.name)
	}
	got := lookup(t, db, "towers", []string{"sub", "tower"}, "S1", "T2")
	want := scanWhere(t, db, func(row Row) bool { return row[1] == "T2" && row[2] == "S1" })
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("lookup %v, scan %v", got, want)
	}
}

// Compaction renumbers slots; nothing a caller can observe may move.
func TestCompactionPreservesOrderAndIndexes(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	db := towersDB(t)
	for i := 0; i < 200; i++ {
		putDeal(t, db, fmt.Sprintf("D%d", r.Intn(40)), r)
	}
	tb := db.tables["towers"]
	if len(tb.rows) == tb.live {
		t.Fatal("no dead slots to compact; the fixture is too tame")
	}
	scan := scanWhere(t, db, nil)
	byDeal := lookup(t, db, "towers", []string{"deal"}, "D7")
	byTower := lookup(t, db, "towers", []string{"tower"}, "T1")

	db.mu.Lock()
	tb.compact()
	db.mu.Unlock()

	if len(tb.rows) != tb.live || tb.live != len(scan) {
		t.Fatalf("after compaction %d slots, %d live, %d rows scanned before", len(tb.rows), tb.live, len(scan))
	}
	if got := scanWhere(t, db, nil); !reflect.DeepEqual(got, scan) {
		t.Fatalf("scan order changed:\n%v\n%v", got, scan)
	}
	if got := lookup(t, db, "towers", []string{"deal"}, "D7"); !reflect.DeepEqual(got, byDeal) {
		t.Fatalf("by_deal lookup changed: %v, was %v", got, byDeal)
	}
	if got := lookup(t, db, "towers", []string{"tower"}, "T1"); !reflect.DeepEqual(got, byTower) {
		t.Fatalf("by_tower lookup changed: %v, was %v", got, byTower)
	}
	// The indexes keep working for writes after the renumbering.
	putDeal(t, db, "D7", r)
	got := lookup(t, db, "towers", []string{"deal"}, "D7")
	if want := scanWhere(t, db, func(row Row) bool { return row[0] == "D7" }); !reflect.DeepEqual(got, want) {
		t.Fatalf("after a put: lookup %v, scan %v", got, want)
	}
}

// A store that replaces its rows for ever (synopsis.Put: delete, re-insert)
// must not grow: deleted slots are reclaimed once they outnumber live rows.
func TestDeletedSlotsAreReclaimed(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	db := towersDB(t)
	tb := db.tables["towers"]
	most := 0
	for i := 0; i < 10000; i++ {
		putDeal(t, db, fmt.Sprintf("D%d", r.Intn(50)), r)
		if len(tb.rows) > most {
			most = len(tb.rows)
		}
		if len(tb.rows) > 2*tb.live+4 {
			t.Fatalf("cycle %d: %d slots for %d live rows", i, len(tb.rows), tb.live)
		}
	}
	if most > 2*50*4+4 { // 50 deals of at most 4 rows, and as many dead slots again
		t.Fatalf("table reached %d slots", most)
	}
	for k := 0; k < 50; k++ {
		deal := fmt.Sprintf("D%d", k)
		got := lookup(t, db, "towers", []string{"deal"}, deal)
		if want := scanWhere(t, db, func(row Row) bool { return row[0] == deal }); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: lookup %v, scan %v", deal, got, want)
		}
	}
}

// A selection whose predicate fails ends at the failing row, on every access
// path, and reports the failure instead of rows.
func TestSelectStopsWhenPredFails(t *testing.T) {
	db := towersDB(t)
	for i := 0; i < 50; i++ {
		if err := db.Insert("towers", Row{"D", "T", fmt.Sprintf("S%d", i), float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	boom := errors.New("boom")
	for name, sel := range map[string]Sel{
		"scan":       {},
		"hash index": {EqCols: []int{0}, EqVals: []Value{"D"}},
	} {
		seen := 0
		sel.Pred = func(Row) (bool, error) {
			seen++
			if seen == 3 {
				return true, boom
			}
			return true, nil
		}
		rows, err := db.Select("towers", sel)
		if !errors.Is(err, boom) || rows != nil || seen != 3 {
			t.Errorf("%s: %d rows, err %v, predicate saw %d rows; want the error after 3", name, len(rows), err, seen)
		}
	}
}
