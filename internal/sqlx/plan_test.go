package sqlx

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/relstore"
)

// A cached plan holds column positions. No statement drops a table, so none
// can recreate one with its columns in another order; DDL still moves the
// schema version, and the next execution of a cached text plans again.
func TestPlanCacheFollowsRecreatedTable(t *testing.T) {
	refused(t, `DROP TABLE people`)
	c := openTestDB(t)
	const q = `SELECT name FROM people WHERE deal_id = ? ORDER BY name`
	before := mustQuery(t, c, q, "DEAL A")
	mustExec(t, c, `CREATE TABLE other (a TEXT)`)
	if _, ok := c.plans.Get(q, c.db.SchemaVersion()); ok {
		t.Fatal("a plan of the old schema version answers at the new one")
	}
	if after := mustQuery(t, c, q, "DEAL A"); before.Len() != 2 || !reflect.DeepEqual(before, after) {
		t.Fatalf("before %v, after %v", before.Data, after.Data)
	}
	if _, ok := c.plans.Get(q, c.db.SchemaVersion()); !ok {
		t.Fatal("not planned again at the new schema version")
	}
}

// A result's column names belong to the caller: sorting or editing them must
// not reach the cached plan the next execution answers from.
func TestRowsColumnsAreNotThePlans(t *testing.T) {
	c := Open(relstore.NewDB())
	mustExec(t, c, `CREATE TABLE t (a TEXT, b TEXT)`)
	const q = `SELECT b, a FROM t`
	first := mustQuery(t, c, q)
	first.Columns[0] = "edited"
	if again := mustQuery(t, c, q); !reflect.DeepEqual(again.Columns, []string{"b", "a"}) {
		t.Fatalf("columns %v after a caller edited an earlier result's", again.Columns)
	}
}

// An index created between two executions of one text changes how the
// second is served (index hits, not a scan) but not what it answers.
func TestPlanCacheAcrossCreateIndex(t *testing.T) {
	c := Open(relstore.NewDB())
	mustExec(t, c, `CREATE TABLE towers (deal TEXT, tower TEXT, sub TEXT)`)
	for i := 0; i < 60; i++ {
		mustExec(t, c, `INSERT INTO towers VALUES (?, ?, ?)`, fmt.Sprintf("D%d", i%20), fmt.Sprintf("T%d", i%4), fmt.Sprintf("S%d", i%3))
	}
	mustExec(t, c, `DELETE FROM towers WHERE deal = 'D3'`)
	const q = `SELECT deal FROM towers WHERE tower = ? AND sub = ?`
	before := mustQuery(t, c, q, "T1", "S2")
	again := mustQuery(t, c, q, "T1", "S2") // from the cached plan
	mustExec(t, c, `CREATE INDEX towers_by_tower ON towers (tower)`)
	after := mustQuery(t, c, q, "T1", "S2")
	if before.Len() == 0 || !reflect.DeepEqual(before, again) || !reflect.DeepEqual(before, after) {
		t.Fatalf("scan %v, cached %v, indexed %v", before.Data, again.Data, after.Data)
	}
}

// One Conn serves readers and writers at once; run under -race. The schema
// version moves underneath as well, one CREATE INDEX after another: a reader
// that loses the race with DDL plans again instead of reading through a
// stale plan. The DDL loop never pauses, so Query may give up with
// ErrSchemaChanged, as it documents — but only after losing maxReplans races
// in a row, and each lost race needs a version bump of its own between the
// reader's plan and its read. A reader that is handed the error asks again,
// so no iteration goes unchecked, and counts: more of them than the loop's
// bumps can pay for means Query gave up without having lost its races.
func TestConcurrentQueryAndExec(t *testing.T) {
	const bumps = 300                    // one CREATE INDEX each
	const tolerated = bumps / maxReplans // per reader, over the whole run
	c := Open(relstore.NewDB())
	mustExec(t, c, `CREATE TABLE kv (k TEXT, v INT)`)
	mustExec(t, c, `CREATE INDEX kv_by_k ON kv (k)`)
	mustExec(t, c, `CREATE TABLE flip (a TEXT, b TEXT)`)
	mustExec(t, c, `INSERT INTO flip VALUES ('x', '1')`)
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				k := fmt.Sprintf("k%d", (w*7+i)%11)
				if _, err := c.Exec(`DELETE FROM kv WHERE k = ?`, k); err != nil {
					t.Errorf("delete: %v", err)
				}
				for _, v := range []int{i, -i} {
					if _, err := c.Exec(`INSERT INTO kv VALUES (?, ?)`, k, v); err != nil {
						t.Errorf("insert: %v", err)
					}
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < bumps; i++ {
			if _, err := c.Exec(fmt.Sprintf(`CREATE INDEX flip_%d ON flip (a, b)`, i)); err != nil {
				t.Errorf("create index: %v", err)
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			gaveUp := 0
			query := func(sqlText string, args ...relstore.Value) (*Rows, error) {
				for {
					rows, err := c.Query(sqlText, args...)
					if !errors.Is(err, relstore.ErrSchemaChanged) {
						return rows, err
					}
					if gaveUp++; gaveUp > tolerated {
						t.Errorf("reader %d: ErrSchemaChanged %d times; %d bumps pay for at most %d", r, gaveUp, bumps, tolerated)
						return nil, err
					}
				}
			}
			for i := 0; i < 600; i++ {
				k := fmt.Sprintf("k%d", (r+i)%11)
				rows, err := query(`SELECT k, v FROM kv WHERE k = ? ORDER BY v`, k)
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				for j, row := range rows.Data {
					if v, ok := row[1].(int64); row[0] != k || !ok || (j > 0 && v < rows.Data[j-1][1].(int64)) {
						t.Errorf("row %v of k = %s, ordered by v: %v", row, k, rows.Data)
					}
				}
				if rows, err := query(`SELECT a FROM flip WHERE b = ?`, "1"); err != nil || rows.Len() != 1 || rows.Data[0][0] != "x" {
					t.Errorf("flip read as %v, %v", rows, err)
				}
			}
		}(r)
	}
	wg.Wait()
}

func TestMatchLikeWildcardsInText(t *testing.T) {
	// A % or _ in the text is an ordinary character; in the pattern it is
	// always a wildcard, also where the two line up.
	for _, tc := range []struct {
		s, p string
		want bool
	}{
		{"%xa", "%a%", true},
		{"%xa", "%a", true},
		{"50% off", "50%", true},
		{"50% off", "%off", true},
		{"a_b", "a_b", true},
		{"a_b", "__b", true},
		{"%", "_", true},
		{"%%", "%x%", false},
	} {
		if got := MatchLike(tc.s, tc.p); got != tc.want {
			t.Errorf("MatchLike(%q, %q) = %v", tc.s, tc.p, got)
		}
	}
}

// likeByDefinition is LIKE over already-lowered strings, written as the
// definition reads: % is any run, _ any one byte.
func likeByDefinition(s, p string) bool {
	if p == "" {
		return s == ""
	}
	switch p[0] {
	case '%':
		for i := 0; i <= len(s); i++ {
			if likeByDefinition(s[i:], p[1:]) {
				return true
			}
		}
		return false
	case '_':
		return s != "" && likeByDefinition(s[1:], p[1:])
	default:
		return s != "" && s[0] == p[0] && likeByDefinition(s[1:], p[1:])
	}
}

// The matcher (ASCII folded without allocating, non-ASCII text lowered, the
// %needle% fast path, backtracking on the last %) against the definition.
func TestLikeMatcherAgainstDefinition(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	alphabet := []string{"a", "B", "c", "Z", " ", "%", "_", "é", "Ü", "x"}
	random := func(n int, wild float64) string {
		var sb strings.Builder
		for i := r.Intn(n); i > 0; i-- {
			ch := alphabet[r.Intn(len(alphabet))]
			if (ch == "%" || ch == "_") && r.Float64() > wild {
				ch = "a"
			}
			sb.WriteString(ch)
		}
		return sb.String()
	}
	matched := 0
	for i := 0; i < 20000; i++ {
		s, p := random(8, 0.3), random(6, 1)
		if i%3 == 0 {
			p = "%" + strings.Trim(p, "%_") + "%" // the fast path, mostly
		}
		want := likeByDefinition(strings.ToLower(s), strings.ToLower(p))
		if got := MatchLike(s, p); got != want {
			t.Fatalf("MatchLike(%q, %q) = %v, want %v", s, p, got, want)
		}
		if want {
			matched++
		}
	}
	if matched < 2000 {
		t.Fatalf("only %d of 20000 pairs match: the comparison is mostly about rejections", matched)
	}
}

// contactsConn builds a synopsis-shaped contacts table: deals of 40 contacts
// each, indexed by deal.
func contactsConn(tb testing.TB, deals int) *Conn {
	tb.Helper()
	c := Open(relstore.NewDB())
	for _, stmt := range []string{
		`CREATE TABLE contacts (deal_id TEXT NOT NULL, name TEXT NOT NULL, email TEXT, phone TEXT,
			org TEXT, role TEXT, category TEXT, validated BOOL)`,
		`CREATE INDEX contacts_by_deal ON contacts (deal_id)`,
		`CREATE INDEX contacts_by_name ON contacts (name)`,
	} {
		if _, err := c.Exec(stmt); err != nil {
			tb.Fatal(err)
		}
	}
	for d := 0; d < deals; d++ {
		insertContacts(tb, c, d)
	}
	return c
}

func insertContacts(tb testing.TB, c *Conn, deal int) {
	for p := 0; p < 40; p++ {
		name := fmt.Sprintf("Person %c%d Of Deal%d", 'A'+p%26, p, deal)
		if _, err := c.Exec(`INSERT INTO contacts VALUES (?, ?, ?, ?, ?, ?, ?, ?)`,
			fmt.Sprintf("DEAL %d", deal), name, strings.ToLower(name)+"@example.com", "555-0100",
			"Example Org", "CSE", "core deal team", p%2 == 0); err != nil {
			tb.Fatal(err)
		}
	}
}

const contactLike = `SELECT deal_id, validated FROM contacts WHERE name LIKE ?`

// The contact search of a synopsis query scans every contact; a row that
// does not match must cost no allocation.
func TestContactLikeAllocatesNothingPerRow(t *testing.T) {
	small, large := contactsConn(t, 5), contactsConn(t, 50)
	perQuery := func(c *Conn) float64 {
		return testing.AllocsPerRun(20, func() {
			if rows, err := c.Query(contactLike, "%no such person%"); err != nil || rows.Len() != 0 {
				t.Fatalf("%v %v", rows, err)
			}
		})
	}
	a, b := perQuery(small), perQuery(large)
	if a != b {
		t.Fatalf("%v allocations over 200 rows, %v over 2000: %v per extra non-matching row", a, b, (b-a)/1800)
	}
	t.Logf("%v allocations per query, whatever the table size", a)
}

func BenchmarkContactLike(b *testing.B) {
	c := contactsConn(b, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := c.Query(contactLike, "%z25 of deal19%") // 11 of 8000 rows match
		if err != nil || rows.Len() != 11 {
			b.Fatalf("%d rows, %v", rows.Len(), err)
		}
	}
}

// FuzzCompile drives arbitrary statement text through parse, plan and run
// against a tiny fixed database. Whatever the text, nothing may panic, and a
// SELECT the interpreter answers must be answered the same by its plan.
func FuzzCompile(f *testing.F) {
	for _, seed := range []string{
		"SELECT id, customer FROM deals WHERE industry = ? ORDER BY tcv DESC",
		"SELECT name, email FROM people WHERE LOWER(role) LIKE '%s%' ORDER BY deal_id, name",
		"SELECT deal_id FROM people WHERE name LIKE ? AND email LIKE '%ibm%'",
		"SELECT id FROM deals WHERE months = ?",
		"SELECT id, nope FROM deals",
		"SELECT id FROM deals WHERE id = ? AND customer = ?",
		"SELECT tcv FROM deals WHERE LOWER(tcv) LIKE ?",
		"DELETE FROM people WHERE deal_id = ?",
		"INSERT INTO people VALUES (?, 'x', 'y', 'z')",
		"CREATE INDEX by_name ON people (name)",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if _, err := Parse(src); err != nil {
			return
		}
		c := openTestDB(t)
		args := []relstore.Value{"DEAL A"}
		want, wantErr := c.oldQuery(src, args...)
		got, gotErr := c.Query(src, args...)
		if errText(gotErr) != errText(wantErr) || (gotErr == nil && !reflect.DeepEqual(got, want)) {
			t.Fatalf("%q\n compiled:    %v, %v\n interpreter: %v, %v", src, got, gotErr, want, wantErr)
		}
		if gotErr != nil {
			c.Exec(src, args...) // not a SELECT, or one that fails
		}
	})
}

// A prepared INSERT writes what Exec of its text writes, across a schema
// change: the CREATE INDEX moves the version, the next Exec checks the
// statement again, and the index serves the rows both inserted.
func TestPreparedInsertMatchesExec(t *testing.T) {
	const text = `INSERT INTO towers VALUES (?, ?, ?)`
	exec, prep := Open(relstore.NewDB()), Open(relstore.NewDB())
	for _, c := range []*Conn{exec, prep} {
		mustExec(t, c, `CREATE TABLE towers (deal TEXT NOT NULL, tower TEXT, weight FLOAT)`)
	}
	ins, err := prep.Prepare(text)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if i == 20 {
			for _, c := range []*Conn{exec, prep} {
				mustExec(t, c, `CREATE INDEX towers_by_tower ON towers (tower)`)
			}
			if ins.checked.Load() == prep.db.SchemaVersion() {
				t.Fatal("the schema moved but the prepared statement was not left behind")
			}
		}
		args := []relstore.Value{fmt.Sprintf("D%d", i), fmt.Sprintf("T%d", i%3), i} // an int for a FLOAT
		if n, err := ins.Exec(args...); n != 1 || err != nil {
			t.Fatalf("prepared Exec = %d, %v", n, err)
		}
		mustExec(t, exec, text, args...)
	}
	if ins.checked.Load() != prep.db.SchemaVersion() {
		t.Fatal("not checked again at the new schema version")
	}
	const q = `SELECT deal, weight FROM towers WHERE tower = ?`
	if want, got := mustQuery(t, exec, q, "T1"), mustQuery(t, prep, q, "T1"); want.Len() != 13 || !reflect.DeepEqual(got, want) {
		t.Fatalf("prepared %v, exec %v", got.Data, want.Data)
	}
	// Refusals are Exec's: NOT NULL, a missing argument.
	if _, err := ins.Exec(nil, "T", 1.0); !errors.Is(err, relstore.ErrNotNull) {
		t.Fatalf("NULL deal: %v", err)
	}
	if _, err := ins.Exec("D", "T"); !errors.Is(err, ErrBadParam) {
		t.Fatalf("two of three arguments: %v", err)
	}
}

// Prepare takes an INSERT of an existing table with one value per column,
// and nothing else.
func TestPrepareRefuses(t *testing.T) {
	c := openTestDB(t)
	for text, want := range map[string]error{
		`INSERT INTO people VALUES (?, ?)`:         relstore.ErrArity,
		`INSERT INTO nobody VALUES (?)`:            relstore.ErrNoTable,
		`SELECT name FROM people WHERE name = ?`:   nil,
		`DELETE FROM people WHERE deal_id = ?`:     nil,
		`INSERT INTO people VALUES (?, ?), (?, ?)`: nil,
	} {
		ins, err := c.Prepare(text)
		if ins != nil || err == nil || (want != nil && !errors.Is(err, want)) {
			t.Errorf("Prepare(%q) = %v, %v; want %v", text, ins, err, want)
		}
	}
}

// One prepared INSERT serves several goroutines while DDL moves the schema
// version underneath; run under -race. Every row lands once.
func TestPreparedInsertConcurrent(t *testing.T) {
	c := Open(relstore.NewDB())
	mustExec(t, c, `CREATE TABLE rows (w TEXT, i INT)`)
	ins, err := c.Prepare(`INSERT INTO rows VALUES (?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := ins.Exec(fmt.Sprint(w), i); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 20; i++ {
		mustExec(t, c, fmt.Sprintf(`CREATE INDEX rows_%d ON rows (w)`, i))
	}
	wg.Wait()
	if n, err := c.db.RowCount("rows"); err != nil || n != writers*each {
		t.Fatalf("%d rows (%v), want %d", n, err, writers*each)
	}
}
