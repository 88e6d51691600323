package sqlx

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/relstore"
)

func openTestDB(t *testing.T) *Conn {
	t.Helper()
	c := Open(relstore.NewDB())
	mustExec(t, c, `CREATE TABLE deals (
		id TEXT PRIMARY KEY,
		customer TEXT NOT NULL,
		industry TEXT,
		tcv FLOAT,
		months INT,
		international BOOL
	)`)
	mustExec(t, c, `CREATE TABLE people (
		deal_id TEXT NOT NULL,
		name TEXT NOT NULL,
		role TEXT,
		email TEXT
	)`)
	for _, r := range [][]relstore.Value{
		{"DEAL A", "Acme Bank", "Banking", 120.5, 60, true},
		{"DEAL B", "Borealis", "Insurance", 75.0, 36, false},
		{"DEAL C", "Cygnus", "Insurance", 55.0, 60, true},
		{"DEAL D", "Delta", nil, nil, nil, nil},
	} {
		mustExec(t, c, `INSERT INTO deals VALUES (?, ?, ?, ?, ?, ?)`, r...)
	}
	for _, r := range [][]relstore.Value{
		{"DEAL A", "Sam White", "CSE", "sam.white@abc.com"},
		{"DEAL A", "Jo Park", "TSA", "jo.park@ibm.com"},
		{"DEAL B", "Lee Chan", "CSE", "lee.chan@ibm.com"},
		{"DEAL C", "Ana Ruiz", "PE", nil},
	} {
		mustExec(t, c, `INSERT INTO people VALUES (?, ?, ?, ?)`, r...)
	}
	return c
}

// refused checks that src lies outside the grammar: Parse fails with a parse
// error, and Query and Exec fail with it before they read or write a row.
// The tests that call it once exercised a construct sqlx implemented; the
// construct is gone, and each now pins that it is refused.
func refused(t *testing.T, srcs ...string) {
	t.Helper()
	c := openTestDB(t)
	for _, src := range srcs {
		if _, err := Parse(src); err == nil || !strings.HasPrefix(err.Error(), "sqlx: parse error") {
			t.Errorf("Parse(%q) = %v, want a parse error", src, err)
		}
		if rows, err := c.Query(src, "DEAL A"); err == nil || rows != nil {
			t.Errorf("Query(%q) = %v, %v", src, rows, err)
		}
		if n, err := c.Exec(src, "DEAL A"); err == nil || n != 0 {
			t.Errorf("Exec(%q) = %d, %v", src, n, err)
		}
	}
	if n, _ := c.db.RowCount("people"); n != 4 {
		t.Errorf("people holds %d rows after refused statements, want 4", n)
	}
}

func mustExec(t *testing.T, c *Conn, sql string, args ...relstore.Value) int {
	t.Helper()
	n, err := c.Exec(sql, args...)
	if err != nil {
		t.Fatalf("Exec(%s): %v", sql, err)
	}
	return n
}

func mustQuery(t *testing.T, c *Conn, sql string, args ...relstore.Value) *Rows {
	t.Helper()
	rows, err := c.Query(sql, args...)
	if err != nil {
		t.Fatalf("Query(%s): %v", sql, err)
	}
	return rows
}

func TestSelectStar(t *testing.T) {
	refused(t, `SELECT * FROM deals`, `SELECT id, * FROM deals`)
}

func TestSelectWhereEquality(t *testing.T) {
	c := openTestDB(t)
	rows := mustQuery(t, c, `SELECT id FROM deals WHERE industry = 'Insurance'`)
	if rows.Len() != 2 {
		t.Fatalf("rows = %v", rows.Data)
	}
}

func TestSelectWhereParams(t *testing.T) {
	c := openTestDB(t)
	rows := mustQuery(t, c, `SELECT id FROM deals WHERE industry = ? AND months = ?`, "Insurance", 60)
	if rows.Len() != 1 || rows.Data[0][0] != "DEAL C" {
		t.Fatalf("rows = %v", rows.Data)
	}
}

func TestSelectMissingParam(t *testing.T) {
	c := openTestDB(t)
	if _, err := c.Query(`SELECT id FROM deals WHERE industry = ?`); !errors.Is(err, ErrBadParam) {
		t.Fatalf("err = %v", err)
	}
}

// = is the one comparison: it compares across int and float, and NULL
// equals nothing.
func TestSelectComparisons(t *testing.T) {
	c := openTestDB(t)
	for _, tc := range []struct {
		sql  string
		arg  relstore.Value
		want int
	}{
		{`SELECT id FROM deals WHERE tcv = ?`, 75, 1},
		{`SELECT id FROM deals WHERE months = ?`, 60.0, 2},
		{`SELECT id FROM deals WHERE international = ?`, true, 2},
		{`SELECT id FROM deals WHERE international = ?`, false, 1},
		{`SELECT id FROM deals WHERE industry = ?`, nil, 0},
	} {
		if got := mustQuery(t, c, tc.sql, tc.arg).Len(); got != tc.want {
			t.Errorf("%s [%v]: got %d rows, want %d", tc.sql, tc.arg, got, tc.want)
		}
	}
	refused(t,
		`SELECT id FROM deals WHERE tcv > ?`, `SELECT id FROM deals WHERE tcv >= ?`,
		`SELECT id FROM deals WHERE tcv < ?`, `SELECT id FROM deals WHERE tcv <= ?`,
		`SELECT id FROM deals WHERE tcv <> ?`, `SELECT id FROM deals WHERE tcv != ?`,
		`SELECT id FROM deals WHERE months = 60`, `SELECT id FROM deals WHERE international = TRUE`,
		`SELECT id FROM deals WHERE NOT international = ?`, `SELECT id FROM deals WHERE tcv IS NULL`,
		`SELECT id FROM deals WHERE industry IN ('Banking', 'Retail')`,
		`SELECT id FROM deals WHERE id = ? OR industry = ?`)
}

func TestSelectLike(t *testing.T) {
	c := openTestDB(t)
	cases := map[string]int{
		`SELECT id FROM deals WHERE customer LIKE 'A%'`:                      1,
		`SELECT id FROM deals WHERE customer LIKE '%a%'`:                     3, // Acme Bank, Borealis, Delta (case-insensitive)
		`SELECT id FROM deals WHERE customer LIKE '_cme%'`:                   1,
		`SELECT id FROM deals WHERE customer LIKE 'acme %'`:                  1, // case-insensitive
		`SELECT id FROM deals WHERE id LIKE 'DEAL _' AND customer LIKE '%s'`: 2,
	}
	for sql, want := range cases {
		if got := mustQuery(t, c, sql).Len(); got != want {
			t.Errorf("%s: got %d, want %d", sql, got, want)
		}
	}
}

func TestMatchLike(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%o", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "h__lo", true},
		{"hello", "", false},
		{"", "", true},
		{"", "%", true},
		{"abc", "%%%", true},
		{"abc", "a%c%", true},
		{"abc", "a_c_", false},
		{"Storage Management", "%manage%", true},
	}
	for _, tc := range cases {
		if got := MatchLike(tc.s, tc.p); got != tc.want {
			t.Errorf("MatchLike(%q, %q) = %v", tc.s, tc.p, got)
		}
	}
}

func TestOrderBy(t *testing.T) {
	c := openTestDB(t)
	rows := mustQuery(t, c, `SELECT id, tcv FROM deals ORDER BY tcv DESC`)
	want := []string{"DEAL A", "DEAL B", "DEAL C", "DEAL D"} // NULL sorts first
	for i, w := range want {
		if rows.Data[i][0] != w {
			t.Fatalf("order wrong: %v", rows.Data)
		}
	}
	rows = mustQuery(t, c, `SELECT id FROM deals ORDER BY id ASC`)
	if rows.Data[0][0] != "DEAL A" || rows.Data[3][0] != "DEAL D" {
		t.Fatalf("asc order wrong: %v", rows.Data)
	}
}

func TestOrderByMultipleKeys(t *testing.T) {
	c := openTestDB(t)
	rows := mustQuery(t, c, `SELECT id FROM deals ORDER BY months DESC, id DESC`)
	want := []string{"DEAL C", "DEAL A", "DEAL B", "DEAL D"}
	for i, w := range want {
		if rows.Data[i][0] != w {
			t.Fatalf("order = %v", rows.Data)
		}
	}
}

func TestLimitOffset(t *testing.T) {
	refused(t, `SELECT id FROM deals ORDER BY id LIMIT 2`, `SELECT id FROM deals ORDER BY id LIMIT 2 OFFSET 3`)
}

func TestAggregates(t *testing.T) {
	refused(t, `SELECT COUNT(tcv) FROM deals`, `SELECT SUM(months) FROM deals`,
		`SELECT MIN(tcv) FROM deals`, `SELECT MAX(tcv) FROM deals`, `SELECT AVG(tcv) FROM deals`)
}

func TestAggregateEmptyTable(t *testing.T) {
	refused(t, `SELECT COUNT(*) FROM people`)
}

func TestGroupBy(t *testing.T) {
	refused(t, `SELECT industry FROM deals GROUP BY industry ORDER BY industry`)
}

func TestGroupByHaving(t *testing.T) {
	refused(t, `SELECT industry FROM deals GROUP BY industry HAVING COUNT(*) > 1`)
}

func TestJoinInner(t *testing.T) {
	refused(t, `SELECT id, name FROM deals JOIN people ON id = deal_id`,
		`SELECT id, name FROM deals INNER JOIN people ON id = deal_id`)
}

func TestJoinLeft(t *testing.T) {
	refused(t, `SELECT id, name FROM deals LEFT JOIN people ON id = deal_id`)
}

func TestJoinAmbiguousColumn(t *testing.T) {
	refused(t, `SELECT d.id FROM deals d`, `SELECT id FROM deals AS d`, `SELECT id AS x FROM deals`,
		`SELECT id x FROM deals`, `SELECT id FROM deals WHERE deals.id = ?`)
}

func TestUnknownColumn(t *testing.T) {
	c := openTestDB(t)
	if _, err := c.Query(`SELECT nothere FROM deals`); !errors.Is(err, ErrUnknownColumn) {
		t.Fatalf("err = %v", err)
	}
}

func TestDistinct(t *testing.T) {
	refused(t, `SELECT DISTINCT role FROM people`)
}

// LOWER is the one function, and only on the column a term tests.
func TestScalarFuncs(t *testing.T) {
	c := openTestDB(t)
	if rows := mustQuery(t, c, `SELECT id FROM deals WHERE LOWER(customer) = ?`, "delta"); rows.Len() != 1 || rows.Data[0][0] != "DEAL D" {
		t.Fatalf("rows = %v", rows.Data)
	}
	if _, err := c.Query(`SELECT id FROM deals WHERE LOWER(months) = ?`, "x"); err == nil {
		t.Fatal("LOWER of an INT column accepted")
	}
	refused(t, `SELECT UPPER(customer) FROM deals`, `SELECT LOWER(customer) FROM deals`,
		`SELECT id FROM deals WHERE LENGTH(customer) = ?`, `SELECT id FROM deals WHERE COALESCE(industry, customer) = ?`,
		`SELECT id FROM deals WHERE customer = LOWER(?)`)
}

func TestArithmeticAndConcat(t *testing.T) {
	refused(t, `SELECT months / 12 FROM deals`, `SELECT id FROM deals WHERE months % 12 = ?`,
		`SELECT id FROM deals WHERE tcv * 2 = ?`, `SELECT id FROM deals WHERE tcv + 1 = ?`,
		`SELECT id FROM deals WHERE tcv - 1 = ?`, `SELECT id FROM deals WHERE id = ? || customer`,
		`SELECT id FROM deals WHERE months = -?`)
}

func TestDivisionByZero(t *testing.T) {
	refused(t, `SELECT months / 0 FROM deals`)
}

func TestUpdateConstant(t *testing.T) {
	refused(t, `UPDATE deals SET industry = 'Finance' WHERE industry = 'Banking'`)
}

func TestUpdateRowDependent(t *testing.T) {
	refused(t, `UPDATE deals SET months = months + 12`)
}

func TestUpdateWithParams(t *testing.T) {
	refused(t, `UPDATE deals SET customer = ? WHERE id = ?`)
}

func TestDeleteWhere(t *testing.T) {
	c := openTestDB(t)
	n := mustExec(t, c, `DELETE FROM people WHERE role = 'CSE'`)
	if n != 2 {
		t.Fatalf("deleted %d", n)
	}
	if n := mustExec(t, c, `DELETE FROM people WHERE deal_id = ? AND name LIKE ?`, "DEAL A", "jo%"); n != 1 {
		t.Fatalf("deleted %d", n)
	}
	if rows := mustQuery(t, c, `SELECT name FROM people`); rows.Len() != 1 {
		t.Fatalf("remaining = %v", rows.Data)
	}
	refused(t, `DELETE FROM people`)
}

func TestInsertWithColumnsAndMulti(t *testing.T) {
	refused(t, `INSERT INTO people (deal_id, name) VALUES (?, ?)`,
		`INSERT INTO people VALUES (?, ?, ?, ?), (?, ?, ?, ?)`)
}

func TestInsertArityMismatch(t *testing.T) {
	c := openTestDB(t)
	if _, err := c.Exec(`INSERT INTO people VALUES ('x', 'y')`); !errors.Is(err, relstore.ErrArity) {
		t.Fatal("expected arity error")
	}
}

func TestInsertDuplicatePK(t *testing.T) {
	c := openTestDB(t)
	_, err := c.Exec(`INSERT INTO deals VALUES (?, ?, ?, ?, ?, ?)`, "DEAL A", "dup", nil, nil, nil, nil)
	if !errors.Is(err, relstore.ErrDuplicateKey) {
		t.Fatalf("err = %v", err)
	}
}

func TestCreateIndexAndIndexedSelect(t *testing.T) {
	c := openTestDB(t)
	mustExec(t, c, `CREATE INDEX by_role ON people (role)`)
	rows := mustQuery(t, c, `SELECT name FROM people WHERE role = 'TSA'`)
	if rows.Len() != 1 || rows.Data[0][0] != "Jo Park" {
		t.Fatalf("rows = %v", rows.Data)
	}
	// Residual predicates on top of the indexed equality must still apply.
	rows = mustQuery(t, c, `SELECT name FROM people WHERE role = 'CSE' AND name LIKE 'Sam%'`)
	if rows.Len() != 1 || rows.Data[0][0] != "Sam White" {
		t.Fatalf("rows = %v", rows.Data)
	}
}

func TestCreateUniqueIndexViolation(t *testing.T) {
	refused(t, `CREATE UNIQUE INDEX by_email ON people (email)`)
}

func TestDropTable(t *testing.T) {
	refused(t, `DROP TABLE people`)
}

func TestParseErrors(t *testing.T) {
	c := openTestDB(t)
	bad := []string{
		``,
		`SELEC id FROM deals`,
		`SELECT FROM deals`,
		`SELECT id deals`,
		`SELECT id FROM deals WHERE`,
		`SELECT id FROM deals ORDER`,
		`INSERT deals VALUES (?)`,
		`INSERT INTO deals VALUES ()`,
		`CREATE TABLE t`,
		`CREATE TABLE t (a NOPE)`,
		`CREATE INDEX ON t (a)`,
		`SELECT id FROM deals WHERE UNKNOWNFUNC(id) = ?`,
		`SELECT id FROM deals WHERE id = id`,
		`SELECT id FROM deals WHERE id LIKE`,
		`SELECT id FROM deals; SELECT id FROM deals`,
		`SELECT id FROM deals WHERE id = 'unterminated`,
		`SELECT "unterminated FROM deals`,
		`SELECT id FROM deals WHERE id NOT ?`,
		`SELECT id FROM deals ORDER BY`,
		`DELETE FROM deals WHERE`,
	}
	for _, sql := range bad {
		if _, err := c.Query(sql); err == nil {
			if _, err2 := c.Exec(sql); err2 == nil {
				t.Errorf("no error for %q", sql)
			}
		}
	}
}

func TestExecRejectsSelect(t *testing.T) {
	c := openTestDB(t)
	if _, err := c.Exec(`SELECT id FROM deals`); err == nil {
		t.Fatal("Exec accepted SELECT")
	}
	if _, err := c.Query(`DELETE FROM deals WHERE id = ?`, "DEAL A"); err == nil {
		t.Fatal("Query accepted DELETE")
	}
}

func TestQueryOne(t *testing.T) {
	c := openTestDB(t)
	row, err := c.QueryOne(`SELECT customer FROM deals WHERE id = 'DEAL B'`)
	if err != nil || row[0] != "Borealis" {
		t.Fatalf("row = %v, %v", row, err)
	}
	row, err = c.QueryOne(`SELECT customer FROM deals WHERE id = 'NOPE'`)
	if err != nil || row != nil {
		t.Fatalf("row = %v, %v", row, err)
	}
	if _, err = c.QueryOne(`SELECT customer FROM deals`); err == nil {
		t.Fatal("QueryOne accepted multiple rows")
	}
}

func TestCommentsAndSemicolon(t *testing.T) {
	c := openTestDB(t)
	rows := mustQuery(t, c, "SELECT id -- the deal id\nFROM deals; ")
	if rows.Len() != 4 {
		t.Fatalf("rows = %d", rows.Len())
	}
}

func TestQuotedIdentifier(t *testing.T) {
	c := openTestDB(t)
	rows := mustQuery(t, c, `SELECT "id" FROM deals WHERE "industry" = 'Banking'`)
	if rows.Len() != 1 {
		t.Fatalf("rows = %v", rows.Data)
	}
}

func TestStringEscapes(t *testing.T) {
	c := openTestDB(t)
	mustExec(t, c, `INSERT INTO deals VALUES ('DEAL Q', 'O''Neil & Co', ?, ?, ?, ?)`, nil, nil, nil, nil)
	row, err := c.QueryOne(`SELECT customer FROM deals WHERE customer = 'O''Neil & Co'`)
	if err != nil || row == nil || row[0] != "O'Neil & Co" {
		t.Fatalf("row = %v, %v", row, err)
	}
}

// Property: MatchLike with a pattern equal to the string (no wildcards)
// matches exactly when strings are equal case-insensitively.
func TestMatchLikeExactProperty(t *testing.T) {
	err := quick.Check(func(s string) bool {
		if strings.ContainsAny(s, "%_") {
			return true
		}
		return MatchLike(s, s)
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Error(err)
	}
}

// Property: '%'+s+'%' always matches any string containing s.
func TestMatchLikeContainsProperty(t *testing.T) {
	err := quick.Check(func(pre, s, post string) bool {
		if strings.ContainsAny(s, "%_") {
			return true
		}
		return MatchLike(pre+s+post, "%"+s+"%")
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Error(err)
	}
}

// Property: a round-trip through INSERT with params preserves values.
func TestInsertParamRoundTripProperty(t *testing.T) {
	c := Open(relstore.NewDB())
	mustExec(t, c, `CREATE TABLE kv (k TEXT PRIMARY KEY, n INT, f FLOAT, b BOOL)`)
	i := 0
	err := quick.Check(func(n int64, f float64, b bool) bool {
		k := fmt.Sprintf("k%d", i)
		i++
		if _, err := c.Exec(`INSERT INTO kv VALUES (?, ?, ?, ?)`, k, n, f, b); err != nil {
			return false
		}
		row, err := c.QueryOne(`SELECT n, f, b FROM kv WHERE k = ?`, k)
		if err != nil || row == nil {
			return false
		}
		return row[0] == n && row[1] == f && row[2] == b
	}, &quick.Config{MaxCount: 150})
	if err != nil {
		t.Error(err)
	}
}

// Property: a SELECT returns as many rows as were inserted.
func TestCountMatchesInsertsProperty(t *testing.T) {
	c := Open(relstore.NewDB())
	mustExec(t, c, `CREATE TABLE t (n INT)`)
	total := 0
	err := quick.Check(func(k uint8) bool {
		add := int(k % 7)
		for j := 0; j < add; j++ {
			if _, err := c.Exec(`INSERT INTO t VALUES (?)`, j); err != nil {
				return false
			}
		}
		total += add
		rows, err := c.Query(`SELECT n FROM t`)
		return err == nil && rows.Len() == total
	}, &quick.Config{MaxCount: 60})
	if err != nil {
		t.Error(err)
	}
}

func BenchmarkSelectIndexed(b *testing.B) {
	c := Open(relstore.NewDB())
	c.Exec(`CREATE TABLE deals (id TEXT PRIMARY KEY, industry TEXT)`)
	for i := 0; i < 10000; i++ {
		c.Exec(`INSERT INTO deals VALUES (?, ?)`, fmt.Sprintf("D%d", i), "Ind")
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Query(`SELECT industry FROM deals WHERE id = ?`, fmt.Sprintf("D%d", i%10000))
	}
}

func BenchmarkSelectScan(b *testing.B) {
	c := Open(relstore.NewDB())
	c.Exec(`CREATE TABLE deals (id TEXT PRIMARY KEY, tcv FLOAT)`)
	for i := 0; i < 5000; i++ {
		c.Exec(`INSERT INTO deals VALUES (?, ?)`, fmt.Sprintf("D%d", i), float64(i))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Query(`SELECT id FROM deals WHERE id LIKE '%99%'`)
	}
}

func TestSortedIndexSQL(t *testing.T) {
	refused(t, `CREATE SORTED INDEX deals_by_tcv ON deals (tcv)`)
}

func TestSortedIndexSQLValidation(t *testing.T) {
	refused(t, `CREATE UNIQUE SORTED INDEX x ON deals (tcv)`, `CREATE SORTED TABLE t (a INT)`)
}

func TestRangePlannerEquivalence(t *testing.T) {
	refused(t, `SELECT id FROM deals WHERE tcv >= ? AND tcv < ? ORDER BY id`)
}

func TestRangeNotExtractedThroughOr(t *testing.T) {
	refused(t, `SELECT id FROM deals WHERE tcv > ? OR industry = 'Insurance'`)
}

func TestBetween(t *testing.T) {
	refused(t, `SELECT id FROM deals WHERE tcv BETWEEN ? AND ?`, `SELECT id FROM deals WHERE tcv NOT BETWEEN ? AND ?`)
}
