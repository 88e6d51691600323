package synopsis

import (
	"strings"
	"testing"

	"repro/internal/relstore"
	"repro/internal/sqlx"
)

// The statement census: every SQL text EIL issues. It is the specification
// of the grammar package sqlx accepts, and sqlx accepts nothing else: a
// construct none of these texts uses is a parse error (removedConstructs).
//
// The store's own statements are named here. The texts issued outside the
// package are literal copies, so a change there must be copied here:
//   - Meta-query 3 (internal/eval/experiments.go, examples/salesdesk);
//   - the benchmark's copies of Search's statements (benchmark/client.go).
//     Its per-field `SELECT id FROM deals WHERE <col> = ?` texts equal
//     searchIndustry, searchConsultant, searchGeography and searchCountry.
const (
	mq3Text = `SELECT deal_id, name FROM contacts WHERE LOWER(role) LIKE '%cross tower tsa%' ORDER BY deal_id, name`

	benchTowerSub = `SELECT deal_id, tower, significance FROM deal_towers
				WHERE tower = ? AND subtower = ? ORDER BY significance DESC`
	benchSub = `SELECT deal_id, tower, significance FROM deal_towers
				WHERE subtower = ? ORDER BY significance DESC`
	benchTower = `SELECT deal_id, tower, significance FROM deal_towers
				WHERE tower = ? ORDER BY significance DESC`
	benchPerson = `SELECT deal_id, validated FROM contacts WHERE LOWER(name) LIKE ?`
)

type censused struct {
	text string
	args []relstore.Value
}

func args(vs ...relstore.Value) []relstore.Value { return vs }

// censusReads are the SELECTs, with arguments that find the fixture deal.
var censusReads = []censused{
	{getDeal, args("DEAL A")},
	{getTowers, args("DEAL A")},
	{getPeople, args("DEAL A")},
	{getStrategies, args("DEAL A")},
	{getRefs, args("DEAL A")},
	{getSolutions, args("DEAL A")},
	{listDeals, nil},
	{searchTowerSub, args("End User Services", "Customer Service Center")},
	{searchSub, args("Customer Service Center")},
	{searchTower, args("End User Services")},
	{searchIndustry, args("Insurance")},
	{searchConsultant, args("TPI")},
	{searchGeography, args("Americas")},
	{searchCountry, args("United States")},
	{searchPersonName, args("%jo%")},
	{searchPersonOrg, args("%abc%")},
	{searchPersonNameOrg, args("%sam%", "%abc%")},
	{mq3Text, nil},
	{benchTowerSub, args("End User Services", "Customer Service Center")},
	{benchSub, args("Customer Service Center")},
	{benchTower, args("End User Services")},
	{benchPerson, args("%jo%")},
}

// censusWrites are the INSERTs (of a second deal) and the DELETEs (of the
// fixture deal), each of which changes one row or more.
var censusWrites = []censused{
	{insertDeal, args("DEAL Z", "Z", "", "", "", "", "", int64(1), "", false, "")},
	{insertTower, args("DEAL Z", "Network Services", "", 0.5)},
	{insertContact, args("DEAL Z", "Ann Lee", "", "", "", "", "", false)},
	{insertStrategy, args("DEAL Z", "Price")},
	{insertRef, args("DEAL Z", "Ref")},
	{insertSolution, args("DEAL Z", "Network Services", "Text")},
}

func init() {
	for _, c := range clearDeal {
		censusWrites = append(censusWrites, censused{c.stmt, args("DEAL A")})
	}
}

func censusStore(t *testing.T) *Store {
	t.Helper()
	s := newStore(t) // runs every schemaStmts text
	d := sampleDeal("DEAL A")
	d.People[1].Role = "Cross Tower TSA"
	if err := s.Put(d); err != nil {
		t.Fatal(err)
	}
	return s
}

// Every statement in the census parses, plans and runs, and finds or
// changes what it is for.
func TestStatementCensus(t *testing.T) {
	if n := len(schemaStmts) + len(censusReads) + len(censusWrites); n != 13+22+12 {
		t.Fatalf("the census holds %d texts; a new statement needs a row here", n)
	}
	for _, text := range schemaStmts {
		if _, err := sqlx.Parse(text); err != nil {
			t.Errorf("%s: %v", text, err)
		}
	}
	conn := censusStore(t).Conn()
	for _, c := range censusReads {
		rows, err := conn.Query(c.text, c.args...)
		if err != nil || rows.Len() == 0 {
			t.Errorf("%s %v: %v rows, %v", c.text, c.args, rows, err)
		}
	}
	for _, c := range censusWrites {
		if n, err := conn.Exec(c.text, c.args...); err != nil || n == 0 {
			t.Errorf("%s %v: %d rows, %v", c.text, c.args, n, err)
		}
	}
}

// removedConstructs holds one statement per construct sqlx no longer
// implements, each otherwise valid against the context tables.
var removedConstructs = map[string]string{
	"JOIN":             `SELECT id, name FROM deals JOIN contacts ON id = deal_id`,
	"LEFT JOIN":        `SELECT id, name FROM deals LEFT JOIN contacts ON id = deal_id`,
	"GROUP BY":         `SELECT industry FROM deals GROUP BY industry`,
	"HAVING":           `SELECT industry FROM deals GROUP BY industry HAVING COUNT(*) > 1`,
	"COUNT":            `SELECT COUNT(*) FROM deals`,
	"SUM":              `SELECT SUM(term_months) FROM deals`,
	"AVG":              `SELECT AVG(term_months) FROM deals`,
	"MIN":              `SELECT MIN(term_months) FROM deals`,
	"MAX":              `SELECT MAX(term_months) FROM deals`,
	"DISTINCT":         `SELECT DISTINCT industry FROM deals`,
	"*":                `SELECT * FROM deals`,
	"AS alias":         `SELECT id AS deal FROM deals`,
	"bare alias":       `SELECT id FROM deals d`,
	"qualified name":   `SELECT deals.id FROM deals`,
	"LIMIT":            `SELECT id FROM deals ORDER BY id LIMIT 2`,
	"OFFSET":           `SELECT id FROM deals ORDER BY id LIMIT 2 OFFSET 1`,
	"UPDATE":           `UPDATE deals SET customer = ? WHERE id = ?`,
	"DROP TABLE":       `DROP TABLE deals`,
	"UNIQUE INDEX":     `CREATE UNIQUE INDEX deals_by_customer ON deals (customer)`,
	"SORTED INDEX":     `CREATE SORTED INDEX deals_by_months ON deals (term_months)`,
	"BETWEEN":          `SELECT id FROM deals WHERE term_months BETWEEN ? AND ?`,
	"IN":               `SELECT id FROM deals WHERE industry IN (?, ?)`,
	"IS NULL":          `SELECT id FROM deals WHERE industry IS NULL`,
	"OR":               `SELECT id FROM deals WHERE industry = ? OR country = ?`,
	"NOT":              `SELECT id FROM deals WHERE NOT international = ?`,
	"<>":               `SELECT id FROM deals WHERE industry <> ?`,
	"<":                `SELECT id FROM deals WHERE term_months < ?`,
	"<=":               `SELECT id FROM deals WHERE term_months <= ?`,
	">":                `SELECT id FROM deals WHERE term_months > ?`,
	">=":               `SELECT id FROM deals WHERE term_months >= ?`,
	"arithmetic":       `SELECT id FROM deals WHERE term_months = ? + 12`,
	"||":               `SELECT id FROM deals WHERE id = ? || ?`,
	"UPPER":            `SELECT id FROM deals WHERE UPPER(customer) = ?`,
	"LENGTH":           `SELECT id FROM deals WHERE LENGTH(customer) = ?`,
	"COALESCE":         `SELECT id FROM deals WHERE COALESCE(industry, customer) = ?`,
	"numeric literal":  `SELECT id FROM deals WHERE term_months = 60`,
	"boolean literal":  `SELECT id FROM deals WHERE international = TRUE`,
	"INSERT columns":   `INSERT INTO win_strategies (deal_id, strategy) VALUES (?, ?)`,
	"multi-row INSERT": `INSERT INTO win_strategies VALUES (?, ?), (?, ?)`,
	"DELETE all":       `DELETE FROM win_strategies`,
}

// Every removed construct fails to parse: Query and Exec return the parse
// error, with no rows and nothing changed.
func TestRemovedConstructsFailToParse(t *testing.T) {
	s := censusStore(t)
	conn := s.Conn()
	vals := args("DEAL A", "Insurance", "x", "y")
	for name, text := range removedConstructs {
		_, err := sqlx.Parse(text)
		if err == nil || !strings.HasPrefix(err.Error(), "sqlx: parse error") {
			t.Errorf("%s: Parse(%q) = %v, want a parse error", name, text, err)
			continue
		}
		if rows, qerr := conn.Query(text, vals...); rows != nil || qerr == nil || qerr.Error() != err.Error() {
			t.Errorf("%s: Query = %v, %v; want the parse error", name, rows, qerr)
		}
		if n, xerr := conn.Exec(text, vals...); n != 0 || xerr == nil || xerr.Error() != err.Error() {
			t.Errorf("%s: Exec = %d, %v; want the parse error", name, n, xerr)
		}
	}
	if d, err := s.getUncached("DEAL A"); err != nil || d.Overview.Customer != "Cygnus Insurance" || len(d.WinStrategies) != 2 {
		t.Fatalf("the fixture deal after refused statements: %+v, %v", d, err)
	}
}
