package sqlx

import (
	"reflect"
	"testing"
)

// FuzzParse feeds arbitrary statement text through the SQL front end. The
// parser must never panic, and an accepted statement must parse to the same
// AST every time (the planner memoizes on statement text, so nondeterminism
// here would poison plans).
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"SELECT id FROM deals",
		"SELECT id FROM deals WHERE industry = 'Insurance'",
		"SELECT id FROM deals WHERE industry = ? AND months = ?;",
		"SELECT deal_id FROM contacts WHERE LOWER(role) LIKE '%tsa%' ORDER BY deal_id, name DESC",
		"CREATE TABLE deals (id TEXT PRIMARY KEY, tcv FLOAT NOT NULL, PRIMARY KEY (tcv))",
		"CREATE INDEX x ON deals (tcv, months)",
		"INSERT INTO deals VALUES ('DEAL Q', 'O''Neil & Co', ?)",
		"DELETE FROM people WHERE role = 'CSE' -- and nothing else",
		"SELECT * FROM deals d JOIN people p ON d.id = p.deal_id", // outside the grammar
		"SELECT FROM",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := Parse(src)
		if err != nil {
			return
		}
		if stmt == nil {
			t.Fatalf("nil statement without error for %q", src)
		}
		again, err := Parse(src)
		if err != nil {
			t.Fatalf("accepted then rejected %q: %v", src, err)
		}
		if !reflect.DeepEqual(stmt, again) {
			t.Fatalf("nondeterministic parse of %q:\n%#v\n%#v", src, stmt, again)
		}
	})
}
