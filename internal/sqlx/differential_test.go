package sqlx

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/relstore"
)

// The differential test: seeded random worlds (schema, indexes, data with a
// mutation history) and seeded random SELECTs over them, each executed by the
// compiled executor (Conn.Query) and by the map-based interpreter
// (oldQuery, oracle_test.go) against the same database. Columns, rows, row
// order and error texts must all agree. Generated INSERTs and DELETEs run in
// between, so later SELECTs see tables, index buckets and slots with a
// history.

type dcol struct {
	name string
	typ  relstore.Type
}

type dtable struct {
	name string
	cols []dcol
}

// world is a generated schema and the operations that build its database.
type world struct {
	tables []dtable
	build  []func(db *relstore.DB) error
}

var (
	diffColNames = []string{"a", "b", "c", "s", "u", "f", "k"}
	diffTexts    = []string{"Ann", "ann", "Bob", "bOB lee", "carol", "", "a_b", "x", "Ünï"}
	diffFloats   = []float64{0, 0.5, 1.5, 2, 3}
	diffPatterns = []string{"%an%", "a%", "%b", "_nn", "%", "%%", "A_N", "%o%b%", "", "%B LE%", "ann", "%_b%", "%ü%", "c_r%l"}
)

func randValue(r *rand.Rand, typ relstore.Type) relstore.Value {
	if r.Intn(7) == 0 {
		return nil
	}
	switch typ {
	case relstore.TInt:
		return int64(r.Intn(5))
	case relstore.TFloat:
		return diffFloats[r.Intn(len(diffFloats))]
	case relstore.TBool:
		return r.Intn(2) == 0
	default:
		return diffTexts[r.Intn(len(diffTexts))]
	}
}

func newWorld(r *rand.Rand) *world {
	w := &world{}
	for ti := 0; ti < 2+r.Intn(2); ti++ {
		nextID := int64(0) // per table, so ids join and small literals hit them
		t := dtable{name: fmt.Sprintf("t%d", ti), cols: []dcol{{"id", relstore.TInt}}}
		for _, ci := range r.Perm(len(diffColNames))[:2+r.Intn(3)] {
			t.cols = append(t.cols, dcol{diffColNames[ci], relstore.Type(r.Intn(4))})
		}
		schema := relstore.Schema{Table: t.name}
		for _, c := range t.cols {
			schema.Columns = append(schema.Columns, relstore.Column{Name: c.name, Type: c.typ})
		}
		if r.Intn(2) == 0 {
			schema.PrimaryKey = []string{"id"}
		}
		w.tables = append(w.tables, t)
		w.build = append(w.build, func(db *relstore.DB) error { return db.CreateTable(schema) })

		index := func() {
			cols := []string{t.cols[1+r.Intn(len(t.cols)-1)].name}
			if other := t.cols[1+r.Intn(len(t.cols)-1)].name; r.Intn(3) == 0 && other != cols[0] {
				cols = append(cols, other)
			}
			name := fmt.Sprintf("%s_ix%d", t.name, len(w.build))
			w.build = append(w.build, func(db *relstore.DB) error { return db.CreateIndex(name, t.name, cols, false) })
		}
		insert := func() {
			row := relstore.Row{nextID}
			nextID++
			for _, c := range t.cols[1:] {
				row = append(row, randValue(r, c.typ))
			}
			w.build = append(w.build, func(db *relstore.DB) error { return db.Insert(t.name, row) })
		}
		// Indexes before, between and after the rows; deletes in between give
		// the buckets and the slots a history (and trigger compactions).
		for i := r.Intn(3); i > 0; i-- {
			index()
		}
		rows := r.Intn(31)
		for i := 0; i < rows; i++ {
			insert()
		}
		if r.Intn(2) == 0 {
			col, v := 1+r.Intn(len(t.cols)-1), int64(r.Intn(3))
			w.build = append(w.build, func(db *relstore.DB) error {
				_, err := db.Delete(t.name, func(row relstore.Row) bool {
					return row[0].(int64)%3 == v || row[col] == nil
				})
				return err
			})
			for i := r.Intn(8); i > 0; i-- {
				insert()
			}
		}
		if r.Intn(2) == 0 {
			index()
		}
	}
	return w
}

func (w *world) open(t *testing.T) *relstore.DB {
	t.Helper()
	db := relstore.NewDB()
	for _, op := range w.build {
		if err := op(db); err != nil {
			t.Fatalf("building world: %v", err)
		}
	}
	return db
}

// stmtGen generates the text and arguments of one statement.
type stmtGen struct {
	r    *rand.Rand
	w    *world
	t    dtable
	args []relstore.Value
}

func (g *stmtGen) pick(xs ...string) string { return xs[g.r.Intn(len(xs))] }

// column names a column of the table, or (rarely) nothing.
func (g *stmtGen) column() dcol {
	if g.r.Intn(100) == 0 {
		return dcol{"nope", relstore.TText}
	}
	return g.t.cols[g.r.Intn(len(g.t.cols))]
}

// textColumn names a text column of the table, if it has one.
func (g *stmtGen) textColumn() (dcol, bool) {
	for _, i := range g.r.Perm(len(g.t.cols)) {
		if c := g.t.cols[i]; c.typ == relstore.TText {
			return c, true
		}
	}
	return dcol{}, false
}

// value renders an operand for a column of type typ: mostly a parameter
// bound to a value of that type, and sometimes a text literal, a value of
// another type, or NULL.
func (g *stmtGen) value(typ relstore.Type) string {
	if g.r.Intn(20) == 0 || typ == relstore.TText && g.r.Intn(4) == 0 {
		return "'" + diffTexts[g.r.Intn(len(diffTexts))] + "'"
	}
	if g.r.Intn(20) == 0 {
		typ = relstore.Type(g.r.Intn(4))
	}
	v := randValue(g.r, typ)
	if iv, ok := v.(int64); ok && g.r.Intn(2) == 0 {
		v = int(iv) // Go-native ints are widened at bind time
	}
	g.args = append(g.args, v)
	return "?"
}

func (g *stmtGen) pattern() string {
	p := diffPatterns[g.r.Intn(len(diffPatterns))]
	if g.r.Intn(3) == 0 {
		g.args = append(g.args, p)
		return "?"
	}
	return "'" + p + "'"
}

// where renders 1–3 terms: mostly `col = value` the engine can pin, and
// LIKE, either on the column or on LOWER(col).
func (g *stmtGen) where() string {
	var terms []string
	for i := 1 + g.r.Intn(3); i > 0; i-- {
		// LIKE and LOWER mostly read text; the rest are type errors.
		like, lower := g.r.Intn(3) == 0, g.r.Intn(4) == 0
		c := g.column()
		if tc, ok := g.textColumn(); ok && (like || lower || g.r.Intn(5) == 0) && g.r.Intn(10) != 0 {
			c = tc
		} else if !ok && g.r.Intn(10) != 0 {
			like, lower = false, false
		}
		col := c.name
		if lower {
			col = "LOWER(" + col + ")"
		}
		if like {
			terms = append(terms, col+" LIKE "+g.pattern())
		} else {
			terms = append(terms, col+" = "+g.value(c.typ))
		}
	}
	return " WHERE " + strings.Join(terms, " AND ")
}

func (g *stmtGen) selectStmt() string {
	var cols []string
	for i := 1 + g.r.Intn(3); i > 0; i-- {
		cols = append(cols, g.column().name)
	}
	text := "SELECT " + strings.Join(cols, ", ") + " FROM " + g.t.name
	if g.r.Intn(5) != 0 {
		text += g.where()
	}
	if g.r.Intn(5) < 3 {
		var keys []string
		for i := 1 + g.r.Intn(2); i > 0; i-- {
			keys = append(keys, g.column().name+g.pick("", " ASC", " DESC"))
		}
		text += " ORDER BY " + strings.Join(keys, ", ")
	}
	return text
}

// deleteStmt keeps most deletes small, so the tables last: it pins a row id
// half the time.
func (g *stmtGen) deleteStmt() string {
	if g.r.Intn(2) == 0 {
		g.args = append(g.args, int64(g.r.Intn(40)))
		return "DELETE FROM " + g.t.name + " WHERE id = ?"
	}
	return "DELETE FROM " + g.t.name + g.where()
}

func (g *stmtGen) insertStmt() string {
	marks := make([]string, len(g.t.cols))
	for i, c := range g.t.cols {
		marks[i] = "?"
		if i == 0 {
			g.args = append(g.args, int64(g.r.Intn(40)))
		} else {
			g.args = append(g.args, randValue(g.r, c.typ))
		}
	}
	return "INSERT INTO " + g.t.name + " VALUES (" + strings.Join(marks, ", ") + ")"
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func TestCompiledAgreesWithInterpreter(t *testing.T) {
	const worlds, perWorld = 80, 40
	var selects, withRows, failed, dml, dmlHit int
	for seed := int64(1); seed <= worlds; seed++ {
		r := rand.New(rand.NewSource(seed))
		w := newWorld(r)
		conn := Open(w.open(t))
		for i := 0; i < perWorld; i++ {
			g := &stmtGen{r: r, w: w, t: w.tables[r.Intn(len(w.tables))]}
			var text string
			switch n := r.Intn(10); {
			case n < 8:
				text = g.selectStmt()
			case n < 9:
				text = g.deleteStmt()
			default:
				text = g.insertStmt()
			}
			args := g.args
			if len(args) > 0 && r.Intn(25) == 0 {
				args = args[:r.Intn(len(args))] // parameters without arguments
			}
			if _, err := Parse(text); err != nil {
				t.Fatalf("seed %d: generated unparsable %q: %v", seed, text, err)
			}
			if !strings.HasPrefix(text, "SELECT") {
				n, _ := conn.Exec(text, args...)
				dml++
				if n > 0 {
					dmlHit++
				}
				continue
			}
			want, wantErr := conn.oldQuery(text, args...)
			// Twice: the second execution runs the cached plan.
			for pass := 0; pass < 2; pass++ {
				got, gotErr := conn.Query(text, args...)
				where := fmt.Sprintf("seed %d #%d pass %d: %s %v", seed, i, pass, text, args)
				if errText(gotErr) != errText(wantErr) {
					t.Fatalf("%s\n compiled error: %v\n interpreter error: %v", where, gotErr, wantErr)
				}
				if gotErr == nil && !reflect.DeepEqual(got, want) {
					t.Fatalf("%s\n compiled:    %v %v\n interpreter: %v %v", where, got.Columns, got.Data, want.Columns, want.Data)
				}
			}
			selects++
			if wantErr != nil {
				failed++
			} else if want.Len() > 0 {
				withRows++
			}
		}
	}
	t.Logf("%d SELECTs (%d returned rows, %d failed the same way), %d INSERT/DELETEs in between (%d changed rows)",
		selects, withRows, failed, dml, dmlHit)
	// The comparison is only worth something if the generator reaches both
	// the answers and the errors, and the tables do change underneath.
	if selects < 2000 || withRows < selects/4 || failed < selects/20 || dmlHit < dml/5 {
		t.Fatalf("generator too weak: %d SELECTs, %d with rows, %d failing, %d/%d INSERT/DELETEs changing rows",
			selects, withRows, failed, dmlHit, dml)
	}
}
