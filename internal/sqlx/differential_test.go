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
// compiled executor (Conn.Query) and by the map-based interpreter it replaced
// (oldQuery, oracle_test.go) against the same database. Columns, rows, row
// order and error texts must all agree. Generated UPDATEs and DELETEs run in
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
		if r.Intn(3) == 0 {
			for _, c := range t.cols[1:] {
				if c.typ == relstore.TInt || c.typ == relstore.TFloat {
					name, col := t.name+"_sorted", c.name
					w.build = append(w.build, func(db *relstore.DB) error { return db.CreateSortedIndex(name, t.name, col) })
					break
				}
			}
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

// gsrc is one table in a generated statement's scope.
type gsrc struct {
	alias string
	table dtable
}

// stmtGen generates the text and arguments of one statement.
type stmtGen struct {
	r     *rand.Rand
	w     *world
	scope []gsrc
	args  []relstore.Value
}

func (g *stmtGen) pick(xs ...string) string { return xs[g.r.Intn(len(xs))] }

// column renders a reference to a column of the wanted type (any type when
// typ < 0): bare, qualified, or (rarely) naming nothing.
func (g *stmtGen) column(typ int) string {
	type ref struct{ alias, name string }
	var refs []ref
	for _, s := range g.scope {
		for _, c := range s.table.cols {
			if typ < 0 || int(c.typ) == typ {
				refs = append(refs, ref{s.alias, c.name})
			}
		}
	}
	if len(refs) == 0 {
		return g.literal(typ)
	}
	c := refs[g.r.Intn(len(refs))]
	bare := 2
	if len(g.scope) > 1 {
		bare = 8 // most bare names are ambiguous under a join
	}
	switch n := g.r.Intn(100); {
	case n < 2:
		return "nope"
	case n < 4:
		return "zz." + c.name
	case n%bare == 0:
		return c.name
	default:
		return c.alias + "." + c.name
	}
}

func (g *stmtGen) literal(typ int) string {
	if typ < 0 {
		typ = g.r.Intn(4)
	}
	var v relstore.Value
	var text string
	switch relstore.Type(typ) {
	case relstore.TInt:
		n := g.r.Intn(5)
		v, text = int64(n), fmt.Sprint(n)
	case relstore.TFloat:
		f := diffFloats[g.r.Intn(len(diffFloats))]
		v, text = f, fmt.Sprintf("%.1f", f)
	case relstore.TBool:
		b := g.r.Intn(2) == 0
		v, text = b, strings.ToUpper(fmt.Sprint(b))
	default:
		s := diffTexts[g.r.Intn(len(diffTexts))]
		v, text = s, "'"+s+"'"
	}
	switch n := g.r.Intn(20); {
	case n == 0:
		return "NULL"
	case n < 5:
		if iv, ok := v.(int64); ok && n < 3 {
			v = int(iv) // Go-native ints are widened at bind time
		}
		g.args = append(g.args, v)
		return "?"
	}
	return text
}

func (g *stmtGen) num(depth int) string {
	typ := int(relstore.TInt)
	if g.r.Intn(3) == 0 {
		typ = int(relstore.TFloat)
	}
	if depth <= 0 || g.r.Intn(3) == 0 {
		if g.r.Intn(2) == 0 {
			return g.column(typ)
		}
		return g.literal(typ)
	}
	switch g.r.Intn(8) {
	case 0:
		return "-(" + g.num(depth-1) + ")" // "--" would start a comment
	case 1:
		return "LENGTH(" + g.text(depth-1) + ")"
	case 2:
		return "COALESCE(" + g.num(depth-1) + ", " + g.num(depth-1) + ")"
	default:
		return "(" + g.num(depth-1) + " " + g.pick("+", "-", "*", "/", "%") + " " + g.num(depth-1) + ")"
	}
}

func (g *stmtGen) text(depth int) string {
	if depth <= 0 || g.r.Intn(2) == 0 {
		if g.r.Intn(2) == 0 {
			return g.column(int(relstore.TText))
		}
		return g.literal(int(relstore.TText))
	}
	switch g.r.Intn(4) {
	case 0:
		return "(" + g.text(depth-1) + " || " + g.any(depth-1) + ")"
	case 1:
		return g.pick("UPPER", "LOWER") + "(" + g.text(depth-1) + ")"
	case 2:
		return "COALESCE(" + g.text(depth-1) + ", " + g.text(depth-1) + ")"
	default:
		return g.column(int(relstore.TText))
	}
}

func (g *stmtGen) any(depth int) string {
	switch g.r.Intn(4) {
	case 0:
		return g.num(depth)
	case 1:
		return g.text(depth)
	case 2:
		return g.cond(depth)
	default:
		return g.column(-1)
	}
}

func (g *stmtGen) pattern() string {
	p := diffPatterns[g.r.Intn(len(diffPatterns))]
	if g.r.Intn(3) == 0 {
		g.args = append(g.args, p)
		return "?"
	}
	return "'" + p + "'"
}

var diffCmpOps = []string{"=", "<>", "<", "<=", ">", ">=", "!="}

// cond renders a condition, parenthesized so it can sit anywhere.
func (g *stmtGen) cond(depth int) string { return "(" + g.bareCond(depth) + ")" }

func (g *stmtGen) bareCond(depth int) string {
	if depth > 0 && g.r.Intn(2) == 0 {
		switch g.r.Intn(4) {
		case 0:
			return "NOT (" + g.cond(depth-1) + ")"
		case 1:
			return "(" + g.cond(depth-1) + " OR " + g.cond(depth-1) + ")"
		default:
			return "(" + g.cond(depth-1) + " AND " + g.cond(depth-1) + ")"
		}
	}
	switch g.r.Intn(12) {
	case 0, 1, 2:
		return g.num(depth) + " " + g.pick(diffCmpOps...) + " " + g.num(depth)
	case 3:
		return g.text(depth) + " " + g.pick(diffCmpOps...) + " " + g.text(depth)
	case 4, 5:
		return g.text(depth) + g.pick(" LIKE ", " NOT LIKE ") + g.pattern()
	case 6:
		return g.text(depth) + " LIKE " + g.text(depth) // a pattern computed per row
	case 7:
		typ := g.r.Intn(4)
		items := []string{g.literal(typ)}
		for i := g.r.Intn(3); i > 0; i-- {
			items = append(items, g.literal(typ))
		}
		return g.column(typ) + g.pick(" IN (", " NOT IN (") + strings.Join(items, ", ") + ")"
	case 8:
		return g.column(-1) + g.pick(" IS NULL", " IS NOT NULL")
	case 9:
		return g.num(depth) + g.pick(" BETWEEN ", " NOT BETWEEN ") + g.num(0) + " AND " + g.num(0)
	case 10:
		return g.column(int(relstore.TBool))
	default: // operands of any type: most combinations are type errors
		return g.any(depth) + " " + g.pick("=", "<", "+", "LIKE", "AND", "||") + " " + g.any(depth)
	}
}

// where renders a WHERE clause ("" for none): either conjuncts the planner
// can hand to the storage engine, perhaps with a residual, or any condition.
func (g *stmtGen) where() string {
	switch n := g.r.Intn(10); {
	case n < 2:
		return ""
	case n < 6:
		base := g.scope[0]
		var terms []string
		for i := 1 + g.r.Intn(2); i > 0; i-- {
			c := base.table.cols[g.r.Intn(len(base.table.cols))]
			col := c.name
			if g.r.Intn(3) == 0 {
				col = base.alias + "." + col
			}
			op := "="
			if g.r.Intn(2) == 0 {
				op = g.pick("<", "<=", ">", ">=", "<>")
			}
			if lit := g.literal(int(c.typ)); g.r.Intn(5) == 0 {
				terms = append(terms, lit+" "+op+" "+col)
			} else {
				terms = append(terms, col+" "+op+" "+lit)
			}
		}
		if g.r.Intn(3) == 0 {
			terms = append(terms, g.cond(1))
		}
		g.r.Shuffle(len(terms), func(i, j int) { terms[i], terms[j] = terms[j], terms[i] })
		return " WHERE " + strings.Join(terms, " AND ")
	default:
		return " WHERE " + g.cond(1+g.r.Intn(2))
	}
}

func (g *stmtGen) table() dtable { return g.w.tables[g.r.Intn(len(g.w.tables))] }

func (g *stmtGen) selectStmt() string {
	base := g.table()
	g.scope = []gsrc{{base.name, base}}
	from := base.name
	if g.r.Intn(3) == 0 {
		g.scope[0].alias = "x"
		from += g.pick(" x", " AS x")
	}
	for j := 0; j < 2 && g.r.Intn(3) == 0; j++ {
		jt := g.table() // possibly the same table again
		alias := fmt.Sprintf("j%d", j)
		if g.r.Intn(4) == 0 {
			alias = jt.name // unaliased; a self-join then shares its alias
			from += g.pick(" JOIN ", " LEFT JOIN ", " INNER JOIN ") + jt.name
		} else {
			from += g.pick(" JOIN ", " LEFT JOIN ") + jt.name + " " + alias
		}
		g.scope = append(g.scope, gsrc{alias, jt})
		if g.r.Intn(2) == 0 {
			from += " ON " + g.scope[0].alias + ".id = " + alias + ".id"
		} else {
			from += " ON " + g.cond(1)
		}
	}
	where := g.where()

	var items, tail string
	switch n := g.r.Intn(4); {
	case n == 0:
		items = "*"
	case n == 1: // aggregated
		var keys, list []string
		for i := g.r.Intn(3); i > 0; i-- {
			keys = append(keys, g.column(-1))
		}
		list = append(list, keys...)
		for i := 1 + g.r.Intn(2); i > 0; i-- {
			agg := "COUNT(*)"
			switch g.r.Intn(6) {
			case 0:
				agg = "COUNT(" + g.column(-1) + ")"
			case 1:
				agg = "SUM(" + g.num(1) + ")"
			case 2:
				agg = "AVG(" + g.num(0) + ")"
			case 3:
				agg = "MIN(" + g.column(-1) + ")"
			case 4:
				agg = "MAX(" + g.any(1) + ")"
			}
			if g.r.Intn(3) == 0 {
				agg += fmt.Sprintf(" AS g%d", i)
			}
			list = append(list, agg)
		}
		if g.r.Intn(4) == 0 {
			list = append(list, g.any(1)) // read from the group's first row
		}
		items = strings.Join(list, ", ")
		if len(keys) > 0 {
			tail += " GROUP BY " + strings.Join(keys, ", ")
			if g.r.Intn(2) == 0 {
				switch g.r.Intn(3) {
				case 0:
					tail += " HAVING COUNT(*) > 1"
				case 1:
					tail += " HAVING MAX(" + g.num(0) + ") >= " + g.num(0)
				default:
					tail += " HAVING NOT (MIN(" + g.column(-1) + ") IS NULL) AND COUNT(*) < 4"
				}
			}
		}
	default:
		var list []string
		for i := 1 + g.r.Intn(3); i > 0; i-- {
			it := g.any(1)
			if g.r.Intn(3) == 0 {
				it += fmt.Sprintf(g.pick(" AS v%d", " v%d"), i)
			}
			list = append(list, it)
		}
		items = strings.Join(list, ", ")
	}
	if g.r.Intn(5) == 0 {
		items = "DISTINCT " + items
	}
	if g.r.Intn(5) < 3 {
		var keys []string
		for i := 1 + g.r.Intn(2); i > 0; i-- {
			key := g.column(-1)
			switch g.r.Intn(6) {
			case 0:
				key = g.pick("id", "v1", "g1") // an output column, where the select list has it
			case 1:
				key = g.any(1)
			}
			keys = append(keys, key+g.pick("", " ASC", " DESC"))
		}
		tail += " ORDER BY " + strings.Join(keys, ", ")
	}
	if g.r.Intn(4) == 0 {
		tail += fmt.Sprintf(" LIMIT %d", g.r.Intn(6))
		if g.r.Intn(2) == 0 {
			tail += fmt.Sprintf(" OFFSET %d", g.r.Intn(4))
		}
	}
	return "SELECT " + items + " FROM " + from + where + tail
}

func (g *stmtGen) deleteStmt() string {
	t := g.table()
	g.scope = []gsrc{{t.name, t}}
	where := g.where()
	if where == "" || g.r.Intn(2) == 0 { // keep most deletes small, so the tables last
		where = fmt.Sprintf(" WHERE id %% 7 = %d", g.r.Intn(7))
	}
	return "DELETE FROM " + t.name + where
}

func (g *stmtGen) updateStmt() string {
	t := g.table()
	g.scope = []gsrc{{t.name, t}}
	var sets []string
	for _, ci := range g.r.Perm(len(t.cols) - 1)[:1+g.r.Intn(2)] {
		c := t.cols[1+ci] // never id: it keeps rows distinguishable
		var v string
		switch g.r.Intn(6) {
		case 0:
			v = g.any(1) // whatever type
		case 1, 2:
			v = g.literal(int(c.typ)) // constant
		default:
			switch c.typ {
			case relstore.TInt, relstore.TFloat:
				v = g.num(1)
			case relstore.TText:
				v = g.text(1)
			default:
				v = g.cond(1)
			}
		}
		sets = append(sets, c.name+" = "+v)
	}
	return "UPDATE " + t.name + " SET " + strings.Join(sets, ", ") + g.where()
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
			g := &stmtGen{r: r, w: w}
			var text string
			switch n := r.Intn(10); {
			case n < 8:
				text = g.selectStmt()
			case n < 9:
				text = g.deleteStmt()
			default:
				text = g.updateStmt()
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
	t.Logf("%d SELECTs (%d returned rows, %d failed the same way), %d UPDATE/DELETEs in between (%d changed rows)",
		selects, withRows, failed, dml, dmlHit)
	// The comparison is only worth something if the generator reaches both
	// the answers and the errors, and the tables do change underneath.
	if selects < 2000 || withRows < selects/4 || failed < selects/20 || dmlHit < dml/5 {
		t.Fatalf("generator too weak: %d SELECTs, %d with rows, %d failing, %d/%d UPDATE/DELETEs changing rows",
			selects, withRows, failed, dmlHit, dml)
	}
}
