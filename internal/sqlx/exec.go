package sqlx

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/lru"
	"repro/internal/relstore"
)

// Conn executes SQL text against a relstore database. It is safe for
// concurrent use. A SELECT is parsed and planned once per SQL text and schema
// version (plan.go) and then only bound to its arguments; every other
// statement is parsed and interpreted on each call (eval.go).
type Conn struct {
	db *relstore.DB
	// plans caches SELECT plans by SQL text under the database's schema
	// version: any table or index DDL empties it.
	plans *lru.Versioned[string, *selectPlan]
}

// planCacheSize bounds the plan cache. A caller issues a fixed, small set of
// statement texts (synopsis: under twenty SELECTs); texts built per call would
// only churn it.
const planCacheSize = 64

// maxReplans is how often one Query plans again after losing a race with DDL.
// An attempt loses only when DDL lands between planning and the engine taking
// its lock, so a few in a row happen under a DDL-heavy writer (the concurrency
// test loses four in a row); this many means DDL never pauses.
const maxReplans = 64

// Open wraps a relstore database with the SQL interface.
func Open(db *relstore.DB) *Conn {
	return &Conn{db: db, plans: lru.NewVersioned[string, *selectPlan](planCacheSize)}
}

// DB returns the underlying engine, for callers that mix SQL with direct
// engine access (the EIL synopsis store does).
func (c *Conn) DB() *relstore.DB { return c.db }

// Rows is a fully materialized result set.
type Rows struct {
	Columns []string
	Data    [][]relstore.Value
}

// Len returns the number of result rows.
func (r *Rows) Len() int { return len(r.Data) }

// Col returns the index of the named output column, or -1.
func (r *Rows) Col(name string) int {
	for i, c := range r.Columns {
		if strings.EqualFold(c, name) {
			return i
		}
	}
	return -1
}

// Exec runs a statement that does not return rows and reports the number of
// affected rows (rows inserted, updated, or deleted; 0 for DDL).
func (c *Conn) Exec(sqlText string, args ...relstore.Value) (int, error) {
	stmt, err := Parse(sqlText)
	if err != nil {
		return 0, err
	}
	switch s := stmt.(type) {
	case *CreateTableStmt:
		return 0, c.db.CreateTable(s.Schema)
	case *CreateIndexStmt:
		if s.Sorted {
			if len(s.Columns) != 1 {
				return 0, fmt.Errorf("sqlx: SORTED INDEX takes exactly one column")
			}
			return 0, c.db.CreateSortedIndex(s.Name, s.Table, s.Columns[0])
		}
		return 0, c.db.CreateIndex(s.Name, s.Table, s.Columns, s.Unique)
	case *DropTableStmt:
		return 0, c.db.DropTable(s.Table)
	case *InsertStmt:
		return c.execInsert(s, args)
	case *UpdateStmt:
		return c.execUpdate(s, args)
	case *DeleteStmt:
		return c.execDelete(s, args)
	case *SelectStmt:
		return 0, fmt.Errorf("sqlx: use Query for SELECT")
	default:
		return 0, fmt.Errorf("sqlx: unsupported statement %T", stmt)
	}
}

// Query runs a SELECT and returns the result set.
func (c *Conn) Query(sqlText string, args ...relstore.Value) (*Rows, error) {
	// A plan that lost a race with DDL reads nothing: the engine checks the
	// version under its lock. Plan again, a bounded number of times so that
	// DDL that never pauses surfaces as ErrSchemaChanged and not as a hang.
	var rows *Rows
	var err error
	for attempt := 0; attempt < maxReplans; attempt++ {
		var p *selectPlan
		if p, err = c.prepare(sqlText); err != nil {
			return nil, err
		}
		if rows, err = p.run(c.db, args); !errors.Is(err, relstore.ErrSchemaChanged) {
			break
		}
	}
	return rows, err
}

// prepare returns the plan for a SELECT at the current schema version,
// parsing and planning it on a cache miss.
func (c *Conn) prepare(sqlText string) (*selectPlan, error) {
	version := c.db.SchemaVersion()
	if p, ok := c.plans.Get(sqlText, version); ok {
		return p, nil
	}
	stmt, err := Parse(sqlText)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("sqlx: Query requires SELECT, got %T", stmt)
	}
	p, err := planSelect(c.db, sel, version)
	if err != nil {
		return nil, err
	}
	c.plans.Put(sqlText, version, p)
	return p, nil
}

// QueryOne runs a SELECT expected to produce at most one row; it returns
// (nil, nil) when there is no row.
func (c *Conn) QueryOne(sqlText string, args ...relstore.Value) ([]relstore.Value, error) {
	rows, err := c.Query(sqlText, args...)
	if err != nil {
		return nil, err
	}
	if rows.Len() == 0 {
		return nil, nil
	}
	if rows.Len() > 1 {
		return nil, fmt.Errorf("sqlx: QueryOne matched %d rows", rows.Len())
	}
	return rows.Data[0], nil
}

func (c *Conn) execInsert(s *InsertStmt, args []relstore.Value) (int, error) {
	schema, err := c.db.Schema(s.Table)
	if err != nil {
		return 0, err
	}
	colIdx := make([]int, 0, len(s.Columns))
	if s.Columns == nil {
		for i := range schema.Columns {
			colIdx = append(colIdx, i)
		}
	} else {
		for _, name := range s.Columns {
			ci := schema.ColumnIndex(name)
			if ci < 0 {
				return 0, fmt.Errorf("%w: %s.%s", ErrUnknownColumn, s.Table, name)
			}
			colIdx = append(colIdx, ci)
		}
	}
	e := newEnv(args)
	n := 0
	for _, exprRow := range s.Rows {
		if len(exprRow) != len(colIdx) {
			return n, fmt.Errorf("sqlx: INSERT expects %d values, got %d", len(colIdx), len(exprRow))
		}
		row := make(relstore.Row, len(schema.Columns))
		for i, x := range exprRow {
			v, err := evalExpr(x, e)
			if err != nil {
				return n, err
			}
			row[colIdx[i]] = v
		}
		if err := c.db.Insert(s.Table, row); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// rowPred compiles a WHERE expression into a relstore predicate over a
// single table.
func (c *Conn) rowPred(table string, where Expr, args []relstore.Value) (relstore.Pred, error) {
	if where == nil {
		return nil, nil
	}
	schema, err := c.db.Schema(table)
	if err != nil {
		return nil, err
	}
	// Probe the expression once against a NULL row to surface static errors
	// (unknown columns, bad params) before mutating anything; the arithmetic
	// errors a real row could still raise exclude that row.
	probe := newEnv(args)
	probe.bind(schema.Table, schema, nil)
	if _, err := truthy(where, probe); err != nil {
		return nil, err
	}
	pred := func(r relstore.Row) bool {
		e := newEnv(args)
		e.bind(schema.Table, schema, r)
		ok, err := truthy(where, e)
		return err == nil && ok
	}
	return pred, nil
}

func (c *Conn) execUpdate(s *UpdateStmt, args []relstore.Value) (int, error) {
	pred, err := c.rowPred(s.Table, s.Where, args)
	if err != nil {
		return 0, err
	}
	schema, err := c.db.Schema(s.Table)
	if err != nil {
		return 0, err
	}
	// SET expressions may reference the old row, so Update runs per row via
	// scan+delete+insert when expressions are row-dependent; for the common
	// constant case we use the engine's bulk Update.
	constant := true
	for _, set := range s.Set {
		if !isConstExpr(set.Value) {
			constant = false
			break
		}
	}
	if constant {
		setVals := make(map[string]relstore.Value, len(s.Set))
		e := newEnv(args)
		for _, set := range s.Set {
			v, err := evalExpr(set.Value, e)
			if err != nil {
				return 0, err
			}
			setVals[set.Column] = v
		}
		return c.db.Update(s.Table, pred, setVals)
	}
	// Row-dependent SET: collect matching rows first, then apply one by one
	// keyed on full row identity.
	var matches []relstore.Row
	if err := c.db.Scan(s.Table, pred, func(r relstore.Row) bool {
		matches = append(matches, r)
		return true
	}); err != nil {
		return 0, err
	}
	n := 0
	for _, old := range matches {
		e := newEnv(args)
		e.bind(schema.Table, schema, old)
		setVals := make(map[string]relstore.Value, len(s.Set))
		for _, set := range s.Set {
			v, err := evalExpr(set.Value, e)
			if err != nil {
				return n, err
			}
			setVals[set.Column] = v
		}
		oldCopy := old
		updated, err := c.db.Update(s.Table, func(r relstore.Row) bool { return sameRow(r, oldCopy) }, setVals)
		if err != nil {
			return n, err
		}
		n += updated
	}
	return n, nil
}

func sameRow(a, b relstore.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] == nil && b[i] == nil {
			continue
		}
		if !relstore.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func isConstExpr(x Expr) bool {
	switch t := x.(type) {
	case *Literal, *Param:
		return true
	case *Unary:
		return isConstExpr(t.Expr)
	case *Binary:
		return isConstExpr(t.Left) && isConstExpr(t.Right)
	case *FuncCall:
		if aggregateFuncs[t.Name] {
			return false
		}
		for _, a := range t.Args {
			if !isConstExpr(a) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

func (c *Conn) execDelete(s *DeleteStmt, args []relstore.Value) (int, error) {
	pred, err := c.rowPred(s.Table, s.Where, args)
	if err != nil {
		return 0, err
	}
	return c.db.Delete(s.Table, pred)
}

// run executes the SELECT. Rows in flight are tuples of one stored row per
// source, kept flat in one slice (stride = number of sources), so a
// single-table query handles the engine's row slice as it is.
func (p *selectPlan) run(db *relstore.DB, args []relstore.Value) (*Rows, error) {
	fr := p.newFrame(args)
	stride := len(p.srcs)

	// Base table: the WHERE of a single-table query runs inside the engine's
	// scan, on the stored rows, so only the rows it keeps are copied out.
	var pred func(relstore.Row) (bool, error)
	if stride == 1 && p.where != nil {
		fr.rows = fr.one[:]
		pred = func(r relstore.Row) (bool, error) {
			fr.rows[0] = r
			return holds(p.where, fr)
		}
	}
	tuples, err := db.Select(p.base.table, p.base.bind(args, p.version, pred))
	if err != nil {
		return nil, err
	}

	// Joins: nested loops over a full scan of each joined table.
	for k, j := range p.joins {
		joined, err := db.Select(j.table, relstore.Sel{Version: p.version})
		if err != nil {
			return nil, err
		}
		width := k + 1
		fr.rows = make([]relstore.Row, width+1)
		var next []relstore.Row
		for i := 0; i < len(tuples); i += width {
			copy(fr.rows, tuples[i:i+width])
			matched := false
			for _, jr := range joined {
				fr.rows[width] = jr
				ok, err := holds(j.on, fr)
				if err != nil {
					return nil, err
				}
				if ok {
					matched = true
					next = append(next, fr.rows...)
				}
			}
			if !matched && j.left {
				fr.rows[width] = nil
				next = append(next, fr.rows...)
			}
		}
		tuples = next
	}
	if stride > 1 && p.where != nil {
		kept := tuples[:0]
		for i := 0; i < len(tuples); i += stride {
			fr.rows = tuples[i : i+stride]
			ok, err := holds(p.where, fr)
			if err != nil {
				return nil, err
			}
			if ok {
				kept = append(kept, fr.rows...)
			}
		}
		tuples = kept
	}

	var out [][]relstore.Value
	if p.aggregated {
		out, err = p.projectGroups(fr, tuples)
	} else {
		out, err = p.projectRows(fr, tuples)
	}
	if err != nil {
		return nil, err
	}
	if p.distinct {
		out = dedupRows(out)
	}
	if len(p.order) > 0 {
		if err := p.orderRows(fr, out, tuples); err != nil {
			return nil, err
		}
	}
	if p.offset > 0 {
		if p.offset >= len(out) {
			out = nil
		} else {
			out = out[p.offset:]
		}
	}
	if p.limit >= 0 && len(out) > p.limit {
		out = out[:p.limit]
	}
	// The names are copied: the plan is shared, the result is the caller's.
	return &Rows{Columns: slices.Clone(p.names), Data: out}, nil
}

func (p *selectPlan) projectRows(fr *frame, tuples []relstore.Row) ([][]relstore.Value, error) {
	stride, width := len(p.srcs), len(p.items)
	n := len(tuples) / stride
	out := make([][]relstore.Value, 0, n)
	cells := make([]relstore.Value, n*width) // one allocation backs every output row
	for i := 0; i < len(tuples); i += stride {
		fr.rows = tuples[i : i+stride]
		row := cells[:width:width]
		cells = cells[width:]
		for k, it := range p.items {
			v, err := it(fr)
			if err != nil {
				return nil, err
			}
			row[k] = v
		}
		out = append(out, row)
	}
	return out, nil
}

// group is the tuples sharing one GROUP BY key, as offsets into the flat
// tuple slice.
type group struct {
	fr      *frame
	tuples  []relstore.Row
	stride  int
	members []int
}

// row points the frame at the group's i-th tuple.
func (g *group) row(i int) *frame {
	at := g.members[i]
	g.fr.rows = g.tuples[at : at+g.stride]
	return g.fr
}

func (p *selectPlan) projectGroups(fr *frame, tuples []relstore.Row) ([][]relstore.Value, error) {
	stride := len(p.srcs)
	var order []string
	groups := map[string][]int{}
	for i := 0; i < len(tuples); i += stride {
		fr.rows = tuples[i : i+stride]
		var kb strings.Builder
		for _, gx := range p.groupBy {
			v, err := gx(fr)
			if err != nil {
				return nil, err
			}
			kb.WriteString(relstore.FormatValue(v))
			kb.WriteByte('\x1f')
		}
		k := kb.String()
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], i)
	}
	// A global aggregate (no GROUP BY) over zero rows still yields one row.
	if len(p.groupBy) == 0 && len(order) == 0 {
		order = append(order, "")
	}
	var out [][]relstore.Value
	for _, k := range order {
		g := &group{fr: fr, tuples: tuples, stride: stride, members: groups[k]}
		if p.having != nil {
			v, err := p.having(g)
			if err != nil {
				return nil, err
			}
			if b, ok := v.(bool); !ok || !b {
				continue
			}
		}
		row := make([]relstore.Value, len(p.groupItems))
		for i, it := range p.groupItems {
			v, err := it(g)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		out = append(out, row)
	}
	return out, nil
}

func dedupRows(rows [][]relstore.Value) [][]relstore.Value {
	seen := map[string]bool{}
	out := rows[:0]
	for _, r := range rows {
		var kb strings.Builder
		for _, v := range r {
			kb.WriteString(relstore.FormatValue(v))
			kb.WriteByte('\x1f')
		}
		k := kb.String()
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, r)
	}
	return out
}

// orderRows sorts the projected rows in place. A key is an output column,
// or (non-aggregated, non-DISTINCT queries only, whose tuples are still
// parallel to the output rows) an expression over the row's tuple.
func (p *selectPlan) orderRows(fr *frame, out [][]relstore.Value, tuples []relstore.Row) error {
	stride, nk := len(p.srcs), len(p.order)
	keys := make([]relstore.Value, len(out)*nk)
	for i := range out {
		for k, ob := range p.order {
			switch {
			case ob.outCol >= 0:
				keys[i*nk+k] = out[i][ob.outCol]
			case ob.expr == nil:
				return fmt.Errorf("sqlx: ORDER BY here must reference output columns")
			default:
				fr.rows = tuples[i*stride : (i+1)*stride]
				v, err := ob.expr(fr)
				if err != nil {
					return err
				}
				keys[i*nk+k] = v
			}
		}
	}
	perm := make([]int, len(out))
	for i := range perm {
		perm[i] = i
	}
	var sortErr error
	sort.SliceStable(perm, func(a, b int) bool {
		ka, kb := keys[perm[a]*nk:], keys[perm[b]*nk:]
		for k, ob := range p.order {
			c, err := relstore.Compare(ka[k], kb[k])
			if err != nil {
				if sortErr == nil {
					sortErr = err
				}
				return false
			}
			if c == 0 {
				continue
			}
			if ob.desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	if sortErr != nil {
		return sortErr
	}
	sorted := make([][]relstore.Value, len(out))
	for i, from := range perm {
		sorted[i] = out[from]
	}
	copy(out, sorted)
	return nil
}
