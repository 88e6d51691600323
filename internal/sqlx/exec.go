package sqlx

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/lru"
	"repro/internal/relstore"
)

// Conn executes SQL text against a relstore database. It is safe for
// concurrent use. A SELECT is parsed and planned once per SQL text and schema
// version (plan.go) and then only bound to its arguments; every other
// statement is parsed and run on each call, a DELETE on the interpreter
// (eval.go).
type Conn struct {
	db *relstore.DB
	// plans caches SELECT plans by SQL text under the database's schema
	// version: any CREATE TABLE or CREATE INDEX empties it.
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
// affected rows (rows inserted or deleted; 0 for DDL).
func (c *Conn) Exec(sqlText string, args ...relstore.Value) (int, error) {
	stmt, err := Parse(sqlText)
	if err != nil {
		return 0, err
	}
	switch s := stmt.(type) {
	case *CreateTableStmt:
		return 0, c.db.CreateTable(s.Schema)
	case *CreateIndexStmt:
		return 0, c.db.CreateIndex(s.Name, s.Table, s.Columns, false)
	case *InsertStmt:
		row, err := bindArgs(s.Values, args)
		if err != nil {
			return 0, err
		}
		if err := c.db.Insert(s.Table, row); err != nil {
			return 0, err
		}
		return 1, nil
	case *DeleteStmt:
		return c.execDelete(s, args)
	default:
		return 0, fmt.Errorf("sqlx: use Query for SELECT")
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

// execDelete runs a DELETE on the interpreter. A row whose WHERE fails to
// evaluate (a type error) is kept.
func (c *Conn) execDelete(s *DeleteStmt, args []relstore.Value) (int, error) {
	schema, err := c.db.Schema(s.Table)
	if err != nil {
		return 0, err
	}
	if _, err := resolve(schema, whereColumns(s.Where)...); err != nil {
		return 0, err
	}
	vals, err := bindWhere(s.Where, args)
	if err != nil {
		return 0, err
	}
	return c.db.Delete(s.Table, func(r relstore.Row) bool {
		e := newEnv()
		e.bind(schema.Table, schema, r)
		ok, err := e.holds(s.Where, vals)
		return ok && err == nil
	})
}
