package sqlx

// The SELECT executor without plans: every row the engine returns is bound
// by name into an env and the WHERE is interpreted against it, as DELETE
// runs. It is the reference the differential test compares the compiled
// executor against.

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/relstore"
)

// oldQuery is Conn.Query on the interpreter.
func (c *Conn) oldQuery(sqlText string, args ...relstore.Value) (*Rows, error) {
	stmt, err := Parse(sqlText)
	if err != nil {
		return nil, err
	}
	s, ok := stmt.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("sqlx: Query requires SELECT, got %T", stmt)
	}
	schema, err := c.db.Schema(s.Table)
	if err != nil {
		return nil, err
	}
	var orderCols []string
	for _, o := range s.OrderBy {
		orderCols = append(orderCols, o.Column)
	}
	for _, names := range [][]string{s.Columns, whereColumns(s.Where), orderCols} {
		if _, err := resolve(schema, names...); err != nil {
			return nil, err
		}
	}
	vals, err := bindWhere(s.Where, args)
	if err != nil {
		return nil, err
	}
	// The engine serves the first `col = value` term on each column.
	var sel relstore.Sel
	for i, t := range s.Where {
		if ci := schema.ColumnIndex(t.Column); !t.Like && !t.Lower && !slices.Contains(sel.EqCols, ci) {
			sel.EqCols = append(sel.EqCols, ci)
			sel.EqVals = append(sel.EqVals, vals[i])
		}
	}
	rows, err := c.db.Select(s.Table, sel)
	if err != nil {
		return nil, err
	}
	var envs []*env
	for _, r := range rows {
		e := newEnv()
		e.bind(schema.Table, schema, r)
		ok, err := e.holds(s.Where, vals)
		if err != nil {
			return nil, err
		}
		if ok {
			envs = append(envs, e)
		}
	}
	sort.SliceStable(envs, func(a, b int) bool {
		for _, o := range s.OrderBy {
			col := strings.ToLower(o.Column)
			c, _ := relstore.Compare(envs[a].vals[col], envs[b].vals[col])
			if c != 0 {
				return (c < 0) != o.Desc
			}
		}
		return false
	})
	out := &Rows{Data: [][]relstore.Value{}}
	for _, name := range s.Columns {
		out.Columns = append(out.Columns, strings.ToLower(name))
	}
	for _, e := range envs {
		row := make([]relstore.Value, len(out.Columns))
		for i, name := range out.Columns {
			row[i] = e.vals[name]
		}
		out.Data = append(out.Data, row)
	}
	return out, nil
}
