package sqlx

// The SELECT executor as it was before statements were compiled to plans
// (plan.go): it binds every row into a map-based env and walks the AST with
// the interpreter of eval.go. It is kept verbatim, under "old" names, as the
// reference the differential test compares the compiled executor against.

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/relstore"
)

// oldQuery is Conn.Query without plans.
func (c *Conn) oldQuery(sqlText string, args ...relstore.Value) (*Rows, error) {
	stmt, err := Parse(sqlText)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("sqlx: Query requires SELECT, got %T", stmt)
	}
	return c.oldExecSelect(sel, args)
}

// oldSource is one table participating in a SELECT.
type oldSource struct {
	alias  string
	schema relstore.Schema
	rows   []relstore.Row
}

// oldRangeFilter is a planner-extracted range predicate on one column.
type oldRangeFilter struct {
	column       string
	lo, hi       relstore.Value
	loInc, hiInc bool
}

func (c *Conn) oldLoadSource(ref TableRef, filterCols []string, filterVals []relstore.Value, rng *oldRangeFilter) (*oldSource, error) {
	schema, err := c.db.Schema(ref.Table)
	if err != nil {
		return nil, err
	}
	alias := ref.Alias
	if alias == "" {
		alias = schema.Table
	}
	src := &oldSource{alias: alias, schema: schema}
	if len(filterCols) > 0 {
		rows, err := c.db.LookupEqual(ref.Table, filterCols, filterVals)
		if err != nil {
			return nil, err
		}
		src.rows = rows
		return src, nil
	}
	if rng != nil {
		if err := c.db.ScanRange(ref.Table, rng.column, rng.lo, rng.hi, rng.loInc, rng.hiInc,
			func(r relstore.Row) bool {
				src.rows = append(src.rows, r)
				return true
			}); err != nil {
			return nil, err
		}
		return src, nil
	}
	if err := c.db.Scan(ref.Table, nil, func(r relstore.Row) bool {
		src.rows = append(src.rows, r)
		return true
	}); err != nil {
		return nil, err
	}
	return src, nil
}

// oldExtractRangeFilter pulls conjunctive range predicates (`col < lit`,
// `col >= ?`, ...) on a single base-table column from the WHERE clause. It
// returns nil when no column carries one. The residual WHERE re-checks the
// bounds, so over- or under-extraction is safe.
func oldExtractRangeFilter(where Expr, baseAlias string, schema relstore.Schema, args []relstore.Value) *oldRangeFilter {
	byCol := map[string]*oldRangeFilter{}
	order := []string{}
	var walk func(x Expr)
	walk = func(x Expr) {
		b, ok := x.(*Binary)
		if !ok {
			return
		}
		if b.Op == "AND" {
			walk(b.Left)
			walk(b.Right)
			return
		}
		op := b.Op
		col, cok := b.Left.(*ColumnRef)
		val := b.Right
		if !cok {
			// literal OP col: flip the operator.
			col, cok = b.Right.(*ColumnRef)
			val = b.Left
			switch op {
			case "<":
				op = ">"
			case "<=":
				op = ">="
			case ">":
				op = "<"
			case ">=":
				op = "<="
			}
		}
		if !cok {
			return
		}
		if col.Table != "" && !strings.EqualFold(col.Table, baseAlias) {
			return
		}
		if schema.ColumnIndex(col.Column) < 0 {
			return
		}
		var v relstore.Value
		switch lv := val.(type) {
		case *Literal:
			v = lv.Value
		case *Param:
			if lv.Index >= len(args) {
				return
			}
			v = normalizeParam(args[lv.Index])
		default:
			return
		}
		if v == nil {
			return
		}
		key := strings.ToLower(col.Column)
		rf := byCol[key]
		if rf == nil {
			rf = &oldRangeFilter{column: col.Column}
			byCol[key] = rf
			order = append(order, key)
		}
		switch op {
		case "<":
			if rf.hi == nil {
				rf.hi, rf.hiInc = v, false
			}
		case "<=":
			if rf.hi == nil {
				rf.hi, rf.hiInc = v, true
			}
		case ">":
			if rf.lo == nil {
				rf.lo, rf.loInc = v, false
			}
		case ">=":
			if rf.lo == nil {
				rf.lo, rf.loInc = v, true
			}
		}
	}
	walk(where)
	for _, key := range order {
		rf := byCol[key]
		if rf.lo != nil || rf.hi != nil {
			return rf
		}
	}
	return nil
}

// oldExtractEqFilters pulls `col = literal/param` conjuncts from the WHERE
// clause that bind unambiguously to the base table, so the scan can be
// replaced with an indexed lookup. Returns the filter columns/values; the
// full WHERE is still applied afterwards, so over-extraction is safe.
func oldExtractEqFilters(where Expr, baseAlias string, schema relstore.Schema, args []relstore.Value) (cols []string, vals []relstore.Value) {
	var walk func(x Expr)
	walk = func(x Expr) {
		b, ok := x.(*Binary)
		if !ok {
			return
		}
		if b.Op == "AND" {
			walk(b.Left)
			walk(b.Right)
			return
		}
		if b.Op != "=" {
			return
		}
		col, cok := b.Left.(*ColumnRef)
		val := b.Right
		if !cok {
			col, cok = b.Right.(*ColumnRef)
			val = b.Left
		}
		if !cok {
			return
		}
		if col.Table != "" && !strings.EqualFold(col.Table, baseAlias) {
			return
		}
		if schema.ColumnIndex(col.Column) < 0 {
			return
		}
		var v relstore.Value
		switch lv := val.(type) {
		case *Literal:
			v = lv.Value
		case *Param:
			if lv.Index >= len(args) {
				return
			}
			v = normalizeParam(args[lv.Index])
		default:
			return
		}
		// Don't extract the same column twice (contradictions handled by
		// the residual WHERE).
		for _, c := range cols {
			if strings.EqualFold(c, col.Column) {
				return
			}
		}
		cols = append(cols, col.Column)
		vals = append(vals, v)
	}
	walk(where)
	return cols, vals
}

func (c *Conn) oldExecSelect(s *SelectStmt, args []relstore.Value) (*Rows, error) {
	// Load base table, using indexed lookup when the WHERE clause pins
	// columns by equality and there are no joins complicating aliasing.
	var filterCols []string
	var filterVals []relstore.Value
	baseSchema, err := c.db.Schema(s.From.Table)
	if err != nil {
		return nil, err
	}
	baseAlias := s.From.Alias
	if baseAlias == "" {
		baseAlias = baseSchema.Table
	}
	var rng *oldRangeFilter
	if s.Where != nil {
		filterCols, filterVals = oldExtractEqFilters(s.Where, baseAlias, baseSchema, args)
		if len(filterCols) == 0 {
			rng = oldExtractRangeFilter(s.Where, baseAlias, baseSchema, args)
		}
	}
	base, err := c.oldLoadSource(s.From, filterCols, filterVals, rng)
	if err != nil {
		return nil, err
	}
	sources := []*oldSource{base}
	combos := make([][]relstore.Row, 0, len(base.rows))
	for _, r := range base.rows {
		combos = append(combos, []relstore.Row{r})
	}
	// Apply joins with nested loops.
	for _, j := range s.Joins {
		jsrc, err := c.oldLoadSource(j.Table, nil, nil, nil)
		if err != nil {
			return nil, err
		}
		sources = append(sources, jsrc)
		var next [][]relstore.Row
		for _, combo := range combos {
			matched := false
			for _, jr := range jsrc.rows {
				e := newEnv(args)
				for i, src := range sources[:len(sources)-1] {
					e.bind(src.alias, src.schema, combo[i])
				}
				e.bind(jsrc.alias, jsrc.schema, jr)
				ok, err := truthy(j.On, e)
				if err != nil {
					return nil, err
				}
				if ok {
					matched = true
					row := append(append([]relstore.Row{}, combo...), jr)
					next = append(next, row)
				}
			}
			if !matched && j.Left {
				row := append(append([]relstore.Row{}, combo...), nil)
				next = append(next, row)
			}
		}
		combos = next
	}
	// Build environments and apply WHERE.
	var envs []*env
	for _, combo := range combos {
		e := newEnv(args)
		for i, src := range sources {
			e.bind(src.alias, src.schema, combo[i])
		}
		if s.Where != nil {
			ok, err := truthy(s.Where, e)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		envs = append(envs, e)
	}

	items, names := oldExpandItems(s, sources)
	aggregated := len(s.GroupBy) > 0 || s.Having != nil
	for _, it := range items {
		if hasAggregate(it.Expr) {
			aggregated = true
		}
	}

	var out [][]relstore.Value
	if aggregated {
		out, err = oldProjectGroups(s, items, envs, args)
	} else {
		out, err = oldProjectRows(items, envs)
	}
	if err != nil {
		return nil, err
	}

	if s.Distinct {
		out = oldDedupRows(out)
	}

	if len(s.OrderBy) > 0 {
		// Row environments stay parallel to output rows only when no
		// grouping or dedup re-shaped the output.
		envsParallel := !aggregated && !s.Distinct
		if err := oldOrderRows(s, names, out, envs, envsParallel); err != nil {
			return nil, err
		}
	}

	// LIMIT / OFFSET.
	if s.Offset > 0 {
		if s.Offset >= len(out) {
			out = nil
		} else {
			out = out[s.Offset:]
		}
	}
	if s.Limit >= 0 && len(out) > s.Limit {
		out = out[:s.Limit]
	}
	return &Rows{Columns: names, Data: out}, nil
}

// oldExpandItems resolves the select list ('*' and aliases) into concrete
// expressions and output column names.
func oldExpandItems(s *SelectStmt, sources []*oldSource) ([]SelectItem, []string) {
	var items []SelectItem
	var names []string
	if s.Items == nil {
		for _, src := range sources {
			for _, col := range src.schema.Columns {
				items = append(items, SelectItem{Expr: &ColumnRef{Table: src.alias, Column: col.Name}})
				names = append(names, strings.ToLower(col.Name))
			}
		}
		return items, names
	}
	for _, it := range s.Items {
		items = append(items, it)
		switch {
		case it.Alias != "":
			names = append(names, it.Alias)
		default:
			if cr, ok := it.Expr.(*ColumnRef); ok {
				names = append(names, strings.ToLower(cr.Column))
			} else if fc, ok := it.Expr.(*FuncCall); ok {
				names = append(names, strings.ToLower(fc.Name))
			} else {
				names = append(names, fmt.Sprintf("col%d", len(names)+1))
			}
		}
	}
	return items, names
}

func oldProjectRows(items []SelectItem, envs []*env) ([][]relstore.Value, error) {
	out := make([][]relstore.Value, 0, len(envs))
	for _, e := range envs {
		row := make([]relstore.Value, len(items))
		for i, it := range items {
			v, err := evalExpr(it.Expr, e)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		out = append(out, row)
	}
	return out, nil
}

func oldProjectGroups(s *SelectStmt, items []SelectItem, envs []*env, args []relstore.Value) ([][]relstore.Value, error) {
	type group struct {
		key  string
		rows []*env
	}
	var order []string
	groups := map[string]*group{}
	for _, e := range envs {
		var kb strings.Builder
		for _, gx := range s.GroupBy {
			v, err := evalExpr(gx, e)
			if err != nil {
				return nil, err
			}
			kb.WriteString(relstore.FormatValue(v))
			kb.WriteByte('\x1f')
		}
		k := kb.String()
		g, ok := groups[k]
		if !ok {
			g = &group{key: k}
			groups[k] = g
			order = append(order, k)
		}
		g.rows = append(g.rows, e)
	}
	// A global aggregate (no GROUP BY) over zero rows still yields one row.
	if len(s.GroupBy) == 0 && len(order) == 0 {
		groups[""] = &group{}
		order = append(order, "")
	}
	var out [][]relstore.Value
	for _, k := range order {
		g := groups[k]
		if s.Having != nil {
			v, err := oldEvalGroupExpr(s.Having, g.rows, args)
			if err != nil {
				return nil, err
			}
			if b, ok := v.(bool); !ok || !b {
				continue
			}
		}
		row := make([]relstore.Value, len(items))
		for i, it := range items {
			v, err := oldEvalGroupExpr(it.Expr, g.rows, args)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		out = append(out, row)
	}
	return out, nil
}

// oldEvalGroupExpr evaluates an expression in grouped context: aggregates
// compute over the group's rows; other leaves resolve against the group's
// first row (valid for GROUP BY keys and constants).
func oldEvalGroupExpr(x Expr, rows []*env, args []relstore.Value) (relstore.Value, error) {
	if fc, ok := x.(*FuncCall); ok && aggregateFuncs[fc.Name] {
		return oldEvalAggregate(fc, rows)
	}
	switch t := x.(type) {
	case *Binary:
		if t.Op == "AND" || t.Op == "OR" {
			// Re-associate through scalar path with materialized operands.
			lv, err := oldEvalGroupExpr(t.Left, rows, args)
			if err != nil {
				return nil, err
			}
			rv, err := oldEvalGroupExpr(t.Right, rows, args)
			if err != nil {
				return nil, err
			}
			lb, _ := lv.(bool)
			rb, _ := rv.(bool)
			if t.Op == "AND" {
				return lb && rb, nil
			}
			return lb || rb, nil
		}
		lv, err := oldEvalGroupExpr(t.Left, rows, args)
		if err != nil {
			return nil, err
		}
		rv, err := oldEvalGroupExpr(t.Right, rows, args)
		if err != nil {
			return nil, err
		}
		return evalBinary(&Binary{Op: t.Op, Left: &Literal{Value: lv}, Right: &Literal{Value: rv}}, newEnv(args))
	case *Unary:
		v, err := oldEvalGroupExpr(t.Expr, rows, args)
		if err != nil {
			return nil, err
		}
		return evalUnary(&Unary{Op: t.Op, Expr: &Literal{Value: v}}, newEnv(args))
	case *IsNull:
		v, err := oldEvalGroupExpr(t.Expr, rows, args)
		if err != nil {
			return nil, err
		}
		return (v == nil) != t.Negate, nil
	default:
		if len(rows) > 0 {
			return evalExpr(x, rows[0])
		}
		return evalExpr(x, newEnv(args))
	}
}

func oldEvalAggregate(fc *FuncCall, rows []*env) (relstore.Value, error) {
	if fc.Star {
		if fc.Name != "COUNT" {
			return nil, fmt.Errorf("sqlx: %s(*) is invalid", fc.Name)
		}
		return int64(len(rows)), nil
	}
	if len(fc.Args) != 1 {
		return nil, fmt.Errorf("sqlx: %s takes one argument", fc.Name)
	}
	var vals []relstore.Value
	for _, e := range rows {
		v, err := evalExpr(fc.Args[0], e)
		if err != nil {
			return nil, err
		}
		if v != nil {
			vals = append(vals, v)
		}
	}
	switch fc.Name {
	case "COUNT":
		return int64(len(vals)), nil
	case "SUM", "AVG":
		if len(vals) == 0 {
			return nil, nil
		}
		sum := 0.0
		allInt := true
		for _, v := range vals {
			f, err := asFloat(v)
			if err != nil {
				return nil, err
			}
			if _, ok := v.(int64); !ok {
				allInt = false
			}
			sum += f
		}
		if fc.Name == "AVG" {
			return sum / float64(len(vals)), nil
		}
		if allInt {
			return int64(sum), nil
		}
		return sum, nil
	case "MIN", "MAX":
		if len(vals) == 0 {
			return nil, nil
		}
		best := vals[0]
		for _, v := range vals[1:] {
			c, err := relstore.Compare(v, best)
			if err != nil {
				return nil, err
			}
			if (fc.Name == "MIN" && c < 0) || (fc.Name == "MAX" && c > 0) {
				best = v
			}
		}
		return best, nil
	}
	return nil, fmt.Errorf("sqlx: unknown aggregate %q", fc.Name)
}

func oldDedupRows(rows [][]relstore.Value) [][]relstore.Value {
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

// oldOrderRows sorts the projected rows in place. ORDER BY expressions that are
// bare column references matching an output column sort on that output;
// otherwise (non-aggregated queries only) they are evaluated against the row
// environments, which are kept parallel to out rows by construction.
func oldOrderRows(s *SelectStmt, names []string, out [][]relstore.Value, envs []*env, envsParallel bool) error {
	type keyed struct {
		row  []relstore.Value
		keys []relstore.Value
	}
	outCol := func(name string) int {
		for i, n := range names {
			if strings.EqualFold(n, name) {
				return i
			}
		}
		return -1
	}
	rows := make([]keyed, len(out))
	for i := range out {
		rows[i].row = out[i]
		rows[i].keys = make([]relstore.Value, len(s.OrderBy))
		for k, ob := range s.OrderBy {
			if cr, ok := ob.Expr.(*ColumnRef); ok && cr.Table == "" {
				if ci := outCol(cr.Column); ci >= 0 {
					rows[i].keys[k] = out[i][ci]
					continue
				}
			}
			if !envsParallel {
				return fmt.Errorf("sqlx: ORDER BY here must reference output columns")
			}
			if i < len(envs) {
				v, err := evalExpr(ob.Expr, envs[i])
				if err != nil {
					return err
				}
				rows[i].keys[k] = v
			}
		}
	}
	var sortErr error
	sort.SliceStable(rows, func(a, b int) bool {
		for k, ob := range s.OrderBy {
			c, err := relstore.Compare(rows[a].keys[k], rows[b].keys[k])
			if err != nil {
				if sortErr == nil {
					sortErr = err
				}
				return false
			}
			if c == 0 {
				continue
			}
			if ob.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	if sortErr != nil {
		return sortErr
	}
	for i := range rows {
		out[i] = rows[i].row
	}
	return nil
}
