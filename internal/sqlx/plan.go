package sqlx

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/relstore"
)

// A SELECT runs in three steps: Parse (text → AST), planSelect (AST →
// selectPlan, against the schemas of one schema version) and run (plan +
// arguments → rows). Planning resolves every column reference to a (source,
// slot) position and every parameter to an argument index, lowers literal
// LIKE patterns, expands '*', decides which output column or expression each
// ORDER BY key reads, and extracts from the WHERE the equality pins and range
// bounds the storage engine can serve. Binding, per execution, only reads the
// pinned values out of the arguments. Which index serves the pins is the
// engine's choice, made under its lock (relstore.Sel). Plans are immutable
// and shared by concurrent executions.

// operand is the constant side of a `col OP value` conjunct: a literal, or
// the parameter at index param when param >= 0.
type operand struct {
	lit   relstore.Value
	param int
}

// value binds the operand; ok is false for a parameter the call did not
// supply (evaluating the WHERE reports that, if a row gets that far).
func (o operand) value(args []relstore.Value) (v relstore.Value, ok bool) {
	if o.param < 0 {
		return o.lit, true
	}
	if o.param >= len(args) {
		return nil, false
	}
	return normalizeParam(args[o.param]), true
}

// conjunct is a top-level `col OP value` term of a WHERE (a chain of ANDs),
// col being a column of the FROM table.
type conjunct struct {
	col int
	op  string // as if written `col OP value`
	val operand
}

// access is the part of a WHERE the storage engine can serve for one table.
// The full WHERE is still evaluated on what the engine returns, so the
// extraction only has to be sound, not complete.
type access struct {
	table string
	// pins are the `col = value` conjuncts.
	pins []conjunct
	// terms are all the conjuncts in WHERE order; when nothing is pinned,
	// the first column among them with a usable < <= > >= bound is ranged.
	terms []conjunct
}

// newAccess extracts the conjuncts of where that bind unambiguously to the
// FROM table (alias, schema).
func newAccess(table, alias string, schema relstore.Schema, where Expr) access {
	a := access{table: table}
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
			// value OP col: flip the operator.
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
		if !cok || (col.Table != "" && !strings.EqualFold(col.Table, alias)) {
			return
		}
		ci := schema.ColumnIndex(col.Column)
		if ci < 0 {
			return
		}
		t := conjunct{col: ci, op: op}
		switch v := val.(type) {
		case *Literal:
			t.val = operand{lit: v.Value, param: -1}
		case *Param:
			t.val = operand{param: v.Index}
		default:
			return
		}
		a.terms = append(a.terms, t)
		if op == "=" {
			a.pins = append(a.pins, t)
		}
	}
	walk(where)
	return a
}

// bind builds the engine selection for one execution.
func (a *access) bind(args []relstore.Value, version uint64, pred func(relstore.Row) (bool, error)) relstore.Sel {
	sel := relstore.Sel{Version: version, Pred: pred}
	for _, p := range a.pins {
		// The first bound pin on a column is used; a second is left to the
		// WHERE.
		if v, ok := p.val.value(args); ok && !slices.Contains(sel.EqCols, p.col) {
			sel.EqCols = append(sel.EqCols, p.col)
			sel.EqVals = append(sel.EqVals, v)
		}
	}
	if len(sel.EqCols) == 0 {
		sel.Range = a.bindRange(args)
	}
	return sel
}

// bindRange picks the range to scan: of the columns the terms mention with a
// non-NULL value, in order of first mention, the first that has a bound; per
// side, the first bound written wins (the WHERE re-checks the others).
func (a *access) bindRange(args []relstore.Value) *relstore.Range {
	var ranges []*relstore.Range
	for _, t := range a.terms {
		v, ok := t.val.value(args)
		if !ok || v == nil {
			continue
		}
		var rg *relstore.Range
		for _, r := range ranges {
			if r.Col == t.col {
				rg = r
			}
		}
		if rg == nil {
			rg = &relstore.Range{Col: t.col}
			ranges = append(ranges, rg)
		}
		switch t.op {
		case "<", "<=":
			if rg.Hi == nil {
				rg.Hi, rg.HiInc = v, t.op == "<="
			}
		case ">", ">=":
			if rg.Lo == nil {
				rg.Lo, rg.LoInc = v, t.op == ">="
			}
		}
	}
	for _, rg := range ranges {
		if rg.Lo != nil || rg.Hi != nil {
			return rg
		}
	}
	return nil
}

type joinPlan struct {
	table string
	left  bool   // LEFT JOIN: an unmatched tuple is kept, NULL-padded
	on    evalFn // over the sources joined so far plus this one
}

// orderKey is one ORDER BY key: output column outCol, or else expr over the
// row's tuple; a key that is neither can only be refused (see orderRows).
type orderKey struct {
	outCol int
	expr   evalFn
	desc   bool
}

type selectPlan struct {
	compiler
	version uint64
	srcs    []source // FROM table, then each JOIN
	base    access
	joins   []joinPlan
	where   evalFn
	names   []string // output columns

	aggregated bool
	items      []evalFn  // select list when not aggregated
	groupBy    []evalFn  // the rest when aggregated
	groupItems []groupFn // select list
	having     groupFn

	distinct      bool
	order         []orderKey
	limit, offset int
}

func planSelect(db *relstore.DB, s *SelectStmt, version uint64) (*selectPlan, error) {
	p := &selectPlan{version: version, distinct: s.Distinct, limit: s.Limit, offset: s.Offset}
	addSource := func(ref TableRef) error {
		schema, err := db.Schema(ref.Table)
		if err != nil {
			return err
		}
		alias := ref.Alias
		if alias == "" {
			alias = schema.Table
		}
		p.srcs = append(p.srcs, source{alias: alias, schema: schema})
		return nil
	}
	if err := addSource(s.From); err != nil {
		return nil, err
	}
	p.base = newAccess(s.From.Table, p.srcs[0].alias, p.srcs[0].schema, s.Where)
	for _, j := range s.Joins {
		if err := addSource(j.Table); err != nil {
			return nil, err
		}
		p.joins = append(p.joins, joinPlan{table: j.Table.Table, left: j.Left, on: p.compile(j.On, p.srcs)})
	}
	if s.Where != nil {
		p.where = p.compile(s.Where, p.srcs)
	}

	items := expandItems(s, p.srcs)
	p.aggregated = len(s.GroupBy) > 0 || s.Having != nil
	for _, it := range items {
		p.aggregated = p.aggregated || hasAggregate(it.Expr)
	}
	for _, it := range items {
		p.names = append(p.names, it.Alias)
		if p.aggregated {
			p.groupItems = append(p.groupItems, p.compileGroup(it.Expr, p.srcs))
		} else {
			p.items = append(p.items, p.compile(it.Expr, p.srcs))
		}
	}
	if p.aggregated {
		for _, gx := range s.GroupBy {
			p.groupBy = append(p.groupBy, p.compile(gx, p.srcs))
		}
		if s.Having != nil {
			p.having = p.compileGroup(s.Having, p.srcs)
		}
	}

	// Tuples stay parallel to output rows only when no grouping or dedup
	// re-shaped the output; only then can a key be an expression.
	parallel := !p.aggregated && !s.Distinct
	for _, ob := range s.OrderBy {
		key := orderKey{outCol: -1, desc: ob.Desc}
		if cr, ok := ob.Expr.(*ColumnRef); ok && cr.Table == "" {
			for i, n := range p.names {
				if strings.EqualFold(n, cr.Column) {
					key.outCol = i
					break
				}
			}
		}
		if key.outCol < 0 && parallel {
			key.expr = p.compile(ob.Expr, p.srcs)
		}
		p.order = append(p.order, key)
	}
	return p, nil
}

// expandItems resolves the select list ('*' and defaulted names) into
// concrete expressions, each with its output column name as Alias.
func expandItems(s *SelectStmt, srcs []source) []SelectItem {
	var items []SelectItem
	if s.Items == nil {
		for _, src := range srcs {
			for _, col := range src.schema.Columns {
				items = append(items, SelectItem{
					Expr:  &ColumnRef{Table: src.alias, Column: col.Name},
					Alias: strings.ToLower(col.Name),
				})
			}
		}
		return items
	}
	for _, it := range s.Items {
		if it.Alias == "" {
			switch x := it.Expr.(type) {
			case *ColumnRef:
				it.Alias = strings.ToLower(x.Column)
			case *FuncCall:
				it.Alias = strings.ToLower(x.Name)
			default:
				it.Alias = fmt.Sprintf("col%d", len(items)+1)
			}
		}
		items = append(items, it)
	}
	return items
}

// groupFn is an expression compiled for grouped context: aggregates compute
// over the group's tuples; other leaves read the group's first tuple (valid
// for GROUP BY keys and constants).
type groupFn func(g *group) (relstore.Value, error)

func (c *compiler) compileGroup(x Expr, scope []source) groupFn {
	switch t := x.(type) {
	case *FuncCall:
		if aggregateFuncs[t.Name] {
			return c.compileAggregate(t, scope)
		}
	case *Binary:
		left, right, op := c.compileGroup(t.Left, scope), c.compileGroup(t.Right, scope), t.Op
		return func(g *group) (relstore.Value, error) {
			lv, err := left(g)
			if err != nil {
				return nil, err
			}
			rv, err := right(g)
			if err != nil {
				return nil, err
			}
			// AND and OR run over materialized operands here: no
			// short-circuit, and a non-boolean reads as false.
			lb, _ := lv.(bool)
			rb, _ := rv.(bool)
			switch op {
			case "AND":
				return lb && rb, nil
			case "OR":
				return lb || rb, nil
			}
			return applyBinary(op, lv, rv)
		}
	case *Unary:
		arg, op := c.compileGroup(t.Expr, scope), t.Op
		return func(g *group) (relstore.Value, error) {
			v, err := arg(g)
			if err != nil {
				return nil, err
			}
			return applyUnary(op, v)
		}
	case *IsNull:
		arg, negate := c.compileGroup(t.Expr, scope), t.Negate
		return func(g *group) (relstore.Value, error) {
			v, err := arg(g)
			if err != nil {
				return nil, err
			}
			return (v == nil) != negate, nil
		}
	}
	// Against an empty group (a global aggregate over no rows) there is no
	// tuple to read, and a column reference does not resolve.
	first, none := c.compile(x, scope), c.compile(x, nil)
	return func(g *group) (relstore.Value, error) {
		if len(g.members) > 0 {
			return first(g.row(0))
		}
		return none(g.fr)
	}
}

func (c *compiler) compileAggregate(fc *FuncCall, scope []source) groupFn {
	name := fc.Name
	if fc.Star {
		return func(g *group) (relstore.Value, error) {
			if name != "COUNT" {
				return nil, fmt.Errorf("sqlx: %s(*) is invalid", name)
			}
			return int64(len(g.members)), nil
		}
	}
	if len(fc.Args) != 1 {
		return func(*group) (relstore.Value, error) {
			return nil, fmt.Errorf("sqlx: %s takes one argument", name)
		}
	}
	arg := c.compile(fc.Args[0], scope)
	return func(g *group) (relstore.Value, error) {
		var vals []relstore.Value
		for i := range g.members {
			v, err := arg(g.row(i))
			if err != nil {
				return nil, err
			}
			if v != nil {
				vals = append(vals, v)
			}
		}
		switch name {
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
			if name == "AVG" {
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
				if (name == "MIN" && c < 0) || (name == "MAX" && c > 0) {
					best = v
				}
			}
			return best, nil
		}
		return nil, fmt.Errorf("sqlx: unknown aggregate %q", name)
	}
}
