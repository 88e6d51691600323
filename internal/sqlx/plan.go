package sqlx

import (
	"slices"
	"strings"

	"repro/internal/relstore"
)

// A SELECT runs in three steps: Parse (text → AST), planSelect (AST →
// selectPlan, against the schema of one schema version) and run (plan +
// arguments → rows). Planning resolves every column to its slot, lowers
// literal LIKE patterns, and picks the `col = value` terms the storage
// engine can pin. Binding, per execution, only reads the term values out of
// the arguments. Which index serves the pins is the engine's choice, made
// under its lock (relstore.Sel). Plans are immutable and shared by
// concurrent executions.

type selectPlan struct {
	version uint64
	table   string
	names   []string // output columns
	cols    []int    // their slots
	where   []Term
	slots   []int          // the column slot of each term
	likes   []*likeMatcher // each literal LIKE term's pattern, lowered once
	// pins are the indexes into where of the `col = value` terms, the first
	// on each column; a second on a column is left to the WHERE.
	pins       []int
	order      []OrderItem
	orderSlots []int
}

func planSelect(db *relstore.DB, s *SelectStmt, version uint64) (*selectPlan, error) {
	schema, err := db.Schema(s.Table)
	if err != nil {
		return nil, err
	}
	p := &selectPlan{version: version, table: s.Table, where: s.Where, order: s.OrderBy}
	if p.cols, err = resolve(schema, s.Columns...); err != nil {
		return nil, err
	}
	for _, c := range s.Columns {
		p.names = append(p.names, strings.ToLower(c))
	}
	if p.slots, err = resolve(schema, whereColumns(s.Where)...); err != nil {
		return nil, err
	}
	p.likes = make([]*likeMatcher, len(s.Where))
	for i, t := range s.Where {
		if t.Like && t.Value.Param < 0 {
			m := newLikeMatcher(t.Value.Text)
			p.likes[i] = &m
		}
		if !t.Like && !t.Lower && !slices.ContainsFunc(p.pins, func(j int) bool { return p.slots[j] == p.slots[i] }) {
			p.pins = append(p.pins, i)
		}
	}
	for _, o := range s.OrderBy {
		slot, err := resolve(schema, o.Column)
		if err != nil {
			return nil, err
		}
		p.orderSlots = append(p.orderSlots, slot[0])
	}
	return p, nil
}

// run executes the plan. The WHERE runs inside the engine's selection, on
// the stored rows, so only the rows it keeps are copied out.
func (p *selectPlan) run(db *relstore.DB, args []relstore.Value) (*Rows, error) {
	vals, err := bindWhere(p.where, args)
	if err != nil {
		return nil, err
	}
	sel := relstore.Sel{Version: p.version}
	for _, i := range p.pins {
		sel.EqCols = append(sel.EqCols, p.slots[i])
		sel.EqVals = append(sel.EqVals, vals[i])
	}
	if len(p.where) > 0 {
		// A `LIKE ?` pattern is lowered once per execution.
		likes := slices.Clone(p.likes)
		for i, t := range p.where {
			if pat, ok := vals[i].(string); ok && t.Like && likes[i] == nil {
				m := newLikeMatcher(pat)
				likes[i] = &m
			}
		}
		sel.Pred = func(r relstore.Row) (bool, error) {
			for i := range p.where {
				if ok, err := p.where[i].test(r[p.slots[i]], vals[i], likes[i]); !ok || err != nil {
					return false, err
				}
			}
			return true, nil
		}
	}
	rows, err := db.Select(p.table, sel)
	if err != nil {
		return nil, err
	}
	if len(p.order) > 0 {
		slices.SortStableFunc(rows, func(a, b relstore.Row) int {
			for k, slot := range p.orderSlots {
				// A column holds values of its own type, which always compare.
				c, _ := relstore.Compare(a[slot], b[slot])
				if c != 0 {
					if p.order[k].Desc {
						return -c
					}
					return c
				}
			}
			return 0
		})
	}
	width := len(p.cols)
	out := make([][]relstore.Value, len(rows))
	cells := make([]relstore.Value, len(rows)*width) // one allocation backs every output row
	for i, r := range rows {
		row := cells[i*width : (i+1)*width : (i+1)*width]
		for k, slot := range p.cols {
			row[k] = r[slot]
		}
		out[i] = row
	}
	// The names are copied: the plan is shared, the result is the caller's.
	return &Rows{Columns: slices.Clone(p.names), Data: out}, nil
}
