package sqlx

import (
	"fmt"
	"strings"

	"repro/internal/relstore"
)

// The compiled evaluator SELECT runs on (plan.go). It computes exactly what
// the interpreter in eval.go computes, operator for operator (they share
// applyUnary, applyBinary, arith and the LIKE matcher), but resolves names
// once, when the statement is planned, instead of once per row.

// source is one table in scope for name resolution, under its alias (or
// table name).
type source struct {
	alias  string
	schema relstore.Schema
}

// frame is what a compiled expression reads while one statement executes.
// Compiled expressions are shared by every execution of a cached plan, so
// all per-execution state lives here.
type frame struct {
	// rows holds the current row of each source, in FROM/JOIN order. A nil
	// row reads as all NULL (the LEFT JOIN pad).
	rows []relstore.Row
	args []relstore.Value
	// likes caches, per `LIKE ?` site, the pattern lowered on its first
	// evaluation in this execution.
	likes []likeMatcher
	one   [1]relstore.Row // backs rows for single-table statements
}

// evalFn is a scalar expression compiled against a fixed list of sources:
// column references are (source, slot) positions and parameters are argument
// indexes, so evaluating it allocates nothing beyond what the operators
// themselves produce.
type evalFn func(fr *frame) (relstore.Value, error)

// compiler compiles the expressions of one statement.
type compiler struct {
	nLikes int // `LIKE ?` sites numbered so far; sizes frame.likes
}

func (c *compiler) newFrame(args []relstore.Value) *frame {
	fr := &frame{args: args}
	if c.nLikes > 0 {
		fr.likes = make([]likeMatcher, c.nLikes)
	}
	return fr
}

func failing(err error) evalFn {
	return func(*frame) (relstore.Value, error) { return nil, err }
}

// resolve finds the (source, slot) a column reference names within scope. A
// qualified reference reads the last source carrying that alias; a bare one
// must be carried by exactly one source.
func resolve(scope []source, table, column string) (src, slot int, err error) {
	want, n := strings.ToLower(column), 0
	for i, s := range scope {
		if table != "" && strings.ToLower(s.alias) != strings.ToLower(table) {
			continue
		}
		for ci, col := range s.schema.Columns {
			if strings.ToLower(col.Name) == want {
				src, slot = i, ci
				n++
			}
		}
	}
	switch {
	case n == 0:
		return 0, 0, fmt.Errorf("%w: %s", ErrUnknownColumn, column)
	case n > 1 && table == "":
		return 0, 0, fmt.Errorf("%w: %s", ErrAmbiguousColumn, column)
	}
	return src, slot, nil
}

// compile turns a scalar expression into an evalFn over the sources in
// scope. Nothing is rejected here: a name that does not resolve compiles to
// an expression that fails when evaluated, so a statement reports it exactly
// when some row reaches it. Simplification vs full SQL: NULL propagates
// through operators, and a NULL predicate result is treated as false
// (two-valued logic at the filter).
func (c *compiler) compile(x Expr, scope []source) evalFn {
	switch t := x.(type) {
	case *Literal:
		v := t.Value
		return func(*frame) (relstore.Value, error) { return v, nil }
	case *Param:
		i := t.Index
		return func(fr *frame) (relstore.Value, error) {
			if i >= len(fr.args) {
				return nil, fmt.Errorf("%w: ? #%d with %d args", ErrBadParam, i+1, len(fr.args))
			}
			return normalizeParam(fr.args[i]), nil
		}
	case *ColumnRef:
		src, slot, err := resolve(scope, t.Table, t.Column)
		if err != nil {
			return failing(err)
		}
		return func(fr *frame) (relstore.Value, error) {
			r := fr.rows[src]
			if r == nil {
				return nil, nil
			}
			return r[slot], nil
		}
	case *Unary:
		arg, op := c.compile(t.Expr, scope), t.Op
		return func(fr *frame) (relstore.Value, error) {
			v, err := arg(fr)
			if err != nil {
				return nil, err
			}
			return applyUnary(op, v)
		}
	case *Binary:
		return c.compileBinary(t, scope)
	case *InList:
		return c.compileIn(t, scope)
	case *IsNull:
		arg, negate := c.compile(t.Expr, scope), t.Negate
		return func(fr *frame) (relstore.Value, error) {
			v, err := arg(fr)
			if err != nil {
				return nil, err
			}
			return (v == nil) != negate, nil
		}
	case *FuncCall:
		if aggregateFuncs[t.Name] {
			return failing(fmt.Errorf("sqlx: aggregate %s outside aggregate context", t.Name))
		}
		return c.compileScalarFunc(t, scope)
	default:
		return failing(fmt.Errorf("sqlx: cannot evaluate %T", x))
	}
}

func (c *compiler) compileBinary(t *Binary, scope []source) evalFn {
	left, right := c.compile(t.Left, scope), c.compile(t.Right, scope)
	switch t.Op {
	case "AND", "OR": // short-circuit
		stop := t.Op == "OR"
		return func(fr *frame) (relstore.Value, error) {
			lv, err := holds(left, fr)
			if err != nil {
				return nil, err
			}
			if lv == stop {
				return stop, nil
			}
			rv, err := holds(right, fr)
			if err != nil {
				return nil, err
			}
			return rv, nil
		}
	case "LIKE":
		if like := c.compileLike(t, left, right); like != nil {
			return like
		}
	}
	op := t.Op
	return func(fr *frame) (relstore.Value, error) {
		lv, err := left(fr)
		if err != nil {
			return nil, err
		}
		rv, err := right(fr)
		if err != nil {
			return nil, err
		}
		return applyBinary(op, lv, rv)
	}
}

// compileLike specializes LIKE whose pattern is constant for an execution: a
// text literal is lowered when the statement is planned, a parameter on its
// first evaluation in each execution. It returns nil for any other pattern.
func (c *compiler) compileLike(t *Binary, left, right evalFn) evalFn {
	var fixed *likeMatcher
	site := -1
	switch r := t.Right.(type) {
	case *Literal:
		pat, ok := r.Value.(string)
		if !ok {
			return nil
		}
		m := newLikeMatcher(pat)
		fixed = &m
	case *Param:
		site = c.nLikes
		c.nLikes++
	default:
		return nil
	}
	return func(fr *frame) (relstore.Value, error) {
		lv, err := left(fr)
		if err != nil {
			return nil, err
		}
		rv, err := right(fr)
		if err != nil {
			return nil, err
		}
		s, pat, ok, err := likeOperands(lv, rv)
		if !ok {
			return false, err
		}
		m := fixed
		if m == nil {
			if m = &fr.likes[site]; !m.ready {
				*m = newLikeMatcher(pat)
			}
		}
		return m.match(s), nil
	}
}

func (c *compiler) compileIn(t *InList, scope []source) evalFn {
	arg, negate := c.compile(t.Expr, scope), t.Negate
	items := make([]evalFn, len(t.Items))
	for i, it := range t.Items {
		items[i] = c.compile(it, scope)
	}
	return func(fr *frame) (relstore.Value, error) {
		v, err := arg(fr)
		if err != nil {
			return nil, err
		}
		if v == nil {
			return false, nil
		}
		found := false
		for _, item := range items {
			iv, err := item(fr)
			if err != nil {
				return nil, err
			}
			if relstore.Equal(v, iv) {
				found = true
				break
			}
		}
		return found != negate, nil
	}
}

func (c *compiler) compileScalarFunc(t *FuncCall, scope []source) evalFn {
	args := make([]evalFn, len(t.Args))
	for i, a := range t.Args {
		args[i] = c.compile(a, scope)
	}
	name := t.Name
	switch name {
	case "UPPER", "LOWER", "LENGTH":
		return func(fr *frame) (relstore.Value, error) {
			var v relstore.Value
			for _, a := range args { // every argument is evaluated before the arity check
				var err error
				if v, err = a(fr); err != nil {
					return nil, err
				}
			}
			if len(args) != 1 {
				return nil, fmt.Errorf("sqlx: %s takes one argument", name)
			}
			if v == nil {
				return nil, nil
			}
			s, ok := v.(string)
			if !ok {
				return nil, fmt.Errorf("sqlx: %s requires text, got %T", name, v)
			}
			switch name {
			case "UPPER":
				return strings.ToUpper(s), nil
			case "LOWER":
				return strings.ToLower(s), nil
			default:
				return int64(len(s)), nil
			}
		}
	case "COALESCE":
		return func(fr *frame) (relstore.Value, error) {
			var first relstore.Value
			for _, a := range args {
				v, err := a(fr)
				if err != nil {
					return nil, err
				}
				if first == nil {
					first = v
				}
			}
			return first, nil
		}
	}
	return func(fr *frame) (relstore.Value, error) {
		for _, a := range args {
			if _, err := a(fr); err != nil {
				return nil, err
			}
		}
		return nil, fmt.Errorf("sqlx: unknown function %q", name)
	}
}

// holds evaluates a compiled predicate to a boolean, mapping NULL to false.
func holds(x evalFn, fr *frame) (bool, error) {
	v, err := x(fr)
	if err != nil {
		return false, err
	}
	return asBool(v)
}
