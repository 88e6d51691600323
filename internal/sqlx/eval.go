package sqlx

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/relstore"
)

// Errors surfaced by the evaluator.
var (
	ErrAmbiguousColumn = errors.New("sqlx: ambiguous column")
	ErrUnknownColumn   = errors.New("sqlx: unknown column")
	ErrBadParam        = errors.New("sqlx: parameter index out of range")
)

// This file is the interpreter: it walks the AST against an env that binds
// every column of the current row by name. INSERT, UPDATE and DELETE run on
// it (exec.go). SELECT used to as well; it now runs on plans compiled from
// the same AST (plan.go, compile.go), which compute the same values through
// the operator helpers below, and the interpreter's SELECT executor survives
// as the reference those plans are tested against (oracle_test.go).

// env is the name-resolution environment for one (possibly joined) row.
type env struct {
	vals      map[string]relstore.Value
	ambiguous map[string]bool
	params    []relstore.Value
}

func newEnv(params []relstore.Value) *env {
	return &env{
		vals:      make(map[string]relstore.Value),
		ambiguous: make(map[string]bool),
		params:    params,
	}
}

// bind adds one table's row under its alias (or table name). A nil row binds
// all columns to NULL (the LEFT JOIN pad).
func (e *env) bind(alias string, schema relstore.Schema, row relstore.Row) {
	alias = strings.ToLower(alias)
	for i, col := range schema.Columns {
		var v relstore.Value
		if row != nil {
			v = row[i]
		}
		qualified := alias + "." + strings.ToLower(col.Name)
		e.vals[qualified] = v
		bare := strings.ToLower(col.Name)
		if _, dup := e.vals[bare]; dup {
			e.ambiguous[bare] = true
		} else {
			e.vals[bare] = v
		}
	}
}

func (e *env) column(table, column string) (relstore.Value, error) {
	key := strings.ToLower(column)
	if table != "" {
		key = strings.ToLower(table) + "." + key
	} else if e.ambiguous[key] {
		return nil, fmt.Errorf("%w: %s", ErrAmbiguousColumn, column)
	}
	v, ok := e.vals[key]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownColumn, column)
	}
	return v, nil
}

// evalExpr evaluates a scalar expression against one row environment.
// Simplification vs full SQL: NULL propagates through operators, and a NULL
// predicate result is treated as false (two-valued logic at the filter).
func evalExpr(x Expr, e *env) (relstore.Value, error) {
	switch t := x.(type) {
	case *Literal:
		return t.Value, nil
	case *Param:
		if t.Index >= len(e.params) {
			return nil, fmt.Errorf("%w: ? #%d with %d args", ErrBadParam, t.Index+1, len(e.params))
		}
		return normalizeParam(e.params[t.Index]), nil
	case *ColumnRef:
		return e.column(t.Table, t.Column)
	case *Unary:
		return evalUnary(t, e)
	case *Binary:
		return evalBinary(t, e)
	case *InList:
		return evalIn(t, e)
	case *IsNull:
		v, err := evalExpr(t.Expr, e)
		if err != nil {
			return nil, err
		}
		return (v == nil) != t.Negate, nil
	case *FuncCall:
		if aggregateFuncs[t.Name] {
			return nil, fmt.Errorf("sqlx: aggregate %s outside aggregate context", t.Name)
		}
		return evalScalarFunc(t, e)
	default:
		return nil, fmt.Errorf("sqlx: cannot evaluate %T", x)
	}
}

// normalizeParam widens Go-native parameter types to engine types.
func normalizeParam(v relstore.Value) relstore.Value {
	switch x := v.(type) {
	case int:
		return int64(x)
	case int32:
		return int64(x)
	case float32:
		return float64(x)
	default:
		return v
	}
}

func evalUnary(t *Unary, e *env) (relstore.Value, error) {
	v, err := evalExpr(t.Expr, e)
	if err != nil {
		return nil, err
	}
	return applyUnary(t.Op, v)
}

// applyUnary applies NOT or numeric negation to a value.
func applyUnary(op string, v relstore.Value) (relstore.Value, error) {
	switch op {
	case "NOT":
		if v == nil {
			return false, nil
		}
		b, ok := v.(bool)
		if !ok {
			return nil, fmt.Errorf("sqlx: NOT applied to %T", v)
		}
		return !b, nil
	case "-":
		switch n := v.(type) {
		case nil:
			return nil, nil
		case int64:
			return -n, nil
		case float64:
			return -n, nil
		}
		return nil, fmt.Errorf("sqlx: unary minus applied to %T", v)
	}
	return nil, fmt.Errorf("sqlx: unknown unary op %q", op)
}

func evalBinary(t *Binary, e *env) (relstore.Value, error) {
	// AND/OR get short-circuit evaluation.
	switch t.Op {
	case "AND":
		lv, err := truthy(t.Left, e)
		if err != nil {
			return nil, err
		}
		if !lv {
			return false, nil
		}
		return boolOf(t.Right, e)
	case "OR":
		lv, err := truthy(t.Left, e)
		if err != nil {
			return nil, err
		}
		if lv {
			return true, nil
		}
		return boolOf(t.Right, e)
	}
	lv, err := evalExpr(t.Left, e)
	if err != nil {
		return nil, err
	}
	rv, err := evalExpr(t.Right, e)
	if err != nil {
		return nil, err
	}
	return applyBinary(t.Op, lv, rv)
}

// applyBinary applies a binary operator other than AND and OR (which
// short-circuit, so their callers handle them) to two values.
func applyBinary(op string, lv, rv relstore.Value) (relstore.Value, error) {
	switch op {
	case "=", "<>", "<", "<=", ">", ">=":
		if lv == nil || rv == nil {
			return false, nil // NULL never compares equal (or ordered)
		}
		c, err := relstore.Compare(lv, rv)
		if err != nil {
			return nil, err
		}
		switch op {
		case "=":
			return c == 0, nil
		case "<>":
			return c != 0, nil
		case "<":
			return c < 0, nil
		case "<=":
			return c <= 0, nil
		case ">":
			return c > 0, nil
		default:
			return c >= 0, nil
		}
	case "LIKE":
		s, pat, ok, err := likeOperands(lv, rv)
		if !ok {
			return false, err
		}
		return MatchLike(s, pat), nil
	case "||":
		if lv == nil || rv == nil {
			return nil, nil
		}
		return relstore.FormatValue(lv) + relstore.FormatValue(rv), nil
	case "+", "-", "*", "/", "%":
		return arith(op, lv, rv)
	}
	return nil, fmt.Errorf("sqlx: unknown binary op %q", op)
}

// likeOperands checks LIKE's operands: ok is false, with a nil error, when
// either is NULL.
func likeOperands(lv, rv relstore.Value) (s, pat string, ok bool, err error) {
	if lv == nil || rv == nil {
		return "", "", false, nil
	}
	s, ok1 := lv.(string)
	pat, ok2 := rv.(string)
	if !ok1 || !ok2 {
		return "", "", false, fmt.Errorf("sqlx: LIKE requires text operands, got %T and %T", lv, rv)
	}
	return s, pat, true, nil
}

func arith(op string, lv, rv relstore.Value) (relstore.Value, error) {
	if lv == nil || rv == nil {
		return nil, nil
	}
	li, lIsInt := lv.(int64)
	ri, rIsInt := rv.(int64)
	if lIsInt && rIsInt {
		switch op {
		case "+":
			return li + ri, nil
		case "-":
			return li - ri, nil
		case "*":
			return li * ri, nil
		case "/":
			if ri == 0 {
				return nil, errors.New("sqlx: division by zero")
			}
			return li / ri, nil
		case "%":
			if ri == 0 {
				return nil, errors.New("sqlx: modulo by zero")
			}
			return li % ri, nil
		}
	}
	lf, err := asFloat(lv)
	if err != nil {
		return nil, err
	}
	rf, err := asFloat(rv)
	if err != nil {
		return nil, err
	}
	switch op {
	case "+":
		return lf + rf, nil
	case "-":
		return lf - rf, nil
	case "*":
		return lf * rf, nil
	case "/":
		if rf == 0 {
			return nil, errors.New("sqlx: division by zero")
		}
		return lf / rf, nil
	case "%":
		return nil, errors.New("sqlx: %% requires integer operands")
	}
	return nil, fmt.Errorf("sqlx: unknown arithmetic op %q", op)
}

func asFloat(v relstore.Value) (float64, error) {
	switch n := v.(type) {
	case int64:
		return float64(n), nil
	case float64:
		return n, nil
	}
	return 0, fmt.Errorf("sqlx: %T is not numeric", v)
}

func evalIn(t *InList, e *env) (relstore.Value, error) {
	v, err := evalExpr(t.Expr, e)
	if err != nil {
		return nil, err
	}
	if v == nil {
		return false, nil
	}
	found := false
	for _, item := range t.Items {
		iv, err := evalExpr(item, e)
		if err != nil {
			return nil, err
		}
		if relstore.Equal(v, iv) {
			found = true
			break
		}
	}
	return found != t.Negate, nil
}

func evalScalarFunc(t *FuncCall, e *env) (relstore.Value, error) {
	args := make([]relstore.Value, len(t.Args))
	for i, a := range t.Args {
		v, err := evalExpr(a, e)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	switch t.Name {
	case "UPPER", "LOWER", "LENGTH":
		if len(args) != 1 {
			return nil, fmt.Errorf("sqlx: %s takes one argument", t.Name)
		}
		if args[0] == nil {
			return nil, nil
		}
		s, ok := args[0].(string)
		if !ok {
			return nil, fmt.Errorf("sqlx: %s requires text, got %T", t.Name, args[0])
		}
		switch t.Name {
		case "UPPER":
			return strings.ToUpper(s), nil
		case "LOWER":
			return strings.ToLower(s), nil
		default:
			return int64(len(s)), nil
		}
	case "COALESCE":
		for _, a := range args {
			if a != nil {
				return a, nil
			}
		}
		return nil, nil
	}
	return nil, fmt.Errorf("sqlx: unknown function %q", t.Name)
}

// truthy evaluates a predicate expression to a boolean, mapping NULL to
// false.
func truthy(x Expr, e *env) (bool, error) {
	v, err := evalExpr(x, e)
	if err != nil {
		return false, err
	}
	return asBool(v)
}

// asBool reads a predicate's value: NULL counts as false.
func asBool(v relstore.Value) (bool, error) {
	switch b := v.(type) {
	case nil:
		return false, nil
	case bool:
		return b, nil
	default:
		return false, fmt.Errorf("sqlx: predicate evaluated to %T, want bool", v)
	}
}

func boolOf(x Expr, e *env) (relstore.Value, error) {
	b, err := truthy(x, e)
	if err != nil {
		return nil, err
	}
	return b, nil
}

// likeMatcher is a LIKE pattern prepared for repeated matching.
type likeMatcher struct {
	ready   bool
	pattern string // lower-cased
	// needle is what lies between the two % of a %needle% pattern with no
	// other wildcard; such a pattern is a substring test.
	needle   string
	contains bool
}

func newLikeMatcher(pattern string) likeMatcher {
	p := strings.ToLower(pattern)
	m := likeMatcher{ready: true, pattern: p}
	if n := len(p); n >= 2 && p[0] == '%' && p[n-1] == '%' && !strings.ContainsAny(p[1:n-1], "%_") {
		m.contains, m.needle = true, p[1:n-1]
	}
	return m
}

// match reports whether s matches the pattern, ignoring case. It allocates
// only when s holds non-ASCII bytes: an ASCII string is folded byte by byte
// as it is compared.
func (m *likeMatcher) match(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			s = strings.ToLower(s)
			break
		}
	}
	if m.contains {
		return containsFold(s, m.needle)
	}
	return matchFold(s, m.pattern)
}

func lowerByte(b byte) byte {
	if 'A' <= b && b <= 'Z' {
		return b + ('a' - 'A')
	}
	return b
}

// containsFold is strings.Contains(s, needle) with the ASCII capitals of s
// lowered.
func containsFold(s, needle string) bool {
	n := len(needle)
	if n == 0 {
		return true
	}
	for i := 0; i+n <= len(s); i++ {
		j := 0
		for j < n && lowerByte(s[i+j]) == needle[j] {
			j++
		}
		if j == n {
			return true
		}
	}
	return false
}

// matchFold matches s, its ASCII capitals lowered, against a lowered
// pattern: % is any run and _ any single byte, iteratively with
// backtracking on the last %.
func matchFold(s, pattern string) bool {
	si, pi := 0, 0
	star, starSi := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && pattern[pi] == '%':
			star = pi
			starSi = si
			pi++
		case pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == lowerByte(s[si])):
			si++
			pi++
		case star >= 0:
			starSi++
			si = starSi
			pi = star + 1
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}

// MatchLike implements SQL LIKE with % (any run) and _ (any single char),
// case-insensitively, matching DB2's default collation behaviour closely
// enough for EIL's synopsis queries.
func MatchLike(s, pattern string) bool {
	m := newLikeMatcher(pattern)
	return m.match(s)
}
