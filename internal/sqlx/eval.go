package sqlx

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/relstore"
)

// Errors surfaced by the evaluator.
var (
	ErrUnknownColumn = errors.New("sqlx: unknown column")
	ErrBadParam      = errors.New("sqlx: parameter index out of range")
)

// A WHERE is evaluated two ways over the same operator semantics (Term.test
// and the LIKE matcher below). SELECT runs on plans (plan.go) that resolved
// every column to its slot when the statement was planned. DELETE runs on
// the interpreter here, which binds every column of the current row by name
// into an env; it is also the reference the plans are tested against
// (oracle_test.go).

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

// bindArgs returns the values of ops for one execution: literals as written,
// parameters from args.
func bindArgs(ops []Operand, args []relstore.Value) ([]relstore.Value, error) {
	vals := make([]relstore.Value, len(ops))
	for i, o := range ops {
		switch {
		case o.Param < 0:
			vals[i] = o.Text
		case o.Param < len(args):
			vals[i] = normalizeParam(args[o.Param])
		default:
			return nil, fmt.Errorf("%w: ? #%d with %d args", ErrBadParam, o.Param+1, len(args))
		}
	}
	return vals, nil
}

// bindWhere binds the operand of every term.
func bindWhere(where []Term, args []relstore.Value) ([]relstore.Value, error) {
	ops := make([]Operand, len(where))
	for i, t := range where {
		ops[i] = t.Value
	}
	return bindArgs(ops, args)
}

// resolve returns the slot of each named column, or ErrUnknownColumn.
func resolve(schema relstore.Schema, names ...string) ([]int, error) {
	slots := make([]int, len(names))
	for i, name := range names {
		if slots[i] = schema.ColumnIndex(name); slots[i] < 0 {
			return nil, fmt.Errorf("%w: %s", ErrUnknownColumn, name)
		}
	}
	return slots, nil
}

// whereColumns lists the columns a WHERE reads, in term order.
func whereColumns(where []Term) []string {
	names := make([]string, len(where))
	for i, t := range where {
		names[i] = t.Column
	}
	return names
}

// test applies the term to a row's column value v and the term's bound
// value arg. m, when not nil, is arg prepared as a LIKE pattern. NULL never
// compares equal, nor matches a pattern.
func (t *Term) test(v, arg relstore.Value, m *likeMatcher) (bool, error) {
	if t.Lower && v != nil {
		s, ok := v.(string)
		if !ok {
			return false, fmt.Errorf("sqlx: LOWER requires text, got %T", v)
		}
		v = strings.ToLower(s)
	}
	if v == nil || arg == nil {
		return false, nil
	}
	if !t.Like {
		c, err := relstore.Compare(v, arg)
		return err == nil && c == 0, err
	}
	s, ok1 := v.(string)
	pat, ok2 := arg.(string)
	if !ok1 || !ok2 {
		return false, fmt.Errorf("sqlx: LIKE requires text operands, got %T and %T", v, arg)
	}
	if m == nil {
		return MatchLike(s, pat), nil
	}
	return m.match(s), nil
}

// env is the interpreter's name-resolution environment for one row. It is
// the env of the interpreter that once also ran joins: every column is bound
// under its bare and its table-qualified name, and a bare name two tables
// share is ambiguous. Only bare names can be written now. The binding is kept
// as it was so that a DELETE costs per row what it did, because the
// benchmark's writer phases run for a fixed time and cannot take a faster
// writer (DESIGN §8); compiling DML (ROADMAP item 5) removes it.
type env struct {
	vals      map[string]relstore.Value
	ambiguous map[string]bool
}

func newEnv() *env {
	return &env{
		vals:      make(map[string]relstore.Value),
		ambiguous: make(map[string]bool),
	}
}

// bind adds one table's row under its alias (or table name).
func (e *env) bind(alias string, schema relstore.Schema, row relstore.Row) {
	alias = strings.ToLower(alias)
	for i, col := range schema.Columns {
		qualified := alias + "." + strings.ToLower(col.Name)
		e.vals[qualified] = row[i]
		bare := strings.ToLower(col.Name)
		if _, dup := e.vals[bare]; dup {
			e.ambiguous[bare] = true
		} else {
			e.vals[bare] = row[i]
		}
	}
}

func (e *env) column(column string) (relstore.Value, error) {
	key := strings.ToLower(column)
	if e.ambiguous[key] {
		return nil, fmt.Errorf("sqlx: ambiguous column: %s", column)
	}
	v, ok := e.vals[key]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownColumn, column)
	}
	return v, nil
}

// holds evaluates a WHERE whose operands bound to vals against a row env,
// term by term until one fails.
func (e *env) holds(where []Term, vals []relstore.Value) (bool, error) {
	for i := range where {
		v, err := e.column(where[i].Column)
		if err != nil {
			return false, err
		}
		if ok, err := where[i].test(v, vals[i], nil); !ok || err != nil {
			return false, err
		}
	}
	return true, nil
}

// likeMatcher is a LIKE pattern prepared for repeated matching.
type likeMatcher struct {
	pattern string // lower-cased
	// needle is what lies between the two % of a %needle% pattern with no
	// other wildcard; such a pattern is a substring test.
	needle   string
	contains bool
}

func newLikeMatcher(pattern string) likeMatcher {
	p := strings.ToLower(pattern)
	m := likeMatcher{pattern: p}
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
