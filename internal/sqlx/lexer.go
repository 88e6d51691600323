// Package sqlx implements the SQL text interface over the relstore engine —
// the piece of the DB2 substitute that lets EIL's query analyzer issue
// directed synopsis queries as SQL strings. It accepts exactly the SQL that
// EIL issues (the statement census in package synopsis lists it):
//
//	CREATE TABLE t (col TYPE [NOT NULL] [PRIMARY KEY], ..., PRIMARY KEY (a, b))
//	CREATE INDEX name ON t (col, ...)
//	INSERT INTO t VALUES (v, ...)
//	DELETE FROM t WHERE terms
//	SELECT col, ... FROM t [WHERE terms] [ORDER BY col [ASC|DESC], ...]
//
// TYPE is TEXT, INT, FLOAT or BOOL. terms are `term AND term ...`, each
// `col = v`, `col LIKE v`, or either with LOWER(col) on the left; a value v
// is a `?` placeholder or a 'text' literal. Anything else is a parse error.
package sqlx

import (
	"fmt"
	"strings"
)

type tokenKind int

const (
	tkEOF tokenKind = iota
	tkIdent
	tkKeyword
	tkString
	tkParam  // ?
	tkSymbol // punctuation and =
)

type token struct {
	kind tokenKind
	text string // keywords are uppercased; idents keep original case
	pos  int
}

var keywords = map[string]bool{}

func init() {
	for _, k := range []string{
		"SELECT", "FROM", "WHERE", "AND", "LIKE", "ORDER", "BY", "ASC", "DESC",
		"INSERT", "INTO", "VALUES", "DELETE", "CREATE", "TABLE", "INDEX", "ON",
		"PRIMARY", "KEY", "NOT", "NULL", "TEXT", "INT", "INTEGER", "FLOAT",
		"REAL", "BOOL", "BOOLEAN",
	} {
		keywords[k] = true
	}
}

func lexErr(pos int, format string, args ...any) error {
	return fmt.Errorf("sqlx: parse error at offset %d: %s", pos, fmt.Sprintf(format, args...))
}

// lex tokenizes the whole statement up front; parse errors then carry
// byte offsets into the original text.
func lex(src string) ([]token, error) {
	var toks []token
	pos := 0
	for {
		pos = skipSpace(src, pos)
		if pos >= len(src) {
			return append(toks, token{kind: tkEOF, pos: pos}), nil
		}
		start, c := pos, src[pos]
		switch {
		case c == '\'' || c == '"': // a text literal, or a quoted identifier
			var b strings.Builder
			for pos++; pos < len(src); pos++ {
				if src[pos] == c {
					if c == '\'' && pos+1 < len(src) && src[pos+1] == '\'' { // escaped quote
						pos++
					} else {
						break
					}
				}
				b.WriteByte(src[pos])
			}
			if pos >= len(src) {
				return nil, lexErr(start, "unterminated %c", c)
			}
			pos++
			kind := tkString
			if c == '"' {
				kind = tkIdent
			}
			toks = append(toks, token{kind: kind, text: b.String(), pos: start})
		case isIdentStart(c):
			for pos < len(src) && (isIdentStart(src[pos]) || '0' <= src[pos] && src[pos] <= '9') {
				pos++
			}
			word := src[start:pos]
			if up := strings.ToUpper(word); keywords[up] {
				toks = append(toks, token{kind: tkKeyword, text: up, pos: start})
			} else {
				toks = append(toks, token{kind: tkIdent, text: word, pos: start})
			}
		case c == '?':
			pos++
			toks = append(toks, token{kind: tkParam, text: "?", pos: start})
		case strings.IndexByte("(),=;", c) >= 0:
			pos++
			toks = append(toks, token{kind: tkSymbol, text: string(c), pos: start})
		default:
			return nil, lexErr(start, "unexpected character %q", c)
		}
	}
}

// skipSpace skips white space and -- line comments.
func skipSpace(src string, pos int) int {
	for pos < len(src) {
		switch c := src[pos]; {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			pos++
		case strings.HasPrefix(src[pos:], "--"):
			for pos < len(src) && src[pos] != '\n' {
				pos++
			}
		default:
			return pos
		}
	}
	return pos
}

func isIdentStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}
