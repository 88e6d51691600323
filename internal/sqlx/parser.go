package sqlx

import (
	"strings"

	"repro/internal/relstore"
)

// Parse parses a single SQL statement. A trailing semicolon is permitted.
func Parse(src string) (Stmt, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	stmt, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	p.accept(tkSymbol, ";")
	if !p.at(tkEOF, "") {
		return nil, p.errf("trailing input %q", p.peek().text)
	}
	return stmt, nil
}

type parser struct {
	toks   []token
	i      int
	params int
}

func (p *parser) peek() token { return p.toks[p.i] }

func (p *parser) next() token {
	t := p.toks[p.i]
	if t.kind != tkEOF {
		p.i++
	}
	return t
}

// at reports whether the current token has the given kind and (when text is
// non-empty) text.
func (p *parser) at(kind tokenKind, text string) bool {
	t := p.peek()
	return t.kind == kind && (text == "" || t.text == text)
}

// accept consumes the current token if it matches.
func (p *parser) accept(kind tokenKind, text string) bool {
	if p.at(kind, text) {
		p.next()
		return true
	}
	return false
}

// expect consumes the keyword or symbol text, or fails.
func (p *parser) expect(kind tokenKind, text string) error {
	if !p.accept(kind, text) {
		return p.errf("expected %s, found %q", text, p.peek().text)
	}
	return nil
}

func (p *parser) errf(format string, args ...any) error {
	return lexErr(p.peek().pos, format, args...)
}

func (p *parser) parseStmt() (Stmt, error) {
	switch {
	case p.accept(tkKeyword, "SELECT"):
		return p.parseSelect()
	case p.accept(tkKeyword, "INSERT"):
		return p.parseInsert()
	case p.accept(tkKeyword, "DELETE"):
		return p.parseDelete()
	case p.accept(tkKeyword, "CREATE"):
		return p.parseCreate()
	default:
		return nil, p.errf("expected a statement, found %q", p.peek().text)
	}
}

func (p *parser) ident() (string, error) {
	if p.at(tkIdent, "") {
		return p.next().text, nil
	}
	return "", p.errf("expected identifier, found %q", p.peek().text)
}

// idents parses `name, name, ...`.
func (p *parser) idents() ([]string, error) {
	var names []string
	for {
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		names = append(names, name)
		if !p.accept(tkSymbol, ",") {
			return names, nil
		}
	}
}

// parenIdents parses `(name, name, ...)`.
func (p *parser) parenIdents() ([]string, error) {
	if err := p.expect(tkSymbol, "("); err != nil {
		return nil, err
	}
	names, err := p.idents()
	if err != nil {
		return nil, err
	}
	return names, p.expect(tkSymbol, ")")
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	s := &SelectStmt{}
	var err error
	if s.Columns, err = p.idents(); err != nil {
		return nil, err
	}
	if err := p.expect(tkKeyword, "FROM"); err != nil {
		return nil, err
	}
	if s.Table, err = p.ident(); err != nil {
		return nil, err
	}
	if p.accept(tkKeyword, "WHERE") {
		if s.Where, err = p.parseWhere(); err != nil {
			return nil, err
		}
	}
	if p.accept(tkKeyword, "ORDER") {
		if err := p.expect(tkKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Column: col, Desc: p.accept(tkKeyword, "DESC")}
			if !item.Desc {
				p.accept(tkKeyword, "ASC")
			}
			s.OrderBy = append(s.OrderBy, item)
			if !p.accept(tkSymbol, ",") {
				break
			}
		}
	}
	return s, nil
}

// parseWhere parses `term AND term ...`.
func (p *parser) parseWhere() ([]Term, error) {
	var terms []Term
	for {
		var t Term
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if p.accept(tkSymbol, "(") {
			if !strings.EqualFold(name, "LOWER") {
				return nil, p.errf("unknown function %q", name)
			}
			if t.Column, err = p.ident(); err != nil {
				return nil, err
			}
			if err := p.expect(tkSymbol, ")"); err != nil {
				return nil, err
			}
			t.Lower = true
		} else {
			t.Column = name
		}
		switch {
		case p.accept(tkSymbol, "="):
		case p.accept(tkKeyword, "LIKE"):
			t.Like = true
		default:
			return nil, p.errf("expected = or LIKE, found %q", p.peek().text)
		}
		if t.Value, err = p.operand(); err != nil {
			return nil, err
		}
		terms = append(terms, t)
		if !p.accept(tkKeyword, "AND") {
			return terms, nil
		}
	}
}

// operand parses a value: `?` or a text literal.
func (p *parser) operand() (Operand, error) {
	switch t := p.peek(); t.kind {
	case tkParam:
		p.next()
		p.params++
		return Operand{Param: p.params - 1}, nil
	case tkString:
		p.next()
		return Operand{Text: t.text, Param: -1}, nil
	default:
		return Operand{}, p.errf("expected ? or a text literal, found %q", t.text)
	}
}

func (p *parser) parseInsert() (*InsertStmt, error) {
	if err := p.expect(tkKeyword, "INTO"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	s := &InsertStmt{Table: table}
	if err := p.expect(tkKeyword, "VALUES"); err != nil {
		return nil, err
	}
	if err := p.expect(tkSymbol, "("); err != nil {
		return nil, err
	}
	for {
		v, err := p.operand()
		if err != nil {
			return nil, err
		}
		s.Values = append(s.Values, v)
		if !p.accept(tkSymbol, ",") {
			break
		}
	}
	return s, p.expect(tkSymbol, ")")
}

func (p *parser) parseDelete() (*DeleteStmt, error) {
	if err := p.expect(tkKeyword, "FROM"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tkKeyword, "WHERE"); err != nil {
		return nil, err
	}
	where, err := p.parseWhere()
	if err != nil {
		return nil, err
	}
	return &DeleteStmt{Table: table, Where: where}, nil
}

func (p *parser) parseCreate() (Stmt, error) {
	switch {
	case p.accept(tkKeyword, "TABLE"):
		return p.parseCreateTable()
	case p.accept(tkKeyword, "INDEX"):
		s := &CreateIndexStmt{}
		var err error
		if s.Name, err = p.ident(); err != nil {
			return nil, err
		}
		if err := p.expect(tkKeyword, "ON"); err != nil {
			return nil, err
		}
		if s.Table, err = p.ident(); err != nil {
			return nil, err
		}
		if s.Columns, err = p.parenIdents(); err != nil {
			return nil, err
		}
		return s, nil
	default:
		return nil, p.errf("expected TABLE or INDEX after CREATE, found %q", p.peek().text)
	}
}

func (p *parser) parseCreateTable() (*CreateTableStmt, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tkSymbol, "("); err != nil {
		return nil, err
	}
	schema := relstore.Schema{Table: name}
	for {
		if p.accept(tkKeyword, "PRIMARY") {
			if err := p.expect(tkKeyword, "KEY"); err != nil {
				return nil, err
			}
			cols, err := p.parenIdents()
			if err != nil {
				return nil, err
			}
			schema.PrimaryKey = append(schema.PrimaryKey, cols...)
		} else {
			col, err := p.parseColumnDef(&schema)
			if err != nil {
				return nil, err
			}
			schema.Columns = append(schema.Columns, col)
		}
		if !p.accept(tkSymbol, ",") {
			break
		}
	}
	if err := p.expect(tkSymbol, ")"); err != nil {
		return nil, err
	}
	return &CreateTableStmt{Schema: schema}, nil
}

var columnTypes = map[string]relstore.Type{
	"TEXT": relstore.TText,
	"INT":  relstore.TInt, "INTEGER": relstore.TInt,
	"FLOAT": relstore.TFloat, "REAL": relstore.TFloat,
	"BOOL": relstore.TBool, "BOOLEAN": relstore.TBool,
}

func (p *parser) parseColumnDef(schema *relstore.Schema) (relstore.Column, error) {
	name, err := p.ident()
	if err != nil {
		return relstore.Column{}, err
	}
	typ, ok := columnTypes[p.peek().text]
	if !ok || !p.at(tkKeyword, "") {
		return relstore.Column{}, p.errf("expected column type, found %q", p.peek().text)
	}
	p.next()
	col := relstore.Column{Name: name, Type: typ}
	for {
		switch {
		case p.accept(tkKeyword, "NOT"):
			if err := p.expect(tkKeyword, "NULL"); err != nil {
				return relstore.Column{}, err
			}
			col.NotNull = true
		case p.accept(tkKeyword, "PRIMARY"):
			if err := p.expect(tkKeyword, "KEY"); err != nil {
				return relstore.Column{}, err
			}
			schema.PrimaryKey = append(schema.PrimaryKey, name)
		default:
			return col, nil
		}
	}
}
