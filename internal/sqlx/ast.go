package sqlx

import "repro/internal/relstore"

// Stmt is any parsed SQL statement.
type Stmt interface{ isStmt() }

// SelectStmt is SELECT col, ... FROM t [WHERE terms] [ORDER BY col [ASC|DESC], ...].
type SelectStmt struct {
	Columns []string
	Table   string
	Where   []Term
	OrderBy []OrderItem
}

// OrderItem is one ORDER BY key: a column of the table.
type OrderItem struct {
	Column string
	Desc   bool
}

// InsertStmt is INSERT INTO t VALUES (v, ...), one value per column in
// schema order.
type InsertStmt struct {
	Table  string
	Values []Operand
}

// DeleteStmt is DELETE FROM t WHERE terms.
type DeleteStmt struct {
	Table string
	Where []Term
}

// CreateTableStmt is CREATE TABLE.
type CreateTableStmt struct {
	Schema relstore.Schema
}

// CreateIndexStmt is CREATE INDEX name ON t (col, ...), a hash index.
type CreateIndexStmt struct {
	Name    string
	Table   string
	Columns []string
}

func (*SelectStmt) isStmt()      {}
func (*InsertStmt) isStmt()      {}
func (*DeleteStmt) isStmt()      {}
func (*CreateTableStmt) isStmt() {}
func (*CreateIndexStmt) isStmt() {}

// Term is one conjunct of a WHERE: `col = v` or `col LIKE v`, the column
// optionally wrapped in LOWER(...).
type Term struct {
	Column string
	Lower  bool
	Like   bool // LIKE; = otherwise
	Value  Operand
}

// Operand is a value in a statement: the parameter at index Param when
// Param >= 0, else the text literal Text.
type Operand struct {
	Text  string
	Param int
}
