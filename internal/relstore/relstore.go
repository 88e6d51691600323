package relstore

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Errors returned by the engine. Wrap-test with errors.Is.
var (
	ErrNoTable      = errors.New("relstore: no such table")
	ErrTableExists  = errors.New("relstore: table already exists")
	ErrNoColumn     = errors.New("relstore: no such column")
	ErrNotNull      = errors.New("relstore: NOT NULL constraint violated")
	ErrDuplicateKey = errors.New("relstore: duplicate key")
	ErrNoIndex      = errors.New("relstore: no such index")
	ErrIndexExists  = errors.New("relstore: index already exists")
	ErrArity        = errors.New("relstore: wrong number of values")
	// ErrSchemaChanged refuses a selection by column position (Sel.Version)
	// resolved against a schema version the database has since left.
	ErrSchemaChanged = errors.New("relstore: schema changed")
)

// Column describes one table column.
type Column struct {
	Name    string
	Type    Type
	NotNull bool
}

// Schema describes a table: its columns and optional primary key (a subset
// of column names; rows must be unique on it and its columns become NOT
// NULL).
type Schema struct {
	Table      string
	Columns    []Column
	PrimaryKey []string
}

// ColumnIndex returns the position of the named column, or -1.
func (s *Schema) ColumnIndex(name string) int {
	for i, c := range s.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Row is one tuple, in schema column order.
type Row []Value

// clone copies a row so callers cannot alias stored rows.
func (r Row) clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// table is the storage for one relation.
type table struct {
	schema  Schema
	rows    []Row // nil entries are deleted slots
	live    int
	pkIdx   *hashIndex              // over PrimaryKey columns, unique
	indexes []*hashIndex            // secondary hash indexes, ordered by lower-cased name
	sorted  map[string]*sortedIndex // ordered indexes for range scans
}

// hashIndex maps a composite key rendering to the row slots holding it.
// Every bucket is kept in ascending slot order, so an index lookup visits
// rows in the order a scan would, whatever the mutation history.
type hashIndex struct {
	name    string
	columns []int // column positions
	unique  bool
	buckets map[string][]int
}

func (ix *hashIndex) keyFor(r Row) string {
	var b strings.Builder
	for _, c := range ix.columns {
		b.WriteString(hashKey(r[c]))
		b.WriteByte('\x1f')
	}
	return b.String()
}

// keyForPins renders the key of the row whose columns cols hold vals; cols
// must cover every index column.
func (ix *hashIndex) keyForPins(cols []int, vals []Value) string {
	var b strings.Builder
	for _, c := range ix.columns {
		b.WriteString(hashKey(vals[slices.Index(cols, c)]))
		b.WriteByte('\x1f')
	}
	return b.String()
}

func (ix *hashIndex) insert(key string, slot int) {
	bucket := ix.buckets[key]
	i := sort.SearchInts(bucket, slot)
	bucket = append(bucket, 0)
	copy(bucket[i+1:], bucket[i:])
	bucket[i] = slot
	ix.buckets[key] = bucket
}

func (ix *hashIndex) remove(key string, slot int) {
	bucket := ix.buckets[key]
	i := sort.SearchInts(bucket, slot)
	if i == len(bucket) || bucket[i] != slot {
		return
	}
	if len(bucket) == 1 {
		delete(ix.buckets, key)
		return
	}
	ix.buckets[key] = append(bucket[:i], bucket[i+1:]...)
}

// DB is a collection of tables. The zero value is not usable; call NewDB.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*table
	// version counts schema changes (tables and indexes created or dropped);
	// written under mu, read without it by SchemaVersion.
	version atomic.Uint64
}

// NewDB returns an empty database.
func NewDB() *DB {
	db := &DB{tables: make(map[string]*table)}
	db.version.Store(1)
	return db
}

// SchemaVersion identifies the current set of tables, columns and indexes:
// it changes whenever a table or an index is created or dropped. Column
// positions resolved from Schema are valid for as long as it stays the same.
func (db *DB) SchemaVersion() uint64 { return db.version.Load() }

// table looks a table up under the engine lock, refusing positions resolved
// at another schema version (0 = the caller resolves nothing by position).
func (db *DB) table(name string, version uint64) (*table, error) {
	if version != 0 && version != db.version.Load() {
		return nil, fmt.Errorf("%w: at version %d, asked for %d", ErrSchemaChanged, db.version.Load(), version)
	}
	t, ok := db.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoTable, name)
	}
	return t, nil
}

// CreateTable registers a new table. Primary-key columns become NOT NULL.
func (db *DB) CreateTable(s Schema) error {
	if s.Table == "" || len(s.Columns) == 0 {
		return fmt.Errorf("relstore: invalid schema for %q", s.Table)
	}
	seen := map[string]bool{}
	for _, c := range s.Columns {
		lc := strings.ToLower(c.Name)
		if seen[lc] {
			return fmt.Errorf("relstore: duplicate column %q in %s", c.Name, s.Table)
		}
		seen[lc] = true
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	key := strings.ToLower(s.Table)
	if _, ok := db.tables[key]; ok {
		return fmt.Errorf("%w: %s", ErrTableExists, s.Table)
	}
	t := &table{schema: s}
	if len(s.PrimaryKey) > 0 {
		cols := make([]int, len(s.PrimaryKey))
		for i, name := range s.PrimaryKey {
			ci := s.ColumnIndex(name)
			if ci < 0 {
				return fmt.Errorf("%w: primary key column %q of %s", ErrNoColumn, name, s.Table)
			}
			cols[i] = ci
			t.schema.Columns[ci].NotNull = true
		}
		t.pkIdx = &hashIndex{name: "__pk", columns: cols, unique: true, buckets: map[string][]int{}}
	}
	db.tables[key] = t
	db.version.Add(1)
	return nil
}

// DropTable removes a table and its indexes.
func (db *DB) DropTable(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := db.tables[key]; !ok {
		return fmt.Errorf("%w: %s", ErrNoTable, name)
	}
	delete(db.tables, key)
	db.version.Add(1)
	return nil
}

// Schema returns a copy of the named table's schema.
func (db *DB) Schema(name string) (Schema, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, err := db.table(name, 0)
	if err != nil {
		return Schema{}, err
	}
	s := t.schema
	s.Columns = append([]Column(nil), t.schema.Columns...)
	s.PrimaryKey = append([]string(nil), t.schema.PrimaryKey...)
	return s, nil
}

// TableNames lists tables in sorted order.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.tables))
	for _, t := range db.tables {
		names = append(names, t.schema.Table)
	}
	sort.Strings(names)
	return names
}

// CreateIndex builds a secondary hash index over the given columns.
func (db *DB) CreateIndex(indexName, tableName string, columns []string, unique bool) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, err := db.table(tableName, 0)
	if err != nil {
		return err
	}
	key := strings.ToLower(indexName)
	at, exists := sort.Find(len(t.indexes), func(i int) int { return strings.Compare(key, strings.ToLower(t.indexes[i].name)) })
	if exists {
		return fmt.Errorf("%w: %s", ErrIndexExists, indexName)
	}
	cols, err := t.positions(columns)
	if err != nil {
		return err
	}
	ix := &hashIndex{name: indexName, columns: cols, unique: unique, buckets: map[string][]int{}}
	for slot, r := range t.rows {
		if r == nil {
			continue
		}
		k := ix.keyFor(r)
		if unique && len(ix.buckets[k]) > 0 {
			return fmt.Errorf("%w: building unique index %s", ErrDuplicateKey, indexName)
		}
		ix.insert(k, slot)
	}
	t.indexes = slices.Insert(t.indexes, at, ix)
	db.version.Add(1)
	return nil
}

// positions resolves column names to their positions in the schema.
func (t *table) positions(columns []string) ([]int, error) {
	cols := make([]int, len(columns))
	for i, name := range columns {
		ci := t.schema.ColumnIndex(name)
		if ci < 0 {
			return nil, fmt.Errorf("%w: %s.%s", ErrNoColumn, t.schema.Table, name)
		}
		cols[i] = ci
	}
	return cols, nil
}

// prepareRow validates and coerces values against the schema.
func (t *table) prepareRow(r Row) (Row, error) {
	if len(r) != len(t.schema.Columns) {
		return nil, fmt.Errorf("%w: table %s has %d columns, got %d",
			ErrArity, t.schema.Table, len(t.schema.Columns), len(r))
	}
	out := make(Row, len(r))
	for i, v := range r {
		col := t.schema.Columns[i]
		cv, err := Coerce(v, col.Type)
		if err != nil {
			return nil, fmt.Errorf("%s.%s: %w", t.schema.Table, col.Name, err)
		}
		if cv == nil && col.NotNull {
			return nil, fmt.Errorf("%w: %s.%s", ErrNotNull, t.schema.Table, col.Name)
		}
		out[i] = cv
	}
	return out, nil
}

// Insert appends one row (in schema column order).
func (db *DB) Insert(tableName string, r Row) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, err := db.table(tableName, 0)
	if err != nil {
		return err
	}
	row, err := t.prepareRow(r)
	if err != nil {
		return err
	}
	return t.insertLocked(row)
}

func (t *table) insertLocked(row Row) error {
	if t.pkIdx != nil {
		k := t.pkIdx.keyFor(row)
		if len(t.pkIdx.buckets[k]) > 0 {
			return fmt.Errorf("%w: %s primary key %s", ErrDuplicateKey, t.schema.Table, k)
		}
	}
	for _, ix := range t.indexes {
		if ix.unique {
			k := ix.keyFor(row)
			if len(ix.buckets[k]) > 0 {
				return fmt.Errorf("%w: %s index %s", ErrDuplicateKey, t.schema.Table, ix.name)
			}
		}
	}
	slot := len(t.rows)
	t.rows = append(t.rows, row)
	t.live++
	if t.pkIdx != nil {
		t.pkIdx.insert(t.pkIdx.keyFor(row), slot)
	}
	for _, ix := range t.indexes {
		ix.insert(ix.keyFor(row), slot)
	}
	t.sortedInsert(slot, row)
	return nil
}

// Pred filters rows; return true to keep the row. It runs under the engine
// lock on the stored row itself: it must not modify or retain the row, nor
// call back into the database.
type Pred func(Row) bool

// Range bounds one column: Lo <= value <= Hi, a nil bound being open and the
// flags making each bound inclusive. NULLs are never in range.
type Range struct {
	Col          int
	Lo, Hi       Value
	LoInc, HiInc bool
}

// Sel names the rows of one table an operation applies to, by column
// position. Every part must hold: the EqCols equal EqVals (under Equal),
// Range contains its column, Pred accepts the row. An error from Pred ends
// the operation at that row and is returned; Pred is bound by the rules of
// the Pred type. A hash index covering a subset of EqCols, or else a sorted
// index on the Range column, narrows the rows visited; otherwise the table
// is scanned. Rows are visited in slot (insertion) order whether or not a
// hash index serves the lookup, and in (value, slot) order when a sorted
// index does.
type Sel struct {
	// Version is the SchemaVersion the positions were resolved at; the
	// operation fails with ErrSchemaChanged once it is stale. Zero skips
	// the check, for callers that resolved nothing by position.
	Version uint64
	EqCols  []int
	EqVals  []Value
	Range   *Range
	Pred    func(Row) (bool, error)
}

// each calls visit for every live row sel selects, until visit returns false
// or sel.Pred fails.
func (t *table) each(sel *Sel, visit func(r Row) bool) error {
	var err error
	match := func(r Row) bool {
		if r == nil || !rowMatches(r, sel.EqCols, sel.EqVals) ||
			(sel.Range != nil && !sel.Range.contains(r[sel.Range.Col])) {
			return false
		}
		if sel.Pred == nil {
			return true
		}
		var ok bool
		ok, err = sel.Pred(r)
		return ok && err == nil
	}
	var slots []int
	if ix := t.findIndex(sel.EqCols); ix != nil {
		slots = ix.buckets[ix.keyForPins(sel.EqCols, sel.EqVals)]
	} else if ix := t.rangeIndex(sel); ix != nil {
		rg := sel.Range
		ix.scanRange(rg.Lo, rg.Hi, rg.LoInc, rg.HiInc, func(slot int) bool {
			slots = append(slots, slot)
			return true
		})
	} else {
		for _, r := range t.rows {
			if (match(r) && !visit(r)) || err != nil {
				return err
			}
		}
		return nil
	}
	for _, slot := range slots {
		if r := t.rows[slot]; (match(r) && !visit(r)) || err != nil {
			return err
		}
	}
	return nil
}

// rangeIndex returns the sorted index that serves sel's range, if any. Pins
// take precedence: a selection with both is not ranged.
func (t *table) rangeIndex(sel *Sel) *sortedIndex {
	if len(sel.EqCols) > 0 || sel.Range == nil {
		return nil
	}
	return t.findSorted(sel.Range.Col)
}

// contains reports whether v lies within the bounds; NULL and values that do
// not compare with a bound are outside.
func (rg *Range) contains(v Value) bool {
	if v == nil {
		return false
	}
	if rg.Lo != nil {
		c, err := Compare(v, rg.Lo)
		if err != nil || c < 0 || (!rg.LoInc && c == 0) {
			return false
		}
	}
	if rg.Hi != nil {
		c, err := Compare(v, rg.Hi)
		if err != nil || c > 0 || (!rg.HiInc && c == 0) {
			return false
		}
	}
	return true
}

// Select returns copies of the rows sel selects. Only selected rows are
// copied: the predicate sees the stored rows.
func (db *DB) Select(tableName string, sel Sel) ([]Row, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, err := db.table(tableName, sel.Version)
	if err != nil {
		return nil, err
	}
	return t.selectRows(&sel)
}

func (t *table) selectRows(sel *Sel) ([]Row, error) {
	var out []Row
	err := t.each(sel, func(r Row) bool {
		out = append(out, r.clone())
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Scan calls fn for every live row matching pred (nil pred = all rows). fn
// receives a copy; returning false stops the scan early.
func (db *DB) Scan(tableName string, pred Pred, fn func(Row) bool) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, err := db.table(tableName, 0)
	if err != nil {
		return err
	}
	var sel Sel
	if pred != nil {
		sel.Pred = func(r Row) (bool, error) { return pred(r), nil }
	}
	return t.each(&sel, func(r Row) bool { return fn(r.clone()) })
}

// LookupEqual finds rows where the named columns equal the given values,
// using an index when one covers a subset of those columns, otherwise
// scanning. Results are copies, in slot order either way.
func (db *DB) LookupEqual(tableName string, columns []string, values []Value) ([]Row, error) {
	if len(columns) != len(values) {
		return nil, fmt.Errorf("%w: %d columns, %d values", ErrArity, len(columns), len(values))
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, err := db.table(tableName, 0)
	if err != nil {
		return nil, err
	}
	cols, err := t.positions(columns)
	if err != nil {
		return nil, err
	}
	return t.selectRows(&Sel{EqCols: cols, EqVals: values})
}

func rowMatches(r Row, cols []int, values []Value) bool {
	for i, c := range cols {
		if !Equal(r[c], values[i]) {
			return false
		}
	}
	return true
}

// findIndex returns a hash index whose columns are all among cols, so that
// pinning cols pins its whole key: the primary key if it qualifies, else the
// index with the most columns, the first by name among equals.
func (t *table) findIndex(cols []int) *hashIndex {
	if len(cols) == 0 {
		return nil
	}
	covered := func(ix *hashIndex) bool {
		for _, c := range ix.columns {
			if !slices.Contains(cols, c) {
				return false
			}
		}
		return true
	}
	if t.pkIdx != nil && covered(t.pkIdx) {
		return t.pkIdx
	}
	var best *hashIndex
	for _, ix := range t.indexes {
		if covered(ix) && (best == nil || len(ix.columns) > len(best.columns)) {
			best = ix
		}
	}
	return best
}

// Update applies set (column name -> new value) to all rows matching pred
// and returns the number updated.
func (db *DB) Update(tableName string, pred Pred, set map[string]Value) (int, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, err := db.table(tableName, 0)
	if err != nil {
		return 0, err
	}
	setCols := make(map[int]Value, len(set))
	for name, v := range set {
		ci := t.schema.ColumnIndex(name)
		if ci < 0 {
			return 0, fmt.Errorf("%w: %s.%s", ErrNoColumn, tableName, name)
		}
		cv, err := Coerce(v, t.schema.Columns[ci].Type)
		if err != nil {
			return 0, fmt.Errorf("%s.%s: %w", tableName, name, err)
		}
		if cv == nil && t.schema.Columns[ci].NotNull {
			return 0, fmt.Errorf("%w: %s.%s", ErrNotNull, tableName, name)
		}
		setCols[ci] = cv
	}
	n := 0
	for slot, r := range t.rows {
		if r == nil || (pred != nil && !pred(r)) {
			continue
		}
		updated := r.clone()
		for ci, v := range setCols {
			updated[ci] = v
		}
		// Re-check uniqueness excluding this slot.
		if t.pkIdx != nil {
			k := t.pkIdx.keyFor(updated)
			for _, s := range t.pkIdx.buckets[k] {
				if s != slot {
					return n, fmt.Errorf("%w: %s primary key", ErrDuplicateKey, tableName)
				}
			}
		}
		for _, ix := range t.indexes {
			if !ix.unique {
				continue
			}
			k := ix.keyFor(updated)
			for _, s := range ix.buckets[k] {
				if s != slot {
					return n, fmt.Errorf("%w: %s index %s", ErrDuplicateKey, tableName, ix.name)
				}
			}
		}
		t.reindex(slot, r, updated)
		t.sortedUpdate(slot, r, updated)
		t.rows[slot] = updated
		n++
	}
	return n, nil
}

func (t *table) reindex(slot int, old, new Row) {
	if t.pkIdx != nil {
		ok, nk := t.pkIdx.keyFor(old), t.pkIdx.keyFor(new)
		if ok != nk {
			t.pkIdx.remove(ok, slot)
			t.pkIdx.insert(nk, slot)
		}
	}
	for _, ix := range t.indexes {
		ok, nk := ix.keyFor(old), ix.keyFor(new)
		if ok != nk {
			ix.remove(ok, slot)
			ix.insert(nk, slot)
		}
	}
}

// Delete removes all rows matching pred and returns the count.
func (db *DB) Delete(tableName string, pred Pred) (int, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, err := db.table(tableName, 0)
	if err != nil {
		return 0, err
	}
	n := 0
	for slot, r := range t.rows {
		if r == nil || (pred != nil && !pred(r)) {
			continue
		}
		if t.pkIdx != nil {
			t.pkIdx.remove(t.pkIdx.keyFor(r), slot)
		}
		for _, ix := range t.indexes {
			ix.remove(ix.keyFor(r), slot)
		}
		t.sortedRemove(slot, r)
		t.rows[slot] = nil
		t.live--
		n++
	}
	if len(t.rows)-t.live > t.live {
		t.compact()
	}
	return n, nil
}

// compact drops the deleted slots, keeping the live rows in order, and
// renumbers the slots every index holds. Renumbering is monotonic, so hash
// buckets stay in slot order and sorted entries in (value, slot) order.
// Delete compacts once dead slots outnumber live ones, which bounds a
// table's slots at twice its rows and costs a delete O(1) amortized.
func (t *table) compact() {
	moved := make([]int, len(t.rows))
	live := t.rows[:0]
	for slot, r := range t.rows {
		if r != nil {
			moved[slot] = len(live)
			live = append(live, r)
		}
	}
	for i := len(live); i < len(t.rows); i++ {
		t.rows[i] = nil
	}
	t.rows = live
	renumber := func(ix *hashIndex) {
		for _, bucket := range ix.buckets {
			for i, slot := range bucket {
				bucket[i] = moved[slot]
			}
		}
	}
	if t.pkIdx != nil {
		renumber(t.pkIdx)
	}
	for _, ix := range t.indexes {
		renumber(ix)
	}
	for _, ix := range t.sorted {
		for i := range ix.entries {
			ix.entries[i].slot = moved[ix.entries[i].slot]
		}
	}
}

// RowCount reports the number of live rows in a table.
func (db *DB) RowCount(tableName string) (int, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, err := db.table(tableName, 0)
	if err != nil {
		return 0, err
	}
	return t.live, nil
}
