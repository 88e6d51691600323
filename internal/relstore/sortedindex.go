package relstore

import (
	"fmt"
	"sort"
	"strings"
)

// sortedIndex is an ordered secondary index over a single column, backed by
// a sorted slice of (value, slot) pairs. It serves range predicates
// (BETWEEN, <, <=, >, >=) that hash indexes cannot. NULLs are not indexed;
// range predicates never match NULL anyway.
type sortedIndex struct {
	name   string
	column int
	// entries are sorted by value (Compare order), ties by slot.
	entries []sortedEntry
}

type sortedEntry struct {
	value Value
	slot  int
}

func (ix *sortedIndex) insert(v Value, slot int) {
	if v == nil {
		return
	}
	i := ix.search(v, slot)
	ix.entries = append(ix.entries, sortedEntry{})
	copy(ix.entries[i+1:], ix.entries[i:])
	ix.entries[i] = sortedEntry{value: v, slot: slot}
}

func (ix *sortedIndex) remove(v Value, slot int) {
	if v == nil {
		return
	}
	i := ix.search(v, slot)
	if i < len(ix.entries) && ix.entries[i].slot == slot && Equal(ix.entries[i].value, v) {
		ix.entries = append(ix.entries[:i], ix.entries[i+1:]...)
	}
}

// search returns the insertion point for (v, slot).
func (ix *sortedIndex) search(v Value, slot int) int {
	return sort.Search(len(ix.entries), func(i int) bool {
		c, err := Compare(ix.entries[i].value, v)
		if err != nil {
			// Heterogeneous values cannot occur: the column is typed.
			return true
		}
		if c != 0 {
			return c > 0
		}
		return ix.entries[i].slot >= slot
	})
}

// Range scans slots with lo <= value <= hi; nil bounds are open. The
// inclusive flags control boundary behaviour.
func (ix *sortedIndex) scanRange(lo, hi Value, loInc, hiInc bool, fn func(slot int) bool) {
	start := 0
	if lo != nil {
		start = sort.Search(len(ix.entries), func(i int) bool {
			c, err := Compare(ix.entries[i].value, lo)
			if err != nil {
				return true
			}
			if loInc {
				return c >= 0
			}
			return c > 0
		})
	}
	for i := start; i < len(ix.entries); i++ {
		if hi != nil {
			c, err := Compare(ix.entries[i].value, hi)
			if err != nil {
				return
			}
			if c > 0 || (!hiInc && c == 0) {
				return
			}
		}
		if !fn(ix.entries[i].slot) {
			return
		}
	}
}

// CreateSortedIndex builds an ordered single-column index usable for range
// lookups through ScanRange (and maintained by inserts, updates, deletes).
func (db *DB) CreateSortedIndex(indexName, tableName, column string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, err := db.table(tableName, 0)
	if err != nil {
		return err
	}
	key := strings.ToLower(indexName)
	if _, ok := t.sorted[key]; ok {
		return fmt.Errorf("%w: %s", ErrIndexExists, indexName)
	}
	ci := t.schema.ColumnIndex(column)
	if ci < 0 {
		return fmt.Errorf("%w: %s.%s", ErrNoColumn, tableName, column)
	}
	ix := &sortedIndex{name: indexName, column: ci}
	for slot, r := range t.rows {
		if r != nil {
			ix.insert(r[ci], slot)
		}
	}
	if t.sorted == nil {
		t.sorted = map[string]*sortedIndex{}
	}
	t.sorted[key] = ix
	db.version.Add(1)
	return nil
}

// ScanRange iterates live rows of a table whose column value lies in
// [lo, hi] (nil bound = open; inclusivity per flag), using a sorted index
// when one exists on the column and falling back to a filtered scan. Rows
// are passed as copies; return false to stop.
func (db *DB) ScanRange(tableName, column string, lo, hi Value, loInc, hiInc bool, fn func(Row) bool) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, err := db.table(tableName, 0)
	if err != nil {
		return err
	}
	cols, err := t.positions([]string{column})
	if err != nil {
		return err
	}
	sel := Sel{Range: &Range{Col: cols[0], Lo: lo, Hi: hi, LoInc: loInc, HiInc: hiInc}}
	return t.each(&sel, func(r Row) bool { return fn(r.clone()) })
}

func (t *table) findSorted(column int) *sortedIndex {
	var names []string
	for n := range t.sorted {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if t.sorted[n].column == column {
			return t.sorted[n]
		}
	}
	return nil
}

// maintainSorted updates sorted indexes on mutation; called with the engine
// lock held.
func (t *table) sortedInsert(slot int, r Row) {
	for _, ix := range t.sorted {
		ix.insert(r[ix.column], slot)
	}
}

func (t *table) sortedRemove(slot int, r Row) {
	for _, ix := range t.sorted {
		ix.remove(r[ix.column], slot)
	}
}

func (t *table) sortedUpdate(slot int, old, new Row) {
	for _, ix := range t.sorted {
		if !Equal(old[ix.column], new[ix.column]) {
			ix.remove(old[ix.column], slot)
			ix.insert(new[ix.column], slot)
		}
	}
}
