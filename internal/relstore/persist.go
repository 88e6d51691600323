package relstore

import (
	"encoding/gob"
	"fmt"
	"io"
	"sort"
	"strings"
)

// persistFormat guards against misreading incompatible snapshots.
const persistFormat = 1

type dbSnapshot struct {
	Format int
	Tables []tableSnapshot
}

// tableSnapshot is one table. Snapshots written before sorted indexes were
// removed also carry a SortedIndexes field; gob skips it, and the rows load
// the same without that access path.
type tableSnapshot struct {
	Schema  Schema
	Rows    []Row
	Indexes []indexSnapshot
}

type indexSnapshot struct {
	Name    string
	Columns []string
	Unique  bool
}

func init() {
	// Row cells are interface values; register the concrete types gob may
	// meet inside them.
	gob.Register(int64(0))
	gob.Register(float64(0))
	gob.Register("")
	gob.Register(false)
}

// WriteTo serializes the database (schemas, live rows, index definitions).
// Indexes are rebuilt at load time rather than stored.
func (db *DB) WriteTo(w io.Writer) (int64, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	snap := dbSnapshot{Format: persistFormat}
	names := make([]string, 0, len(db.tables))
	for name := range db.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := db.tables[name]
		ts := tableSnapshot{Schema: t.schema}
		for _, r := range t.rows {
			if r != nil {
				ts.Rows = append(ts.Rows, r)
			}
		}
		for _, ix := range t.indexes {
			cols := make([]string, len(ix.columns))
			for i, ci := range ix.columns {
				cols[i] = t.schema.Columns[ci].Name
			}
			ts.Indexes = append(ts.Indexes, indexSnapshot{Name: ix.name, Columns: cols, Unique: ix.unique})
		}
		snap.Tables = append(snap.Tables, ts)
	}
	cw := &countWriter{w: w}
	if err := gob.NewEncoder(cw).Encode(snap); err != nil {
		return cw.n, fmt.Errorf("relstore: encode: %w", err)
	}
	return cw.n, nil
}

// Load reads a database previously written with WriteTo. It never panics on
// corrupt input: gob decoder blowups and structurally impossible snapshots
// surface as errors, so recovery code can fall back to an older generation.
func Load(r io.Reader) (db *DB, err error) {
	defer func() {
		if p := recover(); p != nil {
			db, err = nil, fmt.Errorf("relstore: corrupt snapshot: %v", p)
		}
	}()
	var snap dbSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("relstore: decode: %w", err)
	}
	if snap.Format != persistFormat {
		return nil, fmt.Errorf("relstore: unsupported snapshot format %d", snap.Format)
	}
	db = NewDB()
	for _, ts := range snap.Tables {
		if err := db.CreateTable(ts.Schema); err != nil {
			return nil, err
		}
		for _, row := range ts.Rows {
			if err := db.Insert(ts.Schema.Table, row); err != nil {
				return nil, fmt.Errorf("relstore: load %s: %w", ts.Schema.Table, err)
			}
		}
		for _, ix := range ts.Indexes {
			if err := db.CreateIndex(ix.Name, ts.Schema.Table, ix.Columns, ix.Unique); err != nil &&
				!strings.Contains(err.Error(), "already exists") {
				return nil, err
			}
		}
	}
	return db, nil
}

type countWriter struct {
	w io.Writer
	n int64
}

func (cw *countWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}
