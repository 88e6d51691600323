package index

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/durable"
	"repro/internal/textproc"
)

// persistFormat is bumped whenever the on-disk layout changes; Load rejects
// mismatched versions rather than misreading them.
const persistFormat = 1

// snapshot is the gob-serializable image of an Index.
type snapshot struct {
	Format      int
	Analyzer    textproc.Analyzer
	Docs        []snapDoc
	Postings    []snapPosting
	FieldTotals map[string]int
	FieldDocs   map[string]int
	LiveDocs    int
}

type snapDoc struct {
	ExtID   string
	Meta    map[string]string
	Fields  []snapField
	Deleted bool
}

type snapField struct {
	Name   string
	Text   string
	Length int
	Weight float64
}

type snapPosting struct {
	Field   string
	Term    string
	Entries []snapEntry
}

type snapEntry struct {
	Doc       DocID
	Positions []uint32
}

// WriteTo serializes the index. It holds a read lock for the duration, so
// concurrent searches proceed but writes block.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	snap := snapshot{
		Format:      persistFormat,
		Analyzer:    ix.analyzer,
		FieldTotals: ix.fieldTotals,
		FieldDocs:   ix.fieldDocs,
		LiveDocs:    ix.liveDocs,
	}
	for i, d := range ix.docs {
		sd := snapDoc{ExtID: d.extID, Meta: d.meta, Deleted: ix.deleted[i]}
		for _, f := range d.fields {
			sd.Fields = append(sd.Fields, snapField{Name: f.name, Text: f.text, Length: f.length, Weight: f.weight})
		}
		snap.Docs = append(snap.Docs, sd)
	}
	// Format 1 is one snapEntry per entry; its positions are a sub-slice of
	// the list's column, so the columns never reach the disk as such.
	for key, pl := range ix.postings {
		sp := snapPosting{Field: key.field, Term: key.term, Entries: make([]snapEntry, len(pl.docs))}
		for i, id := range pl.docs {
			sp.Entries[i] = snapEntry{Doc: id, Positions: pl.positions(i)}
		}
		snap.Postings = append(snap.Postings, sp)
	}
	cw := &countWriter{w: w}
	if err := gob.NewEncoder(cw).Encode(snap); err != nil {
		return cw.n, fmt.Errorf("index: encode: %w", err)
	}
	return cw.n, nil
}

// Load reads an index previously written with WriteTo. It never panics on
// corrupt input: structurally impossible snapshots (out-of-range doc IDs,
// gob decoder blowups) come back as errors, so crash-recovery code can fall
// back to an older generation instead of dying. Neither does it accept what
// the evaluator's forward cursors would silently rank wrong: a posting list
// whose documents are not strictly ascending, or one holding more positions
// than a uint32 offset addresses. An entry's positions must ascend when its
// document has one field of the posting's name; with two or more, Add lists
// each field's positions after the previous one's, restarting from 0, and
// Load takes them as Add wrote them.
func Load(r io.Reader) (ix *Index, err error) {
	defer func() {
		if p := recover(); p != nil {
			ix, err = nil, fmt.Errorf("index: corrupt snapshot: %v", p)
		}
	}()
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("index: decode: %w", err)
	}
	if snap.Format != persistFormat {
		return nil, fmt.Errorf("index: unsupported snapshot format %d", snap.Format)
	}
	ix = New(snap.Analyzer)
	ix.fieldTotals = snap.FieldTotals
	ix.fieldDocs = snap.FieldDocs
	if ix.fieldTotals == nil {
		ix.fieldTotals = map[string]int{}
	}
	if ix.fieldDocs == nil {
		ix.fieldDocs = map[string]int{}
	}
	ix.liveDocs = snap.LiveDocs
	for i, sd := range snap.Docs {
		d := docEntry{extID: sd.ExtID, meta: sd.Meta}
		for _, f := range sd.Fields {
			d.fields = append(d.fields, storedField{name: f.Name, text: f.Text, length: f.Length, weight: f.Weight})
		}
		ix.docs = append(ix.docs, d)
		ix.deleted = append(ix.deleted, sd.Deleted)
		if !sd.Deleted {
			ix.byExt[sd.ExtID] = DocID(i)
			// Rebuild the dense field-length table (first occurrence of a
			// field name in a document wins, matching the merge path).
			for _, f := range d.fields {
				fd := ix.fieldData(f.name)
				fd.ensure(len(ix.docs))
				if fd.weights[i] == 0 {
					fd.lens[i] = int32(f.length)
					fd.weights[i] = f.weight
				}
			}
		}
	}
	for _, sp := range snap.Postings {
		corrupt := func(format string, args ...any) error {
			return fmt.Errorf("index: corrupt snapshot: posting %s/%s "+format, append([]any{sp.Field, sp.Term}, args...)...)
		}
		total := 0
		for _, e := range sp.Entries {
			total += len(e.Positions)
		}
		if uint64(total) > math.MaxUint32 {
			return nil, corrupt("holds %d positions, more than an offset addresses", total)
		}
		pl := &postingList{
			docs: make([]DocID, len(sp.Entries)),
			ends: make([]uint32, len(sp.Entries)),
			pos:  make([]uint32, 0, total),
		}
		for i, e := range sp.Entries {
			// A corrupt snapshot can reference documents that do not exist;
			// reject it rather than index out of range below.
			if int(e.Doc) < 0 || int(e.Doc) >= len(ix.docs) {
				return nil, corrupt("references doc %d of %d", e.Doc, len(ix.docs))
			}
			if i > 0 && e.Doc <= pl.docs[i-1] {
				return nil, corrupt("lists doc %d after doc %d", e.Doc, pl.docs[i-1])
			}
			if len(e.Positions) == 0 {
				return nil, corrupt("has no positions for doc %d", e.Doc)
			}
			if !ascending(e.Positions) && !ix.docs[e.Doc].repeats(sp.Field) {
				return nil, corrupt("has positions out of order for doc %d", e.Doc)
			}
			pl.docs[i] = e.Doc
			pl.pos = append(pl.pos, e.Positions...)
			pl.ends[i] = uint32(len(pl.pos))
			if !ix.deleted[e.Doc] {
				pl.live++
			}
		}
		ix.postings[fieldTerm{sp.Field, sp.Term}] = pl
	}
	return ix, nil
}

// ascending reports whether positions strictly ascend.
func ascending(positions []uint32) bool {
	for i := 1; i < len(positions); i++ {
		if positions[i] <= positions[i-1] {
			return false
		}
	}
	return true
}

// repeats reports whether the document has more than one field named name.
func (d *docEntry) repeats(name string) bool {
	n := 0
	for _, f := range d.fields {
		if f.name == name {
			n++
		}
	}
	return n > 1
}

// SaveFile writes the index to path atomically and durably (temp file +
// fsync + rename + directory fsync, via the shared durable helper).
func (ix *Index) SaveFile(path string) error {
	return durable.WriteFileAtomic(nil, path, func(w io.Writer) error {
		_, err := ix.WriteTo(w)
		return err
	})
}

// LoadFile reads an index snapshot from path.
func LoadFile(path string) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("index: load: %w", err)
	}
	defer f.Close()
	return Load(bufio.NewReader(f))
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
