package index

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"math"

	"repro/internal/textproc"
)

// Format is the snapshot format WriteTo writes. Load reads it and format 1,
// the gob image earlier builds wrote; any other format is refused by number.
//
// Format 2, every integer a uvarint unless it says otherwise:
//
//	header:   formatMagic | Format | analyzer flags (one byte)
//	docs:     count, then per document: ext ID | meta count, (key | value)* |
//	          field count, (name | text | length | weight, float64 bits LE)* |
//	          tombstone (one byte, 0 or 1)
//	stats:    fieldTotals count, (name | zig-zag total)* |
//	          fieldDocs count, (name | zig-zag count)* | liveDocs
//	postings: list count, then per list: field | term | entry count n |
//	          n document deltas (the first from 0) | n positions counts |
//	          every entry's positions as zig-zag deltas, from 0 per entry
//
// Strings are a length and their bytes. Positions take signed deltas because
// a document that repeats a field name restarts its positions at 0.
const Format = 2

// formatGob is the gob format earlier builds wrote; Load still reads it.
const formatGob = 1

// formatMagic opens a format-2 snapshot. A gob stream never starts with
// 0x89: a gob message length is one byte below 0x80, or a byte count of
// 0xF8 or above.
const formatMagic = "\x89EILIX\n"

// Analyzer flags of the format-2 header.
const (
	flagStem byte = 1 << iota
	flagDropStopwords
	flagKeepAcronyms
	flagsKnown = flagStem | flagDropStopwords | flagKeepAcronyms
)

func analyzerFlags(a textproc.Analyzer) byte {
	var f byte
	if a.Stem {
		f |= flagStem
	}
	if a.DropStopwords {
		f |= flagDropStopwords
	}
	if a.KeepAcronyms {
		f |= flagKeepAcronyms
	}
	return f
}

// WriteTo serializes the index in format 2, streaming each posting list's
// columns as they are. It holds a read lock for the duration, so concurrent
// searches proceed but writes block.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	cw := &countWriter{w: w}
	// bw keeps the first write error, and Flush returns it.
	bw := bufio.NewWriterSize(cw, 64<<10)
	// b holds one document, one stats table or one posting list at a time.
	b := append([]byte(formatMagic), Format, analyzerFlags(ix.analyzer))
	b = binary.AppendUvarint(b, uint64(len(ix.docs)))
	for i := range ix.docs {
		d := &ix.docs[i]
		b = appendString(b, d.extID)
		b = binary.AppendUvarint(b, uint64(len(d.meta)))
		for k, v := range d.meta {
			b = appendString(appendString(b, k), v)
		}
		b = binary.AppendUvarint(b, uint64(len(d.fields)))
		for _, f := range d.fields {
			b = appendString(appendString(b, f.name), f.text)
			b = binary.AppendUvarint(b, uint64(f.length))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f.weight))
		}
		var del byte
		if ix.deleted[i] {
			del = 1
		}
		b = append(b, del)
		bw.Write(b)
		b = b[:0]
	}
	for _, m := range []map[string]int{ix.fieldTotals, ix.fieldDocs} {
		b = binary.AppendUvarint(b, uint64(len(m)))
		for name, n := range m {
			b = binary.AppendVarint(appendString(b, name), int64(n))
		}
	}
	b = binary.AppendUvarint(b, uint64(ix.liveDocs))
	b = binary.AppendUvarint(b, uint64(len(ix.postings)))
	bw.Write(b)
	for key, pl := range ix.postings {
		b = appendString(appendString(b[:0], key.field), key.term)
		b = binary.AppendUvarint(b, uint64(len(pl.docs)))
		var prev DocID
		for _, id := range pl.docs {
			b = binary.AppendUvarint(b, uint64(id-prev))
			prev = id
		}
		for i := range pl.docs {
			b = binary.AppendUvarint(b, uint64(pl.tf(i)))
		}
		for i := range pl.docs {
			var p int64
			for _, x := range pl.positions(i) {
				b = binary.AppendVarint(b, int64(x)-p)
				p = int64(x)
			}
		}
		bw.Write(b)
	}
	if err := bw.Flush(); err != nil {
		return cw.n, fmt.Errorf("index: encode: %w", err)
	}
	return cw.n, nil
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// Load reads an index WriteTo wrote, in format 2, or one an earlier build
// wrote in format 1. It never panics on corrupt input: structurally
// impossible snapshots (out-of-range doc IDs, counts larger than the bytes
// that would hold them, gob decoder blowups) come back as errors, so
// crash-recovery code can fall back to an older generation instead of dying.
// Neither does it accept what the evaluator's forward cursors would silently
// rank wrong: a posting list whose documents are not strictly ascending, an
// entry with no positions, or a list holding more positions than a uint32
// offset addresses. An entry's positions must ascend when its document has
// one field of the posting's name; with two or more, Add lists each field's
// positions after the previous one's, restarting from 0, and Load takes them
// as Add wrote them.
func Load(r io.Reader) (ix *Index, err error) {
	defer func() {
		if p := recover(); p != nil {
			ix, err = nil, fmt.Errorf("index: corrupt snapshot: %v", p)
		}
	}()
	data, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("index: read: %w", err)
	}
	if len(data) > 0 && data[0] == formatMagic[0] {
		return loadColumns(data)
	}
	return loadGob(data)
}

// readAll reads r to its end into one buffer, sized up front when r has a
// Size (a snapshot component, a bytes.Reader): growing a buffer of ten
// megabytes step by step allocates it about twice over.
func readAll(r io.Reader) ([]byte, error) {
	var buf bytes.Buffer
	if s, ok := r.(interface{ Size() int64 }); ok {
		buf.Grow(int(s.Size()) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// snapReader decodes a format-2 snapshot held in memory. The first failure
// sticks: it empties the input, so every later read returns zero and every
// loop over a count ends.
type snapReader struct {
	b     []byte
	err   error
	names map[string]string // field names and meta keys, shared
}

func (r *snapReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("index: corrupt snapshot: "+format, args...)
	}
	r.b = nil
}

func (r *snapReader) uvarint() uint64 {
	x, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("truncated varint")
		return 0
	}
	r.b = r.b[n:]
	return x
}

func (r *snapReader) varint() int64 {
	x, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail("truncated varint")
		return 0
	}
	r.b = r.b[n:]
	return x
}

func (r *snapReader) byte() byte {
	if len(r.b) == 0 {
		r.fail("truncated")
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

// count reads the number of items that follow, each at least a byte long,
// so a count larger than the bytes left is corrupt and never allocated.
func (r *snapReader) count(what string) int {
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		r.fail("claims %d %s in %d bytes", n, what, len(r.b))
		return 0
	}
	return int(n)
}

func (r *snapReader) raw() []byte {
	n := r.count("string bytes")
	s := r.b[:n]
	r.b = r.b[n:]
	return s
}

func (r *snapReader) string() string { return string(r.raw()) }

// name reads a field name or meta key: a few dozen distinct ones recur in
// every document, so they are allocated once.
func (r *snapReader) name() string {
	b := r.raw()
	if s, ok := r.names[string(b)]; ok {
		return s
	}
	s := string(b)
	r.names[s] = s
	return s
}

func (r *snapReader) counts() map[string]int {
	n := r.count("statistics")
	m := make(map[string]int, n)
	for i := 0; i < n; i++ {
		name := r.name()
		m[name] = int(r.varint())
	}
	return m
}

func loadColumns(data []byte) (*Index, error) {
	if !bytes.HasPrefix(data, []byte(formatMagic)) {
		return nil, fmt.Errorf("index: corrupt snapshot: bad magic")
	}
	r := &snapReader{b: data[len(formatMagic):], names: map[string]string{}}
	if format := r.uvarint(); format != Format {
		return nil, fmt.Errorf("index: unsupported snapshot format %d", format)
	}
	flags := r.byte()
	if flags&^flagsKnown != 0 {
		r.fail("unknown analyzer flags %#x", flags)
	}
	ix := New(textproc.Analyzer{
		Stem:          flags&flagStem != 0,
		DropStopwords: flags&flagDropStopwords != 0,
		KeepAcronyms:  flags&flagKeepAcronyms != 0,
	})
	n := r.count("documents")
	ix.docs = make([]docEntry, n)
	ix.deleted = make([]bool, n)
	for i := range ix.docs {
		d := &ix.docs[i]
		d.extID = r.string()
		if nm := r.count("meta entries"); nm > 0 {
			d.meta = make(map[string]string, nm)
			for j := 0; j < nm; j++ {
				k := r.name()
				d.meta[k] = r.string()
			}
		}
		if nf := r.count("fields"); nf > 0 {
			d.fields = make([]storedField, nf)
			for j := range d.fields {
				f := &d.fields[j]
				f.name, f.text = r.name(), r.string()
				length := r.uvarint()
				if length > math.MaxInt32 {
					r.fail("doc %d field %s is %d tokens long", i, f.name, length)
				}
				f.length = int(length)
				if len(r.b) < 8 {
					r.fail("truncated")
					break
				}
				f.weight = math.Float64frombits(binary.LittleEndian.Uint64(r.b))
				r.b = r.b[8:]
			}
		}
		switch r.byte() {
		case 0:
		case 1:
			ix.deleted[i] = true
		default:
			r.fail("doc %d has a bad tombstone", i)
		}
		if r.err != nil {
			return nil, r.err
		}
	}
	ix.fieldTotals = r.counts()
	ix.fieldDocs = r.counts()
	if live := r.uvarint(); live <= uint64(n) {
		ix.liveDocs = int(live)
	} else {
		r.fail("claims %d live documents of %d", live, n)
	}
	ix.indexDocs()

	lists := r.count("posting lists")
	ix.postings = make(map[fieldTerm]*postingList, lists)
	for l := 0; l < lists && r.err == nil; l++ {
		key := fieldTerm{r.name(), r.string()}
		if ix.postings[key] != nil {
			r.fail("posting %s/%s listed twice", key.field, key.term)
			break
		}
		ix.postings[key] = r.postingList(ix, key)
	}
	if r.err == nil && len(r.b) > 0 {
		r.fail("%d bytes after the last posting list", len(r.b))
	}
	if r.err != nil {
		return nil, r.err
	}
	return ix, nil
}

// postingList reads one list's columns, sizing each exactly from the counts
// that precede it.
func (r *snapReader) postingList(ix *Index, key fieldTerm) *postingList {
	corrupt := func(format string, args ...any) *postingList {
		r.fail("posting %s/%s "+format, append([]any{key.field, key.term}, args...)...)
		return nil
	}
	n := r.count("entries")
	pl := &postingList{docs: make([]DocID, n), ends: make([]uint32, n)}
	var prev DocID
	for i := range pl.docs {
		delta := r.uvarint()
		if delta > math.MaxUint32 {
			return corrupt("skips %d documents", delta)
		}
		// The sum wraps as the writer's difference did, so a list whose
		// documents descend reads as the list it is.
		doc := prev + DocID(delta)
		if int(doc) >= len(ix.docs) {
			return corrupt("references doc %d of %d", doc, len(ix.docs))
		}
		if i > 0 && doc <= prev {
			return corrupt("lists doc %d after doc %d", doc, prev)
		}
		pl.docs[i], prev = doc, doc
	}
	var total uint64
	for i, doc := range pl.docs {
		tf := r.uvarint()
		if tf == 0 && r.err == nil {
			return corrupt("has no positions for doc %d", doc)
		}
		if total += tf; tf > math.MaxUint32 || total > math.MaxUint32 {
			return corrupt("holds %d positions, more than an offset addresses", total)
		}
		pl.ends[i] = uint32(total)
	}
	if total > uint64(len(r.b)) {
		return corrupt("claims %d positions in %d bytes", total, len(r.b))
	}
	pl.pos = make([]uint32, total)
	for i, doc := range pl.docs {
		var p int64
		ordered := true
		s := pl.start(i)
		for j := s; j < pl.ends[i]; j++ {
			delta := r.varint()
			if j > s && delta <= 0 {
				ordered = false
			}
			if p += delta; p < 0 || p > math.MaxUint32 {
				return corrupt("has position %d for doc %d", p, doc)
			}
			pl.pos[j] = uint32(p)
		}
		if !ordered && !ix.docs[doc].repeats(key.field) {
			return corrupt("has positions out of order for doc %d", doc)
		}
		if !ix.deleted[doc] {
			pl.live++
		}
	}
	return pl
}

// indexDocs rebuilds what Load does not read: the external-ID map and the
// dense field-length tables of the live documents (the first occurrence of a
// field name in a document wins, matching the merge path).
func (ix *Index) indexDocs() {
	for i := range ix.docs {
		if ix.deleted[i] {
			continue
		}
		d := &ix.docs[i]
		ix.byExt[d.extID] = DocID(i)
		for _, f := range d.fields {
			fd := ix.fieldData(f.name)
			fd.ensure(i + 1)
			if fd.weights[i] == 0 {
				fd.lens[i] = int32(f.length)
				fd.weights[i] = f.weight
			}
		}
	}
}

// snapshot is format 1: the gob image of an Index earlier builds wrote.
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

// loadGob reads a format-1 snapshot into columns sized exactly, refusing
// what format 2 refuses.
func loadGob(data []byte) (*Index, error) {
	var snap snapshot
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&snap); err != nil {
		return nil, fmt.Errorf("index: decode: %w", err)
	}
	if snap.Format != formatGob {
		return nil, fmt.Errorf("index: unsupported snapshot format %d", snap.Format)
	}
	ix := New(snap.Analyzer)
	if snap.FieldTotals != nil {
		ix.fieldTotals = snap.FieldTotals
	}
	if snap.FieldDocs != nil {
		ix.fieldDocs = snap.FieldDocs
	}
	ix.liveDocs = snap.LiveDocs
	for _, sd := range snap.Docs {
		d := docEntry{extID: sd.ExtID, meta: sd.Meta}
		for _, f := range sd.Fields {
			d.fields = append(d.fields, storedField{name: f.Name, text: f.Text, length: f.Length, weight: f.Weight})
		}
		ix.docs = append(ix.docs, d)
		ix.deleted = append(ix.deleted, sd.Deleted)
	}
	ix.indexDocs()
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

type countWriter struct {
	w io.Writer
	n int64
}

func (cw *countWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}
