// Package index implements the EIL full-text engine: an in-memory inverted
// index with positional postings, per-field statistics, BM25 relevance
// scoring, phrase matching, and snippet extraction. It is the substitute for
// the OmniFind enterprise search platform the paper builds on; the SIAPI
// query layer (package siapi) compiles its query AST down to the primitives
// exposed here.
//
// The index is safe for concurrent use: writes take an exclusive lock,
// searches take a shared lock. Tokenization runs outside the lock (see
// segment.go), so concurrent writers contend only on the short merge step.
package index

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"unicode/utf8"

	"repro/internal/textproc"
)

// DocID identifies a document inside one Index. IDs are dense and assigned
// in insertion order; deleted documents leave a tombstone.
type DocID uint32

// Field is one named region of a document. Body text, titles, and extracted
// concept values are all fields; queries may target any subset.
type Field struct {
	Name string
	Text string
	// Keyword marks the field as an exact-value concept field: the whole
	// (whitespace-folded, lowercased) value is indexed as a single term, in
	// addition to its individual tokens. EIL uses keyword fields for
	// annotation-derived concepts such as towers and roles.
	Keyword bool
	// Weight scales this field's BM25 contribution. Zero means 1.0.
	Weight float64
}

// Document is the unit of indexing. ExtID is the caller's stable identifier
// (for EIL, the repository path); Meta carries stored metadata returned with
// hits, most importantly the business-activity ID.
type Document struct {
	ExtID  string
	Fields []Field
	Meta   map[string]string
}

// ErrNotFound is returned when a document lookup misses.
var ErrNotFound = errors.New("index: document not found")

// ErrDuplicate is returned when adding a document whose ExtID is already
// present and live.
var ErrDuplicate = errors.New("index: duplicate external id")

// postingList is the per-(field,term) list, stored column-wise: entry i is
// document docs[i], in ascending DocID order, whose token positions are
// pos[ends[i-1]:ends[i]] (from 0 for the first entry). A list is three flat
// arrays whatever its length — no heap object, and no pointer for the
// garbage collector to follow, per posting — and the term frequency of an
// entry is the difference of two offsets. Positions are ascending within one
// field of a document; a document with two fields of the same name lists the
// second field's positions after the first's, restarting from 0. live tracks
// the number of non-tombstoned documents in docs, so document frequency never
// requires rescanning the list.
type postingList struct {
	docs []DocID
	ends []uint32
	pos  []uint32
	live int
}

// start is the offset in pos of entry i's first position.
func (pl *postingList) start(i int) uint32 {
	if i == 0 {
		return 0
	}
	return pl.ends[i-1]
}

// positions returns entry i's positions, capped so an append cannot reach
// the next entry's.
func (pl *postingList) positions(i int) []uint32 {
	s, e := pl.start(i), pl.ends[i]
	return pl.pos[s:e:e]
}

// tf is the number of occurrences entry i records.
func (pl *postingList) tf(i int) int { return int(pl.ends[i] - pl.start(i)) }

type fieldTerm struct {
	field string
	term  string
}

type docEntry struct {
	extID  string
	meta   map[string]string
	fields []storedField
}

type storedField struct {
	name   string
	text   string
	length int // token count, for BM25 normalization
	weight float64
}

// fieldData is the dense per-document statistics table for one field:
// token length and BM25 weight indexed by DocID. A zero weight means the
// document does not have the field (stored weights are never zero), in which
// case scoring falls back to length 0 and weight 1 — the same answer the old
// linear scan over stored fields gave for absent fields.
type fieldData struct {
	lens    []int32
	weights []float64
}

// ensure grows the tables to cover n documents.
func (fd *fieldData) ensure(n int) {
	if len(fd.lens) >= n {
		return
	}
	fd.lens = append(fd.lens, make([]int32, n-len(fd.lens))...)
	fd.weights = append(fd.weights, make([]float64, n-len(fd.weights))...)
}

// at returns the field length and weight for one document.
func (fd *fieldData) at(id DocID) (length int, weight float64) {
	if fd == nil || int(id) >= len(fd.lens) {
		return 0, 1
	}
	w := fd.weights[id]
	if w == 0 {
		return 0, 1
	}
	return int(fd.lens[id]), w
}

// Index is the inverted index. Create one with New.
type Index struct {
	mu       sync.RWMutex
	analyzer textproc.Analyzer
	docs     []docEntry
	// deleted is the tombstone bitmap, parallel to docs: a dense slice the
	// evaluation hot loops can probe without touching the wide docEntry.
	deleted  []bool
	byExt    map[string]DocID
	postings map[fieldTerm]*postingList
	// fieldTotals tracks the sum of token lengths per field for average
	// length in BM25; fieldDocs counts docs that have the field.
	fieldTotals map[string]int
	fieldDocs   map[string]int
	// fieldLens holds the dense per-doc length/weight tables consulted once
	// per scored posting.
	fieldLens map[string]*fieldData
	liveDocs  int

	// gen counts index mutations (Add, AddBatch, Delete). Query-result
	// caches key on it so any write invalidates without coordination.
	gen atomic.Uint64

	// accPool recycles per-query scoring accumulators.
	accPool sync.Pool
}

// New returns an empty index using the given analyzer. Pass
// textproc.DefaultAnalyzer for the standard EIL configuration.
func New(a textproc.Analyzer) *Index {
	return &Index{
		analyzer:    a,
		byExt:       make(map[string]DocID),
		postings:    make(map[fieldTerm]*postingList),
		fieldTotals: make(map[string]int),
		fieldDocs:   make(map[string]int),
		fieldLens:   make(map[string]*fieldData),
	}
}

// Analyzer returns the analyzer the index was built with. Query layers must
// use it so query terms normalize identically to indexed terms.
func (ix *Index) Analyzer() textproc.Analyzer { return ix.analyzer }

// Generation reports the index mutation epoch: it changes after every Add,
// AddBatch, or Delete. Caches key results on it to invalidate on write.
func (ix *Index) Generation() uint64 { return ix.gen.Load() }

// Add indexes one document and returns its DocID. Adding an ExtID that is
// already live returns ErrDuplicate. Tokenization happens outside the index
// lock; only the final merge takes it.
func (ix *Index) Add(doc Document) (DocID, error) {
	seg := newSegment(ix.analyzer)
	if err := seg.add(doc); err != nil {
		return 0, err
	}
	ids, err := ix.mergeSegments([]*segment{seg})
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}

// keywordPos is the sentinel position used for whole-value keyword terms so
// they never participate in phrase adjacency.
const keywordPos = ^uint32(0)

// keywordTerm normalizes a whole field value into a single exact-match term.
func keywordTerm(value string) string {
	v := textproc.FoldWhitespace(value)
	if v == "" {
		return ""
	}
	return "\x00" + lowerTerm(v)
}

// KeywordTerm exposes the keyword-term normalization for query compilers.
func KeywordTerm(value string) string { return keywordTerm(value) }

// lowerTerm lowercases a keyword value: the ASCII fast path avoids an
// allocation for the common case, and values carrying non-ASCII bytes
// (accented client or person names) go through full Unicode lowercasing so
// exact-match concept fields stay case-insensitive for them too.
func lowerTerm(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return strings.ToLower(s)
		}
	}
	return lowerASCII(s)
}

func lowerASCII(s string) string {
	b := []byte(s)
	changed := false
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + 32
			changed = true
		}
	}
	if !changed {
		return s
	}
	return string(b)
}

// Delete tombstones the document with the given external ID. Postings are
// retained but filtered at read time; EIL re-ingests rather than compacting.
// The stored fields are re-tokenized (outside the hot path — deletes are
// rare) to decrement each affected posting list's live document frequency.
func (ix *Index) Delete(extID string) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	id, ok := ix.byExt[extID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, extID)
	}
	e := &ix.docs[id]
	ix.deleted[id] = true
	delete(ix.byExt, extID)
	seen := make(map[fieldTerm]struct{})
	decr := func(key fieldTerm) {
		if _, dup := seen[key]; dup {
			return
		}
		seen[key] = struct{}{}
		if pl := ix.postings[key]; pl != nil {
			if _, ok := findPosting(pl, id); ok {
				pl.live--
			}
		}
	}
	for _, f := range e.fields {
		ix.fieldTotals[f.name] -= f.length
		ix.fieldDocs[f.name]--
		for _, tok := range ix.analyzer.Tokenize(f.text) {
			decr(fieldTerm{f.name, tok.Term})
		}
		// The whole-value term exists only if the field was keyword-indexed;
		// the lookup inside decr resolves that exactly.
		if kw := keywordTerm(f.text); kw != "" {
			decr(fieldTerm{f.name, kw})
		}
	}
	ix.liveDocs--
	ix.gen.Add(1)
	return nil
}

// DocCount reports the number of live documents.
func (ix *Index) DocCount() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.liveDocs
}

// TermCount reports the number of distinct (field, term) postings lists;
// useful for diagnostics and tests.
func (ix *Index) TermCount() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.postings)
}

// ExtID resolves a DocID back to the caller's identifier.
func (ix *Index) ExtID(id DocID) (string, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if int(id) >= len(ix.docs) || ix.deleted[id] {
		return "", ErrNotFound
	}
	return ix.docs[id].extID, nil
}

// Lookup resolves an external ID to its DocID.
func (ix *Index) Lookup(extID string) (DocID, bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	id, ok := ix.byExt[extID]
	return id, ok
}

// Meta returns the stored metadata value for a document, or "" if absent.
func (ix *Index) Meta(id DocID, key string) string {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if int(id) >= len(ix.docs) || ix.deleted[id] {
		return ""
	}
	return ix.docs[id].meta[key]
}

// FieldText returns the stored text of a field, for snippet generation and
// result display. The empty string is returned when the field is absent.
func (ix *Index) FieldText(id DocID, field string) string {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if int(id) >= len(ix.docs) || ix.deleted[id] {
		return ""
	}
	return ix.docs[id].text(field)
}

func (d *docEntry) text(field string) string {
	for _, f := range d.fields {
		if f.name == field {
			return f.text
		}
	}
	return ""
}

// Stored is what a result list shows of one document. A document deleted
// after it was scored comes back zero: live documents never have an empty
// external ID.
type Stored struct {
	ExtID string
	Meta  string // the value of the requested metadata key
	Text  string // the text of the requested stored field
}

// StoredFor resolves a hit list to its documents' external IDs, one metadata
// value and one stored field, in hit order, under a single read lock: the
// whole list is read from one index state, and a concurrent writer waits for
// one acquisition per page rather than three per hit.
func (ix *Index) StoredFor(hits []Hit, metaKey, field string) []Stored {
	out := make([]Stored, len(hits))
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	for i, h := range hits {
		if int(h.Doc) >= len(ix.docs) || ix.deleted[h.Doc] {
			continue
		}
		d := &ix.docs[h.Doc]
		out[i] = Stored{ExtID: d.extID, Meta: d.meta[metaKey], Text: d.text(field)}
	}
	return out
}

// FieldNames returns the sorted set of field names present in the index.
func (ix *Index) FieldNames() []string {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	names := make([]string, 0, len(ix.fieldDocs))
	for n, c := range ix.fieldDocs {
		if c > 0 {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// Compact rebuilds the index without tombstoned documents, reclaiming the
// postings and stored fields deletions left behind. Document IDs are
// reassigned; external IDs are stable. The caller swaps the returned index
// in; the original is untouched.
func (ix *Index) Compact() *Index {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	fresh := New(ix.analyzer)
	for i := range ix.docs {
		if ix.deleted[i] {
			continue
		}
		d := &ix.docs[i]
		doc := Document{ExtID: d.extID, Meta: d.meta}
		for _, f := range d.fields {
			doc.Fields = append(doc.Fields, Field{Name: f.name, Text: f.text, Weight: f.weight})
		}
		// Keyword fields are re-derived from the stored text: a field was
		// keyword-indexed iff its whole-value term exists in the postings.
		for fi := range doc.Fields {
			kw := keywordTerm(doc.Fields[fi].Text)
			if kw == "" {
				continue
			}
			if pl := ix.postings[fieldTerm{doc.Fields[fi].Name, kw}]; pl != nil {
				_, doc.Fields[fi].Keyword = findPosting(pl, DocID(i))
			}
		}
		// Add cannot fail here: ExtIDs were unique among live docs.
		if _, err := fresh.Add(doc); err != nil {
			panic("index: compact invariant violated: " + err.Error())
		}
	}
	return fresh
}

// ExtIDsByMeta returns the external IDs of live documents whose stored
// metadata key equals value, in insertion order. EIL uses it to enumerate a
// business activity's documents for withdrawal.
func (ix *Index) ExtIDsByMeta(key, value string) []string {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var out []string
	for i := range ix.docs {
		if ix.deleted[i] {
			continue
		}
		if ix.docs[i].meta[key] == value {
			out = append(out, ix.docs[i].extID)
		}
	}
	return out
}

// DocFreq reports how many live documents contain term in field. The count
// is maintained incrementally by Add and Delete, so this is O(1).
func (ix *Index) DocFreq(field, term string) int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	pl := ix.postings[fieldTerm{field, term}]
	if pl == nil {
		return 0
	}
	return pl.live
}

// fieldData returns (creating if needed) the stats table for a field.
// Callers must hold the write lock.
func (ix *Index) fieldData(name string) *fieldData {
	fd := ix.fieldLens[name]
	if fd == nil {
		fd = &fieldData{}
		ix.fieldLens[name] = fd
	}
	return fd
}
