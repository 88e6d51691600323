package index

// Parallel segment indexing. A segment is a private partial index one worker
// builds lock-free: tokenization — the expensive part of Add — happens with
// no coordination at all, and only the final merge of finished segments into
// the live index takes the exclusive lock. AddBatch partitions a batch into
// contiguous chunks, builds one segment per worker, and merges the segments
// in chunk order, so the resulting DocIDs, posting order, and statistics are
// byte-identical to a serial Add loop over the same documents.

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/textproc"
)

// segment is a partial index over a contiguous run of documents, with local
// DocIDs starting at zero. It is built by exactly one goroutine.
type segment struct {
	analyzer    textproc.Analyzer
	docs        []docEntry
	postings    map[fieldTerm]*postingList
	fieldTotals map[string]int
	fieldDocs   map[string]int
	byExt       map[string]struct{} // local duplicate detection
}

func newSegment(a textproc.Analyzer) *segment {
	return &segment{
		analyzer:    a,
		postings:    make(map[fieldTerm]*postingList),
		fieldTotals: make(map[string]int),
		fieldDocs:   make(map[string]int),
		byExt:       make(map[string]struct{}),
	}
}

// add tokenizes one document into the segment. It mirrors what the serial
// Add used to do under the index lock, against segment-local state.
func (s *segment) add(doc Document) error {
	if doc.ExtID == "" {
		return fmt.Errorf("index: empty external id")
	}
	if _, ok := s.byExt[doc.ExtID]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicate, doc.ExtID)
	}
	id := DocID(len(s.docs))
	entry := docEntry{extID: doc.ExtID, meta: doc.Meta}
	for _, f := range doc.Fields {
		w := f.Weight
		if w == 0 {
			w = 1
		}
		toks := s.analyzer.Tokenize(f.Text)
		for _, tok := range toks {
			s.addPosting(f.Name, tok.Term, id, uint32(tok.Pos))
		}
		if f.Keyword {
			kw := keywordTerm(f.Text)
			if kw != "" {
				s.addPosting(f.Name, kw, id, keywordPos)
			}
		}
		entry.fields = append(entry.fields, storedField{name: f.Name, text: f.Text, length: len(toks), weight: w})
		s.fieldTotals[f.Name] += len(toks)
		s.fieldDocs[f.Name]++
	}
	s.docs = append(s.docs, entry)
	s.byExt[doc.ExtID] = struct{}{}
	return nil
}

func (s *segment) addPosting(field, term string, id DocID, pos uint32) {
	key := fieldTerm{field, term}
	pl := s.postings[key]
	if pl == nil {
		pl = &postingList{}
		s.postings[key] = pl
	}
	pl.pos = append(pl.pos, pos)
	if n := len(pl.docs); n > 0 && pl.docs[n-1] == id {
		pl.ends[n-1]++
		return
	}
	pl.docs = append(pl.docs, id)
	pl.ends = append(pl.ends, uint32(len(pl.pos)))
	pl.live++
}

// mergeSegments folds finished segments into the live index inside one
// critical section. Validation runs first, so a duplicate external ID
// anywhere in the batch rejects the whole batch without partial application.
// Segments merge in slice order and each segment's documents keep their
// relative order, so IDs densely extend the index in batch order.
func (ix *Index) mergeSegments(segs []*segment) ([]DocID, error) {
	ix.mu.Lock()
	defer ix.mu.Unlock()

	total := 0
	for _, seg := range segs {
		total += len(seg.docs)
	}
	ids := make([]DocID, 0, total)

	// Validate against the live index and across segments before mutating.
	batch := make(map[string]struct{}, total)
	for _, seg := range segs {
		for i := range seg.docs {
			ext := seg.docs[i].extID
			if _, ok := ix.byExt[ext]; ok {
				return nil, fmt.Errorf("%w: %s", ErrDuplicate, ext)
			}
			if _, ok := batch[ext]; ok {
				return nil, fmt.Errorf("%w: %s", ErrDuplicate, ext)
			}
			batch[ext] = struct{}{}
		}
	}

	for _, seg := range segs {
		base := DocID(len(ix.docs))
		for i := range seg.docs {
			e := seg.docs[i]
			id := base + DocID(i)
			ix.docs = append(ix.docs, e)
			ix.deleted = append(ix.deleted, false)
			ix.byExt[e.extID] = id
			ix.liveDocs++
			ids = append(ids, id)
			// Dense per-field stats; the first occurrence of a field name
			// in a document wins, matching the old linear-scan lookup.
			for _, f := range e.fields {
				fd := ix.fieldData(f.name)
				fd.ensure(len(ix.docs))
				if fd.weights[id] == 0 {
					fd.lens[id] = int32(f.length)
					fd.weights[id] = f.weight
				}
			}
		}
		// A segment is discarded after its merge, so its columns are rebased
		// in place — DocIDs by base, offsets by the length of the positions
		// they land behind — and then appended, or taken as they are by a
		// term new to the index.
		for key, pl := range seg.postings {
			for i := range pl.docs {
				pl.docs[i] += base
			}
			dst := ix.postings[key]
			if dst == nil {
				ix.postings[key] = pl
				continue
			}
			off := uint32(len(dst.pos))
			for i := range pl.ends {
				pl.ends[i] += off
			}
			dst.docs = append(dst.docs, pl.docs...)
			dst.ends = append(dst.ends, pl.ends...)
			dst.pos = append(dst.pos, pl.pos...)
			dst.live += pl.live
		}
		for name, v := range seg.fieldTotals {
			ix.fieldTotals[name] += v
		}
		for name, v := range seg.fieldDocs {
			ix.fieldDocs[name] += v
		}
	}
	if total > 0 {
		ix.gen.Add(1)
	}
	return ids, nil
}

// BatchStats reports where an AddBatch spent its time: the parallel
// tokenize-and-build phase versus the serialized merge.
type BatchStats struct {
	Docs      int
	Workers   int
	BuildWall time.Duration
	MergeWall time.Duration
}

// AddBatch indexes a batch of documents, tokenizing on up to workers
// goroutines (0 means GOMAXPROCS) and merging the resulting segments into
// the index in one short critical section. The returned DocIDs are in batch
// order and identical to what a serial Add loop would have assigned. A
// duplicate or empty external ID fails the whole batch; the index is only
// mutated when every document validates.
func (ix *Index) AddBatch(docs []Document, workers int) ([]DocID, error) {
	ids, _, err := ix.AddBatchStats(docs, workers)
	return ids, err
}

// AddBatchStats is AddBatch returning build/merge timing for telemetry.
func (ix *Index) AddBatchStats(docs []Document, workers int) ([]DocID, BatchStats, error) {
	var stats BatchStats
	if len(docs) == 0 {
		return nil, stats, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(docs) {
		workers = len(docs)
	}
	stats.Docs = len(docs)
	stats.Workers = workers

	build := time.Now()
	segs := make([]*segment, workers)
	errs := make([]error, workers)
	chunk := (len(docs) + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(docs) {
			hi = len(docs)
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			seg := newSegment(ix.analyzer)
			for _, d := range docs[lo:hi] {
				if err := seg.add(d); err != nil {
					errs[w] = err
					return
				}
			}
			segs[w] = seg
		}(w, lo, hi)
	}
	wg.Wait()
	stats.BuildWall = time.Since(build)
	for _, err := range errs {
		if err != nil {
			return nil, stats, err
		}
	}
	built := segs[:0]
	for _, seg := range segs {
		if seg != nil {
			built = append(built, seg)
		}
	}

	merge := time.Now()
	ids, err := ix.mergeSegments(built)
	stats.MergeWall = time.Since(merge)
	return ids, stats, err
}
