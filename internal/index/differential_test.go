package index

// Differential ranking tests: the optimized accumulator/top-k search path
// must return byte-identical results — same hits, same float64 scores, same
// tie-break order — as the original map-then-full-sort implementation. The
// original algorithm is reimplemented here, verbatim in structure, reading
// the same index internals, and both are run over randomized corpora with
// deletions, keyword fields, phrases, fuzzy and prefix expansion, and every
// limit regime (unbounded, top-k smaller and larger than the result set).

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/textproc"
)

// --- seed implementation, preserved for comparison ---

func seedFieldLen(ix *Index, id DocID, field string) (length int, weight float64) {
	for _, f := range ix.docs[id].fields {
		if f.name == field {
			return f.length, f.weight
		}
	}
	return 0, 1
}

func seedEvalTerm(ix *Index, field, term string) map[DocID]float64 {
	pl := ix.postings[fieldTerm{field, term}]
	if pl == nil {
		return map[DocID]float64{}
	}
	avgLen, _ := ix.fieldStats(field)
	df := 0
	for _, doc := range pl.docs {
		if !ix.deleted[doc] {
			df++
		}
	}
	out := make(map[DocID]float64, df)
	for i, doc := range pl.docs {
		if ix.deleted[doc] {
			continue
		}
		fl, w := seedFieldLen(ix, doc, field)
		out[doc] = w * bm25(len(pl.positions(i)), df, ix.liveDocs, fl, avgLen)
	}
	return out
}

func seedEvalPhrase(ix *Index, field string, terms []string) map[DocID]float64 {
	switch len(terms) {
	case 0:
		return map[DocID]float64{}
	case 1:
		return seedEvalTerm(ix, field, terms[0])
	}
	lists := make([]*postingList, len(terms))
	for i, term := range terms {
		lists[i] = ix.postings[fieldTerm{field, term}]
		if lists[i] == nil {
			return map[DocID]float64{}
		}
	}
	avgLen, _ := ix.fieldStats(field)
	matches := make(map[DocID]int)
	for i0, doc := range lists[0].docs {
		if ix.deleted[doc] {
			continue
		}
		rest := make([][]uint32, len(terms)-1)
		ok := true
		for i := 1; i < len(terms); i++ {
			e, found := findPosting(lists[i], doc)
			if !found {
				ok = false
				break
			}
			rest[i-1] = lists[i].positions(e)
		}
		if !ok {
			continue
		}
		if count := countPhrase(lists[0].positions(i0), rest); count > 0 {
			matches[doc] = count
		}
	}
	if len(matches) == 0 {
		return map[DocID]float64{}
	}
	df := len(matches)
	out := make(map[DocID]float64, df)
	for id, tf := range matches {
		fl, w := seedFieldLen(ix, id, field)
		out[id] = phraseBoost * w * bm25(tf, df, ix.liveDocs, fl, avgLen)
	}
	return out
}

func seedEvalFuzzy(ix *Index, q FuzzyQuery) map[DocID]float64 {
	maxDist := q.MaxDist
	if maxDist <= 0 {
		maxDist = 1
	}
	type cand struct {
		term string
		dist int
	}
	var cands []cand
	for key := range ix.postings {
		if key.field != q.Field {
			continue
		}
		if len(key.term) > 0 && key.term[0] == '\x00' {
			continue
		}
		d, ok := editDistanceAtMost(q.Term, key.term, maxDist)
		if !ok {
			continue
		}
		cands = append(cands, cand{term: key.term, dist: d})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].dist != cands[j].dist {
			return cands[i].dist < cands[j].dist
		}
		return cands[i].term < cands[j].term
	})
	if len(cands) > maxFuzzyExpansions {
		cands = cands[:maxFuzzyExpansions]
	}
	out := map[DocID]float64{}
	for _, c := range cands {
		scale := 1.0
		switch c.dist {
		case 1:
			scale = 0.6
		case 2:
			scale = 0.35
		}
		for id, s := range seedEvalTerm(ix, q.Field, c.term) {
			if v := s * scale; v > out[id] {
				out[id] = v
			}
		}
	}
	return out
}

func seedEvalPrefix(ix *Index, q PrefixQuery) map[DocID]float64 {
	if q.Prefix == "" {
		return map[DocID]float64{}
	}
	var terms []string
	for key := range ix.postings {
		if key.field != q.Field {
			continue
		}
		if len(key.term) > 0 && key.term[0] == '\x00' {
			continue
		}
		if len(key.term) >= len(q.Prefix) && key.term[:len(q.Prefix)] == q.Prefix {
			terms = append(terms, key.term)
		}
	}
	sort.Slice(terms, func(i, j int) bool {
		if len(terms[i]) != len(terms[j]) {
			return len(terms[i]) < len(terms[j])
		}
		return terms[i] < terms[j]
	})
	if len(terms) > maxPrefixExpansions {
		terms = terms[:maxPrefixExpansions]
	}
	out := map[DocID]float64{}
	for _, term := range terms {
		for id, s := range seedEvalTerm(ix, q.Field, term) {
			if s > out[id] {
				out[id] = s
			}
		}
	}
	return out
}

func seedEval(ix *Index, q Query) map[DocID]float64 {
	switch t := q.(type) {
	case TermQuery:
		return seedEvalTerm(ix, t.Field, t.Term)
	case PhraseQuery:
		return seedEvalPhrase(ix, t.Field, t.Terms)
	case BoolQuery:
		return seedEvalBool(ix, t)
	case FuzzyQuery:
		return seedEvalFuzzy(ix, t)
	case PrefixQuery:
		return seedEvalPrefix(ix, t)
	case AllQuery:
		out := make(map[DocID]float64, ix.liveDocs)
		for id := range ix.docs {
			if !ix.deleted[id] {
				out[DocID(id)] = 1
			}
		}
		return out
	default:
		return nil
	}
}

func seedEvalBool(ix *Index, q BoolQuery) map[DocID]float64 {
	var acc map[DocID]float64
	for _, sub := range q.Must {
		m := seedEval(ix, sub)
		if acc == nil {
			acc = m
			continue
		}
		for id := range acc {
			if s, ok := m[id]; ok {
				acc[id] += s
			} else {
				delete(acc, id)
			}
		}
		if len(acc) == 0 {
			return acc
		}
	}
	if len(q.Should) > 0 {
		union := make(map[DocID]float64)
		for _, sub := range q.Should {
			for id, s := range seedEval(ix, sub) {
				union[id] += s
			}
		}
		if acc == nil {
			acc = union
		} else {
			for id := range acc {
				if s, ok := union[id]; ok {
					acc[id] += s
				}
			}
		}
	}
	if acc == nil {
		acc = seedEval(ix, AllQuery{})
	}
	for _, sub := range q.MustNot {
		for id := range seedEval(ix, sub) {
			delete(acc, id)
		}
	}
	return acc
}

func seedSearch(ix *Index, q Query, limit int) []Hit {
	ix.mu.RLock()
	scores := seedEval(ix, q)
	ix.mu.RUnlock()
	hits := make([]Hit, 0, len(scores))
	for id, s := range scores {
		hits = append(hits, Hit{Doc: id, Score: s})
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].Doc < hits[j].Doc
	})
	if limit > 0 && len(hits) > limit {
		hits = hits[:limit]
	}
	return hits
}

// --- randomized corpus generation ---

var diffVocab = []string{
	"storage", "network", "desktop", "server", "helpdesk", "migration",
	"contract", "tower", "pricing", "client", "strategy", "telecom",
	"finance", "banking", "outsourcing", "transition", "datacenter",
	"mainframe", "backup", "security", "alpha", "beta", "gamma", "delta",
}

func randText(rng *rand.Rand, n int) string {
	words := make([]string, n)
	for i := range words {
		words[i] = diffVocab[rng.Intn(len(diffVocab))]
	}
	return joinWords(words)
}

func joinWords(ws []string) string {
	out := ""
	for i, w := range ws {
		if i > 0 {
			out += " "
		}
		out += w
	}
	return out
}

func buildRandomIndex(t *testing.T, rng *rand.Rand, docs, deletions int) *Index {
	t.Helper()
	ix := New(textproc.DefaultAnalyzer)
	towers := []string{"End User Services", "Réseau Globale", "Storage", "Help Desk"}
	for i := 0; i < docs; i++ {
		doc := Document{
			ExtID: fmt.Sprintf("doc-%d", i),
			Fields: []Field{
				{Name: "title", Text: randText(rng, 2+rng.Intn(4)), Weight: 2},
				{Name: "body", Text: randText(rng, 5+rng.Intn(40))},
			},
			Meta: map[string]string{"deal": fmt.Sprintf("deal-%d", i%7)},
		}
		if rng.Intn(2) == 0 {
			doc.Fields = append(doc.Fields, Field{Name: "tower", Text: towers[rng.Intn(len(towers))], Keyword: true})
		}
		if _, err := ix.Add(doc); err != nil {
			t.Fatalf("add: %v", err)
		}
	}
	for i := 0; i < deletions; i++ {
		ext := fmt.Sprintf("doc-%d", rng.Intn(docs))
		// Ignore double-deletes; the point is a random tombstone pattern.
		_ = ix.Delete(ext)
	}
	return ix
}

func randomQuery(rng *rand.Rand, depth int) Query {
	word := func() string { return diffVocab[rng.Intn(len(diffVocab))] }
	switch rng.Intn(8) {
	case 0:
		return TermQuery{Field: "body", Term: word()}
	case 1:
		return TermQuery{Field: "title", Term: word()}
	case 2:
		return PhraseQuery{Field: "body", Terms: []string{word(), word()}}
	case 3:
		return FuzzyQuery{Field: "body", Term: word(), MaxDist: 1 + rng.Intn(2)}
	case 4:
		return PrefixQuery{Field: "body", Prefix: word()[:2]}
	case 5:
		return TermQuery{Field: "tower", Term: KeywordTerm("storage")}
	case 6:
		return AllQuery{}
	default:
		if depth >= 2 {
			return TermQuery{Field: "body", Term: word()}
		}
		var b BoolQuery
		for i := rng.Intn(3); i > 0; i-- {
			b.Must = append(b.Must, randomQuery(rng, depth+1))
		}
		for i := rng.Intn(3); i > 0; i-- {
			b.Should = append(b.Should, randomQuery(rng, depth+1))
		}
		for i := rng.Intn(2); i > 0; i-- {
			b.MustNot = append(b.MustNot, randomQuery(rng, depth+1))
		}
		return b
	}
}

// TestDifferentialRanking is the equivalence proof: across randomized
// corpora (with deletions and keyword fields) and query shapes, the
// optimized path returns exactly the seed implementation's hits.
func TestDifferentialRanking(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		docs := 30 + rng.Intn(120)
		ix := buildRandomIndex(t, rng, docs, rng.Intn(docs/2))
		for qi := 0; qi < 60; qi++ {
			q := randomQuery(rng, 0)
			for _, limit := range []int{0, 1, 3, 10, docs * 2} {
				want := seedSearch(ix, q, limit)
				got := ix.Search(q, limit)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("seed=%d query=%#v limit=%d:\nwant %v\ngot  %v", seed, q, limit, want, got)
				}
			}
			ix.mu.RLock()
			wantN := len(seedEval(ix, q))
			ix.mu.RUnlock()
			if gotN := ix.Count(q); gotN != wantN {
				t.Fatalf("seed=%d query=%#v: count want %d got %d", seed, q, wantN, gotN)
			}
		}
	}
}

// TestDifferentialAfterBatch checks equivalence on an index built through
// the parallel batch path rather than serial Adds.
func TestDifferentialAfterBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	docs := make([]Document, 200)
	for i := range docs {
		docs[i] = Document{
			ExtID: fmt.Sprintf("doc-%d", i),
			Fields: []Field{
				{Name: "title", Text: randText(rng, 3), Weight: 2},
				{Name: "body", Text: randText(rng, 10+rng.Intn(30))},
			},
		}
	}
	ix := New(textproc.DefaultAnalyzer)
	if _, err := ix.AddBatch(docs, 4); err != nil {
		t.Fatalf("add batch: %v", err)
	}
	for i := 0; i < 40; i++ {
		_ = ix.Delete(fmt.Sprintf("doc-%d", rng.Intn(len(docs))))
	}
	for qi := 0; qi < 80; qi++ {
		q := randomQuery(rng, 0)
		for _, limit := range []int{0, 5, 25} {
			want := seedSearch(ix, q, limit)
			got := ix.Search(q, limit)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("query=%#v limit=%d:\nwant %v\ngot  %v", q, limit, want, got)
			}
		}
	}
}

// TestBatchMatchesSerial proves AddBatch assigns the same DocIDs and
// produces the same search behavior as a serial Add loop.
func TestBatchMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	docs := make([]Document, 97) // odd count: uneven final chunk
	for i := range docs {
		docs[i] = Document{
			ExtID: fmt.Sprintf("doc-%d", i),
			Fields: []Field{
				{Name: "title", Text: randText(rng, 3), Weight: 2},
				{Name: "body", Text: randText(rng, 20)},
				{Name: "tower", Text: "Storage Services", Keyword: true},
			},
		}
	}
	serial := New(textproc.DefaultAnalyzer)
	var serialIDs []DocID
	for _, d := range docs {
		id, err := serial.Add(d)
		if err != nil {
			t.Fatalf("serial add: %v", err)
		}
		serialIDs = append(serialIDs, id)
	}
	for _, workers := range []int{1, 2, 3, 8, 97, 200} {
		batch := New(textproc.DefaultAnalyzer)
		ids, err := batch.AddBatch(docs, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(ids, serialIDs) {
			t.Fatalf("workers=%d: ids diverge: %v vs %v", workers, ids, serialIDs)
		}
		for qi := 0; qi < 30; qi++ {
			q := randomQuery(rng, 0)
			want := serial.Search(q, 0)
			got := batch.Search(q, 0)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("workers=%d query=%#v:\nwant %v\ngot  %v", workers, q, want, got)
			}
		}
		if batch.DocCount() != serial.DocCount() || batch.TermCount() != serial.TermCount() {
			t.Fatalf("workers=%d: stats diverge", workers)
		}
	}
}

// TestAddBatchDuplicateAtomic: a duplicate anywhere in the batch rejects the
// whole batch without partial application.
func TestAddBatchDuplicateAtomic(t *testing.T) {
	ix := New(textproc.DefaultAnalyzer)
	if _, err := ix.Add(Document{ExtID: "existing", Fields: []Field{{Name: "body", Text: "storage"}}}); err != nil {
		t.Fatal(err)
	}
	docs := []Document{
		{ExtID: "fresh-1", Fields: []Field{{Name: "body", Text: "network"}}},
		{ExtID: "existing", Fields: []Field{{Name: "body", Text: "desktop"}}},
	}
	if _, err := ix.AddBatch(docs, 2); err == nil {
		t.Fatal("expected duplicate error")
	}
	if ix.DocCount() != 1 {
		t.Fatalf("batch partially applied: %d docs", ix.DocCount())
	}
	if _, ok := ix.Lookup("fresh-1"); ok {
		t.Fatal("fresh-1 leaked into index from failed batch")
	}
	// In-batch duplicates are also rejected.
	dup := []Document{
		{ExtID: "x", Fields: []Field{{Name: "body", Text: "alpha"}}},
		{ExtID: "x", Fields: []Field{{Name: "body", Text: "beta"}}},
	}
	if _, err := ix.AddBatch(dup, 1); err == nil {
		t.Fatal("expected in-batch duplicate error")
	}
}

// TestKeywordTermNonASCII: keyword values with non-ASCII letters must
// lowercase through Unicode, so accented client names match exactly
// regardless of case.
func TestKeywordTermNonASCII(t *testing.T) {
	if got, want := KeywordTerm("MÜLLER Ag"), KeywordTerm("müller ag"); got != want {
		t.Fatalf("non-ASCII keyword terms diverge: %q vs %q", got, want)
	}
	ix := New(textproc.DefaultAnalyzer)
	if _, err := ix.Add(Document{
		ExtID:  "d1",
		Fields: []Field{{Name: "client", Text: "MÜLLER Aktiengesellschaft", Keyword: true}},
	}); err != nil {
		t.Fatal(err)
	}
	hits := ix.Search(TermQuery{Field: "client", Term: KeywordTerm("müller aktiengesellschaft")}, 0)
	if len(hits) != 1 {
		t.Fatalf("case-folded non-ASCII keyword query missed: %v", hits)
	}
}

// TestSearchAfterSnapshotRoundTrip: derived statistics (live doc frequency,
// dense field lengths, tombstone bitmap) must be rebuilt on Load so a
// restored index ranks identically.
func TestSearchAfterSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ix := buildRandomIndex(t, rng, 60, 15)
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for qi := 0; qi < 50; qi++ {
		q := randomQuery(rng, 0)
		want := ix.Search(q, 0)
		got := loaded.Search(q, 0)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("query=%#v:\nwant %v\ngot  %v", q, want, got)
		}
	}
}
