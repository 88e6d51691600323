package siapi

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/textproc"
)

func TestSearchCacheHitsAndInvalidation(t *testing.T) {
	e := newEngine(t)
	reg := obs.NewRegistry()
	e.SetMetrics(reg)
	hits := reg.Counter("search_cache_hits_total")
	misses := reg.Counter("search_cache_misses_total")

	q := Query{All: []string{"storage"}}
	first := e.Search(q, 10)
	if len(first) == 0 {
		t.Fatal("no hits for warm-up query")
	}
	if hits.Value() != 0 || misses.Value() != 1 {
		t.Fatalf("after miss: hits=%d misses=%d", hits.Value(), misses.Value())
	}
	second := e.Search(q, 10)
	if hits.Value() != 1 {
		t.Fatalf("repeat query did not hit cache: hits=%d misses=%d", hits.Value(), misses.Value())
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("cached result diverges:\n%v\n%v", first, second)
	}

	// A write bumps the index generation; the next identical query must
	// recompute and see the new document.
	if _, err := e.Index().Add(index.Document{
		ExtID:  "new/storage.doc",
		Fields: []index.Field{{Name: FieldBody, Text: "more storage services"}},
	}); err != nil {
		t.Fatal(err)
	}
	third := e.Search(q, 10)
	if misses.Value() != 2 {
		t.Fatalf("write did not invalidate: hits=%d misses=%d", hits.Value(), misses.Value())
	}
	if len(third) != len(first)+1 {
		t.Fatalf("stale result after write: %d hits, want %d", len(third), len(first)+1)
	}
}

func TestSearchCacheIsolation(t *testing.T) {
	e := newEngine(t)
	q := Query{All: []string{"storage"}}
	first := e.Search(q, 10)
	if len(first) == 0 {
		t.Fatal("no hits")
	}
	// Mutating a returned page must not corrupt the cached copy.
	first[0].Path = "mutated"
	second := e.Search(q, 10)
	if second[0].Path == "mutated" {
		t.Fatal("caller mutation leaked into cache")
	}
}

func TestCountCache(t *testing.T) {
	e := newEngine(t)
	reg := obs.NewRegistry()
	e.SetMetrics(reg)
	q := Query{All: []string{"storage"}}
	n1 := e.Count(q)
	n2 := e.Count(q)
	if n1 != n2 {
		t.Fatalf("counts diverge: %d vs %d", n1, n2)
	}
	if reg.Counter("search_cache_hits_total").Value() != 1 {
		t.Fatal("repeat count did not hit cache")
	}
	// Limit-keyed search entries and count entries must not collide.
	if len(e.Search(q, n1)) != n1 {
		t.Fatal("search after count returned wrong page")
	}
}

func TestCacheKeyInjective(t *testing.T) {
	// Queries that would collide under naive concatenation.
	pairs := [][2]Query{
		{{All: []string{"ab", "c"}}, {All: []string{"a", "bc"}}},
		{{All: []string{"a"}, Any: []string{"b"}}, {All: []string{"a", "b"}}},
		{{Exact: "x y"}, {All: []string{"x", "y"}}},
		{{Deals: []string{"d1"}}, {Fields: []string{"d1"}}},
	}
	for _, p := range pairs {
		if cacheKey(p[0], 5) == cacheKey(p[1], 5) {
			t.Fatalf("key collision: %#v vs %#v", p[0], p[1])
		}
	}
	if cacheKey(Query{All: []string{"a"}}, 5) == cacheKey(Query{All: []string{"a"}}, 6) {
		t.Fatal("limit not part of key")
	}
}

func TestNilEngineCachesDisabled(t *testing.T) {
	// A zero-value Engine (no NewEngine) must still work uncached.
	ix := index.New(textproc.DefaultAnalyzer)
	if _, err := ix.Add(index.Document{ExtID: "d", Fields: []index.Field{{Name: FieldBody, Text: "storage"}}}); err != nil {
		t.Fatal(err)
	}
	e := &Engine{ix: ix}
	if got := e.Count(Query{All: []string{"storage"}}); got != 1 {
		t.Fatalf("uncached count = %d", got)
	}
	if got := len(e.Search(Query{All: []string{"storage"}}, 0)); got != 1 {
		t.Fatalf("uncached search = %d hits", got)
	}
}

// TestSearchSeedsCountCache: a search's evaluation already knows how many
// documents matched, so the Count that follows it is a cache hit with the
// number an evaluation of its own would have found — until a write.
func TestSearchSeedsCountCache(t *testing.T) {
	e := newEngine(t)
	reg := obs.NewRegistry()
	e.SetMetrics(reg)
	hits := reg.Counter("search_cache_hits_total")
	misses := reg.Counter("search_cache_misses_total")

	for _, q := range []Query{
		{All: []string{"storage"}},
		{Any: []string{"storage", "network"}, None: []string{"desktop"}},
		{Exact: "data replication", Deals: []string{"DEAL A", "DEAL B"}},
		{All: []string{"nosuchword"}},
	} {
		h0, m0 := hits.Value(), misses.Value()
		page := e.Search(q, 1)
		n := e.Count(q)
		if hits.Value() != h0+1 || misses.Value() != m0+1 {
			t.Fatalf("%+v: search then count: hits %d→%d misses %d→%d", q, h0, hits.Value(), m0, misses.Value())
		}
		if want := e.Index().Count(e.Compile(q)); n != want || len(page) > n {
			t.Fatalf("%+v: seeded count %d, index count %d, page %d", q, n, want, len(page))
		}
	}

	q := Query{All: []string{"storage"}}
	before := e.Count(q)
	if _, err := e.Index().Add(index.Document{
		ExtID:  "new/storage.doc",
		Fields: []index.Field{{Name: FieldBody, Text: "more storage services"}},
	}); err != nil {
		t.Fatal(err)
	}
	if got := e.Count(q); got != before+1 {
		t.Fatalf("count after write = %d, want %d", got, before+1)
	}
}

// TestSearchCountConcurrentWithWrites races searches — which seed the count
// cache and read their page's stored fields in one pass — and counts against
// a writer adding and removing a deal's documents. Every hit of every page is
// whole, and once the writer stops the count, the page and the index agree.
func TestSearchCountConcurrentWithWrites(t *testing.T) {
	e := newEngine(t)
	q := Query{All: []string{"replication"}, Deals: []string{"DEAL A", "DEAL C"}}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, h := range e.Search(q, 0) {
					if h.Path == "" || (h.DealID != "DEAL A" && h.DealID != "DEAL C") {
						t.Errorf("torn hit: %+v", h)
						return
					}
				}
				e.Count(q)
			}
		}()
	}
	for i := 0; i < 200; i++ {
		ext := fmt.Sprintf("c/doc-%d.txt", i)
		if _, err := e.Index().Add(index.Document{
			ExtID: ext,
			Fields: []index.Field{
				{Name: FieldBody, Text: "replication schedule"},
				{Name: FieldDeal, Text: "DEAL C", Keyword: true},
			},
			Meta: map[string]string{"deal": "DEAL C"},
		}); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if err := e.Index().Delete(ext); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	want := e.Index().Count(e.Compile(q))
	if got, page := e.Count(q), len(e.Search(q, 0)); got != want || page != want || want != 102 {
		t.Fatalf("count %d, page %d, index %d, want 102", got, page, want)
	}
}

// TestSnippetCacheSurvivesWrites: a snippet is a function of (document,
// terms) and a document's stored text never changes, so index writes leave
// the snippet cache alone while the hit cache next to it is flushed, and the
// snippets served after a write equal freshly generated ones.
func TestSnippetCacheSurvivesWrites(t *testing.T) {
	e := newEngine(t)
	q := Query{All: []string{"storage"}}
	first := e.Search(q, 10)
	cached := e.snipCache.Len()
	if len(first) == 0 || cached == 0 {
		t.Fatalf("%d hits, %d cached snippets", len(first), cached)
	}
	if _, err := e.Index().Add(index.Document{
		ExtID:  "new/storage.doc",
		Fields: []index.Field{{Name: FieldBody, Text: "more storage services"}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Index().Delete(first[len(first)-1].Path); err != nil {
		t.Fatal(err)
	}
	if got := e.snipCache.Len(); got != cached {
		t.Fatalf("writes changed the snippet cache: %d -> %d entries", cached, got)
	}
	after := e.Search(q, 10)
	if got := e.snipCache.Len(); got != cached+1 {
		t.Fatalf("re-read generated %d snippets, want only the new document's", got-cached)
	}
	fresh := NewEngine(e.Index()).Search(q, 10)
	if !reflect.DeepEqual(after, fresh) {
		t.Fatalf("snippets served across writes differ from fresh ones:\n%v\n%v", after, fresh)
	}
}
