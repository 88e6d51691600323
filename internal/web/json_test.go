package web

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/serving"
	"repro/internal/synth"
	"repro/internal/trace"
)

// jsonPages returns one value of every type the handlers encode, taken from a
// system over the small corpus.
func jsonPages(t testing.TB) map[string]any {
	t.Helper()
	corpus, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := eil.Ingest(corpus.Docs, eil.Options{
		Directory: corpus.Directory,
		Tracer:    trace.New(trace.Options{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	user := access.User{ID: "u", Roles: []access.Role{access.RoleSales}}
	q := core.FormQuery{Tower: "Storage Management Services", ExactPhrase: "data replication", Limit: 20}
	traced, tr := sys.Tracer.Start(ctx, "/api/search", trace.StartOptions{})
	res, err := sys.SearchCtx(traced, user, q)
	tr.Finish()
	if err != nil {
		t.Fatal(err)
	}
	logged := serving.LoggedQueries(sys.Tracer.Recent(0))
	exRes, ex, err := sys.SearchExplain(ctx, user, q)
	if err != nil {
		t.Fatal(err)
	}
	deal, err := sys.Deal(user, synth.PlantedDealID)
	if err != nil {
		t.Fatal(err)
	}
	explore, err := sys.ExploreCtx(ctx, user, synth.PlantedDealID, core.FormQuery{ExactPhrase: "data replication"})
	if err != nil {
		t.Fatal(err)
	}
	similar, err := sys.SimilarDeals(user, synth.PlantedDealID, 5)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]any{
		"search":  res,
		"explain": explainResponse{Result: exRes, Explain: ex},
		"deal":    deal,
		"keyword": map[string]any{
			"count": sys.KeywordCount("data replication"),
			"hits":  sys.KeywordSearchCtx(ctx, "data replication", 20),
		},
		"explore":  explore,
		"similar":  similar,
		"metrics":  sys.Registry().Snapshots(),
		"readyz":   serving.NewHealth(sys, eil.HealthOptions{}).Evaluate(),
		"slowest":  serving.SlowestQueries(logged, 5),
		"summary":  serving.SummarizeQueries(logged, 10),
		"promoted": map[string]any{"promoted": true, "target": "b"},
		"failover": FailoverInfo{Role: "primary", Epoch: 3, PromotedAt: time.Unix(1700000000, 5).UTC()},
		"escapes":  []string{"<a href=\"x\">&amp;</a>", "tab\tnewline\n", " ", "é"},
		"empty":    []int{},
		"nil":      nil,
		"number":   0.1 + 0.2,
		"object":   map[string]any{},
	}
}

// encoderBytes is what the handlers wrote before the encoder was pooled.
func encoderBytes(t testing.TB, v any) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestWriteJSONMatchesEncoder: the pooled encoder writes, byte for byte, what
// a fresh json.Encoder with the same indent writes — the benchmark's
// `"DealID": "<id>"` needle, the readiness grep and the replica smokes' cmp
// depend on it — in any order of pages, after a page too large to pool, and
// after a value that does not encode, which writes nothing.
func TestWriteJSONMatchesEncoder(t *testing.T) {
	pages := jsonPages(t)
	big := strings.Repeat("x", 2*maxPooledJSON)
	for round := 0; round < 3; round++ {
		for name, v := range pages {
			rec := httptest.NewRecorder()
			writeJSON(rec, v)
			if want := encoderBytes(t, v); !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("round %d, %s: writeJSON wrote\n%s\nwant\n%s", round, name, rec.Body.Bytes(), want)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("%s: Content-Type %q", name, ct)
			}
		}
		rec := httptest.NewRecorder()
		writeJSON(rec, big)
		if !bytes.Equal(rec.Body.Bytes(), encoderBytes(t, big)) {
			t.Fatalf("round %d: an oversized page differs", round)
		}
		for _, bad := range []any{math.NaN(), make(chan int), map[string]any{"f": func() {}}} {
			rec := httptest.NewRecorder()
			writeJSON(rec, bad)
			if rec.Body.Len() != 0 {
				t.Fatalf("round %d: an unencodable %T wrote %q", round, bad, rec.Body.String())
			}
		}
	}
	if !strings.Contains(string(encoderBytes(t, pages["deal"])), `"DealID": "`+synth.PlantedDealID+`"`) {
		t.Fatal("a deal page lacks the benchmark's needle")
	}
}

// TestWriteJSONConcurrentPages: handlers share the pool; pages written at the
// same time must not see each other's bytes.
func TestWriteJSONConcurrentPages(t *testing.T) {
	pages := jsonPages(t)
	want := make(map[string][]byte, len(pages))
	for name, v := range pages {
		want[name] = encoderBytes(t, v)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				for name, v := range pages {
					rec := httptest.NewRecorder()
					writeJSON(rec, v)
					if !bytes.Equal(rec.Body.Bytes(), want[name]) {
						t.Errorf("%s: concurrent writeJSON wrote other bytes", name)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestWriteJSONAllocatesLessThanAPage: once the pool is warm, encoding a
// result page allocates a small fraction of the page's size. Without the
// pool every page re-grew the encoder's indent scratch from zero: 85 kB for
// this 17.6 kB page, against 0.7 kB with it.
func TestWriteJSONAllocatesLessThanAPage(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	page := jsonPages(t)["search"]
	size := len(encoderBytes(t, page))
	w := httptest.NewRecorder()
	write := func() {
		w.Body.Reset()
		writeJSON(w, page)
	}
	write()
	var before, after runtime.MemStats
	const n = 100
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		write()
	}
	runtime.ReadMemStats(&after)
	perPage := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("a %d-byte page allocates %d bytes", size, perPage)
	if perPage > uint64(size)/4 {
		t.Fatalf("a %d-byte page allocates %d bytes, want at most a quarter of it", size, perPage)
	}
}

// BenchmarkWriteJSONPage encodes one result page; B/op is what a page costs
// the garbage collector.
func BenchmarkWriteJSONPage(b *testing.B) {
	page := jsonPages(b)["search"]
	w := httptest.NewRecorder()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Body.Reset()
		writeJSON(w, page)
	}
}
