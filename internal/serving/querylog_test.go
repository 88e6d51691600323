package serving

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/trace"
)

// logged runs one traced request that logs e (nothing when e.Kind is empty)
// and returns its trace.
func logged(tracer *trace.Tracer, e QueryEntry) *trace.Trace {
	ctx, tr := tracer.Start(context.Background(), "/api/search", trace.StartOptions{})
	if e.Kind != "" {
		LogQuery(trace.FromContext(ctx), e)
	}
	tr.Finish()
	return tr
}

func TestLoggedQueries(t *testing.T) {
	tracer := trace.New(trace.Options{})
	form := logged(tracer, QueryEntry{Kind: KindForm, User: "u", Summary: "tower=EUS", Concepts: []string{"End User Services", "Retail"}, Activities: 3, Fallback: true})
	logged(tracer, QueryEntry{}) // a request that ran no search
	kw := logged(tracer, QueryEntry{Kind: KindKeyword, Summary: "cross tower TSA"})
	entries := LoggedQueries(tracer.Recent(0))
	if len(entries) != 2 {
		t.Fatalf("entries = %+v, want the two searches", entries)
	}
	want := QueryEntry{Time: form.Start, User: "u", Kind: KindForm, Summary: "tower=EUS", Concepts: []string{"End User Services", "Retail"},
		Activities: 3, Fallback: true, Latency: form.Duration, TraceID: form.ID}
	if fmt.Sprint(entries[0]) != fmt.Sprint(want) {
		t.Fatalf("first entry = %+v, want %+v", entries[0], want)
	}
	if e := entries[1]; e.Kind != KindKeyword || e.Summary != "cross tower TSA" || e.TraceID != kw.ID || e.Latency <= 0 || e.Time.IsZero() {
		t.Fatalf("second entry = %+v", e)
	}
}

// TestLoggedQueriesRingWindow: the log is the trace ring's window, oldest
// first.
func TestLoggedQueriesRingWindow(t *testing.T) {
	tracer := trace.New(trace.Options{RingSize: 16})
	for i := 0; i < 40; i++ {
		logged(tracer, QueryEntry{Kind: KindForm, Summary: fmt.Sprintf("q%02d", i)})
	}
	entries := LoggedQueries(tracer.Recent(0))
	if len(entries) != 16 || entries[0].Summary != "q24" || entries[15].Summary != "q39" {
		t.Fatalf("retained %d, first %+v", len(entries), entries[0])
	}
}

// TestLoggedQueriesConcurrent: requests log while others read the log.
func TestLoggedQueriesConcurrent(t *testing.T) {
	tracer := trace.New(trace.Options{RingSize: 64})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				logged(tracer, QueryEntry{Kind: KindForm, Summary: "q", Concepts: []string{"c"}})
				SummarizeQueries(LoggedQueries(tracer.Recent(0)), 3)
			}
		}()
	}
	wg.Wait()
	if n := len(LoggedQueries(tracer.Recent(0))); n != 64 {
		t.Fatalf("retained %d, want 64", n)
	}
}

func TestSummarizeQueries(t *testing.T) {
	var entries []QueryEntry
	for i := 0; i < 5; i++ {
		entries = append(entries, QueryEntry{Kind: KindForm, Concepts: []string{"End User Services"}, Activities: 2})
	}
	entries = append(entries,
		QueryEntry{Kind: KindForm, Concepts: []string{"Network Services"}, Activities: 0},
		QueryEntry{Kind: KindForm, Activities: 1, Fallback: true},
		QueryEntry{Kind: KindKeyword, Activities: 9})
	s := SummarizeQueries(entries, 5)
	if s.Total != 8 || s.Zero != 1 || s.Fallbacks != 1 || s.Keyword != 1 {
		t.Fatalf("summary = %+v", s)
	}
	if len(s.TopConcepts) != 2 || s.TopConcepts[0].Concept != "End User Services" || s.TopConcepts[0].Count != 5 {
		t.Fatalf("top concepts = %+v", s.TopConcepts)
	}
	if got := SummarizeQueries(entries, 1); len(got.TopConcepts) != 1 {
		t.Fatalf("topK ignored: %+v", got.TopConcepts)
	}
}

func TestSummarizeQueriesLatency(t *testing.T) {
	s := SummarizeQueries([]QueryEntry{
		{Kind: KindForm, Activities: 1, Latency: 10 * time.Millisecond},
		{Kind: KindForm, Activities: 1, Latency: 30 * time.Millisecond},
	}, 5)
	if s.AvgLatency != 20*time.Millisecond || s.MaxLatency != 30*time.Millisecond {
		t.Fatalf("avg/max = %v/%v, want 20ms/30ms", s.AvgLatency, s.MaxLatency)
	}
}

func TestSummarizeQueriesLatencyQuantiles(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	for _, tc := range []struct {
		name          string
		lats          []int // milliseconds, in recording order
		p50, p95, p99 int
	}{
		// 100ms..1ms, one entry per millisecond: nearest rank is exact.
		{"hundred", func() []int {
			out := make([]int, 100)
			for i := range out {
				out[i] = 100 - i
			}
			return out
		}(), 50, 95, 99},
		// Ten entries: p95 and p99 both round up to the largest.
		{"ten", []int{7, 1, 9, 3, 10, 2, 8, 4, 6, 5}, 5, 10, 10},
		{"single", []int{42}, 42, 42, 42},
	} {
		var entries []QueryEntry
		for _, v := range tc.lats {
			entries = append(entries, QueryEntry{Kind: KindForm, Activities: 1, Latency: ms(v)})
		}
		s := SummarizeQueries(entries, 5)
		if s.P50Latency != ms(tc.p50) || s.P95Latency != ms(tc.p95) || s.P99Latency != ms(tc.p99) {
			t.Errorf("%s: p50/p95/p99 = %v/%v/%v, want %v/%v/%v", tc.name,
				s.P50Latency, s.P95Latency, s.P99Latency, ms(tc.p50), ms(tc.p95), ms(tc.p99))
		}
	}
}

func TestSummarizeQueriesEmpty(t *testing.T) {
	s := SummarizeQueries(nil, 5)
	if s.Total != 0 || s.P50Latency != 0 || s.P99Latency != 0 || s.AvgLatency != 0 {
		t.Fatalf("summary of no entries = %+v, want zero", s)
	}
}
