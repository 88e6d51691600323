package qlog

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestRecordAndEntries(t *testing.T) {
	l := New(16)
	l.Record(Entry{Kind: KindForm, Summary: "tower=EUS", Concepts: []string{"End User Services"}, Activities: 3})
	l.Record(Entry{Kind: KindKeyword, Summary: "cross tower TSA", Activities: 0})
	entries := l.Entries()
	if len(entries) != 2 || l.Len() != 2 {
		t.Fatalf("entries = %d", len(entries))
	}
	if entries[0].Summary != "tower=EUS" || entries[1].Kind != KindKeyword {
		t.Fatalf("order wrong: %+v", entries)
	}
	if entries[0].Time.IsZero() {
		t.Fatal("time not stamped")
	}
}

func TestRingEviction(t *testing.T) {
	l := New(16)
	for i := 0; i < 40; i++ {
		l.Record(Entry{Summary: fmt.Sprintf("q%02d", i)})
	}
	entries := l.Entries()
	if len(entries) != 16 || l.Len() != 16 {
		t.Fatalf("retained = %d", len(entries))
	}
	if entries[0].Summary != "q24" || entries[15].Summary != "q39" {
		t.Fatalf("ring order wrong: first=%s last=%s", entries[0].Summary, entries[15].Summary)
	}
}

func TestMinimumCapacity(t *testing.T) {
	l := New(1)
	for i := 0; i < 20; i++ {
		l.Record(Entry{Summary: "x"})
	}
	if l.Len() != 16 {
		t.Fatalf("Len = %d, want the 16 minimum", l.Len())
	}
}

func TestSummarize(t *testing.T) {
	l := New(64)
	for i := 0; i < 5; i++ {
		l.Record(Entry{Kind: KindForm, Concepts: []string{"End User Services"}, Activities: 2})
	}
	l.Record(Entry{Kind: KindForm, Concepts: []string{"Network Services"}, Activities: 0})
	l.Record(Entry{Kind: KindForm, Activities: 1, Fallback: true})
	l.Record(Entry{Kind: KindKeyword, Activities: 9})
	s := l.Summarize(5)
	if s.Total != 8 || s.Zero != 1 || s.Fallbacks != 1 || s.Keyword != 1 {
		t.Fatalf("summary = %+v", s)
	}
	if len(s.TopConcepts) != 2 || s.TopConcepts[0].Concept != "End User Services" || s.TopConcepts[0].Count != 5 {
		t.Fatalf("top concepts = %+v", s.TopConcepts)
	}
	if got := l.Summarize(1); len(got.TopConcepts) != 1 {
		t.Fatalf("topK ignored: %+v", got.TopConcepts)
	}
}

func TestExplicitTimeKept(t *testing.T) {
	l := New(16)
	ts := time.Date(2008, 4, 7, 0, 0, 0, 0, time.UTC)
	l.Record(Entry{Time: ts})
	if !l.Entries()[0].Time.Equal(ts) {
		t.Fatal("explicit time overwritten")
	}
}

func TestConcurrentRecording(t *testing.T) {
	l := New(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				l.Record(Entry{Summary: "q"})
				l.Summarize(3)
			}
		}()
	}
	wg.Wait()
	if l.Len() != 64 {
		t.Fatalf("Len = %d", l.Len())
	}
}

func TestSummarizeLatency(t *testing.T) {
	l := New(16)
	l.Record(Entry{Kind: KindForm, Activities: 1, Latency: 10 * time.Millisecond})
	l.Record(Entry{Kind: KindForm, Activities: 1, Latency: 30 * time.Millisecond})
	l.Record(Entry{Kind: KindKeyword, Activities: 1}) // unmeasured: excluded
	s := l.Summarize(5)
	if s.AvgLatency != 20*time.Millisecond {
		t.Fatalf("avg = %v", s.AvgLatency)
	}
	if s.MaxLatency != 30*time.Millisecond {
		t.Fatalf("max = %v", s.MaxLatency)
	}
}

func TestSummarizeLatencyQuantiles(t *testing.T) {
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
		l := New(128)
		for _, v := range tc.lats {
			l.Record(Entry{Kind: KindForm, Activities: 1, Latency: ms(v)})
		}
		s := l.Summarize(5)
		if s.P50Latency != ms(tc.p50) || s.P95Latency != ms(tc.p95) || s.P99Latency != ms(tc.p99) {
			t.Errorf("%s: p50/p95/p99 = %v/%v/%v, want %v/%v/%v", tc.name,
				s.P50Latency, s.P95Latency, s.P99Latency, ms(tc.p50), ms(tc.p95), ms(tc.p99))
		}
	}
}

func TestSummarizeQuantilesEmpty(t *testing.T) {
	l := New(16)
	l.Record(Entry{Kind: KindForm, Activities: 1}) // no measured latency
	s := l.Summarize(5)
	if s.P50Latency != 0 || s.P99Latency != 0 {
		t.Fatalf("quantiles over zero measured entries = %v/%v, want 0", s.P50Latency, s.P99Latency)
	}
}
