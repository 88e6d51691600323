package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// Spans are recorded from outside the program: the benchmark brackets its
// own calls into each layer's public functions. A span names the layer
// entry it timed, the span that caused it (0 for a request's first span),
// and the request it belongs to. They are kept in memory while the run
// measures and written out once when it ends; the per-layer numbers are
// computed from the file, so anything that reads the file sees what the
// benchmark saw.

type span struct {
	ID     int64  `json:"id"`
	Name   string `json:"name"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"` // since the run's time origin
	End    int64  `json:"end_ns"`
}

// recorder hands out span and request identifiers; each goroutine that
// times calls keeps its own spanLog, so recording takes no lock.
type recorder struct {
	origin time.Time
	ids    atomic.Int64
	reqs   atomic.Int64
}

// spanLog is one goroutine's spans for one request at a time.
type spanLog struct {
	rec   *recorder
	req   int64
	spans []span
}

func (r *recorder) log() *spanLog { return &spanLog{rec: r} }

// request starts a new request on this log; a nil log records nothing.
func (l *spanLog) request() {
	if l != nil {
		l.req = l.rec.reqs.Add(1)
	}
}

// timed runs fn as one span under parent and returns the span's identifier
// and duration. A nil log — the untraced run — only times fn.
func (l *spanLog) timed(name string, parent int64, fn func()) (int64, time.Duration) {
	if l == nil {
		t0 := time.Now()
		fn()
		return 0, time.Since(t0)
	}
	i := l.begin(name, parent)
	fn()
	return l.end(i)
}

// begin opens a span under parent and returns its index in the log.
func (l *spanLog) begin(name string, parent int64) int {
	l.spans = append(l.spans, span{
		ID: l.rec.ids.Add(1), Name: name, Parent: parent, Req: l.req,
		Start: int64(time.Since(l.rec.origin)),
	})
	return len(l.spans) - 1
}

// end closes the span at index i and returns its identifier and duration.
func (l *spanLog) end(i int) (int64, time.Duration) {
	s := &l.spans[i]
	s.End = int64(time.Since(l.rec.origin))
	return s.ID, time.Duration(s.End - s.Start)
}

// writeSpans writes every log to path, one JSON object per line.
func writeSpans(path string, logs []*spanLog) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, l := range logs {
		for i := range l.spans {
			if err := enc.Encode(&l.spans[i]); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readSpans(path string) ([]span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []span
	dec := json.NewDecoder(bufio.NewReader(f))
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, s)
	}
	return out, nil
}

// durations groups span durations (in microseconds, sorted) by span name.
func durations(spans []span) map[string][]float64 {
	by := map[string][]float64{}
	for _, s := range spans {
		by[s.Name] = append(by[s.Name], float64(s.End-s.Start)/1e3)
	}
	for _, d := range by {
		sort.Float64s(d)
	}
	return by
}

// quantile is the nearest-rank q-quantile of sorted values; 0 when empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(sorted []float64) float64 { return quantile(sorted, 0.5) }
