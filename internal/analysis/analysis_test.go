package analysis

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/docmodel"
	"repro/internal/obs"
	"repro/internal/trace"
)

func doc(path, body string) *docmodel.Document {
	return &docmodel.Document{Path: path, Body: body, DealID: "DEAL X"}
}

func TestCASAddSelect(t *testing.T) {
	c := NewCAS(doc("a", "hello world"))
	c.Add(Annotation{Type: "person", Begin: 0, End: 5, Features: map[string]string{"name": "hello"}})
	c.Add(Annotation{Type: "scope", Begin: -1, End: -1})
	c.Add(Annotation{Type: "person", Begin: 6, End: 11})
	if got := len(c.Select("person")); got != 2 {
		t.Fatalf("persons = %d", got)
	}
	if got := len(c.Select("scope")); got != 1 {
		t.Fatalf("scopes = %d", got)
	}
	if got := len(c.All()); got != 3 {
		t.Fatalf("all = %d", got)
	}
	if types := c.Types(); len(types) != 2 || types[0] != "person" || types[1] != "scope" {
		t.Fatalf("types = %v", types)
	}
}

func TestCASConfidenceDefault(t *testing.T) {
	c := NewCAS(doc("a", "x"))
	c.Add(Annotation{Type: "t"})
	if c.All()[0].Confidence != 1 {
		t.Fatalf("confidence = %v", c.All()[0].Confidence)
	}
	c.Add(Annotation{Type: "t", Confidence: 0.5})
	if c.All()[1].Confidence != 0.5 {
		t.Fatalf("explicit confidence overwritten")
	}
}

func TestCASCovered(t *testing.T) {
	c := NewCAS(doc("a", "hello world"))
	span := Annotation{Type: "t", Begin: 6, End: 11}
	if got := c.Covered(span); got != "world" {
		t.Fatalf("covered = %q", got)
	}
	if got := c.Covered(Annotation{Begin: -1, End: -1}); got != "" {
		t.Fatalf("doc-level covered = %q", got)
	}
	if got := c.Covered(Annotation{Begin: 0, End: 999}); got != "" {
		t.Fatalf("out-of-range covered = %q", got)
	}
}

func TestAnnotationHelpers(t *testing.T) {
	a := Annotation{Begin: -1, Features: map[string]string{"k": "v"}}
	if !a.DocLevel() || a.Feature("k") != "v" || a.Feature("missing") != "" {
		t.Fatal("annotation helpers broken")
	}
	var empty Annotation
	if empty.Feature("k") != "" {
		t.Fatal("nil features")
	}
}

func TestAggregateRunsInOrder(t *testing.T) {
	var order []string
	step := func(name string) Annotator {
		return AnnotatorFunc{ID: name, Fn: func(cas *CAS) error {
			order = append(order, name)
			cas.Add(Annotation{Type: name, Begin: -1, End: -1, Source: name})
			return nil
		}}
	}
	agg := &Aggregate{ID: "flow", Steps: []Annotator{step("a"), step("b"), step("c")}}
	cas := NewCAS(doc("d", "x"))
	if err := agg.Process(cas); err != nil {
		t.Fatal(err)
	}
	if strings.Join(order, "") != "abc" {
		t.Fatalf("order = %v", order)
	}
	if len(cas.All()) != 3 {
		t.Fatalf("annotations = %d", len(cas.All()))
	}
}

func TestAggregateStopsOnError(t *testing.T) {
	boom := errors.New("boom")
	ran := false
	agg := &Aggregate{ID: "flow", Steps: []Annotator{
		AnnotatorFunc{ID: "fail", Fn: func(*CAS) error { return boom }},
		AnnotatorFunc{ID: "after", Fn: func(*CAS) error { ran = true; return nil }},
	}}
	err := agg.Process(NewCAS(doc("d", "x")))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if ran {
		t.Fatal("step after failure ran")
	}
}

type collectingConsumer struct {
	name  string
	paths []string
	ended bool
}

func (c *collectingConsumer) Name() string { return c.name }
func (c *collectingConsumer) Consume(cas *CAS) error {
	c.paths = append(c.paths, cas.Doc.Path)
	return nil
}
func (c *collectingConsumer) End() error {
	c.ended = true
	return nil
}

func TestPipelineOrderAndStats(t *testing.T) {
	var docs []*docmodel.Document
	for i := 0; i < 20; i++ {
		docs = append(docs, doc(fmt.Sprintf("doc%02d", i), "body"))
	}
	var processed int32
	ann := AnnotatorFunc{ID: "mark", Fn: func(cas *CAS) error {
		atomic.AddInt32(&processed, 1)
		cas.Add(Annotation{Type: "mark", Begin: -1, End: -1})
		return nil
	}}
	cons := &collectingConsumer{name: "collect"}
	p := &Pipeline{Reader: &SliceReader{Docs: docs}, Annotator: ann, Consumers: []Consumer{cons}, Workers: 4}
	stats, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Docs != 20 || stats.Failed != 0 || stats.Annotations != 20 {
		t.Fatalf("stats = %+v", stats)
	}
	if int(processed) != 20 {
		t.Fatalf("processed = %d", processed)
	}
	if !cons.ended {
		t.Fatal("consumer End not called")
	}
	// Consumers must observe reader order despite parallel annotation.
	for i, p := range cons.paths {
		if p != fmt.Sprintf("doc%02d", i) {
			t.Fatalf("consumer order broken: %v", cons.paths)
		}
	}
}

func TestPipelineDocFailureTolerated(t *testing.T) {
	docs := []*docmodel.Document{doc("good1", "x"), doc("bad", "x"), doc("good2", "x")}
	ann := AnnotatorFunc{ID: "a", Fn: func(cas *CAS) error {
		if cas.Doc.Path == "bad" {
			return errors.New("parse explosion")
		}
		return nil
	}}
	cons := &collectingConsumer{name: "c"}
	p := &Pipeline{Reader: &SliceReader{Docs: docs}, Annotator: ann, Consumers: []Consumer{cons}}
	stats, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Failed != 1 || len(stats.Errors) != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if len(cons.paths) != 2 {
		t.Fatalf("consumer saw %v", cons.paths)
	}
}

func TestPipelineMaxErrors(t *testing.T) {
	var docs []*docmodel.Document
	for i := 0; i < 5; i++ {
		docs = append(docs, doc(fmt.Sprintf("d%d", i), "x"))
	}
	ann := AnnotatorFunc{ID: "a", Fn: func(*CAS) error { return errors.New("nope") }}
	p := &Pipeline{Reader: &SliceReader{Docs: docs}, Annotator: ann, MaxErrors: 2}
	if _, err := p.Run(); err == nil {
		t.Fatal("expected failure-threshold abort")
	}
}

func TestPipelineNoReader(t *testing.T) {
	p := &Pipeline{}
	if _, err := p.Run(); err == nil {
		t.Fatal("expected error")
	}
}

func TestPipelineNilAnnotator(t *testing.T) {
	cons := &collectingConsumer{name: "c"}
	p := &Pipeline{Reader: &SliceReader{Docs: []*docmodel.Document{doc("a", "x")}}, Consumers: []Consumer{cons}}
	stats, err := p.Run()
	if err != nil || stats.Docs != 1 || len(cons.paths) != 1 {
		t.Fatalf("stats=%+v err=%v", stats, err)
	}
}

type failingEndConsumer struct{ collectingConsumer }

func (f *failingEndConsumer) End() error { return errors.New("end failed") }

func TestPipelineConsumerEndError(t *testing.T) {
	p := &Pipeline{
		Reader:    &SliceReader{Docs: []*docmodel.Document{doc("a", "x")}},
		Consumers: []Consumer{&failingEndConsumer{collectingConsumer{name: "f"}}},
	}
	if _, err := p.Run(); err == nil {
		t.Fatal("expected End error to surface")
	}
}

func TestSliceReaderEOF(t *testing.T) {
	r := &SliceReader{}
	if _, err := r.Next(); err == nil {
		t.Fatal("expected EOF")
	}
}

func TestPipelineStageStats(t *testing.T) {
	var docs []*docmodel.Document
	for i := 0; i < 10; i++ {
		docs = append(docs, doc(fmt.Sprintf("doc%02d", i), "body"))
	}
	flow := &Aggregate{ID: "flow", Steps: []Annotator{
		AnnotatorFunc{ID: "first", Fn: func(cas *CAS) error {
			cas.Add(Annotation{Type: "t", Begin: -1, End: -1})
			return nil
		}},
		AnnotatorFunc{ID: "second", Fn: func(cas *CAS) error {
			if cas.Doc.Path == "doc03" {
				return errors.New("boom")
			}
			return nil
		}},
	}}
	reg := obs.NewRegistry()
	cons := &collectingConsumer{name: "cpe"}
	p := &Pipeline{Reader: &SliceReader{Docs: docs}, Annotator: flow, Consumers: []Consumer{cons}, Workers: 4, Metrics: reg}
	stats, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Wall <= 0 {
		t.Fatalf("wall = %v", stats.Wall)
	}
	if stats.DocsPerSec() <= 0 {
		t.Fatalf("docs/sec = %v", stats.DocsPerSec())
	}
	if len(stats.Annotators) != 2 {
		t.Fatalf("annotator stages = %+v", stats.Annotators)
	}
	first, second := stats.Annotators[0], stats.Annotators[1]
	if first.Name != "first" || first.Docs != 10 || first.Failed != 0 {
		t.Fatalf("first stage = %+v", first)
	}
	// The failure is charged to the step that errored.
	if second.Name != "second" || second.Docs != 10 || second.Failed != 1 {
		t.Fatalf("second stage = %+v", second)
	}
	if len(stats.Consumers) != 1 || stats.Consumers[0].Name != "cpe" || stats.Consumers[0].Docs != 9 {
		t.Fatalf("consumer stages = %+v", stats.Consumers)
	}
	// Metrics mirror the stats.
	if got := reg.Counter("ingest_docs_total").Value(); got != 10 {
		t.Fatalf("ingest_docs_total = %d", got)
	}
	if got := reg.Counter("ingest_doc_failures_total").Value(); got != 1 {
		t.Fatalf("ingest_doc_failures_total = %d", got)
	}
	if got := reg.Histogram("ingest_annotator_seconds", nil, "annotator", "second").Count(); got != 10 {
		t.Fatalf("annotator histogram count = %d", got)
	}
	if got := reg.Histogram("ingest_cpe_seconds", nil, "cpe", "cpe").Count(); got != 9 {
		t.Fatalf("cpe histogram count = %d", got)
	}
	if got := reg.Gauge("ingest_docs_per_second").Value(); got <= 0 {
		t.Fatalf("ingest_docs_per_second = %v", got)
	}
}

func TestPipelineStageStatsWithoutMetrics(t *testing.T) {
	p := &Pipeline{
		Reader:    &SliceReader{Docs: []*docmodel.Document{doc("a", "x")}},
		Annotator: AnnotatorFunc{ID: "solo", Fn: func(*CAS) error { return nil }},
	}
	stats, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Annotators) != 1 || stats.Annotators[0].Name != "solo" || stats.Annotators[0].Docs != 1 {
		t.Fatalf("stages = %+v", stats.Annotators)
	}
}

func TestPipelineDocTracing(t *testing.T) {
	var docs []*docmodel.Document
	for i := 0; i < 8; i++ {
		docs = append(docs, doc(fmt.Sprintf("deal/doc%d", i), "body"))
	}
	step := func(name string) Annotator {
		return AnnotatorFunc{ID: name, Fn: func(cas *CAS) error {
			cas.Add(Annotation{Type: name, Begin: -1, End: -1})
			return nil
		}}
	}
	tracer := trace.New(trace.Options{SampleEvery: 2})
	p := &Pipeline{
		Reader:    &SliceReader{Docs: docs},
		Annotator: &Aggregate{ID: "flow", Steps: []Annotator{step("tokenize"), step("scope")}},
		Workers:   2,
		Tracer:    tracer,
	}
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
	traces := tracer.Recent(0)
	if len(traces) != 4 {
		t.Fatalf("sampled traces = %d, want 4 (1 in 2 of 8)", len(traces))
	}
	for _, tr := range traces {
		if tr.Route != "ingest.doc" {
			t.Fatalf("route = %q", tr.Route)
		}
		spans := tr.Spans()
		// Root + one span per primitive annotator.
		if len(spans) != 3 {
			t.Fatalf("spans = %d", len(spans))
		}
		names := map[string]bool{}
		for _, s := range spans {
			names[s.Name] = true
		}
		if !names["tokenize"] || !names["scope"] {
			t.Fatalf("annotator spans missing: %v", names)
		}
		attrs := map[string]string{}
		for _, a := range spans[0].Attrs {
			attrs[a.Key] = a.Value
		}
		if !strings.HasPrefix(attrs["path"], "deal/doc") || attrs["deal"] != "DEAL X" || attrs["annotations"] != "2" {
			t.Fatalf("root attrs = %v", attrs)
		}
	}
}

func TestPipelineTracingRecordsFailure(t *testing.T) {
	boom := errors.New("boom")
	tracer := trace.New(trace.Options{})
	p := &Pipeline{
		Reader:    &SliceReader{Docs: []*docmodel.Document{doc("bad", "x")}},
		Annotator: AnnotatorFunc{ID: "fail", Fn: func(*CAS) error { return boom }},
		Tracer:    tracer,
	}
	stats, err := p.Run()
	if err != nil || stats.Failed != 1 {
		t.Fatalf("stats = %+v, err = %v", stats, err)
	}
	traces := tracer.Recent(0)
	if len(traces) != 1 {
		t.Fatalf("traces = %d", len(traces))
	}
	found := false
	for _, a := range traces[0].Spans()[0].Attrs {
		if a.Key == "error" && strings.Contains(a.Value, "boom") {
			found = true
		}
	}
	if !found {
		t.Fatal("failed document's trace has no error attribute")
	}
}

// countingReader hands out n documents and counts them; the count is read
// by consumers on another goroutine.
type countingReader struct {
	n, fail int // fail > 0: Next returns errRead instead of document fail
	out     atomic.Int64
}

var errRead = errors.New("disk on fire")

func (r *countingReader) Next() (*docmodel.Document, error) {
	i := int(r.out.Load())
	if r.fail > 0 && i == r.fail {
		return nil, errRead
	}
	if i >= r.n {
		return nil, io.EOF
	}
	r.out.Add(1)
	return doc(fmt.Sprintf("doc%05d", i), "body"), nil
}

// lookaheadConsumer records, at every Consume, how many documents the
// reader has handed out that the consumers have not yet seen.
type lookaheadConsumer struct {
	collectingConsumer
	r        *countingReader
	maxAhead int64
	failAt   int // > 0: Consume fails on this document
}

func (c *lookaheadConsumer) Consume(cas *CAS) error {
	if ahead := c.r.out.Load() - int64(len(c.paths)); ahead > c.maxAhead {
		c.maxAhead = ahead
	}
	runtime.Gosched() // let a reader that is not held back run ahead

	if c.failAt > 0 && len(c.paths) == c.failAt {
		return errors.New("consumer full")
	}
	return c.collectingConsumer.Consume(cas)
}

// TestPipelineBoundedLookahead: the reader never runs more than the window
// ahead of the consumers, however fast it is and however slow they are.
func TestPipelineBoundedLookahead(t *testing.T) {
	const workers = 4
	r := &countingReader{n: 10000}
	cons := &lookaheadConsumer{collectingConsumer: collectingConsumer{name: "c"}, r: r}
	p := &Pipeline{Reader: r, Annotator: AnnotatorFunc{ID: "a", Fn: func(*CAS) error { return nil }},
		Consumers: []Consumer{cons}, Workers: workers}
	stats, err := p.Run()
	if err != nil || stats.Docs != 10000 || len(cons.paths) != 10000 {
		t.Fatalf("stats = %+v, consumed %d, err = %v", stats, len(cons.paths), err)
	}
	if limit := int64(window*workers + workers); cons.maxAhead > limit {
		t.Fatalf("reader ran %d documents ahead of the consumers, limit %d", cons.maxAhead, limit)
	}
}

// TestPipelineOrderUnderJitter: annotators that finish out of order still
// reach the consumers in reader order.
func TestPipelineOrderUnderJitter(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	delays := map[string]time.Duration{}
	var docs []*docmodel.Document
	for i := 0; i < 400; i++ {
		d := doc(fmt.Sprintf("doc%03d", i), "body")
		delays[d.Path] = time.Duration(rng.Intn(300)) * time.Microsecond
		docs = append(docs, d)
	}
	ann := AnnotatorFunc{ID: "jitter", Fn: func(cas *CAS) error {
		time.Sleep(delays[cas.Doc.Path])
		return nil
	}}
	cons := &collectingConsumer{name: "c"}
	p := &Pipeline{Reader: &SliceReader{Docs: docs}, Annotator: ann, Consumers: []Consumer{cons}, Workers: 8}
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
	for i, path := range cons.paths {
		if path != docs[i].Path {
			t.Fatalf("consumer %d saw %s, want %s", i, path, docs[i].Path)
		}
	}
	if len(cons.paths) != len(docs) {
		t.Fatalf("consumed %d of %d", len(cons.paths), len(docs))
	}
}

// TestPipelineAbortStopsEverything: a reader error mid-stream, a MaxErrors
// abort and a consumer error each end the run with its error, without
// calling End, and leave no pipeline goroutine behind.
func TestPipelineAbortStopsEverything(t *testing.T) {
	failFrom := func(n int) Annotator {
		return AnnotatorFunc{ID: "a", Fn: func(cas *CAS) error {
			if cas.Doc.Path >= fmt.Sprintf("doc%05d", n) {
				return errors.New("unparseable")
			}
			return nil
		}}
	}
	for _, tc := range []struct {
		name      string
		readFail  int
		annotator Annotator
		maxErrors int
		consFail  int
		want      error
	}{
		{name: "reader", readFail: 500, annotator: failFrom(10000), want: errRead},
		{name: "max-errors", annotator: failFrom(300), maxErrors: 5, want: errTooManyFailures},
		{name: "consumer", annotator: failFrom(10000), consFail: 200},
	} {
		base := runtime.NumGoroutine()
		r := &countingReader{n: 10000, fail: tc.readFail}
		cons := &lookaheadConsumer{collectingConsumer: collectingConsumer{name: "c"}, r: r, failAt: tc.consFail}
		p := &Pipeline{Reader: r, Annotator: tc.annotator, Consumers: []Consumer{cons}, Workers: 4, MaxErrors: tc.maxErrors}
		_, err := p.Run()
		if err == nil || (tc.want != nil && !errors.Is(err, tc.want)) {
			t.Fatalf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		if cons.ended {
			t.Fatalf("%s: End called after an abort", tc.name)
		}
		if got := r.out.Load(); got >= 10000 {
			t.Fatalf("%s: reader handed out all %d documents after an abort", tc.name, got)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines after Run, %d before", tc.name, runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	}
}
