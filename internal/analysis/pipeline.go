package analysis

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/docmodel"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Annotator processes one document's CAS, adding annotations. Annotators
// must be safe for concurrent Process calls on distinct CASes.
type Annotator interface {
	// Name identifies the annotator in annotation Source fields and stats.
	Name() string
	// Process analyzes the CAS and adds annotations. Errors abort only
	// this document; the pipeline records and continues.
	Process(cas *CAS) error
}

// AnnotatorFunc adapts a function to the Annotator interface.
type AnnotatorFunc struct {
	ID string
	Fn func(cas *CAS) error
}

// Name implements Annotator.
func (a AnnotatorFunc) Name() string { return a.ID }

// Process implements Annotator.
func (a AnnotatorFunc) Process(cas *CAS) error { return a.Fn(cas) }

// Aggregate composes annotators into a fixed flow, the "composite annotator"
// of the paper's Table 1: primitives run in order, each seeing the
// annotations of its predecessors (capturing control and data flow).
type Aggregate struct {
	ID    string
	Steps []Annotator
}

// Name implements Annotator.
func (g *Aggregate) Name() string { return g.ID }

// Process implements Annotator by running each step in order. A step error
// stops the flow for this document.
func (g *Aggregate) Process(cas *CAS) error {
	for _, s := range g.Steps {
		if err := s.Process(cas); err != nil {
			return fmt.Errorf("%s: %w", s.Name(), err)
		}
	}
	return nil
}

// CollectionReader produces the document stream (the Data Acquisition box of
// the EIL architecture). Next returns io.EOF when exhausted.
type CollectionReader interface {
	Next() (*docmodel.Document, error)
}

// SliceReader reads documents from a slice.
type SliceReader struct {
	Docs []*docmodel.Document
	i    int
}

// Next implements CollectionReader.
func (r *SliceReader) Next() (*docmodel.Document, error) {
	if r.i >= len(r.Docs) {
		return nil, io.EOF
	}
	d := r.Docs[r.i]
	r.i++
	return d, nil
}

// Consumer is a Collection Processing Engine: it sees every analyzed CAS in
// reader order (Consume) and then finalizes collection-level results (End).
// The paper's §3.4 CPEs — scope aggregation with occurrence counting,
// de-duplication, normalization — implement this interface.
type Consumer interface {
	Name() string
	Consume(cas *CAS) error
	End() error
}

// StageStat is one pipeline stage's aggregate cost: an annotator's wall
// time summed across workers (so it can exceed the run's elapsed time when
// the pipeline is parallel) or a collection processing engine's serial
// consume-plus-end time.
type StageStat struct {
	Name string
	Docs int // documents the stage processed
	// Failed counts documents the stage errored on (for an aggregate flow,
	// the step that failed charges the failure; later steps never see the
	// document).
	Failed int
	Wall   time.Duration
}

// Stats summarizes a pipeline run.
type Stats struct {
	Docs        int // documents read
	Failed      int // documents whose annotator flow errored
	Annotations int // total annotations produced on successful documents
	// Wall is the total elapsed time of Run, from first read to last
	// consumer End.
	Wall time.Duration
	// Annotators carries the per-annotator cost breakdown, in flow order.
	Annotators []StageStat
	// Consumers carries the per-CPE cost breakdown, in consumer order.
	Consumers []StageStat
	Errors    []error
}

// DocsPerSec is the run's document throughput (0 before Run completes).
func (s Stats) DocsPerSec() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.Docs) / s.Wall.Seconds()
}

// Pipeline wires a reader through an annotator to consumers.
type Pipeline struct {
	Reader    CollectionReader
	Annotator Annotator
	Consumers []Consumer
	// Workers bounds annotator parallelism; 0 means GOMAXPROCS.
	Workers int
	// MaxErrors aborts the run when more than this many documents fail;
	// 0 means unlimited tolerance.
	MaxErrors int
	// Metrics, when set, receives per-stage histograms and run counters
	// (ingest_* metric names); nil disables metric recording. Stats carries
	// the same timings either way.
	Metrics *obs.Registry
	// Tracer, when set, samples per-document traces of the annotator flow
	// (one child span per primitive annotator), so a pathological workbook
	// is attributable by path. Sampling rate is the tracer's SampleEvery.
	Tracer *trace.Tracer
}

// stageClock accumulates one stage's cost across concurrent workers.
type stageClock struct {
	name   string
	nanos  atomic.Int64
	docs   atomic.Int64
	failed atomic.Int64
	hist   *obs.Histogram // per-document duration; nil-safe
}

func (c *stageClock) stat() StageStat {
	return StageStat{
		Name:   c.name,
		Docs:   int(c.docs.Load()),
		Failed: int(c.failed.Load()),
		Wall:   time.Duration(c.nanos.Load()),
	}
}

// timedStep wraps an annotator, charging each Process call to its clock.
type timedStep struct {
	inner Annotator
	clock *stageClock
}

// Name implements Annotator.
func (t *timedStep) Name() string { return t.inner.Name() }

// Process implements Annotator.
func (t *timedStep) Process(cas *CAS) error {
	start := time.Now()
	err := t.inner.Process(cas)
	d := time.Since(start)
	t.clock.nanos.Add(d.Nanoseconds())
	t.clock.docs.Add(1)
	t.clock.hist.ObserveDuration(d)
	if err != nil {
		t.clock.failed.Add(1)
	}
	return err
}

// instrument wraps the pipeline's annotator with per-stage clocks. An
// aggregate flow is unwrapped so each primitive is charged separately —
// the per-annotator accounting of the paper's Table 1 components.
func (p *Pipeline) instrument() (Annotator, []*stageClock) {
	wrap := func(a Annotator) (*timedStep, *stageClock) {
		c := &stageClock{
			name: a.Name(),
			hist: p.Metrics.Histogram("ingest_annotator_seconds", nil, "annotator", a.Name()),
		}
		return &timedStep{inner: a, clock: c}, c
	}
	if agg, ok := p.Annotator.(*Aggregate); ok {
		steps := make([]Annotator, len(agg.Steps))
		clocks := make([]*stageClock, len(agg.Steps))
		for i, s := range agg.Steps {
			steps[i], clocks[i] = wrap(s)
		}
		return &Aggregate{ID: agg.ID, Steps: steps}, clocks
	}
	step, clock := wrap(p.Annotator)
	return step, []*stageClock{clock}
}

// processDoc runs the annotator flow for one document, under a sampled
// per-document trace when the pipeline has a tracer. The root span records
// the document path and deal; each primitive annotator gets a child span.
func (p *Pipeline) processDoc(annotator Annotator, cas *CAS) error {
	ctx, dtr := p.Tracer.Start(context.Background(), "ingest.doc", trace.StartOptions{})
	if dtr == nil {
		return annotator.Process(cas)
	}
	root := trace.FromContext(ctx)
	root.Set("path", cas.Doc.Path)
	if cas.Doc.DealID != "" {
		root.Set("deal", cas.Doc.DealID)
	}
	err := processSteps(ctx, annotator, cas)
	if err != nil {
		root.Set("error", err.Error())
	} else {
		root.SetInt("annotations", len(cas.All()))
	}
	dtr.Finish()
	return err
}

// processSteps mirrors Aggregate.Process with a span per step, so a traced
// document shows where its analysis time went.
func processSteps(ctx context.Context, a Annotator, cas *CAS) error {
	agg, ok := a.(*Aggregate)
	if !ok {
		_, sp := trace.StartSpan(ctx, a.Name())
		err := a.Process(cas)
		sp.End()
		return err
	}
	for _, s := range agg.Steps {
		_, sp := trace.StartSpan(ctx, s.Name())
		err := s.Process(cas)
		sp.End()
		if err != nil {
			return fmt.Errorf("%s: %w", s.Name(), err)
		}
	}
	return nil
}

// errTooManyFailures aborts a run that exceeds MaxErrors.
var errTooManyFailures = errors.New("analysis: too many document failures")

// window is how many documents per annotator worker the reader may get ahead
// of the consumers: enough to keep every worker busy while the consumer loop
// is inside a slow call (an index batch flush), and a few hundred documents
// per CPU at most in memory.
const window = 64

// inflight is one document between the reader and the consumer loop.
type inflight struct {
	cas *CAS // nil on the item that ends a failed read
	// err is the annotator flow's error, or the reader's when cas is nil.
	err  error
	done chan struct{} // closed once cas and err are final
}

// Run drives the pipeline to completion, streaming. A reader goroutine pulls
// documents at most window×Workers ahead of the consumers; Workers goroutines
// run the annotator; the calling goroutine hands each analyzed CAS to the
// consumers in reader order, so collection-level processing is
// deterministic, and then calls every consumer's End. A run aborts on a
// reader error, on more than MaxErrors failed documents, or on a consumer
// error: Run then stops the reader, waits for its goroutines and returns the
// error. Consumers see nothing after the document that aborted the run, and
// End is not called.
func (p *Pipeline) Run() (stats Stats, err error) {
	if p.Reader == nil {
		return stats, errors.New("analysis: pipeline has no reader")
	}
	runStart := time.Now()
	finish := func(clocks, cpeClocks []*stageClock) {
		stats.Wall = time.Since(runStart)
		for _, c := range clocks {
			stats.Annotators = append(stats.Annotators, c.stat())
		}
		for _, c := range cpeClocks {
			stats.Consumers = append(stats.Consumers, c.stat())
		}
		p.Metrics.Histogram("ingest_pipeline_seconds", nil).ObserveDuration(stats.Wall)
		p.Metrics.Counter("ingest_docs_total").Add(int64(stats.Docs))
		p.Metrics.Counter("ingest_doc_failures_total").Add(int64(stats.Failed))
		p.Metrics.Counter("ingest_annotations_total").Add(int64(stats.Annotations))
		p.Metrics.Gauge("ingest_docs_per_second").Set(stats.DocsPerSec())
	}
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	var annotator Annotator
	var clocks []*stageClock
	if p.Annotator != nil {
		annotator, clocks = p.instrument()
	}
	cpeClocks := make([]*stageClock, len(p.Consumers))
	for i, c := range p.Consumers {
		cpeClocks[i] = &stageClock{
			name: c.Name(),
			hist: p.Metrics.Histogram("ingest_cpe_seconds", nil, "cpe", c.Name()),
		}
	}
	defer finish(clocks, cpeClocks)

	// The reader takes a slot before each Next and the consumer loop gives
	// it back once the consumers are done with that document, so no more
	// than len(slots) documents are ever read but not consumed. queue and
	// work hold at most that many items, so sends to them never block.
	slots := make(chan struct{}, window*workers)
	queue := make(chan *inflight, window*workers)
	work := make(chan *inflight, window*workers)
	stop := make(chan struct{})
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	var wg sync.WaitGroup
	read := 0 // written by the reader, read after wg.Wait
	defer func() {
		close(stop)
		wg.Wait()
		stats.Docs = read
	}()

	wg.Add(1 + workers)
	go func() {
		defer wg.Done()
		defer close(work)
		defer close(queue)
		for {
			select {
			case slots <- struct{}{}:
			case <-stop:
				return
			}
			if stopped() {
				return
			}
			d, err := p.Reader.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				it := &inflight{err: fmt.Errorf("analysis: reader: %w", err), done: make(chan struct{})}
				close(it.done)
				queue <- it
				return
			}
			read++
			it := &inflight{cas: NewCAS(d), done: make(chan struct{})}
			queue <- it
			work <- it
		}
	}()
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for it := range work {
				if annotator != nil && !stopped() {
					if err := p.processDoc(annotator, it.cas); err != nil {
						it.err = fmt.Errorf("doc %s: %w", it.cas.Doc.Path, err)
					}
				}
				close(it.done)
			}
		}()
	}

	for it := range queue {
		<-it.done
		if err := p.consume(it, &stats, cpeClocks); err != nil {
			return stats, err
		}
		<-slots
	}
	for ci, c := range p.Consumers {
		start := time.Now()
		err := c.End()
		cpeClocks[ci].nanos.Add(time.Since(start).Nanoseconds())
		if err != nil {
			cpeClocks[ci].failed.Add(1)
			return stats, fmt.Errorf("analysis: consumer %s end: %w", c.Name(), err)
		}
	}
	return stats, nil
}

// consume accounts one analyzed document and hands it to every consumer. An
// error aborts the run.
func (p *Pipeline) consume(it *inflight, stats *Stats, cpeClocks []*stageClock) error {
	if it.cas == nil {
		return it.err
	}
	if it.err != nil {
		stats.Failed++
		stats.Errors = append(stats.Errors, it.err)
		if p.MaxErrors > 0 && stats.Failed > p.MaxErrors {
			return fmt.Errorf("%w: %d", errTooManyFailures, stats.Failed)
		}
		return nil
	}
	stats.Annotations += len(it.cas.All())
	for ci, c := range p.Consumers {
		start := time.Now()
		err := c.Consume(it.cas)
		d := time.Since(start)
		cpeClocks[ci].nanos.Add(d.Nanoseconds())
		cpeClocks[ci].docs.Add(1)
		cpeClocks[ci].hist.ObserveDuration(d)
		if err != nil {
			cpeClocks[ci].failed.Add(1)
			return fmt.Errorf("analysis: consumer %s: %w", c.Name(), err)
		}
	}
	return nil
}
