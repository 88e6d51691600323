package main

import (
	"fmt"
	"path"
	"time"

	eil "repro"
	"repro/internal/analysis"
	"repro/internal/docmodel"
	"repro/internal/synth"
)

// The corpora are fixed by the benchmark, not by -seed: C103 is the
// BENCH_pr8 streaming corpus (≈103.5k documents), C14 the paper's evaluation
// corpus (≈14.4k). The seed drives only the request stream and the held-out
// update documents.

// scale sizes a run. "full" is what BENCHMARK.json measures; "smoke" runs
// the same code over a toy corpus in about a second, for `go test`.
type scale struct {
	name   string
	c103   synth.Config
	c14    synth.Config
	window time.Duration // default timed window when -seconds is not given
	warm   time.Duration // warm-up of the read population, part of set-up
	// c14Setups is how many times the cheap corpus is ingested; set-up time
	// and ingest throughput are the median. C103 is ingested once: a second
	// ingest would cost more than the timed window.
	c14Setups int
}

func scaleByName(name string) (scale, error) {
	switch name {
	case "full":
		big := synth.EvalConfig()
		big.Seed, big.Deals, big.NoiseDocsPerDeal = 500000, 200, 500
		return scale{name: name, c103: big, c14: synth.EvalConfig(),
			window: 12 * time.Second, warm: 2 * time.Second, c14Setups: 3}, nil
	case "smoke":
		toy := synth.EvalConfig()
		toy.Deals, toy.NoiseDocsPerDeal = 4, 40
		return scale{name: name, c103: toy, c14: toy,
			window: time.Second, warm: 100 * time.Millisecond, c14Setups: 1}, nil
	}
	return scale{}, fmt.Errorf("unknown scale %q (full, smoke)", name)
}

// countingReader measures what passes from the generator into ingest.
type countingReader struct {
	inner analysis.CollectionReader
	docs  int
	bytes int64 // raw document text: bodies
}

func (r *countingReader) Next() (*docmodel.Document, error) {
	d, err := r.inner.Next()
	if err == nil {
		r.docs++
		r.bytes += int64(len(d.Body))
	}
	return d, err
}

type ingested struct {
	sys   *eil.System
	docs  int
	bytes int64
	wall  time.Duration
}

// ingest streams a corpus through the bulk offline pipeline.
func ingest(cfg synth.Config) (ingested, error) {
	st := synth.NewStream(cfg)
	rd := &countingReader{inner: st}
	t0 := time.Now()
	sys, err := eil.IngestFrom(rd, eil.Options{Directory: st.Directory(), Workers: procs})
	if err != nil {
		return ingested{}, fmt.Errorf("ingest: %w", err)
	}
	return ingested{sys: sys, docs: rd.docs, bytes: rd.bytes, wall: time.Since(t0)}, nil
}

// heldDoc is one update document with the raw file text it parses from.
type heldDoc struct {
	doc *docmodel.Document
	raw string
}

// heldBatch is one AddDocuments call's worth of held-out documents, all of
// one deal. first marks the batch that creates the deal.
type heldBatch struct {
	deal  string
	first bool
	docs  []heldDoc
	bytes int64
}

func (b *heldBatch) documents() []*docmodel.Document {
	out := make([]*docmodel.Document, len(b.docs))
	for i, d := range b.docs {
		out[i] = d.doc
	}
	return out
}

// heldSource generates update documents nobody has ingested: a second,
// seed-driven synthetic corpus streamed deal by deal, renamed "HELD nnnnn" so
// it never collides with corpus deals. Each held-out deal yields exactly two
// batches of batchDocs — the first creates the deal, the second grows it —
// so half of all batches go to new deals and half to existing ones. One
// stream keeps contact names unique across all held-out deals.
type heldSource struct {
	st      *synth.Stream
	pending *docmodel.Document // first document of the next deal
	n       int
	queue   []*heldBatch
	spent   time.Duration // time spent generating, to exclude from closed loops
}

func newHeldSource(seed int64) *heldSource {
	cfg := synth.EvalConfig()
	cfg.Seed = seed
	cfg.Deals = 1 << 30
	cfg.NoiseDocsPerDeal = batchDocs // every deal has at least 2*batchDocs documents
	return &heldSource{st: synth.NewStream(cfg).WithRaw()}
}

// next returns the next batch, generating another deal when needed.
func (h *heldSource) next() (*heldBatch, error) {
	if len(h.queue) == 0 {
		t0 := time.Now()
		if err := h.generate(); err != nil {
			return nil, err
		}
		h.spent += time.Since(t0)
	}
	b := h.queue[0]
	h.queue = h.queue[1:]
	return b, nil
}

func (h *heldSource) generate() error {
	first := h.pending
	if first == nil {
		d, err := h.st.Next()
		if err != nil {
			return fmt.Errorf("held-out stream: %w", err)
		}
		first = d
	}
	raw := h.st.Raw() // the map of the deal `first` belongs to
	docs := []*docmodel.Document{first}
	for {
		d, err := h.st.Next()
		if err != nil {
			return fmt.Errorf("held-out stream: %w", err)
		}
		if d.DealID != first.DealID {
			h.pending = d
			break
		}
		docs = append(docs, d)
	}
	if len(docs) < 2*batchDocs {
		return fmt.Errorf("held-out deal %s has %d documents, need %d", first.DealID, len(docs), 2*batchDocs)
	}
	h.n++
	id := fmt.Sprintf("HELD %05d", h.n)
	for b := 0; b < 2; b++ {
		batch := &heldBatch{deal: id, first: b == 0}
		for _, d := range docs[b*batchDocs : (b+1)*batchDocs] {
			cp := *d
			cp.Path = id + "/" + path.Base(d.Path)
			cp.DealID = id
			batch.docs = append(batch.docs, heldDoc{doc: &cp, raw: raw[d.Path]})
			batch.bytes += int64(len(cp.Body))
		}
		h.queue = append(h.queue, batch)
	}
	return nil
}
