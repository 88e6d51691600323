// Package eil is the public API of the EIL (Enterprise Information
// Leverage) reproduction: business-activity driven enterprise search, after
// "Improving Information Access for a Community of Practice Using Business
// Process as Context" (IBM Research, ICDE 2008).
//
// The typical flow is: obtain documents (crawl a repository tree or generate
// the synthetic corpus), Ingest them — which runs the offline half of the
// architecture (annotators, collection processing, index and synopsis
// population) — and then Search the resulting System with form-based
// queries, or run KeywordSearch for the search-box baseline the paper
// compares against.
//
//	corpus, _ := synth.Generate(synth.EvalConfig())   // or crawler.NewFSReader
//	sys, _ := eil.Ingest(corpus.Docs, eil.Options{Directory: corpus.Directory})
//	res, _ := sys.Search(user, core.FormQuery{Tower: "End User Services"})
package eil

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/access"
	"repro/internal/analysis"
	"repro/internal/annotators"
	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/dedupe"
	"repro/internal/directory"
	"repro/internal/docmodel"
	"repro/internal/durable"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/relstore"
	"repro/internal/repl"
	"repro/internal/serving"
	"repro/internal/siapi"
	"repro/internal/synopsis"
	"repro/internal/taxonomy"
	"repro/internal/textproc"
	"repro/internal/trace"
)

// Options configures ingestion. The zero value is the standard system; the
// ablation switches degrade specific design choices so their contribution
// can be measured.
type Options struct {
	// Workers bounds annotator parallelism (0 = GOMAXPROCS).
	Workers int
	// Directory is the personnel service used to validate and enrich
	// contacts; nil disables enrichment (the step-13 ablation).
	Directory *directory.Directory
	// Taxonomy overrides the default services taxonomy.
	Taxonomy *taxonomy.Taxonomy
	// MinScopeWeight overrides the scope CPE threshold (0 = default 2.0).
	MinScopeWeight float64
	// BlobParsing strips document structure before analysis — "blindly
	// applying patterns interpreting the entire data as a blob of text"
	// (the §3.3 custom-parsing ablation).
	BlobParsing bool
	// DisableScoping makes online searches run their SIAPI query unscoped
	// (the Figure 1 step-8 ablation).
	DisableScoping bool
	// Dedup drops near-duplicate documents (within each activity) before
	// analysis — the §3.4 "removal ... of duplicate/redundant data" CPE,
	// run as a pre-pass because duplicate detection is purely textual.
	Dedup bool
	// DedupThreshold overrides the Jaccard similarity cut (0 = 0.85).
	DedupThreshold float64
	// EntityContacts swaps the convention-driven social networking
	// annotator for the flat-text entity-and-co-occurrence extractor the
	// paper describes as the alternative in §3.2.1 (and predicts is
	// worse); the entity ablation measures the difference.
	EntityContacts bool
	// Access supplies the access controller; nil grants everyone full
	// access (offline evaluation mode).
	Access *access.Controller
	// Metrics is the registry ingest and search telemetry is recorded into;
	// nil creates a fresh registry (exposed as System.Metrics). Supply one
	// to share a registry across systems or with other subsystems.
	Metrics *obs.Registry
	// Tracer, when set, samples per-document traces during ingest and is
	// exposed as System.Tracer for request tracing and the debug surfaces;
	// nil disables tracing (every trace call is a no-op).
	Tracer *trace.Tracer
}

// searchFront is the search surface a System and a Cluster share: one engine
// over the deployment's backends (a system's own stores, or every shard's) and
// the collaborators it consults. Both shapes embed it, so every read —
// Search, SearchCtx, SearchExplain, Explore, KeywordSearch, KeywordCount,
// Deal, SimilarDeals — and the telemetry getters are written once.
type searchFront struct {
	// Engine runs Figure 1 over the deployment's backends; ablations and
	// resilience config tune it directly.
	Engine   *core.Engine
	Taxonomy *taxonomy.Taxonomy
	Access   *access.Controller
	// Metrics holds the counters, gauges, and latency histograms: ingest_*
	// from the offline pipeline, search_* from the online path, and (when
	// served through internal/web) http_* from the HTTP layer. Every shard of
	// a cluster records into the same registry under a "shard" label.
	Metrics *obs.Registry
	// Tracer retains recent and slowest request/document traces; nil when
	// tracing is off. internal/web serves it at /debug/traces, and its ring
	// is the query log: a traced search's root span carries the query's
	// facts (serving.LogQuery), the telemetry behind the paper's
	// "additional evaluation" improvement loop.
	Tracer *trace.Tracer
}

// System is an ingested EIL instance ready to answer queries.
type System struct {
	searchFront
	Index     *index.Index
	SIAPI     *siapi.Engine
	Synopses  *synopsis.Store
	Directory *directory.Directory
	// Stats summarizes the offline run.
	Stats analysis.Stats
	// Duplicates lists the redundant documents the dedup pre-pass dropped
	// (empty unless Options.Dedup was set).
	Duplicates []string
	// SnapshotKeep is how many committed snapshot generations Save/Checkpoint
	// retain for corruption fallback (0 = durable.DefaultKeep).
	SnapshotKeep int
	// WALFS overrides the filesystem the write-ahead journal is opened
	// through (nil = the real one). Tests route it through durable.FaultFS
	// to fail the journal on demand; the health layer's WAL probe then
	// observes the failure without touching real disks.
	WALFS durable.FS

	// Retained offline-pipeline state for incremental updates. LoadSystem
	// rebuilds it from the persisted pipeline snapshot, so restored systems
	// update exactly like live ones.
	flow    analysis.Annotator
	builder *annotators.Builder
	writer  *crawler.IndexWriter

	// upMu serializes mutations (AddDocuments, RemoveDeal, Compact,
	// Checkpoint, EnableWAL). Searches do not take it: they read the live
	// engine through the sia atomic pointer, so Compact's swap never races
	// them.
	upMu sync.Mutex
	sia  atomic.Pointer[siapi.Engine]

	// Durability state: the last committed snapshot generation and, when
	// EnableWAL has been called, the open journal and its directory.
	gen      uint64
	wal      *durable.WAL
	walDir   string
	lastCkpt time.Time

	// Replication state. seq is the global record counter — how many
	// journal records this state's history folds in since its lineage
	// began — and is the position coordinate followers and lag math
	// use. ckptSeq is seq at the last committed checkpoint
	// (what the replpos component records). upstreamGen, on a follower,
	// names the primary generation the state derives from (0 on a
	// primary). replLog is the state's in-memory ship history in either
	// role: on a primary it is live once a shipper serves it, and
	// journalLocked tees every record into it; on a follower's state it
	// starts at the adopted position and applyReplicated extends it, so a
	// promoted state ships from it unchanged. Once set, it is never
	// replaced.
	seq         atomic.Uint64
	ckptSeq     uint64
	upstreamGen atomic.Uint64
	replLog     *repl.Log

	// Fencing state. fenceEpoch is the failover term this state last
	// committed under (0 = never promoted). fencedBy, when nonzero, names
	// the newer epoch that fenced this node: every mutation is refused
	// with failover.FencedError until an operator (or the elector)
	// re-syncs it as a follower. prevEpoch/sealSeq record the previous
	// term and where its history was sealed at promotion — the shipper
	// uses them to decide whether a stale peer's position is a safe
	// prefix (tail-resume) or divergent (forced re-sync).
	fenceEpoch atomic.Uint64
	fencedBy   atomic.Uint64
	prevEpoch  uint64
	sealSeq    uint64

	// replica is set while a Follower owns this state: its history is the
	// primary's, so the write guard refuses every local mutation and
	// EnableWAL refuses a journal. Promotion (promoteToPrimary) clears it.
	replica atomic.Bool
}

// siapi returns the live keyword engine. Searches go through this (not the
// exported SIAPI field) so Compact can swap backends under concurrent load;
// it is also the Docs getter of the system's one core backend.
func (s *System) siapi() *siapi.Engine { return s.sia.Load() }

// LiveSIAPI returns the live (compaction-swappable) keyword engine.
func (s *System) LiveSIAPI() *siapi.Engine { return s.siapi() }

// publish makes ix the system's live index: a fresh keyword engine over it
// goes to concurrent searches first (atomically — a search sees either the
// old or the new engine, never a torn mix), then into the construction-time
// fields for code that reads them sequentially.
func (s *System) publish(ix *index.Index) {
	engine := siapi.NewEngine(ix)
	engine.SetMetrics(s.Metrics)
	s.sia.Store(engine)
	s.Index, s.SIAPI = ix, engine
	if s.writer != nil {
		s.writer.Ix = ix
	}
}

// newSystem is the one place a System's stores become a serving system: an
// ingest (IngestFrom) and a restore (loadGeneration) fill in what they built
// or decoded, and this publishes the index and builds the search engine over
// the list of one backend — the system's own synopsis store and live keyword
// engine.
func newSystem(s *System, ix *index.Index, disableScoping bool) *System {
	s.publish(ix)
	s.Engine = &core.Engine{
		Backends:       []core.ShardBackend{{Synopses: s.Synopses, Docs: s.siapi}},
		Access:         s.Access,
		Tax:            s.Taxonomy,
		DisableScoping: disableScoping,
		Metrics:        s.Metrics,
	}
	return s
}

// Registry returns the metrics registry (serving.Telemetry).
func (f *searchFront) Registry() *obs.Registry { return f.Metrics }

// RequestTracer returns the request tracer, nil when tracing is off.
func (f *searchFront) RequestTracer() *trace.Tracer { return f.Tracer }

// Ingest runs the offline pipeline (Data Acquisition already done by the
// caller: docs are parsed) over the documents: document-level annotators in
// parallel, feeding the collection processing engines in document order,
// which populate the semantic index and the synopsis store.
func Ingest(docs []*docmodel.Document, opts Options) (*System, error) {
	return IngestFrom(&analysis.SliceReader{Docs: docs}, opts)
}

// IngestFrom is Ingest reading from any CollectionReader (for example
// crawler.NewFSReader over a repository tree).
func IngestFrom(reader analysis.CollectionReader, opts Options) (*System, error) {
	tax := opts.Taxonomy
	if tax == nil {
		tax = taxonomy.Default()
	}
	store, err := synopsis.NewStore(relstore.NewDB())
	if err != nil {
		return nil, fmt.Errorf("eil: %w", err)
	}
	ix := index.New(textproc.DefaultAnalyzer)

	metrics := opts.Metrics
	if metrics == nil {
		metrics = obs.NewRegistry()
	}

	builder := annotators.NewBuilder(store, opts.Directory)
	if opts.MinScopeWeight > 0 {
		builder.MinScopeWeight = opts.MinScopeWeight
	}
	writer := &crawler.IndexWriter{Ix: ix, Workers: opts.Workers, Metrics: metrics, Tracer: opts.Tracer}

	if opts.BlobParsing {
		reader = &blobReader{inner: reader}
	}
	var duplicates []string
	if opts.Dedup {
		var err error
		reader, duplicates, err = dedupReader(reader, opts.DedupThreshold)
		if err != nil {
			return nil, fmt.Errorf("eil: dedup: %w", err)
		}
	}
	pipe := &analysis.Pipeline{
		Reader:    reader,
		Annotator: annotators.NewEILFlow(tax),
		Consumers: []analysis.Consumer{writer, builder},
		Workers:   opts.Workers,
		Metrics:   metrics,
		Tracer:    opts.Tracer,
	}
	if opts.BlobParsing {
		// The blob flow also degrades the social annotator.
		pipe.Annotator = blobFlow(tax)
	}
	if opts.EntityContacts {
		pipe.Annotator = entityFlow(tax)
	}
	stats, err := pipe.Run()
	if err != nil {
		return nil, fmt.Errorf("eil: ingest: %w", err)
	}

	return newSystem(&System{
		searchFront: searchFront{Taxonomy: tax, Access: opts.Access, Metrics: metrics, Tracer: opts.Tracer},
		Synopses:    store,
		Directory:   opts.Directory,
		Stats:       stats,
		Duplicates:  duplicates,
		flow:        pipe.Annotator,
		builder:     builder,
		writer:      writer,
	}, ix, opts.DisableScoping), nil
}

// dedupReader materializes the document stream, drops near-duplicates
// within each activity, and returns a reader over the survivors plus the
// dropped paths.
func dedupReader(reader analysis.CollectionReader, threshold float64) (analysis.CollectionReader, []string, error) {
	var docs []*docmodel.Document
	for {
		d, err := reader.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, err
		}
		docs = append(docs, d)
	}
	det := dedupe.New()
	if threshold > 0 {
		det.Threshold = threshold
	}
	for _, d := range docs {
		det.Add(d.Path, d.DealID, d.Body)
	}
	drop := map[string]bool{}
	dropped := det.DuplicateIDs()
	for _, id := range dropped {
		drop[id] = true
	}
	kept := docs[:0]
	for _, d := range docs {
		if !drop[d.Path] {
			kept = append(kept, d)
		}
	}
	return &analysis.SliceReader{Docs: kept}, dropped, nil
}

// blobReader strips structure from every document, simulating a parser that
// treats files as undifferentiated text.
type blobReader struct {
	inner analysis.CollectionReader
}

func (r *blobReader) Next() (*docmodel.Document, error) {
	doc, err := r.inner.Next()
	if err != nil {
		return nil, err
	}
	flat := *doc
	flat.Structure = nil
	return &flat, nil
}

// blobFlow is the EIL flow with the structure-blind social annotator.
func blobFlow(tax *taxonomy.Taxonomy) analysis.Annotator {
	return annotators.Composite("eil-flow-blob",
		annotators.NewScopeAnnotator(tax),
		&annotators.SocialNetworking{Blob: true},
		annotators.NewOverviewFacts(),
		annotators.NewWinStrategy(),
		annotators.NewTechSolution(tax),
		annotators.NewClientRefs(),
	)
}

// entityFlow is the EIL flow with the entity-and-co-occurrence contact
// extractor in place of the convention-driven one.
func entityFlow(tax *taxonomy.Taxonomy) analysis.Annotator {
	return annotators.Composite("eil-flow-entity",
		annotators.NewScopeAnnotator(tax),
		annotators.NewEntityCooccurrence(),
		annotators.NewOverviewFacts(),
		annotators.NewWinStrategy(),
		annotators.NewTechSolution(tax),
		annotators.NewClientRefs(),
	)
}

// Search runs a business-activity driven search for the user (Figure 1).
func (f *searchFront) Search(user access.User, q core.FormQuery) (core.Result, error) {
	return f.SearchCtx(context.Background(), user, q)
}

// SearchCtx is Search under the caller's context: when ctx carries a trace
// (the web middleware starts one per request), every search stage records a
// span — one child per shard under each scatter stage of a cluster — and the
// request's root span carries the query's facts, its query-log entry.
func (f *searchFront) SearchCtx(ctx context.Context, user access.User, q core.FormQuery) (core.Result, error) {
	res, err := f.Engine.SearchCtx(ctx, user, q)
	if root := trace.FromContext(ctx); root != nil && err == nil {
		serving.LogQuery(root, formEntry(user, q, res))
	}
	return res, err
}

// SearchExplain runs the search in explain mode, returning the result plus
// the span tree and per-activity score decomposition.
func (f *searchFront) SearchExplain(ctx context.Context, user access.User, q core.FormQuery) (core.Result, *core.Explanation, error) {
	res, ex, err := f.Engine.SearchExplain(ctx, user, q)
	if root := trace.FromContext(ctx); root != nil && err == nil {
		serving.LogQuery(root, formEntry(user, q, res))
	}
	return res, ex, err
}

// formEntry is a form query's query-log facts.
func formEntry(user access.User, q core.FormQuery, res core.Result) serving.QueryEntry {
	return serving.QueryEntry{
		User:       user.ID,
		Kind:       serving.KindForm,
		Summary:    formSummary(q),
		Concepts:   formConcepts(q),
		Activities: len(res.Activities),
		Fallback:   res.UnscopedFallback,
	}
}

// formSummary renders a form query for the log.
func formSummary(q core.FormQuery) string {
	var parts []string
	add := func(label, v string) {
		if v != "" {
			parts = append(parts, label+"="+v)
		}
	}
	add("tower", q.Tower)
	add("industry", q.Industry)
	add("consultant", q.Consultant)
	add("person", q.PersonName)
	add("org", q.PersonOrg)
	add("exact", q.ExactPhrase)
	if len(q.AllWords) > 0 {
		parts = append(parts, "all="+strings.Join(q.AllWords, " "))
	}
	return strings.Join(parts, " ")
}

func formConcepts(q core.FormQuery) []string {
	var out []string
	for _, c := range []string{q.Tower, q.SubTower, q.Industry, q.Consultant, q.Geography, q.Country} {
		if c != "" {
			out = append(out, c)
		}
	}
	return out
}

// KeywordSearch is the OmniFind-style search-box baseline the paper
// evaluates against: a free-text query over all documents, returning
// documents, not activities, with no business context. Quoted phrases and
// -exclusions are honored.
func (f *searchFront) KeywordSearch(query string, limit int) []siapi.DocHit {
	return f.KeywordSearchCtx(context.Background(), query, limit)
}

// KeywordSearchCtx is KeywordSearch under the caller's context. A traced
// query's log entry counts the true matches, not the returned page: that is
// truncated by limit, which would distort zero-result and volume analytics.
func (f *searchFront) KeywordSearchCtx(ctx context.Context, query string, limit int) []siapi.DocHit {
	kq := siapi.ParseKeywords(query)
	hits := f.Engine.KeywordSearchCtx(ctx, kq, limit)
	if root := trace.FromContext(ctx); root != nil {
		serving.LogQuery(root, serving.QueryEntry{Kind: serving.KindKeyword, Summary: query, Activities: f.Engine.KeywordCount(kq)})
	}
	return hits
}

// KeywordCount reports how many documents a search-box query returns — the
// "N documents returned" numbers quoted throughout the paper's §4.
func (f *searchFront) KeywordCount(query string) int {
	return f.Engine.KeywordCount(siapi.ParseKeywords(query))
}

// Explore searches within one business activity's documents (the synopsis
// drill-down) on the backend that owns it. Requires document-level access
// to the activity.
func (f *searchFront) Explore(user access.User, dealID string, q core.FormQuery) ([]siapi.DocHit, error) {
	return f.Engine.Explore(user, dealID, q)
}

// ExploreCtx is Explore under the caller's context.
func (f *searchFront) ExploreCtx(ctx context.Context, user access.User, dealID string, q core.FormQuery) ([]siapi.DocHit, error) {
	return f.Engine.ExploreCtx(ctx, user, dealID, q)
}

// SimilarDeals finds the k activities most similar to dealID (services
// mix, industry, advisor) among those the user may at least see synopses of.
func (f *searchFront) SimilarDeals(user access.User, dealID string, k int) ([]synopsis.SimilarHit, error) {
	return f.Engine.SimilarDeals(user, dealID, k)
}

// Deal fetches one deal synopsis, subject to the user's access level: a
// user with no access gets synopsis.ErrNotFound rather than existence
// disclosure.
func (f *searchFront) Deal(user access.User, dealID string) (synopsis.Deal, error) {
	return f.Engine.Deal(user, dealID)
}
