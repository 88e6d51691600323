// Command eilingest runs EIL's offline pipeline over a repository tree:
// crawl, parse, annotate, collection-process, and persist the semantic
// index and the business-context database — the Data Acquisition,
// Information Analysis, and Organized Information boxes of the
// architecture diagram.
//
// Usage:
//
//	eilingest -repo ./workbooks -out ./eilsys [-personnel ./workbooks/personnel.jsonl] [-workers N]
package main

import (
	"encoding/json"
	"flag"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro"
	"repro/internal/crawler"
	"repro/internal/directory"
	"repro/internal/obs"
	"repro/internal/serving"
	"repro/internal/taxonomy"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("eilingest: ")
	var (
		repo       = flag.String("repo", "workbooks", "repository tree to crawl")
		out        = flag.String("out", "eilsys", "system output directory")
		personnel  = flag.String("personnel", "", "personnel directory file (default: <repo>/personnel.jsonl when present)")
		workers    = flag.Int("workers", 0, "annotator and index-build parallelism (0 = GOMAXPROCS)")
		shards     = flag.Int("shards", 1, "partition by hashed deal ID into N scatter-gather shards (eilserver auto-detects the cluster on load)")
		blob       = flag.Bool("blob", false, "degrade to structure-blind parsing (the §3.3 ablation)")
		threshold  = flag.Float64("scope-threshold", 0, "override the scope CPE significance threshold")
		taxFile    = flag.String("taxonomy", "", "custom services taxonomy (JSON; default: built-in IT services vocabulary)")
		dedup      = flag.Bool("dedup", false, "drop near-duplicate documents before analysis (§3.4 redundancy cleanup)")
		stats      = flag.Bool("stats", false, "print the per-annotator and per-CPE wall-time breakdown")
		snapKeep   = flag.Int("snapshot-keep", 0, "committed snapshot generations retained in -out as corruption fallbacks (0 = default)")
		metricsOut = flag.String("metrics-out", "", "write the ingest metrics snapshot (JSON) to this file")

		traceSample = flag.Int("trace-sample", 16, "trace 1 in N documents through the annotator flow (0 disables)")
		traceOut    = flag.String("trace-out", "", "write retained document and flush traces (JSON) to this file")
	)
	flag.Parse()

	// Identify the build in the run log: ingest artifacts outlive the
	// binary that wrote them, so "which revision produced this system
	// directory" should be answerable from the log alone.
	goVer, rev, _, modified := obs.Info()
	if rev == "" {
		rev = "unknown"
	} else if modified {
		rev += "+dirty"
	}
	log.Printf("build: %s, revision %s", goVer, rev)

	var tracer *trace.Tracer
	if *traceSample > 0 {
		tracer = trace.New(trace.Options{SampleEvery: *traceSample})
	}

	var tax *taxonomy.Taxonomy
	if *taxFile != "" {
		var err error
		tax, err = taxonomy.LoadFile(*taxFile)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("loaded custom taxonomy with %d towers from %s", len(tax.Towers()), *taxFile)
	}

	var dir *directory.Directory
	path := *personnel
	if path == "" {
		candidate := filepath.Join(*repo, "personnel.jsonl")
		if _, err := os.Stat(candidate); err == nil {
			path = candidate
		}
	}
	if path != "" {
		var err error
		dir, err = directory.LoadFile(path)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("loaded %d personnel records from %s", dir.Len(), path)
	} else {
		log.Printf("no personnel directory: contact enrichment disabled")
	}

	// One registry spans the crawl and the pipeline, so the metrics
	// snapshot includes ingest_parse_errors_total alongside the rest.
	metrics := obs.NewRegistry()
	reader, err := crawler.NewFSReader(*repo)
	if err != nil {
		log.Fatal(err)
	}
	reader.Metrics = metrics
	start := time.Now()

	if *shards > 1 {
		cluster, err := eil.IngestShardedFrom(reader, *shards, eil.Options{
			Workers:        *workers,
			Directory:      dir,
			Taxonomy:       tax,
			BlobParsing:    *blob,
			Dedup:          *dedup,
			MinScopeWeight: *threshold,
			Metrics:        metrics,
			Tracer:         tracer,
		})
		if err != nil {
			log.Fatal(err)
		}
		if reader.Skipped() > 0 {
			log.Printf("skipped %d unparseable files", reader.Skipped())
			for _, s := range reader.SkippedFiles() {
				log.Printf("  skip %s: %v", s.Path, s.Err)
			}
		}
		docs, deals, annotations, failed := 0, 0, 0, 0
		for i, s := range cluster.Shards {
			ids, err := s.Synopses.DealIDs()
			if err != nil {
				log.Fatal(err)
			}
			docs += s.Index.DocCount()
			deals += len(ids)
			annotations += s.Stats.Annotations
			failed += s.Stats.Failed
			if *stats {
				log.Printf("  shard %d: %d documents, %d deals", i, s.Index.DocCount(), len(ids))
			}
		}
		if failed > 0 {
			log.Printf("warning: %d documents failed analysis", failed)
		}
		if *metricsOut != "" {
			if err := writeMetrics(metrics, *metricsOut); err != nil {
				log.Fatal(err)
			}
			log.Printf("wrote metrics snapshot to %s", *metricsOut)
		}
		if *traceOut != "" && tracer != nil {
			if err := dumpTraces(tracer, *traceOut); err != nil {
				log.Fatal(err)
			}
		}
		cluster.Tune(serving.Settings{SnapshotKeep: *snapKeep})
		gens, err := cluster.Checkpoint(*out)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("ingested %d documents (%d annotations) across %d business activities into %d shards in %v; saved to %s (generations %v)",
			docs, annotations, deals, *shards, time.Since(start).Round(time.Millisecond), *out, gens)
		return
	}

	sys, err := eil.IngestFrom(reader, eil.Options{
		Workers:        *workers,
		Directory:      dir,
		Taxonomy:       tax,
		BlobParsing:    *blob,
		Dedup:          *dedup,
		MinScopeWeight: *threshold,
		Metrics:        metrics,
		Tracer:         tracer,
	})
	if err != nil {
		log.Fatal(err)
	}
	if reader.Skipped() > 0 {
		log.Printf("skipped %d unparseable files", reader.Skipped())
		for _, s := range reader.SkippedFiles() {
			log.Printf("  skip %s: %v", s.Path, s.Err)
		}
	}
	if len(sys.Duplicates) > 0 {
		log.Printf("dropped %d near-duplicate documents", len(sys.Duplicates))
	}
	if sys.Stats.Failed > 0 {
		log.Printf("warning: %d documents failed analysis", sys.Stats.Failed)
	}
	if *stats {
		for _, st := range sys.Stats.Annotators {
			log.Printf("  annotator %-22s %8s over %d docs (%d failed)",
				st.Name, st.Wall.Round(time.Microsecond), st.Docs, st.Failed)
		}
		for _, st := range sys.Stats.Consumers {
			log.Printf("  cpe       %-22s %8s over %d docs",
				st.Name, st.Wall.Round(time.Microsecond), st.Docs)
		}
	}
	if *metricsOut != "" {
		if err := writeMetrics(sys.Metrics, *metricsOut); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote metrics snapshot to %s", *metricsOut)
	}
	if *traceOut != "" && tracer != nil {
		if err := dumpTraces(tracer, *traceOut); err != nil {
			log.Fatal(err)
		}
	}
	sys.SnapshotKeep = *snapKeep
	gen, err := sys.Checkpoint(*out)
	if err != nil {
		log.Fatal(err)
	}
	ids, err := sys.Synopses.DealIDs()
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("ingested %d documents (%d annotations) across %d business activities in %v (%.0f docs/sec); saved to %s (generation %d)",
		sys.Index.DocCount(), sys.Stats.Annotations, len(ids), time.Since(start).Round(time.Millisecond),
		sys.Stats.DocsPerSec(), *out, gen)
}

// writeMetrics writes the registry's JSON snapshot to path.
func writeMetrics(metrics *obs.Registry, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := metrics.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// dumpTraces writes every retained trace — the recent ring plus the slowest
// per route — as one JSON array of {summary, tree} objects, slowest first
// within the slow set, newest first within the recent set.
func dumpTraces(tracer *trace.Tracer, path string) error {
	type dumped struct {
		Summary trace.Summary `json:"summary"`
		Tree    *trace.Node   `json:"tree"`
	}
	seen := map[string]bool{}
	var out []dumped
	for _, tr := range append(tracer.Slowest(""), tracer.Recent(0)...) {
		if seen[tr.ID] {
			continue
		}
		seen[tr.ID] = true
		out = append(out, dumped{Summary: tr.Summarize(), Tree: tr.Tree()})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	log.Printf("wrote %d traces to %s", len(out), path)
	return nil
}
