// Command eilbench records an ingest+search throughput snapshot through the
// obs instrumentation: it generates a synthetic corpus, ingests it, runs a
// mixed form/keyword query workload, and writes a JSON report (summary plus
// the full metrics snapshot). The committed BENCH_baseline.json was produced
// by this tool; future performance PRs re-run it to show a trajectory.
//
// Usage:
//
//	eilbench -deals 23 -noise 610 -queries 500 -out BENCH_pr2.json
//	eilbench -procs 1,4 -compare BENCH_baseline.json -out BENCH_pr2.json
//
// -procs runs the whole benchmark once per GOMAXPROCS value (the first is
// the primary run reported at the top level; the rest land in "runs").
// -compare prints per-metric deltas against a previous report.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/docmodel"
	"repro/internal/docparse"
	"repro/internal/durable"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/runtimetel"
	"repro/internal/serving"
	"repro/internal/slo"
	"repro/internal/synth"
	"repro/internal/trace"
)

// ingestSummary and searchSummary are the per-run measurement blocks.
type ingestSummary struct {
	Docs        int     `json:"docs"`
	Deals       int     `json:"deals"`
	Annotations int     `json:"annotations"`
	WallSeconds float64 `json:"wall_seconds"`
	DocsPerSec  float64 `json:"docs_per_sec"`
}

type searchSummary struct {
	Queries       int     `json:"queries"`
	FormQueries   int     `json:"form_queries"`
	KeywordHits   int     `json:"keyword_queries"`
	WallSeconds   float64 `json:"wall_seconds"`
	QueriesPerSec float64 `json:"queries_per_sec"`
	// Unavailable counts queries refused outright (no serving tier left) —
	// nonzero only under fault injection.
	Unavailable int `json:"unavailable,omitempty"`
	// Concurrency is the closed-loop worker count (0/absent = sequential).
	Concurrency int     `json:"concurrency,omitempty"`
	P50Seconds  float64 `json:"p50_seconds"`
	P95Seconds  float64 `json:"p95_seconds"`
	P99Seconds  float64 `json:"p99_seconds"`
	// Stages breaks form-query time down by pipeline stage, measured from
	// the per-query trace spans (search.compose, search.synopsis,
	// search.siapi, search.combine, search.access).
	Stages map[string]stageSummary `json:"stages,omitempty"`
}

// stageSummary is one search stage's aggregate span timing.
type stageSummary struct {
	Count        int     `json:"count"`
	TotalSeconds float64 `json:"total_seconds"`
	MeanSeconds  float64 `json:"mean_seconds"`
}

// runReport is one complete benchmark pass at a fixed GOMAXPROCS.
type runReport struct {
	GOMAXPROCS int            `json:"gomaxprocs"`
	Ingest     ingestSummary  `json:"ingest"`
	Search     searchSummary  `json:"search"`
	Metrics    []obs.Snapshot `json:"metrics"`
}

// report is the JSON document eilbench writes. The top-level fields mirror
// the original single-run layout (so -compare can read any vintage);
// additional -procs runs are appended under "runs".
type report struct {
	GeneratedAt string `json:"generated_at"`
	GoVersion   string `json:"go_version"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	// NumCPU is the host's logical CPU count. GOMAXPROCS above the CPU
	// count only timeslices; the shard A/B's parallel speedup is bounded
	// by this number, so a committed artifact is uninterpretable without it.
	NumCPU int `json:"num_cpu"`

	Ingest  ingestSummary  `json:"ingest"`
	Search  searchSummary  `json:"search"`
	Metrics []obs.Snapshot `json:"metrics"`

	Runs []runReport `json:"runs,omitempty"`

	// Chaos is the -chaos mode block: resilience overhead when nothing
	// fails, and availability/latency under injected fault rates.
	Chaos *chaosSummary `json:"chaos,omitempty"`

	// Durability is the -durability mode block: snapshot save/load cost,
	// journaled-update throughput, and crash-recovery (snapshot + journal
	// replay) wall time.
	Durability *durabilitySummary `json:"durability,omitempty"`

	// SLO judges the primary run against the availability/latency
	// objectives, so BENCH artifacts carry objective pass/fail, not just
	// raw latencies.
	SLO *sloCompliance `json:"slo,omitempty"`

	// Telemetry is the -telemetry mode block: the A/B cost of running the
	// runtime collector plus SLO evaluation alongside the search workload.
	Telemetry *telemetrySummary `json:"telemetry,omitempty"`

	// Shard is the -shards A/B block: the same varied workload against the
	// monolithic engine and an N-shard scatter-gather cluster, at each
	// requested concurrency.
	Shard *shardSummary `json:"shard,omitempty"`

	// Repl is the -repl mode block: read-scaling of a primary plus N
	// WAL-shipped read replicas behind the router, as a cpu-bound pair and
	// a remote-replica latency-model pair (see replSummary).
	Repl *replSummary `json:"repl,omitempty"`

	// LoadCurve is the -loadcurve mode block: open-loop throughput-vs-
	// latency curves per engine and GOMAXPROCS.
	LoadCurve *loadCurveSummary `json:"load_curve,omitempty"`

	// Build stamps the exact build (module version, VCS revision, dirty
	// flag) and host shape that produced this artifact. The legacy
	// top-level go_version/gomaxprocs/num_cpu fields stay for -compare
	// compatibility with older reports.
	Build *runtimetel.ReportHeader `json:"build,omitempty"`
}

// shardSide is one engine's side of a shard A/B measurement.
type shardSide struct {
	QPS         float64 `json:"qps"`
	P50Seconds  float64 `json:"p50_seconds"`
	P95Seconds  float64 `json:"p95_seconds"`
	P99Seconds  float64 `json:"p99_seconds"`
	Unavailable int     `json:"unavailable,omitempty"`
}

// shardPair compares monolith vs sharded at one closed-loop concurrency.
type shardPair struct {
	Concurrency int       `json:"concurrency"`
	Monolith    shardSide `json:"monolith"`
	Sharded     shardSide `json:"sharded"`
	// Speedup is sharded QPS over monolith QPS.
	Speedup float64 `json:"speedup_qps"`
}

// shardSummary is the -shards report block.
type shardSummary struct {
	Shards  int         `json:"shards"`
	Queries int         `json:"queries"`
	Pairs   []shardPair `json:"pairs"`
}

// sloCompliance is the objective verdict over a measured workload.
type sloCompliance struct {
	AvailabilityObjective      float64 `json:"availability_objective"`
	LatencyP99ObjectiveSeconds float64 `json:"latency_p99_objective_seconds"`
	ObservedAvailability       float64 `json:"observed_availability"`
	ObservedP99Seconds         float64 `json:"observed_p99_seconds"`
	AvailabilityPass           bool    `json:"availability_pass"`
	LatencyPass                bool    `json:"latency_pass"`
	Pass                       bool    `json:"pass"`
}

// judgeSLO evaluates observed figures against the objectives.
func judgeSLO(availObj, p99Obj, availability, p99 float64) *sloCompliance {
	c := &sloCompliance{
		AvailabilityObjective:      availObj,
		LatencyP99ObjectiveSeconds: p99Obj,
		ObservedAvailability:       availability,
		ObservedP99Seconds:         p99,
		AvailabilityPass:           availability >= availObj,
		LatencyPass:                p99 <= p99Obj,
	}
	c.Pass = c.AvailabilityPass && c.LatencyPass
	return c
}

// telemetrySummary is the -telemetry report block: identical workloads with
// the judgment layer off and on, best-of-three walls each.
type telemetrySummary struct {
	IntervalSeconds float64 `json:"interval_seconds"`
	PlainQPS        float64 `json:"plain_qps"`
	TelemetryQPS    float64 `json:"telemetry_qps"`
	// OverheadFraction is (telemetry wall / plain wall) - 1: what the
	// collector ticks plus SLO evaluation cost the workload.
	OverheadFraction float64 `json:"overhead_fraction"`
}

// durabilitySummary is the -durability report block.
type durabilitySummary struct {
	// Snapshot checkpoint of the full ingested system.
	SnapshotSaveSeconds float64 `json:"snapshot_save_seconds"`
	SnapshotBytes       int64   `json:"snapshot_bytes"`
	SnapshotLoadSeconds float64 `json:"snapshot_load_seconds"`

	// Journaled updates: AddDocuments batches applied with the WAL enabled
	// (fsync per batch), then recovery replaying them all from the journal.
	JournaledBatches     int     `json:"journaled_batches"`
	JournaledDocs        int     `json:"journaled_docs"`
	JournalSeconds       float64 `json:"journal_seconds"`
	JournalBatchesPerSec float64 `json:"journal_batches_per_sec"`
	WALBytes             int64   `json:"wal_bytes"`
	RecoverySeconds      float64 `json:"recovery_seconds"`

	// Raw journal micro-benchmark: 256-byte records, fsync every record vs
	// batched fsync, and replay throughput.
	RawRecords             int     `json:"raw_records"`
	RawAppendSyncedPerSec  float64 `json:"raw_append_synced_per_sec"`
	RawAppendBatchedPerSec float64 `json:"raw_append_batched_per_sec"`
	RawReplayPerSec        float64 `json:"raw_replay_per_sec"`
}

// chaosScenario is one fault-rate pass of the chaos workload.
type chaosScenario struct {
	// FaultRate is the per-call injection probability applied to the
	// synopsis and SIAPI call sites (error plus 20ms latency rules).
	FaultRate float64 `json:"fault_rate"`
	Queries   int     `json:"queries"`
	OK        int     `json:"ok"`
	Degraded  int     `json:"degraded"`
	// Unavailable counts queries with no serving tier left (the 503 class).
	Unavailable int `json:"unavailable"`
	// Availability is the fraction of queries answered (full or degraded).
	Availability float64 `json:"availability"`
	DegradedFrac float64 `json:"degraded_fraction"`
	P50Seconds   float64 `json:"p50_seconds"`
	P99Seconds   float64 `json:"p99_seconds"`
	// SLO judges this scenario against the run's objectives.
	SLO *sloCompliance `json:"slo,omitempty"`
}

// chaosSummary is the -chaos report block.
type chaosSummary struct {
	BudgetSeconds float64 `json:"budget_seconds"`
	MaxRetries    int     `json:"max_retries"`
	// OverheadFraction is (resilient wall / plain wall) - 1 with no faults
	// injected: the cost of the budget/retry/breaker envelope itself.
	OverheadFraction float64         `json:"overhead_fraction"`
	PlainQPS         float64         `json:"plain_qps"`
	ResilientQPS     float64         `json:"resilient_qps"`
	Scenarios        []chaosScenario `json:"scenarios"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("eilbench: ")
	var (
		deals   = flag.Int("deals", 23, "synthetic corpus size in deals (paper evaluation: 23)")
		noise   = flag.Int("noise", 610, "noise documents per deal (paper evaluation: ~610)")
		queries = flag.Int("queries", 500, "workload size (3:1 form-to-keyword mix)")
		out     = flag.String("out", "", "write the JSON report to this file (default: stdout)")
		procs   = flag.String("procs", "", "comma-separated GOMAXPROCS values to benchmark (default: current)")
		compare = flag.String("compare", "", "previous report JSON to diff against")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the benchmark runs to this file")

		shardN      = flag.Int("shards", 0, "run the shard A/B: monolithic engine vs N-shard scatter-gather over the same corpus and a varied low-cache-hit workload (adds the 'shard' report block)")
		replN       = flag.Int("repl", 0, "run the replication read-scaling A/B: a lone primary vs the same primary plus N WAL-shipped read replicas behind the router (adds the 'repl' report block)")
		concurrency = flag.Int("concurrency", 1, "closed-loop workload workers; >1 runs a short untimed ramp, then N workers drain the query set")

		chaos      = flag.Bool("chaos", false, "measure resilience: fault-free overhead, then availability/latency at 0/1/5%% injected fault rates")
		durability = flag.Bool("durability", false, "measure durability: snapshot save/load, journaled-update throughput, crash recovery")
		budget     = flag.Duration("search-budget", 2*time.Second, "search time budget used by -chaos and -fault-spec runs")
		faultSpec  = flag.String("fault-spec", "", "inject faults into the standard workload, e.g. 'synopsis.search:error:p=0.01'")
		faultSeed  = flag.Uint64("fault-seed", 1, "seed for fault-injection randomness")

		telemetry   = flag.Bool("telemetry", false, "measure the A/B overhead of running the runtime collector + SLO evaluation alongside the workload")
		telInterval = flag.Duration("telemetry-interval", 250*time.Millisecond, "collector sampling interval for the -telemetry A/B (aggressive on purpose; production default is 10s)")
		sloAvail    = flag.Float64("slo-availability", 0.999, "availability objective the report's SLO verdicts judge against")
		sloP99      = flag.Duration("slo-latency-p99", 250*time.Millisecond, "p99 latency objective the report's SLO verdicts judge against")
	)
	lcf := registerLoadCurveFlags()
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	cfg := synth.EvalConfig()
	cfg.Deals = *deals
	cfg.NoiseDocsPerDeal = *noise

	procList, err := parseProcs(*procs)
	if err != nil {
		log.Fatal(err)
	}

	var inj *fault.Injector
	if *faultSpec != "" {
		inj, err = fault.ParseSpec(*faultSpec, *faultSeed)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("fault injection active (seed %d): %s", *faultSeed, *faultSpec)
	}

	var r report
	r.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	r.GoVersion = runtime.Version()
	r.NumCPU = runtime.NumCPU()
	hdr := runtimetel.NewReportHeader()
	r.Build = &hdr

	if *durability {
		run, ds, err := durabilityBench(cfg)
		if err != nil {
			log.Fatal(err)
		}
		r.GOMAXPROCS = run.GOMAXPROCS
		r.Ingest = run.Ingest
		r.Metrics = run.Metrics
		r.Durability = ds
	} else if *lcf.enabled {
		run, lc, err := loadCurveBench(cfg, lcf, *shardN, procList)
		if err != nil {
			log.Fatal(err)
		}
		r.GOMAXPROCS = run.GOMAXPROCS
		r.Ingest = run.Ingest
		r.Metrics = run.Metrics
		r.LoadCurve = lc
	} else if *chaos {
		run, cs, err := chaosBench(cfg, *queries, *budget, *faultSeed)
		if err != nil {
			log.Fatal(err)
		}
		r.GOMAXPROCS = run.GOMAXPROCS
		r.Ingest = run.Ingest
		r.Search = run.Search
		r.Metrics = run.Metrics
		r.Chaos = cs
	} else {
		var runs []runReport
		for _, p := range procList {
			prev := runtime.GOMAXPROCS(p)
			run, err := benchOnce(cfg, *queries, *budget, inj, *concurrency)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				log.Fatal(err)
			}
			runs = append(runs, run)
		}
		r.GOMAXPROCS = runs[0].GOMAXPROCS
		r.Ingest = runs[0].Ingest
		r.Search = runs[0].Search
		r.Metrics = runs[0].Metrics
		r.Runs = runs[1:]
	}

	// Judge the primary run against the objectives so the artifact carries
	// pass/fail, and per-scenario verdicts when chaos ran.
	if r.Search.Queries > 0 {
		availability := float64(r.Search.Queries-r.Search.Unavailable) / float64(r.Search.Queries)
		r.SLO = judgeSLO(*sloAvail, sloP99.Seconds(), availability, r.Search.P99Seconds)
		log.Printf("[slo] availability %.4f (objective %.4f, pass=%v), p99 %.3gms (objective %v, pass=%v)",
			r.SLO.ObservedAvailability, r.SLO.AvailabilityObjective, r.SLO.AvailabilityPass,
			r.SLO.ObservedP99Seconds*1000, *sloP99, r.SLO.LatencyPass)
	}
	if r.Chaos != nil {
		for i := range r.Chaos.Scenarios {
			sc := &r.Chaos.Scenarios[i]
			sc.SLO = judgeSLO(*sloAvail, sloP99.Seconds(), sc.Availability, sc.P99Seconds)
		}
	}
	if *telemetry {
		ts, err := telemetryBench(cfg, *queries, *telInterval)
		if err != nil {
			log.Fatal(err)
		}
		r.Telemetry = ts
	}
	if *shardN > 1 && !*lcf.enabled { // -loadcurve consumes -shards itself
		if runtime.NumCPU() < *shardN {
			log.Printf("[shard] warning: %d shards on %d CPU(s) — the scatter timeslices instead of "+
				"running in parallel, so the A/B measures overhead and locality, not parallel speedup", *shardN, runtime.NumCPU())
		}
		prev := runtime.GOMAXPROCS(procList[0])
		ss, err := shardBench(cfg, *queries, *shardN, *concurrency)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			log.Fatal(err)
		}
		r.Shard = ss
	}
	if *replN > 0 {
		if runtime.NumCPU() < *replN+1 {
			log.Printf("[repl] warning: %d nodes on %d CPU(s) — the cpu_bound pair measures routing overhead, "+
				"not parallel speedup; see the latency_model pair and the report's note field", *replN+1, runtime.NumCPU())
		}
		rs, err := replBench(cfg, *queries, *replN)
		if err != nil {
			log.Fatal(err)
		}
		r.Repl = rs
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		log.Fatal(err)
	}
	if *out != "" {
		log.Printf("wrote %s", *out)
	}
	if *compare != "" {
		if err := printComparison(*compare, r); err != nil {
			log.Fatal(err)
		}
	}
}

// parseProcs turns "1,4" into [1, 4]; empty means the current GOMAXPROCS.
func parseProcs(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return []int{runtime.GOMAXPROCS(0)}, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -procs value %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// closedLoop drives do(i) for i in [0, queries) across `workers`
// goroutines: first an untimed sequential ramp over the opening slice of
// the query set (caches and the scheduler settle), then the workers drain
// a shared counter. do returns the query's latency (negative to exclude it
// from the percentile set, e.g. keyword baseline calls) and whether the
// query was refused outright.
func closedLoop(queries, workers int, do func(i int) (time.Duration, bool, error)) (wall time.Duration, lats []time.Duration, unavailable int, err error) {
	ramp := queries / 10
	if ramp > 50 {
		ramp = 50
	}
	for i := 0; i < ramp; i++ {
		if _, _, rerr := do(i); rerr != nil {
			return 0, nil, 0, rerr
		}
	}
	if workers < 1 {
		workers = 1
	}
	var next, refused atomic.Int64
	perWorker := make([][]time.Duration, workers)
	errs := make([]error, workers)
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= queries {
					return
				}
				lat, ref, derr := do(i)
				if derr != nil {
					errs[w] = derr
					return
				}
				if ref {
					refused.Add(1)
				}
				if lat >= 0 {
					perWorker[w] = append(perWorker[w], lat)
				}
			}
		}()
	}
	wg.Wait()
	wall = time.Since(t0)
	for _, e := range errs {
		if e != nil {
			return wall, nil, 0, e
		}
	}
	for _, l := range perWorker {
		lats = append(lats, l...)
	}
	return wall, lats, int(refused.Load()), nil
}

// latQuantile reports the q-quantile of a latency sample.
func latQuantile(lats []time.Duration, q float64) float64 {
	if len(lats) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), lats...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[int(q*float64(len(s)-1))].Seconds()
}

// benchOnce generates the corpus, ingests it, and runs the query workload at
// the current GOMAXPROCS. A non-nil injector runs the workload under fault
// injection with the resilience envelope (budget, 3 retries) enabled.
// concurrency > 1 switches the workload to a closed loop of that many
// workers (percentiles then come from per-query wall times, and the
// per-stage trace breakdown is skipped — stage spans overlap under
// contention).
func benchOnce(cfg synth.Config, queries int, budget time.Duration, inj *fault.Injector, concurrency int) (runReport, error) {
	var run runReport
	run.GOMAXPROCS = runtime.GOMAXPROCS(0)
	log.Printf("[procs=%d] generating %d deals x ~%d docs...", run.GOMAXPROCS, cfg.Deals, cfg.NoiseDocsPerDeal)
	corpus, err := synth.Generate(cfg)
	if err != nil {
		return run, err
	}

	sys, err := eil.Ingest(corpus.Docs, eil.Options{Directory: corpus.Directory})
	if err != nil {
		return run, err
	}
	if inj != nil {
		sys.Engine.Faults = inj
		sys.Engine.Resilient = core.Resilience{Budget: budget, MaxRetries: 3}
	}
	log.Printf("[procs=%d] ingested %d docs in %v (%.0f docs/sec)",
		run.GOMAXPROCS, sys.Stats.Docs, sys.Stats.Wall.Round(time.Millisecond), sys.Stats.DocsPerSec())

	// Mixed workload: cycle concept-scoped form queries (with and without
	// text predicates) and keyword-baseline queries over the taxonomy
	// vocabulary, so every search stage is exercised.
	towers := sys.Taxonomy.TowerNames()
	user := access.User{ID: "bench"}
	phrases := []string{"data replication", "service desk", "disaster recovery", "asset management"}

	// Every form query runs traced (a tiny ring: spans are read inline, not
	// retained), so the report can break latency down by pipeline stage.
	tracer := trace.New(trace.Options{RingSize: 16, SlowPerRoute: 1})
	stageTotals := map[string]time.Duration{}
	stageCounts := map[string]int{}
	recordStages := func(tr *trace.Trace) {
		for _, s := range tr.Spans() {
			if strings.HasPrefix(s.Name, "search.") {
				stageTotals[s.Name] += s.Duration
				stageCounts[s.Name]++
			}
		}
	}
	formQuery := func(q core.FormQuery) error {
		ctx, tr := tracer.Start(context.Background(), "bench.form", trace.StartOptions{})
		_, err := sys.SearchCtx(ctx, user, q)
		tr.Finish()
		if err == nil {
			recordStages(tr)
		}
		return err
	}

	mix := func(i int) core.FormQuery {
		switch i % 4 {
		case 0:
			return core.FormQuery{Tower: towers[i%len(towers)]}
		case 1:
			return core.FormQuery{
				Tower:       towers[i%len(towers)],
				ExactPhrase: phrases[i%len(phrases)],
			}
		default:
			return core.FormQuery{AnyWords: []string{"replication", "outsourcing"}}
		}
	}

	var formN, keywordN int
	var searchElapsed time.Duration
	var conLats []time.Duration
	if concurrency > 1 {
		wall, lats, refused, lerr := closedLoop(queries, concurrency, func(i int) (time.Duration, bool, error) {
			if i%4 == 3 {
				sys.KeywordSearch(fmt.Sprintf("%q", phrases[i%len(phrases)]), 20)
				return -1, false, nil
			}
			t0 := time.Now()
			_, serr := sys.SearchCtx(context.Background(), user, mix(i))
			lat := time.Since(t0)
			if serr != nil {
				if inj != nil && core.IsUnavailable(serr) {
					return lat, true, nil
				}
				return lat, false, serr
			}
			return lat, false, nil
		})
		if lerr != nil {
			return run, lerr
		}
		searchElapsed, conLats = wall, lats
		run.Search.Unavailable = refused
		run.Search.Concurrency = concurrency
		for i := 0; i < queries; i++ {
			if i%4 == 3 {
				keywordN++
			} else {
				formN++
			}
		}
		formN -= refused
	} else {
		searchWall := obs.StartTimer()
		for i := 0; i < queries; i++ {
			if i%4 == 3 {
				sys.KeywordSearch(fmt.Sprintf("%q", phrases[i%len(phrases)]), 20)
				keywordN++
				continue
			}
			if err := formQuery(mix(i)); err != nil {
				if inj != nil && core.IsUnavailable(err) {
					run.Search.Unavailable++
					continue // injected outage with no serving tier left
				}
				return run, err
			}
			formN++
		}
		searchElapsed = searchWall.Elapsed()
	}

	run.Ingest.Docs = sys.Stats.Docs
	run.Ingest.Deals = cfg.Deals
	run.Ingest.Annotations = sys.Stats.Annotations
	run.Ingest.WallSeconds = sys.Stats.Wall.Seconds()
	run.Ingest.DocsPerSec = sys.Stats.DocsPerSec()
	run.Search.Queries = queries
	run.Search.FormQueries = formN
	run.Search.KeywordHits = keywordN
	run.Search.WallSeconds = searchElapsed.Seconds()
	run.Search.QueriesPerSec = float64(queries) / searchElapsed.Seconds()
	if conLats != nil {
		run.Search.P50Seconds = latQuantile(conLats, 0.50)
		run.Search.P95Seconds = latQuantile(conLats, 0.95)
		run.Search.P99Seconds = latQuantile(conLats, 0.99)
	} else {
		h := sys.Metrics.Histogram("search_seconds", nil)
		run.Search.P50Seconds = h.Quantile(0.50)
		run.Search.P95Seconds = h.Quantile(0.95)
		run.Search.P99Seconds = h.Quantile(0.99)
	}
	run.Search.Stages = map[string]stageSummary{}
	for name, total := range stageTotals {
		n := stageCounts[name]
		run.Search.Stages[name] = stageSummary{
			Count:        n,
			TotalSeconds: total.Seconds(),
			MeanSeconds:  total.Seconds() / float64(n),
		}
	}
	run.Metrics = sys.Metrics.Snapshots()

	log.Printf("[procs=%d] search: %d queries in %v (%.0f q/s, p50 %.3gms p95 %.3gms p99 %.3gms)",
		run.GOMAXPROCS, queries, searchElapsed.Round(time.Millisecond), run.Search.QueriesPerSec,
		run.Search.P50Seconds*1000, run.Search.P95Seconds*1000, run.Search.P99Seconds*1000)
	return run, nil
}

// chaosFaultRates are the injected per-call fault probabilities the chaos
// mode sweeps.
var chaosFaultRates = []float64{0, 0.01, 0.05}

// chaosBench ingests once, then measures the resilience envelope: the
// fault-free overhead of enabling it, and availability/degradation/latency
// under increasing injected fault rates. Each pass runs on a Derive()d
// engine so breaker state and per-engine caches never leak between
// scenarios.
func chaosBench(cfg synth.Config, queries int, budget time.Duration, seed uint64) (runReport, *chaosSummary, error) {
	run, err := benchOnce(cfg, queries, budget, nil, 1)
	if err != nil {
		return run, nil, err
	}
	// benchOnce does not return its system; rebuild one for the chaos
	// passes from the same corpus config (generation is deterministic).
	corpus, err := synth.Generate(cfg)
	if err != nil {
		return run, nil, err
	}
	sys, err := eil.Ingest(corpus.Docs, eil.Options{Directory: corpus.Directory})
	if err != nil {
		return run, nil, err
	}

	towers := sys.Taxonomy.TowerNames()
	user := access.User{ID: "bench"}
	phrases := []string{"data replication", "service desk", "disaster recovery", "asset management"}
	mix := func(i int) core.FormQuery {
		switch i % 3 {
		case 0:
			return core.FormQuery{Tower: towers[i%len(towers)]}
		case 1:
			return core.FormQuery{Tower: towers[i%len(towers)], ExactPhrase: phrases[i%len(phrases)]}
		default:
			return core.FormQuery{AnyWords: []string{"replication", "outsourcing"}}
		}
	}
	workload := func(eng *core.Engine) (lats []time.Duration, ok, degraded, unavail int, err error) {
		ctx := context.Background()
		for i := 0; i < queries; i++ {
			t0 := time.Now()
			res, serr := eng.SearchCtx(ctx, user, mix(i))
			lats = append(lats, time.Since(t0))
			switch {
			case serr == nil:
				ok++
				if res.Degraded {
					degraded++
				}
			case core.IsUnavailable(serr):
				unavail++
			default:
				return nil, 0, 0, 0, serr
			}
		}
		return lats, ok, degraded, unavail, nil
	}
	cs := &chaosSummary{BudgetSeconds: budget.Seconds(), MaxRetries: 3}

	// Overhead: plain vs resilience-enabled, both fault-free. A warmup pass
	// first (shared index caches then serve both sides equally), then three
	// alternating passes per side keeping the best wall, so scheduler noise
	// does not masquerade as envelope cost.
	if _, _, _, _, err := workload(sys.Engine.Derive()); err != nil {
		return run, nil, err
	}
	timed := func(eng *core.Engine) (time.Duration, error) {
		t0 := time.Now()
		_, _, _, _, err := workload(eng)
		return time.Since(t0), err
	}
	plain := sys.Engine.Derive()
	resil := sys.Engine.Derive()
	resil.Resilient = core.Resilience{Budget: budget, MaxRetries: 3}
	var plainWall, resilWall time.Duration
	for pass := 0; pass < 3; pass++ {
		pw, err := timed(plain)
		if err != nil {
			return run, nil, err
		}
		rw, err := timed(resil)
		if err != nil {
			return run, nil, err
		}
		if pass == 0 || pw < plainWall {
			plainWall = pw
		}
		if pass == 0 || rw < resilWall {
			resilWall = rw
		}
	}
	cs.PlainQPS = float64(queries) / plainWall.Seconds()
	cs.ResilientQPS = float64(queries) / resilWall.Seconds()
	cs.OverheadFraction = resilWall.Seconds()/plainWall.Seconds() - 1
	log.Printf("[chaos] fault-free overhead: %.2f%% (plain %.0f q/s, resilient %.0f q/s)",
		cs.OverheadFraction*100, cs.PlainQPS, cs.ResilientQPS)

	for _, rate := range chaosFaultRates {
		eng := sys.Engine.Derive()
		eng.Resilient = core.Resilience{Budget: budget, MaxRetries: 3}
		if rate > 0 {
			inj := fault.New(seed)
			inj.Add(&fault.Rule{Site: fault.SiteSynopsisSearch, Mode: fault.ModeError, P: rate})
			inj.Add(&fault.Rule{Site: fault.SiteSIAPISearch, Mode: fault.ModeError, P: rate})
			inj.Add(&fault.Rule{Site: fault.SiteSynopsisSearch, Mode: fault.ModeSlow, Latency: 20 * time.Millisecond, P: rate})
			eng.Faults = inj
		}
		lats, ok, degraded, unavail, err := workload(eng)
		if err != nil {
			return run, nil, err
		}
		sc := chaosScenario{
			FaultRate:    rate,
			Queries:      queries,
			OK:           ok,
			Degraded:     degraded,
			Unavailable:  unavail,
			Availability: float64(queries-unavail) / float64(queries),
			DegradedFrac: float64(degraded) / float64(queries),
			P50Seconds:   latQuantile(lats, 0.50),
			P99Seconds:   latQuantile(lats, 0.99),
		}
		cs.Scenarios = append(cs.Scenarios, sc)
		log.Printf("[chaos] rate %.0f%%: availability %.4f, degraded %.1f%%, p50 %.3gms p99 %.3gms",
			rate*100, sc.Availability, sc.DegradedFrac*100, sc.P50Seconds*1000, sc.P99Seconds*1000)
	}
	return run, cs, nil
}

// searcher is the SearchCtx surface shardBench drives against either a
// monolithic System or a Cluster.
type searcher interface {
	SearchCtx(ctx context.Context, user access.User, q core.FormQuery) (core.Result, error)
}

// shardBenchWords cross with the taxonomy towers to give the shard A/B
// ~500 distinct queries, so per-engine caches see a realistically low hit
// rate and the comparison measures search work, not memoization.
var shardBenchWords = []string{
	"replication", "outsourcing", "migration", "backup", "recovery",
	"network", "storage", "transition", "governance", "consolidation",
}

// shardBench ingests one corpus twice — monolithic and into n shards —
// and drives the same varied form-query workload through both, closed
// loop, at concurrency 1 and maxConc. The speedup it reports is only
// meaningful because the workload is cache-hostile: on a repetitive
// workload both engines serve from their memos and the comparison
// flattens to cache-hit latency.
func shardBench(cfg synth.Config, queries, n, maxConc int) (*shardSummary, error) {
	log.Printf("[shard] generating %d deals x ~%d docs...", cfg.Deals, cfg.NoiseDocsPerDeal)
	corpus, err := synth.Generate(cfg)
	if err != nil {
		return nil, err
	}
	mono, err := eil.Ingest(corpus.Docs, eil.Options{Directory: corpus.Directory})
	if err != nil {
		return nil, err
	}
	cluster, err := eil.IngestSharded(corpus.Docs, n, eil.Options{Directory: corpus.Directory})
	if err != nil {
		return nil, err
	}
	log.Printf("[shard] ingested %d docs monolithic and across %d shards", mono.Index.DocCount(), n)

	towers := mono.Taxonomy.TowerNames()
	user := access.User{ID: "bench"}
	gen := func(i int) core.FormQuery {
		tw := towers[i%len(towers)]
		w1 := shardBenchWords[i%len(shardBenchWords)]
		w2 := shardBenchWords[(i/7)%len(shardBenchWords)]
		switch i % 4 {
		case 0:
			return core.FormQuery{Tower: tw, AllWords: []string{w1}}
		case 1:
			return core.FormQuery{Tower: tw, AnyWords: []string{w1, w2}}
		case 2:
			return core.FormQuery{AnyWords: []string{w1, w2}}
		default:
			return core.FormQuery{Tower: tw, ExactPhrase: w1 + " " + w2}
		}
	}
	measure := func(s searcher, workers int) (shardSide, error) {
		wall, lats, refused, err := closedLoop(queries, workers, func(i int) (time.Duration, bool, error) {
			t0 := time.Now()
			_, serr := s.SearchCtx(context.Background(), user, gen(i))
			lat := time.Since(t0)
			if serr != nil {
				if core.IsUnavailable(serr) {
					return lat, true, nil
				}
				return lat, false, serr
			}
			return lat, false, nil
		})
		if err != nil {
			return shardSide{}, err
		}
		return shardSide{
			QPS:         float64(queries) / wall.Seconds(),
			P50Seconds:  latQuantile(lats, 0.50),
			P95Seconds:  latQuantile(lats, 0.95),
			P99Seconds:  latQuantile(lats, 0.99),
			Unavailable: refused,
		}, nil
	}

	ss := &shardSummary{Shards: n, Queries: queries}
	concs := []int{1}
	if maxConc > 1 {
		concs = append(concs, maxConc)
	}
	for _, c := range concs {
		m, err := measure(mono, c)
		if err != nil {
			return nil, err
		}
		sh, err := measure(cluster, c)
		if err != nil {
			return nil, err
		}
		pair := shardPair{Concurrency: c, Monolith: m, Sharded: sh}
		if m.QPS > 0 {
			pair.Speedup = sh.QPS / m.QPS
		}
		ss.Pairs = append(ss.Pairs, pair)
		log.Printf("[shard] c=%d: monolith %.0f q/s (p50 %.3gms p99 %.3gms) -> %d shards %.0f q/s (p50 %.3gms p99 %.3gms), %.2fx",
			c, m.QPS, m.P50Seconds*1000, m.P99Seconds*1000, n, sh.QPS, sh.P50Seconds*1000, sh.P99Seconds*1000, pair.Speedup)
	}
	return ss, nil
}

// telemetryBench measures what the judgment layer costs: the identical
// search workload with telemetry off, then with the runtime collector
// sampling (at an interval far more aggressive than production) and the
// SLO engine evaluating on every tick. Best-of-three walls per side, with
// a shared warmup, as in the chaos overhead measurement.
func telemetryBench(cfg synth.Config, queries int, interval time.Duration) (*telemetrySummary, error) {
	log.Printf("[telemetry] generating %d deals x ~%d docs...", cfg.Deals, cfg.NoiseDocsPerDeal)
	corpus, err := synth.Generate(cfg)
	if err != nil {
		return nil, err
	}
	sys, err := eil.Ingest(corpus.Docs, eil.Options{Directory: corpus.Directory})
	if err != nil {
		return nil, err
	}
	towers := sys.Taxonomy.TowerNames()
	user := access.User{ID: "bench"}
	phrases := []string{"data replication", "service desk", "disaster recovery", "asset management"}
	workload := func() error {
		ctx := context.Background()
		for i := 0; i < queries; i++ {
			var q core.FormQuery
			switch i % 3 {
			case 0:
				q = core.FormQuery{Tower: towers[i%len(towers)]}
			case 1:
				q = core.FormQuery{Tower: towers[i%len(towers)], ExactPhrase: phrases[i%len(phrases)]}
			default:
				q = core.FormQuery{AnyWords: []string{"replication", "outsourcing"}}
			}
			if _, err := sys.SearchCtx(ctx, user, q); err != nil {
				return err
			}
		}
		return nil
	}
	timed := func() (time.Duration, error) {
		t0 := time.Now()
		err := workload()
		return time.Since(t0), err
	}
	if err := workload(); err != nil { // warmup: caches serve both sides equally
		return nil, err
	}

	ts := &telemetrySummary{IntervalSeconds: interval.Seconds()}
	var plainWall, telWall time.Duration
	for pass := 0; pass < 3; pass++ {
		pw, err := timed()
		if err != nil {
			return nil, err
		}
		sloEng := slo.New(slo.Options{
			Registry: sys.Metrics,
			Default:  slo.Objective{Availability: 0.999, LatencyP99: 250 * time.Millisecond},
			Interval: interval,
		})
		col := runtimetel.New(runtimetel.Options{
			Interval:   interval,
			Registry:   sys.Metrics,
			AppSampler: serving.AppSampler(sys, sloEng),
		})
		col.Start()
		tw, err := timed()
		col.Stop()
		if err != nil {
			return nil, err
		}
		if pass == 0 || pw < plainWall {
			plainWall = pw
		}
		if pass == 0 || tw < telWall {
			telWall = tw
		}
	}
	ts.PlainQPS = float64(queries) / plainWall.Seconds()
	ts.TelemetryQPS = float64(queries) / telWall.Seconds()
	ts.OverheadFraction = telWall.Seconds()/plainWall.Seconds() - 1
	log.Printf("[telemetry] overhead at %v sampling: %.2f%% (plain %.0f q/s, telemetry %.0f q/s)",
		interval, ts.OverheadFraction*100, ts.PlainQPS, ts.TelemetryQPS)
	return ts, nil
}

// durabilityBench measures the durability layer end to end: checkpointing
// the full ingested system into the generation store, loading it back,
// applying journaled update batches (fsync per batch), recovering from
// snapshot+journal, and a raw journal append/replay micro-benchmark.
func durabilityBench(cfg synth.Config) (runReport, *durabilitySummary, error) {
	var run runReport
	run.GOMAXPROCS = runtime.GOMAXPROCS(0)
	log.Printf("[durability] generating %d deals x ~%d docs...", cfg.Deals, cfg.NoiseDocsPerDeal)
	corpus, err := synth.Generate(cfg)
	if err != nil {
		return run, nil, err
	}
	sys, err := eil.Ingest(corpus.Docs, eil.Options{Directory: corpus.Directory})
	if err != nil {
		return run, nil, err
	}
	run.Ingest.Docs = sys.Stats.Docs
	run.Ingest.Deals = cfg.Deals
	run.Ingest.Annotations = sys.Stats.Annotations
	run.Ingest.WallSeconds = sys.Stats.Wall.Seconds()
	run.Ingest.DocsPerSec = sys.Stats.DocsPerSec()

	dir, err := os.MkdirTemp("", "eilbench-durability-*")
	if err != nil {
		return run, nil, err
	}
	defer os.RemoveAll(dir)
	ds := &durabilitySummary{}

	// Snapshot save: one full checkpoint of the ingested system.
	t0 := time.Now()
	if _, err := sys.Checkpoint(dir); err != nil {
		return run, nil, err
	}
	ds.SnapshotSaveSeconds = time.Since(t0).Seconds()
	ds.SnapshotBytes = dirBytes(dir)
	log.Printf("[durability] snapshot save: %.3fs, %d bytes", ds.SnapshotSaveSeconds, ds.SnapshotBytes)

	// Snapshot load: cold reconstruction from the generation store.
	t0 = time.Now()
	loaded, err := eil.LoadSystem(dir, nil)
	if err != nil {
		return run, nil, err
	}
	ds.SnapshotLoadSeconds = time.Since(t0).Seconds()
	log.Printf("[durability] snapshot load: %.3fs (%d docs)", ds.SnapshotLoadSeconds, loaded.Index.DocCount())

	// Journaled updates: AddDocuments batches with the journal fsynced at
	// every batch — the acknowledged-update path a live server runs.
	if err := loaded.EnableWAL(dir, 1); err != nil {
		return run, nil, err
	}
	const batches = 25
	t0 = time.Now()
	for i := 0; i < batches; i++ {
		docs, err := benchDealDocs(fmt.Sprintf("DEAL BENCH %03d", i))
		if err != nil {
			return run, nil, err
		}
		if err := loaded.AddDocuments(docs); err != nil {
			return run, nil, err
		}
		ds.JournaledDocs += len(docs)
	}
	ds.JournalSeconds = time.Since(t0).Seconds()
	ds.JournaledBatches = batches
	ds.JournalBatchesPerSec = float64(batches) / ds.JournalSeconds
	if fi, err := os.Stat(filepath.Join(dir, durable.WALName)); err == nil {
		ds.WALBytes = fi.Size()
	}
	log.Printf("[durability] journaled %d batches (%d docs) in %.3fs (%.1f batches/s, %d journal bytes)",
		ds.JournaledBatches, ds.JournaledDocs, ds.JournalSeconds, ds.JournalBatchesPerSec, ds.WALBytes)

	// Crash recovery: reload from snapshot + journal replay, then verify the
	// journaled updates actually arrived.
	t0 = time.Now()
	recovered, err := eil.LoadSystem(dir, nil)
	if err != nil {
		return run, nil, err
	}
	ds.RecoverySeconds = time.Since(t0).Seconds()
	if got, want := recovered.Index.DocCount(), loaded.Index.DocCount(); got != want {
		return run, nil, fmt.Errorf("recovery lost state: %d docs, want %d", got, want)
	}
	log.Printf("[durability] recovery (snapshot + journal replay): %.3fs", ds.RecoverySeconds)

	// Raw journal micro-benchmark, away from the pipeline: append throughput
	// with per-record fsync vs batched fsync, and replay throughput.
	const rawRecords = 2000
	payload := bytes.Repeat([]byte("x"), 256)
	rawDir, err := os.MkdirTemp("", "eilbench-wal-*")
	if err != nil {
		return run, nil, err
	}
	defer os.RemoveAll(rawDir)
	appendRun := func(dir string, syncEvery int) (float64, error) {
		w, err := durable.CreateWAL(dir, 1, durable.WALOptions{SyncEvery: syncEvery})
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		for i := 0; i < rawRecords; i++ {
			if err := w.Append(1, payload); err != nil {
				return 0, err
			}
		}
		if err := w.Sync(); err != nil {
			return 0, err
		}
		if err := w.Close(); err != nil {
			return 0, err
		}
		return float64(rawRecords) / time.Since(t0).Seconds(), nil
	}
	syncedDir := filepath.Join(rawDir, "synced")
	if err := os.Mkdir(syncedDir, 0o755); err != nil {
		return run, nil, err
	}
	if ds.RawAppendSyncedPerSec, err = appendRun(syncedDir, 1); err != nil {
		return run, nil, err
	}
	batchedDir := filepath.Join(rawDir, "batched")
	if err := os.Mkdir(batchedDir, 0o755); err != nil {
		return run, nil, err
	}
	if ds.RawAppendBatchedPerSec, err = appendRun(batchedDir, 64); err != nil {
		return run, nil, err
	}
	t0 = time.Now()
	rep, err := durable.ReplayWAL(batchedDir, durable.WALOptions{})
	if err != nil {
		return run, nil, err
	}
	if len(rep.Records) != rawRecords {
		return run, nil, fmt.Errorf("raw replay: %d records, want %d", len(rep.Records), rawRecords)
	}
	ds.RawRecords = rawRecords
	ds.RawReplayPerSec = float64(rawRecords) / time.Since(t0).Seconds()
	log.Printf("[durability] raw journal: append %.0f rec/s fsync-per-record, %.0f rec/s batched; replay %.0f rec/s",
		ds.RawAppendSyncedPerSec, ds.RawAppendBatchedPerSec, ds.RawReplayPerSec)

	run.Metrics = sys.Metrics.Snapshots()
	return run, ds, nil
}

// benchDealDocs builds one small update batch (a four-file deal) for the
// journaled-update measurement.
func benchDealDocs(dealID string) ([]*docmodel.Document, error) {
	files := []struct{ name, content string }{
		{"overview.txt", "Deal Overview\nCustomer: Bench Corp\nIndustry: Retail\nTotal Contract Value: over 100M\nScope summary: Network Services.\n"},
		{"scope.deck", "# Services Scope Baseline\n- Network Services\n- Voice Services coverage\n"},
		{"team.grid", "GRID Deal Team Roster\nName | Role | Email | Phone\nBench Person | CSE | bench.person@example.com |\n"},
		{"tsa-1.grid", "GRID Network Services Service Details\nService Item | cross tower TSA | Notes\nNetwork Services item 1 | | pending\n"},
	}
	var docs []*docmodel.Document
	for _, f := range files {
		doc, err := docparse.Parse(dealID+"/"+f.name, f.content)
		if err != nil {
			return nil, err
		}
		doc.DealID = dealID
		docs = append(docs, doc)
	}
	return docs, nil
}

// dirBytes sums the sizes of all regular files under dir.
func dirBytes(dir string) int64 {
	var total int64
	filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			total += info.Size()
		}
		return nil
	})
	return total
}

// printComparison loads a previous report and prints per-metric deltas
// between its primary run and this one's.
func printComparison(path string, cur report) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("compare: %w", err)
	}
	var base report
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("compare: parse %s: %w", path, err)
	}
	fmt.Fprintf(os.Stderr, "\ncomparison vs %s (baseline procs=%d, current procs=%d):\n",
		path, base.GOMAXPROCS, cur.GOMAXPROCS)
	row := func(name string, baseV, curV float64, higherBetter bool) {
		if baseV == 0 {
			fmt.Fprintf(os.Stderr, "  %-22s %12.4g -> %12.4g\n", name, baseV, curV)
			return
		}
		ratio := curV / baseV
		verdict := "slower"
		if (higherBetter && ratio >= 1) || (!higherBetter && ratio <= 1) {
			verdict = "faster"
		}
		fmt.Fprintf(os.Stderr, "  %-22s %12.4g -> %12.4g   %.2fx (%s)\n", name, baseV, curV, ratio, verdict)
	}
	row("ingest docs/sec", base.Ingest.DocsPerSec, cur.Ingest.DocsPerSec, true)
	row("search queries/sec", base.Search.QueriesPerSec, cur.Search.QueriesPerSec, true)
	row("search p50 (ms)", base.Search.P50Seconds*1000, cur.Search.P50Seconds*1000, false)
	row("search p95 (ms)", base.Search.P95Seconds*1000, cur.Search.P95Seconds*1000, false)
	row("search p99 (ms)", base.Search.P99Seconds*1000, cur.Search.P99Seconds*1000, false)
	for _, run := range cur.Runs {
		fmt.Fprintf(os.Stderr, "  [procs=%d run] ingest %.4g docs/sec, search %.4g q/s, p99 %.4gms\n",
			run.GOMAXPROCS, run.Ingest.DocsPerSec, run.Search.QueriesPerSec, run.Search.P99Seconds*1000)
	}
	if cur.Shard != nil {
		for _, p := range cur.Shard.Pairs {
			fmt.Fprintf(os.Stderr, "  [shards=%d c=%d] monolith %.4g q/s p99 %.4gms -> sharded %.4g q/s p99 %.4gms (%.2fx)\n",
				cur.Shard.Shards, p.Concurrency, p.Monolith.QPS, p.Monolith.P99Seconds*1000,
				p.Sharded.QPS, p.Sharded.P99Seconds*1000, p.Speedup)
		}
	}
	return nil
}
