package main

import (
	"math"
	"sort"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricDef struct{ name, unit string }

// endToEnd lists what a user of the system sees, in BENCHMARK.json order.
// Every workload reports every one of them (see complement).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"read_ops_s", "1/s"},
	{"read_p50_ms", "ms"},
	{"write_p50_ms", "ms"},
	{"write_docs_s", "1/s"},
	{"ingest_docs_s", "1/s"},
	{"checkpoint_s", "s"},
	{"recover_s", "s"},
	{"disk_bytes_per_doc_byte", "ratio"},
}

// layerSpans are the span names of the traced run that become
// <span>.calls, <span>.p50_us and <span>.p99_us.
var layerSpans = []string{
	"web.search", "web.keyword",
	"eil.search", "eil.keyword", "eil.add", "eil.remove", "eil.checkpoint", "eil.load",
	"core.search",
	"synopsis.search", "synopsis.get",
	"sqlx.query", "sqlx.parse",
	"siapi.activities", "siapi.search",
	"index.search", "index.snippet", "index.addbatch",
	"docparse.parse",
	"analysis.flow",
	"durable.append",
}

// layerNamed are the per-layer metrics that are not plain span statistics.
// The first three are the latency tails: they were meant to be end-to-end
// metrics, but mixed serves 540 reads and 60 batches in its window, and
// their spread across ten seeds there (20–85% of the median) is wider than
// any bound a regression check could use.
var layerNamed = []metricDef{
	{"read_p95_ms", "ms"},
	{"read_p99_ms", "ms"},
	{"write_p95_ms", "ms"},
	{"web.self_us", "us"},
	{"eil.self_us", "us"},
	{"web.resp_bytes_p50", "bytes"},
	{"web.concept.p50_us", "us"},
	{"web.scoped.p50_us", "us"},
	{"web.unscoped.p50_us", "us"},
	{"core.synmemo_hit_ratio", "ratio"},
	{"siapi.cache_hit_ratio", "ratio"},
	{"core.fallback_ratio", "ratio"},
	{"core.zero_result_ratio", "ratio"},
	{"durable.fsyncs_per_append", "ratio"},
	{"durable.wal_bytes_per_doc_byte", "ratio"},
	{"durable.snapshot_bytes", "bytes"},
	{"sqlx.parse_share", "ratio"},
	{"eil.add.apply_us", "us"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.inflight_max", "count"},
	{"trace.overhead_ratio", "ratio"},
}

// perLayer is the full per-layer list, in BENCHMARK.json order.
func perLayer() []metricDef {
	var out []metricDef
	for _, s := range layerSpans {
		out = append(out, metricDef{s + ".calls", "count"}, metricDef{s + ".p50_us", "us"}, metricDef{s + ".p99_us", "us"})
	}
	return append(out, layerNamed...)
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// endToEndMetrics turns a run's observations into the end-to-end numbers.
func (m *measures) endToEndMetrics() map[string]float64 {
	reads, writes, ckpts := sorted(m.reads), sorted(m.writes), sorted(m.checkpoints)
	return map[string]float64{
		"setup_s":                 m.setupS,
		"heap_mb":                 m.heapMB,
		"read_ops_s":              float64(len(reads)) / m.readWall,
		"read_p50_ms":             median(reads),
		"write_p50_ms":            median(writes),
		"write_docs_s":            float64(m.writeDocs) / m.writeWall,
		"ingest_docs_s":           m.ingestDocsS,
		"checkpoint_s":            median(ckpts),
		"recover_s":               m.recoverS,
		"disk_bytes_per_doc_byte": m.diskRatio,
	}
}

// ratio is a/(a+b), 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if a+b == 0 {
		return 0
	}
	return a / (a + b)
}

// perLayerMetrics computes the layer budget from the spans read back from
// the span file, plus the counters and samples only the run itself holds.
// Differences of medians are floored at zero: below that they are noise.
func (b *bench) perLayerMetrics(spans []span) map[string]float64 {
	m := &b.m
	by := durations(spans)
	out := map[string]float64{}
	for _, s := range layerSpans {
		d := by[s]
		out[s+".calls"] = float64(len(d))
		out[s+".p50_us"] = median(d)
		out[s+".p99_us"] = quantile(d, 0.99)
	}
	p50 := func(span string) float64 { return median(by[span]) }
	delta := func(name string) float64 { return b.delta[name] }

	webReads := sorted(append(append([]float64(nil), by["web.search"]...), by["web.keyword"]...))
	out["read_p95_ms"] = quantile(webReads, 0.95) / 1e3
	out["read_p99_ms"] = quantile(webReads, 0.99) / 1e3
	out["write_p95_ms"] = quantile(by["eil.add"], 0.95) / 1e3
	out["web.self_us"] = math.Max(0, p50("web.search")-p50("eil.search"))
	out["eil.self_us"] = math.Max(0, p50("eil.search")-p50("core.search"))
	out["web.resp_bytes_p50"] = median(sorted(m.respBytes))
	out["web.concept.p50_us"] = median(sorted(m.classUS[0]))
	out["web.scoped.p50_us"] = median(sorted(m.classUS[1]))
	out["web.unscoped.p50_us"] = median(sorted(m.classUS[2]))
	out["core.synmemo_hit_ratio"] = ratio(delta("synopsis_cache_hits_total"), delta("synopsis_cache_misses_total"))
	out["siapi.cache_hit_ratio"] = ratio(delta("search_cache_hits_total"), delta("search_cache_misses_total"))
	if n := delta("search_total"); n > 0 {
		out["core.fallback_ratio"] = delta("search_fallback_total") / n
		out["core.zero_result_ratio"] = delta("search_zero_results_total") / n
	} else {
		out["core.fallback_ratio"], out["core.zero_result_ratio"] = 0, 0
	}
	out["durable.fsyncs_per_append"] = 0
	if n := delta("durable_wal_appends_total"); n > 0 {
		out["durable.fsyncs_per_append"] = delta("durable_wal_fsyncs_total") / n
	}
	out["durable.wal_bytes_per_doc_byte"] = 0
	if b.addBytes > 0 {
		out["durable.wal_bytes_per_doc_byte"] = float64(b.walBytes) / float64(b.addBytes)
	}
	out["durable.snapshot_bytes"] = float64(m.snapBytes)
	out["sqlx.parse_share"] = 0
	if q := p50("sqlx.query"); q > 0 {
		out["sqlx.parse_share"] = p50("sqlx.parse") / q
	}
	out["eil.add.apply_us"] = math.Max(0, p50("eil.add")-batchDocs*p50("analysis.flow")-p50("durable.append"))
	out["loadgen.late_p99_ms"] = quantile(sorted(m.late), 0.99)
	out["loadgen.inflight_max"] = float64(m.inflightMax)
	out["trace.overhead_ratio"] = 0
	if ref := median(sorted(m.refUS)); ref > 0 {
		out["trace.overhead_ratio"] = p50("web.search") / ref
	}
	return out
}
