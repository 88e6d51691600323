// Package slo is EIL's telemetry history: one sampler that, every ten
// seconds, reads the Go runtime's own metrics (GC pauses, heap live and
// goal, goroutines, scheduler latency, process CPU) and the HTTP
// middleware's per-route counts into one bounded ring of typed samples, and
// judges service-level objectives over that ring.
//
// The objectives are per-route availability (non-5xx fraction) and latency
// (fraction of requests under the p99 target), evaluated as multi-window
// burn rates, the Google-SRE shape ("how fast is this route spending its
// error budget over the last 5m / 1h / 6h"): burn = (bad fraction in
// window) / (budget fraction). A burn rate of 1 means the route spends its
// budget exactly as fast as the objective allows; 14.4 (the classic page
// threshold for a 99.9% / 30d objective) means the whole month's budget
// would be gone in two days.
//
// Each tick is recorded once and read three ways: the runtime_*, process_*
// and eil_slo_* gauges on /metrics, the /api/slo report, and the
// sparklines on /debug/dash.
package slo

import (
	"math"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Objective is one route's targets. The availability objective is the
// fraction of requests that must not be 5xx; the latency objective is the
// duration the 99th percentile must stay under (so its implied budget is
// the slowest 1% of requests).
type Objective struct {
	Availability float64       `json:"availability"`
	LatencyP99   time.Duration `json:"-"`
}

// SLO dimension labels used in gauges and reports.
const (
	SLOAvailability = "availability"
	SLOLatency      = "latency"
)

// DefWindows are the burn-rate windows, ascending.
var DefWindows = []time.Duration{5 * time.Minute, time.Hour, 6 * time.Hour}

// Multi-window alert thresholds (Google SRE workbook, 99.9%/30d scaling):
// page when the short and medium windows both burn faster than 14.4x,
// ticket when the medium and long windows both burn faster than 6x.
const (
	PageBurn   = 14.4
	TicketBurn = 6.0
)

// Options configures an Engine.
type Options struct {
	// Registry is the metrics source (http_*) and gauge sink (runtime_*,
	// process_*, eil_slo_*). It must not be nil.
	Registry *obs.Registry
	// Default is the objective applied to every observed route. Zero fields
	// get 0.999 availability / 250ms p99.
	Default Objective
}

// interval is the sampling cadence, and ringSize samples at it span 6.4 h:
// the ring reaches back across the longest window with 24 minutes to spare.
const (
	interval = 10 * time.Second
	ringSize = 2304
)

// OperatorRoute reports whether route is operator traffic — scrape, probe,
// debug, replication and promotion requests, and paths no route matches —
// rather than the user traffic objectives are about. The engine skips these
// routes, and the web middleware neither traces them nor counts them in its
// overall histogram, so polling does not flush searches out of the trace
// ring (the query log).
func OperatorRoute(route string) bool {
	return route == "/metrics" || route == "/healthz" || route == "/readyz" ||
		route == "/api/slo" || route == "/api/repl" || route == "/api/promote" ||
		route == "unmatched" || strings.HasPrefix(route, "/debug/")
}

// routeCounts is one route's cumulative tally at one instant.
type routeCounts struct {
	total  float64        // requests
	errors float64        // 5xx requests
	slow   float64        // requests over the latency objective
	hist   *obs.Histogram // the route's http_request_seconds; nil when absent
}

// Sample is one tick's reading of the runtime and the application.
// Cumulative fields (GCCycles, CPUSeconds) grow monotonically; CPUFrac and
// QPS are rates over the interval ending at this sample, 0 on the first.
type Sample struct {
	Time time.Time

	Goroutines    int
	HeapLiveBytes uint64
	HeapGoalBytes uint64
	GCCycles      uint64
	// GCPauseP99 and SchedLatencyP99 are quantiles of the runtime's
	// cumulative GC pause and runnable-to-running latency distributions.
	GCPauseP99      float64
	SchedLatencyP99 float64
	// CPUSeconds is the process's cumulative non-idle CPU estimate; CPUFrac
	// is its utilization over the interval (0..GOMAXPROCS).
	CPUSeconds float64
	CPUFrac    float64

	// QPS and HTTPP99 come from the middleware's overall request histogram;
	// PeakBurn is the worst 5m burn across routes in this tick's report.
	QPS      float64
	HTTPP99  float64
	PeakBurn float64

	requests float64 // the overall histogram's cumulative count
	routes   map[string]routeCounts
}

// runtimeMetrics are the runtime/metrics names a tick reads, in batch
// order; the rt* constants index them.
var runtimeMetrics = []string{
	"/sched/goroutines:goroutines",
	"/memory/classes/heap/objects:bytes",
	"/gc/heap/goal:bytes",
	"/gc/cycles/total:gc-cycles",
	"/sched/pauses/total/gc:seconds",
	"/sched/latencies:seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

const (
	rtGoroutines = iota
	rtHeapLive
	rtHeapGoal
	rtGCCycles
	rtGCPauses
	rtSchedLat
	rtCPUTotal
	rtCPUIdle
)

// Engine is the process's one telemetry history. Start launches the
// sampling goroutine, which ticks at once and then every ten seconds; Stop
// halts it. Tick may also be called directly (tests) without Start.
type Engine struct {
	opts Options

	mu    sync.Mutex
	ring  []Sample
	n     int // samples taken; the newest is ring[(n-1)%ringSize]
	rep   Report
	batch []metrics.Sample

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// New returns an engine with defaults filled; call Start to begin sampling.
func New(opts Options) *Engine {
	if opts.Default.Availability <= 0 || opts.Default.Availability >= 1 {
		opts.Default.Availability = 0.999
	}
	if opts.Default.LatencyP99 <= 0 {
		opts.Default.LatencyP99 = 250 * time.Millisecond
	}
	e := &Engine{
		opts:  opts,
		ring:  make([]Sample, ringSize),
		batch: make([]metrics.Sample, len(runtimeMetrics)),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	for i, name := range runtimeMetrics {
		e.batch[i].Name = name
	}
	e.rep = e.reportLocked(time.Time{})
	return e
}

// Start launches the sampling goroutine (idempotent). It takes one sample
// immediately, so the history is never empty while running.
func (e *Engine) Start() {
	e.startOnce.Do(func() {
		go func() {
			defer close(e.done)
			tick := time.NewTicker(interval)
			defer tick.Stop()
			for now := time.Now(); ; {
				e.Tick(now)
				select {
				case <-e.stop:
					return
				case now = <-tick.C:
				}
			}
		}()
	})
}

// Stop halts the sampling goroutine and waits for it to exit (idempotent;
// a never-started engine stops trivially).
func (e *Engine) Stop() {
	e.stopOnce.Do(func() { close(e.stop) })
	e.startOnce.Do(func() { close(e.done) })
	<-e.done
}

// collect reads the registry's cumulative per-route figures.
func (e *Engine) collect() map[string]routeCounts {
	routes := map[string]routeCounts{}
	hists := map[string]*obs.Histogram{}
	for _, s := range e.opts.Registry.Snapshots() {
		route := s.Labels["route"]
		if route == "" || OperatorRoute(route) {
			continue
		}
		switch s.Name {
		case "http_requests_total":
			rc := routes[route]
			rc.total += s.Value
			if s.Labels["code"] == "5xx" {
				rc.errors += s.Value
			}
			routes[route] = rc
		case "http_request_seconds":
			hists[route] = e.opts.Registry.Histogram(s.Name, nil, "route", route)
		}
	}
	for route, rc := range routes {
		rc.hist = hists[route]
		if count := float64(rc.hist.Count()); count > 0 {
			rc.slow = count - rc.hist.CountLE(e.opts.Default.LatencyP99.Seconds())
			if rc.slow < 0 {
				rc.slow = 0
			}
		}
		routes[route] = rc
	}
	return routes
}

// value reads one batch slot as a float64, whatever its integer or float
// kind (0 when this toolchain lacks the metric).
func value(v metrics.Value) float64 {
	switch v.Kind() {
	case metrics.KindUint64:
		return float64(v.Uint64())
	case metrics.KindFloat64:
		return v.Float64()
	}
	return 0
}

// histQuantile estimates the q-quantile of a runtime histogram by taking
// the upper bound of the owning bucket (runtime buckets are fine-grained
// enough that interpolation adds nothing). Infinite bounds clamp to the
// nearest finite one.
func histQuantile(v metrics.Value, q float64) float64 {
	if v.Kind() != metrics.KindFloat64Histogram {
		return 0
	}
	h := v.Float64Histogram()
	var total uint64
	for _, n := range h.Counts {
		total += n
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum uint64
	for i, n := range h.Counts {
		cum += n
		if float64(cum) >= rank {
			// Bucket i spans Buckets[i]..Buckets[i+1].
			if hi := h.Buckets[i+1]; !math.IsInf(hi, 0) {
				return hi
			}
			return h.Buckets[i]
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}

// Tick takes one sample at now: it reads the runtime, the per-route counts
// and the overall request histogram, appends the sample to the ring,
// evaluates the burn rates, and publishes the gauges. Start calls it on the
// ten-second cadence.
func (e *Engine) Tick(now time.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	metrics.Read(e.batch)
	rt := func(i int) float64 { return value(e.batch[i].Value) }
	overall := e.opts.Registry.Histogram("http_requests_overall_seconds", nil)
	cur := Sample{
		Time:            now,
		Goroutines:      int(rt(rtGoroutines)),
		HeapLiveBytes:   uint64(rt(rtHeapLive)),
		HeapGoalBytes:   uint64(rt(rtHeapGoal)),
		GCCycles:        uint64(rt(rtGCCycles)),
		GCPauseP99:      histQuantile(e.batch[rtGCPauses].Value, 0.99),
		SchedLatencyP99: histQuantile(e.batch[rtSchedLat].Value, 0.99),
		CPUSeconds:      rt(rtCPUTotal) - rt(rtCPUIdle),
		HTTPP99:         overall.Quantile(0.99),
		requests:        float64(overall.Count()),
		routes:          e.collect(),
	}
	if e.n > 0 {
		prev := e.ring[(e.n-1)%ringSize]
		if dt := now.Sub(prev.Time).Seconds(); dt > 0 {
			cur.CPUFrac = math.Max(0, cur.CPUSeconds-prev.CPUSeconds) / dt
			cur.QPS = math.Max(0, cur.requests-prev.requests) / dt
		}
	}
	slot := &e.ring[e.n%ringSize]
	*slot = cur
	e.n++
	e.rep = e.reportLocked(now)
	for _, rr := range e.rep.Routes {
		w := rr.Windows[0]
		slot.PeakBurn = math.Max(slot.PeakBurn, math.Max(w.AvailabilityBurn, w.LatencyBurn))
	}
	e.publishLocked(*slot)
}

// History returns the retained samples, oldest first.
func (e *Engine) History() []Sample {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Sample, min(e.n, ringSize))
	for k := range out {
		out[k] = *e.at(k)
	}
	return out
}

// at returns the k-th oldest retained sample.
func (e *Engine) at(k int) *Sample {
	return &e.ring[(e.n-min(e.n, ringSize)+k)%ringSize]
}

// WindowBurn is one window's burn state for one route.
type WindowBurn struct {
	Window           string  `json:"window"`
	Requests         float64 `json:"requests"`
	ErrorFraction    float64 `json:"error_fraction"`
	SlowFraction     float64 `json:"slow_fraction"`
	AvailabilityBurn float64 `json:"availability_burn"`
	LatencyBurn      float64 `json:"latency_burn"`
	// Partial marks a window the sample ring does not yet reach back across
	// (process younger than the window); the burn is over the covered span.
	Partial bool `json:"partial,omitempty"`
}

// RouteReport is one route's full SLO state.
type RouteReport struct {
	Route                      string       `json:"route"`
	AvailabilityObjective      float64      `json:"availability_objective"`
	LatencyP99ObjectiveSeconds float64      `json:"latency_p99_objective_seconds"`
	Requests                   float64      `json:"requests"`
	Errors                     float64      `json:"errors"`
	ObservedAvailability       float64      `json:"observed_availability"`
	ObservedP99Seconds         float64      `json:"observed_p99_seconds"`
	Compliant                  bool         `json:"compliant"`
	Alert                      string       `json:"alert"` // ok | ticket | page
	Windows                    []WindowBurn `json:"windows"`
}

// Report is the /api/slo document.
type Report struct {
	CheckedAt time.Time     `json:"checked_at"`
	Windows   []string      `json:"windows"`
	Routes    []RouteReport `json:"routes"`
}

// Report returns the report the most recent Tick evaluated: the one that
// set the eil_slo_* gauges. Before the first Tick it lists the windows and
// no routes.
func (e *Engine) Report() Report {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.rep
}

func (e *Engine) reportLocked(now time.Time) Report {
	rep := Report{CheckedAt: now}
	for _, w := range DefWindows {
		rep.Windows = append(rep.Windows, w.String())
	}
	n := min(e.n, ringSize)
	if n == 0 {
		return rep
	}
	cur := e.at(n - 1)
	// Each window's base is the newest sample at or before its start (the
	// oldest retained one when the ring does not reach back that far).
	bases := make([]*Sample, len(DefWindows))
	for i, w := range DefWindows {
		k := sort.Search(n, func(k int) bool { return e.at(k).Time.After(now.Add(-w)) })
		bases[i] = e.at(max(k-1, 0))
	}

	// Stable route order.
	routes := make([]string, 0, len(cur.routes))
	for r := range cur.routes {
		routes = append(routes, r)
	}
	sort.Strings(routes)

	o := e.opts.Default
	for _, route := range routes {
		rc := cur.routes[route]
		rr := RouteReport{
			Route:                      route,
			AvailabilityObjective:      o.Availability,
			LatencyP99ObjectiveSeconds: o.LatencyP99.Seconds(),
			Requests:                   rc.total,
			Errors:                     rc.errors,
		}
		if rc.total > 0 {
			rr.ObservedAvailability = 1 - rc.errors/rc.total
		} else {
			rr.ObservedAvailability = 1
		}
		rr.ObservedP99Seconds = rc.hist.Quantile(0.99)
		rr.Compliant = rr.ObservedAvailability >= o.Availability &&
			(rr.ObservedP99Seconds == 0 || rr.ObservedP99Seconds <= o.LatencyP99.Seconds())

		availBudget := 1 - o.Availability
		for i, w := range DefWindows {
			base := bases[i]
			wb := WindowBurn{Window: w.String()}
			wb.Partial = cur.Time.Sub(base.Time) < w-w/20
			var dTotal, dErr, dSlow float64
			if brc, ok := base.routes[route]; ok {
				dTotal = rc.total - brc.total
				dErr = rc.errors - brc.errors
				dSlow = rc.slow - brc.slow
			} else {
				dTotal, dErr, dSlow = rc.total, rc.errors, rc.slow
			}
			if dTotal > 0 {
				wb.Requests = dTotal
				wb.ErrorFraction = clamp01(dErr / dTotal)
				wb.SlowFraction = clamp01(dSlow / dTotal)
				wb.AvailabilityBurn = wb.ErrorFraction / availBudget
				wb.LatencyBurn = wb.SlowFraction / 0.01 // p99 objective => 1% budget
			}
			rr.Windows = append(rr.Windows, wb)
		}
		rr.Alert = alertFor(rr.Windows)
		rep.Routes = append(rep.Routes, rr)
	}
	return rep
}

// alertFor applies the multi-window, multi-burn-rate rule: page on fast
// burn over the two shortest windows, ticket on sustained burn over the
// two longest. Latency and availability burns both count.
func alertFor(ws []WindowBurn) string {
	burn := func(i int) float64 {
		if i < 0 || i >= len(ws) {
			return 0
		}
		return math.Max(ws[i].AvailabilityBurn, ws[i].LatencyBurn)
	}
	n := len(ws)
	if n == 0 {
		return "ok"
	}
	switch {
	case n == 1:
		if burn(0) > PageBurn {
			return "page"
		}
	case burn(0) > PageBurn && burn(1) > PageBurn:
		return "page"
	case burn(n-2) > TicketBurn && burn(n-1) > TicketBurn:
		return "ticket"
	}
	return "ok"
}

// publishLocked exports one tick's sample and report as gauges.
func (e *Engine) publishLocked(cur Sample) {
	reg := e.opts.Registry
	reg.Gauge("runtime_goroutines").Set(float64(cur.Goroutines))
	reg.Gauge("runtime_heap_live_bytes").Set(float64(cur.HeapLiveBytes))
	reg.Gauge("runtime_heap_goal_bytes").Set(float64(cur.HeapGoalBytes))
	reg.Gauge("runtime_gc_cycles_total").Set(float64(cur.GCCycles))
	reg.Gauge("runtime_gc_pause_p99_seconds").Set(cur.GCPauseP99)
	reg.Gauge("runtime_sched_latency_p99_seconds").Set(cur.SchedLatencyP99)
	reg.Gauge("process_cpu_seconds_total").Set(cur.CPUSeconds)
	reg.Gauge("process_cpu_utilization").Set(cur.CPUFrac)
	for _, rr := range e.rep.Routes {
		for _, wb := range rr.Windows {
			reg.Gauge("eil_slo_burn_rate", "route", rr.Route, "slo", SLOAvailability, "window", wb.Window).Set(wb.AvailabilityBurn)
			reg.Gauge("eil_slo_burn_rate", "route", rr.Route, "slo", SLOLatency, "window", wb.Window).Set(wb.LatencyBurn)
		}
		last := rr.Windows[len(rr.Windows)-1]
		reg.Gauge("eil_slo_budget_remaining", "route", rr.Route, "slo", SLOAvailability).Set(clamp01(1 - last.AvailabilityBurn))
		reg.Gauge("eil_slo_budget_remaining", "route", rr.Route, "slo", SLOLatency).Set(clamp01(1 - last.LatencyBurn))
		compliant := 0.0
		if rr.Compliant {
			compliant = 1
		}
		reg.Gauge("eil_slo_compliant", "route", rr.Route).Set(compliant)
	}
}

// clamp01 floors at zero; burns legitimately exceed 1, so no upper clamp.
func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}
