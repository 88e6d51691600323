// Package slo evaluates service-level objectives over the HTTP metrics the
// web middleware already records: per-route availability (non-5xx fraction)
// and latency (fraction of requests under the p99 target) as multi-window
// burn rates, the Google-SRE shape ("how fast is this route spending its
// error budget over the last 5m / 1h / 6h").
//
// The engine is a sampler, not a store: on every Tick it snapshots the
// cumulative http_requests_total / http_request_seconds figures per route
// into a bounded ring, and burn rates are window deltas over that ring —
// burn = (bad fraction in window) / (budget fraction). A burn rate of 1
// means the route spends its budget exactly as fast as the objective
// allows; 14.4 (the classic page threshold for a 99.9% / 30d objective)
// means the whole month's budget would be gone in two days.
//
// Results surface three ways: eil_slo_* gauges on /metrics, the /api/slo
// JSON report, and burn sparklines on /debug/dash.
package slo

import (
	"math"
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
	// Registry is the metrics source (http_*) and gauge sink (eil_slo_*).
	Registry *obs.Registry
	// Default is the objective applied to every observed route. Zero fields
	// get 0.999 availability / 250ms p99.
	Default Objective
}

// ringSize is the sample ring's length, whatever the Tick cadence. A tick
// takes a new slot only once retainEvery (9.4 s) has passed since the
// newest slot was taken, and otherwise overwrites that slot, so the ring
// ends at the current tick and reaches back across the longest window, with
// 8 slots to spare. At eilserver's default 10 s tick every tick keeps a slot.
const ringSize = 2304

var retainEvery = DefWindows[len(DefWindows)-1] / (ringSize - 8)

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

// sample is one Tick's reading across routes.
type sample struct {
	t      time.Time
	routes map[string]routeCounts
}

// Engine evaluates objectives over a ring of samples. Drive it with Tick;
// in eilserver the runtimetel collector's AppSampler is the one driver.
type Engine struct {
	opts Options

	mu      sync.Mutex
	ring    []sample
	next    int
	full    bool
	kept    time.Time // when the newest slot was taken
	lastRep Report
	hasRep  bool
}

// New returns an engine with defaults filled.
func New(opts Options) *Engine {
	if opts.Default.Availability <= 0 || opts.Default.Availability >= 1 {
		opts.Default.Availability = 0.999
	}
	if opts.Default.LatencyP99 <= 0 {
		opts.Default.LatencyP99 = 250 * time.Millisecond
	}
	return &Engine{opts: opts, ring: make([]sample, ringSize)}
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

// Tick takes one sample at now, recomputes burn rates, publishes the
// eil_slo_* gauges, and caches the report. Call it on a fixed cadence.
func (e *Engine) Tick(now time.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := sample{t: now, routes: e.collect()}
	if empty := e.next == 0 && !e.full; empty || now.Sub(e.kept) >= retainEvery {
		e.ring[e.next] = s
		e.kept = now
		e.next++
		if e.next == len(e.ring) {
			e.next = 0
			e.full = true
		}
	} else {
		e.ring[(e.next+len(e.ring)-1)%len(e.ring)] = s
	}
	e.lastRep = e.reportLocked(now)
	e.hasRep = true
	e.publishLocked(e.lastRep)
}

// samplesLocked returns retained samples oldest first.
func (e *Engine) samplesLocked() []sample {
	if !e.full {
		return e.ring[:e.next]
	}
	out := make([]sample, 0, len(e.ring))
	out = append(out, e.ring[e.next:]...)
	out = append(out, e.ring[:e.next]...)
	return out
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

// Report evaluates burn rates as of now over the retained samples.
func (e *Engine) Report(now time.Time) Report {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.reportLocked(now)
}

// LastReport returns the report cached by the most recent Tick (ok=false
// before the first Tick).
func (e *Engine) LastReport() (Report, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.lastRep, e.hasRep
}

// PeakBurn reports the worst burn rate across routes at the shortest
// window, per the last Tick — availability or latency, whichever is higher,
// as alertFor weighs them. It is the single "how much trouble are we in"
// number the dashboard sparkline and telemetry samples carry.
func (e *Engine) PeakBurn() float64 {
	rep, ok := e.LastReport()
	if !ok {
		return 0
	}
	peak := 0.0
	for _, rr := range rep.Routes {
		if len(rr.Windows) > 0 {
			peak = math.Max(peak, math.Max(rr.Windows[0].AvailabilityBurn, rr.Windows[0].LatencyBurn))
		}
	}
	return peak
}

func (e *Engine) reportLocked(now time.Time) Report {
	rep := Report{CheckedAt: now}
	for _, w := range DefWindows {
		rep.Windows = append(rep.Windows, w.String())
	}
	samples := e.samplesLocked()
	if len(samples) == 0 {
		return rep
	}
	cur := samples[len(samples)-1]

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
		for _, w := range DefWindows {
			base := baseSample(samples, now.Add(-w))
			wb := WindowBurn{Window: w.String()}
			span := cur.t.Sub(base.t)
			wb.Partial = span < w-w/20
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

// baseSample returns the newest sample at or before t (the oldest retained
// one when the ring does not reach back that far).
func baseSample(samples []sample, t time.Time) sample {
	base := samples[0]
	for _, s := range samples {
		if s.t.After(t) {
			break
		}
		base = s
	}
	return base
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

// publishLocked exports the cached report as gauges.
func (e *Engine) publishLocked(rep Report) {
	reg := e.opts.Registry
	for _, rr := range rep.Routes {
		for _, wb := range rr.Windows {
			reg.Gauge("eil_slo_burn_rate", "route", rr.Route, "slo", SLOAvailability, "window", wb.Window).Set(wb.AvailabilityBurn)
			reg.Gauge("eil_slo_burn_rate", "route", rr.Route, "slo", SLOLatency, "window", wb.Window).Set(wb.LatencyBurn)
		}
		if len(rr.Windows) > 0 {
			last := rr.Windows[len(rr.Windows)-1]
			reg.Gauge("eil_slo_budget_remaining", "route", rr.Route, "slo", SLOAvailability).Set(clamp01(1 - last.AvailabilityBurn))
			reg.Gauge("eil_slo_budget_remaining", "route", rr.Route, "slo", SLOLatency).Set(clamp01(1 - last.LatencyBurn))
		}
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
