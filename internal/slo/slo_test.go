package slo

import (
	"runtime"
	"runtime/metrics"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// The route histogram collect reads quantiles from its cumulative buckets,
// interpolating inside the owning bucket; the report's observed p99 is one.
func TestQuantileFromCum(t *testing.T) {
	reg := obs.NewRegistry()
	eng := New(Options{Registry: reg})
	reg.Counter("http_requests_total", "route", "/api/search", "code", "2xx").Add(100)
	h := reg.Histogram("http_request_seconds", []float64{0.1, 0.2}, "route", "/api/search")
	if got := eng.collect()["/api/search"].hist.Quantile(0.99); got != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", got)
	}
	for i := 0; i < 50; i++ {
		h.Observe(0.05)
		h.Observe(0.15)
	}
	hist := eng.collect()["/api/search"].hist
	if got := hist.Quantile(0.5); got != 0.1 {
		t.Errorf("p50 = %v, want 0.1", got)
	}
	// rank 75 is halfway through the second bucket's 50 observations.
	if got := hist.Quantile(0.75); got < 0.1499 || got > 0.1501 {
		t.Errorf("p75 = %v, want ~0.15", got)
	}
	eng.Tick(time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC))
	rep := eng.Report()
	if len(rep.Routes) != 1 {
		t.Fatalf("routes = %+v, want one", rep.Routes)
	}
	// rank 99 is 49/50 of the way through (0.1, 0.2].
	if got := rep.Routes[0].ObservedP99Seconds; got < 0.1979 || got > 0.1981 {
		t.Errorf("observed p99 = %v, want ~0.198", got)
	}
}

func TestAlertFor(t *testing.T) {
	w := func(avail float64) WindowBurn { return WindowBurn{AvailabilityBurn: avail} }
	cases := []struct {
		name string
		ws   []WindowBurn
		want string
	}{
		{"quiet", []WindowBurn{w(0), w(0), w(0)}, "ok"},
		{"page: short and medium both fast", []WindowBurn{w(20), w(15), w(2)}, "page"},
		{"no page: only the short window spikes", []WindowBurn{w(20), w(1), w(0)}, "ok"},
		{"ticket: sustained over the long windows", []WindowBurn{w(2), w(7), w(6.5)}, "ticket"},
		{"latency burn counts too", []WindowBurn{
			{LatencyBurn: 20}, {LatencyBurn: 15}, {LatencyBurn: 0},
		}, "page"},
		{"empty", nil, "ok"},
	}
	for _, c := range cases {
		if got := alertFor(c.ws); got != c.want {
			t.Errorf("%s: alertFor = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestDefaultSkipRoute(t *testing.T) {
	for _, r := range []string{"/metrics", "/healthz", "/readyz", "/api/slo", "unmatched", "/debug/dash", "/debug/traces", "/api/repl", "/api/promote"} {
		if !OperatorRoute(r) {
			t.Errorf("OperatorRoute(%q) = false, want true", r)
		}
	}
	for _, r := range []string{"/api/search", "/", "/api/qlog"} {
		if OperatorRoute(r) {
			t.Errorf("OperatorRoute(%q) = true, want false", r)
		}
	}
}

// record simulates the web middleware's bookkeeping for one request.
func record(reg *obs.Registry, route, code string, latency time.Duration) {
	reg.Counter("http_requests_total", "route", route, "code", code).Inc()
	reg.Histogram("http_request_seconds", nil, "route", route).Observe(latency.Seconds())
}

func TestWindowDeltasRiseAndDecay(t *testing.T) {
	reg := obs.NewRegistry()
	eng := New(Options{
		Registry: reg,
		Default:  Objective{Availability: 0.999, LatencyP99: 250 * time.Millisecond},
	})

	t0 := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	record(reg, "/api/search", "2xx", 10*time.Millisecond)
	eng.Tick(t0)

	// An all-error minute.
	for i := 0; i < 10; i++ {
		record(reg, "/api/search", "5xx", 5*time.Millisecond)
	}
	eng.Tick(t0.Add(time.Minute))

	rep := eng.Report()
	if len(rep.Routes) != 1 || rep.Routes[0].Route != "/api/search" {
		t.Fatalf("routes = %+v, want just /api/search", rep.Routes)
	}
	rr := rep.Routes[0]
	short := rr.Windows[0]
	if short.Requests != 10 || short.ErrorFraction != 1 {
		t.Fatalf("5m window = %+v, want 10 requests all errors", short)
	}
	// 100% errors against a 0.1% budget: burn = 1/0.001 = 1000.
	if short.AvailabilityBurn < 999 || short.AvailabilityBurn > 1001 {
		t.Fatalf("availability burn = %v, want ~1000", short.AvailabilityBurn)
	}
	if rr.Alert != "page" {
		t.Fatalf("alert = %q during a total outage, want page", rr.Alert)
	}
	if got := newest(eng).PeakBurn; got != short.AvailabilityBurn {
		t.Fatalf("PeakBurn = %v, want %v", got, short.AvailabilityBurn)
	}
	if g := reg.Gauge("eil_slo_burn_rate", "route", "/api/search", "slo", SLOAvailability, "window", "5m0s"); g.Value() <= 0 {
		t.Fatalf("published burn gauge = %v, want > 0", g.Value())
	}

	// Errors stop, good traffic resumes; once the 5m base sample postdates
	// the burst, the short-window burn is zero again.
	for i := 0; i < 10; i++ {
		record(reg, "/api/search", "2xx", 5*time.Millisecond)
	}
	eng.Tick(t0.Add(2 * time.Minute))
	eng.Tick(t0.Add(9 * time.Minute))
	rep = eng.Report()
	if burn := rep.Routes[0].Windows[0].AvailabilityBurn; burn != 0 {
		t.Fatalf("5m burn after recovery = %v, want 0", burn)
	}
	// The long windows still contain the outage, so the alert steps down
	// from page to ticket rather than clearing — exactly the multi-window
	// shape: fast recovery silences the page, the sustained damage lingers.
	if alert := rep.Routes[0].Alert; alert != "ticket" {
		t.Fatalf("alert after recovery = %q, want ticket (long windows remember)", alert)
	}
}

func TestLatencyBurn(t *testing.T) {
	reg := obs.NewRegistry()
	eng := New(Options{
		Registry: reg,
		Default:  Objective{Availability: 0.999, LatencyP99: 50 * time.Millisecond},
	})
	t0 := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	eng.Tick(t0)
	// Half the traffic blows the 50ms objective: slow fraction 0.5 against
	// the implied 1% budget is a burn of ~50.
	for i := 0; i < 20; i++ {
		lat := time.Millisecond
		if i%2 == 0 {
			lat = 2 * time.Second
		}
		record(reg, "/api/search", "2xx", lat)
	}
	eng.Tick(t0.Add(time.Minute))
	rep := eng.Report()
	lb := rep.Routes[0].Windows[0].LatencyBurn
	if lb < 40 || lb > 60 {
		t.Fatalf("latency burn = %v, want ~50", lb)
	}
	if avail := rep.Routes[0].Windows[0].AvailabilityBurn; avail != 0 {
		t.Fatalf("availability burn = %v, want 0 (no errors)", avail)
	}
}

func TestPartialWindowFlag(t *testing.T) {
	reg := obs.NewRegistry()
	eng := New(Options{Registry: reg})
	t0 := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	record(reg, "/api/search", "2xx", time.Millisecond)
	eng.Tick(t0)
	eng.Tick(t0.Add(time.Minute))
	rep := eng.Report()
	for _, wb := range rep.Routes[0].Windows {
		if !wb.Partial {
			t.Fatalf("window %s not marked partial with only 1m of history", wb.Window)
		}
	}
}

// The ring reaches back across the longest window at the sampling cadence:
// seven hours of ticks with one request a minute leave the 6h window
// complete, with 360 requests in it.
func TestRingCoversLongestWindow(t *testing.T) {
	reg := obs.NewRegistry()
	eng := New(Options{Registry: reg})
	t0 := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	for at := interval; at <= 7*time.Hour; at += interval {
		if at%time.Minute == 30*time.Second {
			record(reg, "/api/search", "2xx", time.Millisecond)
		}
		eng.Tick(t0.Add(at))
	}
	rep := eng.Report()
	if len(rep.Routes) != 1 {
		t.Fatalf("routes = %+v, want one", rep.Routes)
	}
	long := rep.Routes[0].Windows[len(DefWindows)-1]
	if long.Partial || long.Requests != 360 {
		t.Fatalf("6h window = %+v, want complete with 360 requests", long)
	}
	if short := rep.Routes[0].Windows[0]; short.Partial || short.Requests != 5 {
		t.Fatalf("5m window = %+v, want complete with 5 requests", short)
	}
}

func TestSkipRouteFiltersScrapes(t *testing.T) {
	reg := obs.NewRegistry()
	eng := New(Options{Registry: reg})
	record(reg, "/metrics", "2xx", time.Millisecond)
	record(reg, "/debug/traces", "2xx", time.Millisecond)
	eng.Tick(time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC))
	if rep := eng.Report(); len(rep.Routes) != 0 {
		t.Fatalf("scrape routes leaked into the report: %+v", rep.Routes)
	}
}

// The alert ladder across ticks: a total outage pages on the first tick
// that sees it and holds the page while the short window burns; after
// recovery the short window clears but the long windows remember, so the
// level steps down to ticket rather than straight to ok.
func TestAlertLadderAcrossTicks(t *testing.T) {
	reg := obs.NewRegistry()
	eng := New(Options{
		Registry: reg,
		Default:  Objective{Availability: 0.999, LatencyP99: 250 * time.Millisecond},
	})
	t0 := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	var ladder []string
	tick := func(at time.Duration) {
		eng.Tick(t0.Add(at))
		rep := eng.Report()
		if len(rep.Routes) != 1 {
			t.Fatalf("report after tick at +%v = %+v, want one route", at, rep.Routes)
		}
		ladder = append(ladder, rep.Routes[0].Alert)
	}

	record(reg, "/api/search", "2xx", 10*time.Millisecond)
	tick(0)
	for i := 0; i < 10; i++ {
		record(reg, "/api/search", "5xx", 5*time.Millisecond)
	}
	tick(time.Minute)
	tick(2 * time.Minute)
	for i := 0; i < 10; i++ {
		record(reg, "/api/search", "2xx", 5*time.Millisecond)
	}
	tick(3 * time.Minute)
	tick(9 * time.Minute)

	want := []string{"ok", "page", "page", "page", "ticket"}
	if strings.Join(ladder, ",") != strings.Join(want, ",") {
		t.Fatalf("alert ladder = %v, want %v", ladder, want)
	}
}

// A sample's PeakBurn weighs latency burn as alertFor does: a route that pages on
// slow answers alone must not read as a zero burn on the dashboard.
func TestPeakBurnCountsLatency(t *testing.T) {
	reg := obs.NewRegistry()
	eng := New(Options{
		Registry: reg,
		Default:  Objective{Availability: 0.999, LatencyP99: 250 * time.Millisecond},
	})
	t0 := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	eng.Tick(t0)
	for i := 0; i < 20; i++ {
		record(reg, "/api/search", "2xx", 2*time.Second)
	}
	eng.Tick(t0.Add(time.Minute))
	rep := eng.Report()
	if len(rep.Routes) != 1 || rep.Routes[0].Alert != "page" {
		t.Fatalf("routes = %+v, want one route paging", rep.Routes)
	}
	lat := rep.Routes[0].Windows[0].LatencyBurn
	if lat < 99 || lat > 101 {
		t.Fatalf("latency burn = %v, want ~100 (every request slow)", lat)
	}
	if got := newest(eng).PeakBurn; got != lat {
		t.Fatalf("PeakBurn = %v, want the latency burn %v", got, lat)
	}
}

// newest returns the last sample the engine took.
func newest(eng *Engine) Sample {
	h := eng.History()
	return h[len(h)-1]
}

func TestTickFillsRuntimeFields(t *testing.T) {
	reg := obs.NewRegistry()
	eng := New(Options{Registry: reg})
	runtime.GC() // at least one pause in the cumulative distribution
	eng.Tick(time.Now())
	s := newest(eng)

	if s.Goroutines <= 0 {
		t.Fatalf("goroutines = %d, want > 0", s.Goroutines)
	}
	if s.HeapLiveBytes == 0 || s.HeapGoalBytes == 0 {
		t.Fatalf("heap live/goal = %d/%d, want both nonzero", s.HeapLiveBytes, s.HeapGoalBytes)
	}
	if s.GCCycles == 0 {
		t.Fatal("gc cycles = 0 after an explicit runtime.GC()")
	}
	if v := reg.Gauge("runtime_goroutines").Value(); v != float64(s.Goroutines) {
		t.Fatalf("runtime_goroutines gauge = %v, sample says %d", v, s.Goroutines)
	}
	if v := reg.Gauge("runtime_heap_live_bytes").Value(); v != float64(s.HeapLiveBytes) {
		t.Fatalf("runtime_heap_live_bytes gauge = %v, sample says %d", v, s.HeapLiveBytes)
	}
}

// Two ticks with requests between them record the request rate and p99 of
// the middleware's overall histogram on the second sample.
func TestTickRecordsRequestRate(t *testing.T) {
	reg := obs.NewRegistry()
	eng := New(Options{Registry: reg})
	t0 := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	eng.Tick(t0)
	for i := 0; i < 50; i++ {
		reg.Histogram("http_requests_overall_seconds", nil).Observe(0.004)
	}
	eng.Tick(t0.Add(interval))
	h := eng.History()
	if h[0].QPS != 0 || h[1].QPS != 5 {
		t.Fatalf("QPS = %v then %v, want 0 then 5 (50 requests over 10s)", h[0].QPS, h[1].QPS)
	}
	if h[1].HTTPP99 <= 0.0025 || h[1].HTTPP99 > 0.01 {
		t.Fatalf("HTTP p99 = %v, want inside the 4ms observations' bucket", h[1].HTTPP99)
	}
}

func TestRingBoundsHistory(t *testing.T) {
	eng := New(Options{Registry: obs.NewRegistry()})
	t0 := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	var last time.Time
	for i := 0; i < ringSize+3; i++ {
		last = t0.Add(time.Duration(i) * interval)
		eng.Tick(last)
	}
	h := eng.History()
	if len(h) != ringSize {
		t.Fatalf("history length = %d, want ring size %d", len(h), ringSize)
	}
	for i := 1; i < len(h); i++ {
		if !h[i].Time.After(h[i-1].Time) {
			t.Fatal("history not oldest-first")
		}
	}
	if !h[0].Time.Equal(t0.Add(3*interval)) || !h[len(h)-1].Time.Equal(last) {
		t.Fatalf("history spans %v..%v, want the newest %d ticks", h[0].Time, h[len(h)-1].Time, ringSize)
	}
}

func TestStartStop(t *testing.T) {
	eng := New(Options{Registry: obs.NewRegistry()})
	eng.Start()
	deadline := time.After(5 * time.Second)
	// History and Report race the sampling goroutine's first tick.
	for len(eng.History()) == 0 || eng.Report().CheckedAt.IsZero() {
		select {
		case <-deadline:
			t.Fatal("no sample within 5s of Start")
		case <-time.After(time.Millisecond):
		}
	}
	eng.Stop()
	eng.Stop() // idempotent

	unstarted := New(Options{Registry: obs.NewRegistry()})
	unstarted.Stop() // must not hang
}

func TestHistQuantile(t *testing.T) {
	if got := histQuantile(metrics.Value{}, 0.5); got != 0 {
		t.Fatalf("quantile of a missing metric = %v, want 0", got)
	}
}
