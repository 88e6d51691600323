// Package runtimetel is EIL's runtime telemetry collector: a ticker-driven
// sampler that reads the Go runtime's own metrics (GC pause distribution,
// heap live and goal, goroutine count, scheduler latency, process CPU) into
// obs gauges, and keeps a bounded in-memory ring of timestamped samples so
// the /debug/dash surface can draw history without any external time-series
// store.
//
// The paper's EIL ran as a long-lived service for a community of practice;
// "is the process healthy right now" questions (is the heap growing toward
// its goal, are GC pauses eating the latency budget, is the scheduler
// backed up) are answered here, on /metrics and the operator dashboard.
//
// An optional AppSampler hook folds application-level figures (QPS, request
// p99, SLO burn rate, breaker states) into each sample, so one ring carries
// the whole one-screen story; in eilserver it also ticks the SLO engine, so
// the collector's goroutine is the one pacer of the telemetry layer.
package runtimetel

import (
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"time"

	"repro/internal/obs"
)

// Defaults.
const (
	DefInterval = 10 * time.Second
	DefRingSize = 720 // samples retained: 2h of history at the default interval
)

// Sample is one timestamped reading of the runtime and (optionally) the
// application. Cumulative fields (GCCycles, CPUSeconds) grow monotonically;
// the dashboard derives per-interval rates from consecutive samples.
type Sample struct {
	Time time.Time `json:"time"`

	Goroutines    int    `json:"goroutines"`
	HeapLiveBytes uint64 `json:"heap_live_bytes"`
	HeapGoalBytes uint64 `json:"heap_goal_bytes"`
	GCCycles      uint64 `json:"gc_cycles"`

	// GCPauseP50/P99 are quantiles of the runtime's cumulative GC pause
	// distribution; SchedLatencyP50/P99 likewise for time goroutines spend
	// runnable before running.
	GCPauseP50      float64 `json:"gc_pause_p50_seconds"`
	GCPauseP99      float64 `json:"gc_pause_p99_seconds"`
	SchedLatencyP50 float64 `json:"sched_latency_p50_seconds"`
	SchedLatencyP99 float64 `json:"sched_latency_p99_seconds"`

	// CPUSeconds is the cumulative non-idle CPU estimate for the process;
	// CPUFrac is the utilization over the interval ending at this sample
	// (0..GOMAXPROCS), 0 on the first sample.
	CPUSeconds float64 `json:"cpu_seconds"`
	CPUFrac    float64 `json:"cpu_frac"`

	// App carries application-level figures the AppSampler recorded (for
	// example "qps", "http_p99_seconds", "slo_burn", "breakers_open").
	App map[string]float64 `json:"app,omitempty"`
}

// Options configures a Collector.
type Options struct {
	// Interval is the sampling cadence (0 = DefInterval).
	Interval time.Duration
	// Registry receives runtime_* and process_* gauges on every sample; nil
	// disables metric export (the ring still fills).
	Registry *obs.Registry
	// AppSampler, when set, runs once per tick after the runtime fields are
	// filled, to fold application-level samples into cur.App. prev is nil on
	// the first tick. It runs on the collector goroutine; keep it cheap.
	AppSampler func(prev, cur *Sample)
}

// runtime/metrics names the collector samples. Looked up against
// metrics.All() at construction so a missing name (older/newer toolchain)
// degrades to a zero field instead of a panic.
const (
	mGoroutines = "/sched/goroutines:goroutines"
	mHeapLive   = "/memory/classes/heap/objects:bytes"
	mHeapGoal   = "/gc/heap/goal:bytes"
	mGCCycles   = "/gc/cycles/total:gc-cycles"
	mGCPauses   = "/sched/pauses/total/gc:seconds"
	mGCPausesGo = "/gc/pauses:seconds" // pre-1.22 spelling
	mSchedLat   = "/sched/latencies:seconds"
	mCPUTotal   = "/cpu/classes/total:cpu-seconds"
	mCPUIdle    = "/cpu/classes/idle:cpu-seconds"
)

// Collector samples the runtime on a fixed cadence into a bounded ring and
// the obs registry. Construct with New; Start launches the sampling
// goroutine, Stop halts it. SampleNow may also be called directly (tests,
// benchmarks, CLI one-shots) without Start.
type Collector struct {
	opts Options

	mu   sync.Mutex
	ring []Sample
	next int
	full bool
	prev *Sample

	// reusable runtime/metrics read batch; index maps name -> batch slot.
	batch []metrics.Sample
	index map[string]int

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// New returns a collector; call Start to begin sampling.
func New(opts Options) *Collector {
	if opts.Interval <= 0 {
		opts.Interval = DefInterval
	}
	c := &Collector{
		opts:  opts,
		ring:  make([]Sample, DefRingSize),
		index: map[string]int{},
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	known := map[string]bool{}
	for _, d := range metrics.All() {
		known[d.Name] = true
	}
	want := []string{mGoroutines, mHeapLive, mHeapGoal, mGCCycles, mGCPauses, mGCPausesGo, mSchedLat, mCPUTotal, mCPUIdle}
	for _, name := range want {
		if !known[name] {
			continue
		}
		c.index[name] = len(c.batch)
		c.batch = append(c.batch, metrics.Sample{Name: name})
	}
	return c
}

// Start launches the sampling goroutine (idempotent). One sample is taken
// immediately so the ring is never empty while running.
func (c *Collector) Start() {
	c.startOnce.Do(func() {
		go func() {
			defer close(c.done)
			c.SampleNow()
			tick := time.NewTicker(c.opts.Interval)
			defer tick.Stop()
			for {
				select {
				case <-c.stop:
					return
				case <-tick.C:
					c.SampleNow()
				}
			}
		}()
	})
}

// Stop halts the sampling goroutine and waits for it to exit (idempotent;
// a never-started collector stops trivially).
func (c *Collector) Stop() {
	c.stopOnce.Do(func() { close(c.stop) })
	select {
	case <-c.done:
	default:
		// Not started: nothing to wait for.
		c.startOnce.Do(func() { close(c.done) })
		<-c.done
	}
}

// uint64At reads one batch slot as a uint64 (0 when absent or non-integer).
func (c *Collector) uint64At(name string) uint64 {
	i, ok := c.index[name]
	if !ok {
		return 0
	}
	v := c.batch[i].Value
	if v.Kind() != metrics.KindUint64 {
		return 0
	}
	return v.Uint64()
}

// float64At reads one batch slot as a float64 (0 when absent).
func (c *Collector) float64At(name string) float64 {
	i, ok := c.index[name]
	if !ok {
		return 0
	}
	v := c.batch[i].Value
	if v.Kind() != metrics.KindFloat64 {
		return 0
	}
	return v.Float64()
}

// histAt reads one batch slot as a histogram (nil when absent).
func (c *Collector) histAt(name string) *metrics.Float64Histogram {
	i, ok := c.index[name]
	if !ok {
		return nil
	}
	v := c.batch[i].Value
	if v.Kind() != metrics.KindFloat64Histogram {
		return nil
	}
	return v.Float64Histogram()
}

// histQuantile estimates the q-quantile of a runtime histogram by taking
// the upper bound of the owning bucket (runtime buckets are fine-grained
// enough that interpolation adds nothing). Infinite bounds clamp to the
// nearest finite one.
func histQuantile(h *metrics.Float64Histogram, q float64) float64 {
	if h == nil || len(h.Counts) == 0 {
		return 0
	}
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
			hi := h.Buckets[i+1]
			if hi > 1e308 || hi < -1e308 { // +/-Inf edge bucket
				hi = h.Buckets[i]
			}
			return hi
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}

// SampleNow takes one sample synchronously: reads the runtime, updates the
// registry, runs the AppSampler, and appends to the ring. It returns the
// sample taken.
func (c *Collector) SampleNow() Sample {
	c.mu.Lock()
	defer c.mu.Unlock()

	metrics.Read(c.batch)
	cur := Sample{Time: time.Now()}
	cur.Goroutines = int(c.uint64At(mGoroutines))
	if cur.Goroutines == 0 {
		cur.Goroutines = runtime.NumGoroutine()
	}
	cur.HeapLiveBytes = c.uint64At(mHeapLive)
	cur.HeapGoalBytes = c.uint64At(mHeapGoal)
	cur.GCCycles = c.uint64At(mGCCycles)

	gcHist := c.histAt(mGCPauses)
	if gcHist == nil {
		gcHist = c.histAt(mGCPausesGo)
	}
	cur.GCPauseP50 = histQuantile(gcHist, 0.50)
	cur.GCPauseP99 = histQuantile(gcHist, 0.99)
	schedHist := c.histAt(mSchedLat)
	cur.SchedLatencyP50 = histQuantile(schedHist, 0.50)
	cur.SchedLatencyP99 = histQuantile(schedHist, 0.99)

	if total := c.float64At(mCPUTotal); total > 0 {
		cur.CPUSeconds = total - c.float64At(mCPUIdle)
	}
	if c.prev != nil {
		if dt := cur.Time.Sub(c.prev.Time).Seconds(); dt > 0 && cur.CPUSeconds >= c.prev.CPUSeconds {
			cur.CPUFrac = (cur.CPUSeconds - c.prev.CPUSeconds) / dt
		}
	}

	if reg := c.opts.Registry; reg != nil {
		reg.Gauge("runtime_goroutines").Set(float64(cur.Goroutines))
		reg.Gauge("runtime_heap_live_bytes").Set(float64(cur.HeapLiveBytes))
		reg.Gauge("runtime_heap_goal_bytes").Set(float64(cur.HeapGoalBytes))
		reg.Gauge("runtime_gc_cycles_total").Set(float64(cur.GCCycles))
		reg.Gauge("runtime_gc_pause_p99_seconds").Set(cur.GCPauseP99)
		reg.Gauge("runtime_sched_latency_p99_seconds").Set(cur.SchedLatencyP99)
		reg.Gauge("process_cpu_seconds_total").Set(cur.CPUSeconds)
		reg.Gauge("process_cpu_utilization").Set(cur.CPUFrac)
	}

	if c.opts.AppSampler != nil {
		c.opts.AppSampler(c.prev, &cur)
	}

	c.ring[c.next] = cur
	c.next++
	if c.next == len(c.ring) {
		c.next = 0
		c.full = true
	}
	snap := cur
	c.prev = &snap
	return cur
}

// History returns the retained samples, oldest first.
func (c *Collector) History() []Sample {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.full {
		out := make([]Sample, c.next)
		copy(out, c.ring[:c.next])
		return out
	}
	out := make([]Sample, 0, len(c.ring))
	out = append(out, c.ring[c.next:]...)
	out = append(out, c.ring[:c.next]...)
	return out
}

// Info reports the build's identity: Go version plus the VCS revision,
// commit time, and dirty flag embedded by the toolchain (empty when built
// outside a VCS checkout, e.g. go test binaries).
func Info() (goVersion, revision, vcsTime string, modified bool) {
	goVersion = runtime.Version()
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return goVersion, "", "", false
	}
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			revision = s.Value
		case "vcs.time":
			vcsTime = s.Value
		case "vcs.modified":
			modified = s.Value == "true"
		}
	}
	return goVersion, revision, vcsTime, modified
}

// SetBuildInfo exports the build identity as the conventional constant-1
// info gauge (eil_build_info{go_version=...,revision=...,vcs_time=...}),
// so dashboards and scrapes can tell exactly which build is serving.
func SetBuildInfo(reg *obs.Registry) {
	goVer, rev, at, modified := Info()
	if rev == "" {
		rev = "unknown"
	}
	mod := "false"
	if modified {
		mod = "true"
	}
	reg.Gauge("eil_build_info",
		"go_version", goVer,
		"revision", rev,
		"vcs_time", at,
		"modified", mod,
	).Set(1)
}
