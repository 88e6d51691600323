// Package obs is EIL's observability spine: a dependency-free metrics
// subsystem — named atomic counters, gauges, and fixed-bucket latency
// histograms in a concurrent-safe registry — plus lightweight span timing.
// The paper's improvement loop "analyz[es] a collection of queries and
// results" and tunes the system "as more data becomes available and
// additional evaluation is performed" (§4); obs supplies the per-stage cost
// accounting that loop needs, for both the offline pipeline and the online
// search path.
//
// All metric handles are nil-safe: methods on a nil *Counter, *Gauge, or
// *Histogram are no-ops, and a nil *Registry hands out nil handles, so
// instrumented code never branches on "is telemetry enabled".
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefDurationBuckets are the default histogram bounds for durations, in
// seconds. In-memory stages run in microseconds while full ingests take
// seconds, so the range spans 1µs–5s.
var DefDurationBuckets = []float64{
	1e-6, 5e-6, 25e-6, 1e-4, 5e-4, 2.5e-3, 1e-2, 5e-2, 0.25, 1, 5,
}

// DefSizeBuckets are the default histogram bounds for byte sizes (payloads,
// snapshots, journal records): 1KiB–1GiB in roughly 4x steps.
var DefSizeBuckets = []float64{
	1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20, 64 << 20, 256 << 20, 1 << 30,
}

// Label is one metric dimension (for example route="/api/search").
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Registry holds named metrics. The zero value is not usable; construct
// with NewRegistry. A nil *Registry is a valid no-op sink.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// labelsFromKV pairs up a variadic key, value, key, value... list, sorted
// by key so the same label set always maps to the same metric.
func labelsFromKV(kv []string) []Label {
	if len(kv)%2 != 0 {
		panic("obs: odd label key/value list")
	}
	ls := make([]Label, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		ls = append(ls, Label{Key: kv[i], Value: kv[i+1]})
	}
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	return ls
}

// renderLabels formats labels in Prometheus exposition syntax, without
// braces ("" when empty). Extra labels (le) are appended by the renderer.
func renderLabels(ls []Label) string {
	if len(ls) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabel escapes a label value per the text exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

func key(name string, ls []Label) string {
	return name + "\xff" + renderLabels(ls)
}

// Counter retrieves or creates the counter for name and the label pairs
// (key, value, key, value...). Nil registries return a nil no-op handle.
func (r *Registry) Counter(name string, kv ...string) *Counter {
	if r == nil {
		return nil
	}
	ls := labelsFromKV(kv)
	k := key(name, ls)
	r.mu.RLock()
	c := r.counters[k]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[k]; c == nil {
		c = &Counter{name: name, labels: ls}
		r.counters[k] = c
	}
	return c
}

// Gauge retrieves or creates the gauge for name and label pairs.
func (r *Registry) Gauge(name string, kv ...string) *Gauge {
	if r == nil {
		return nil
	}
	ls := labelsFromKV(kv)
	k := key(name, ls)
	r.mu.RLock()
	g := r.gauges[k]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[k]; g == nil {
		g = &Gauge{name: name, labels: ls}
		r.gauges[k] = g
	}
	return g
}

// Histogram retrieves or creates the histogram for name and label pairs.
// Buckets (ascending upper bounds; +Inf implicit) apply only on first
// creation; nil means DefDurationBuckets.
func (r *Registry) Histogram(name string, buckets []float64, kv ...string) *Histogram {
	if r == nil {
		return nil
	}
	ls := labelsFromKV(kv)
	k := key(name, ls)
	r.mu.RLock()
	h := r.hists[k]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[k]; h == nil {
		if buckets == nil {
			buckets = DefDurationBuckets
		}
		bounds := make([]float64, len(buckets))
		copy(bounds, buckets)
		h = &Histogram{
			name:      name,
			labels:    ls,
			bounds:    bounds,
			counts:    make([]atomic.Int64, len(bounds)+1),
			exemplars: make([]atomic.Pointer[Exemplar], len(bounds)+1),
		}
		r.hists[k] = h
	}
	return h
}

// Counter is a monotonically increasing value, safe for concurrent use.
type Counter struct {
	name   string
	labels []Label
	v      atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil handle).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down, safe for concurrent use.
type Gauge struct {
	name   string
	labels []Label
	bits   atomic.Uint64 // float64 bits
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add shifts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value (0 on a nil handle).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets, tracking sum and count,
// safe for concurrent use. Each bucket optionally carries the most recent
// exemplar — a trace ID plus the observed value — so a histogram's p99
// bucket links to one concrete traced request (rendered as OpenMetrics
// exemplars in the Prometheus output).
type Histogram struct {
	name      string
	labels    []Label
	bounds    []float64      // ascending upper bounds; +Inf implicit
	counts    []atomic.Int64 // len(bounds)+1, last is the +Inf bucket
	count     atomic.Int64
	sum       atomic.Uint64 // float64 bits, CAS-added
	exemplars []atomic.Pointer[Exemplar]
}

// Exemplar links one bucket to a concrete traced observation.
type Exemplar struct {
	TraceID string    `json:"trace_id"`
	Value   float64   `json:"value"`
	Time    time.Time `json:"time"`
}

// Observe records one value. An observation equal to a bound lands in that
// bound's bucket (le semantics).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveWithExemplar is Observe plus an exemplar: the owning bucket keeps
// the most recent (traceID, v) pair. An empty traceID degrades to Observe.
func (h *Histogram) ObserveWithExemplar(v float64, traceID string) {
	if h == nil {
		return
	}
	if traceID != "" && h.exemplars != nil {
		i := sort.SearchFloat64s(h.bounds, v)
		h.exemplars[i].Store(&Exemplar{TraceID: traceID, Value: v, Time: time.Now()})
	}
	h.Observe(v)
}

// Exemplars returns each bucket's retained exemplar, with nil entries for
// buckets that never saw one (one slot per bound plus +Inf).
func (h *Histogram) Exemplars() []*Exemplar {
	if h == nil || h.exemplars == nil {
		return nil
	}
	out := make([]*Exemplar, len(h.exemplars))
	for i := range h.exemplars {
		out[i] = h.exemplars[i].Load()
	}
	return out
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// ObserveDurationWithExemplar records a duration in seconds with a trace
// exemplar.
func (h *Histogram) ObserveDurationWithExemplar(d time.Duration, traceID string) {
	h.ObserveWithExemplar(d.Seconds(), traceID)
}

// Count returns the number of observations (0 on a nil handle).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on a nil handle).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// CumulativeCounts returns the Prometheus-style cumulative bucket counts,
// one per bound plus the trailing +Inf bucket.
func (h *Histogram) CumulativeCounts() []int64 {
	if h == nil {
		return nil
	}
	out := make([]int64, len(h.counts))
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		out[i] = cum
	}
	return out
}

// Quantile estimates the q-quantile (0 < q <= 1) by linear interpolation
// within the owning bucket, the way Prometheus histogram_quantile does.
// Returns 0 with no observations; values in the +Inf bucket clamp to the
// highest finite bound.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if float64(cum) >= rank {
			if i >= len(h.bounds) { // +Inf bucket
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			inBucket := h.counts[i].Load()
			if inBucket == 0 {
				return hi
			}
			return lo + (hi-lo)*(rank-float64(cum-inBucket))/float64(inBucket)
		}
	}
	return h.bounds[len(h.bounds)-1]
}

// CountLE estimates how many observations were at or under v from the
// cumulative bucket counts, interpolating inside the owning bucket.
// Observations in the +Inf bucket count as above any finite v.
func (h *Histogram) CountLE(v float64) float64 {
	if h == nil || len(h.bounds) == 0 {
		return 0
	}
	cum := h.CumulativeCounts()
	i := sort.SearchFloat64s(h.bounds, v)
	if i >= len(h.bounds) {
		return float64(cum[len(h.bounds)-1])
	}
	if h.bounds[i] == v {
		return float64(cum[i])
	}
	lo, loCum := 0.0, 0.0
	if i > 0 {
		lo, loCum = h.bounds[i-1], float64(cum[i-1])
	}
	hi := h.bounds[i]
	inBucket := float64(cum[i]) - loCum
	if inBucket <= 0 || hi <= lo {
		return loCum
	}
	return loCum + inBucket*(v-lo)/(hi-lo)
}

// Timer measures one span of wall time.
type Timer struct{ start time.Time }

// StartTimer starts a span.
func StartTimer() Timer { return Timer{start: time.Now()} }

// Elapsed reports time since the span started.
func (t Timer) Elapsed() time.Duration { return time.Since(t.start) }

// ObserveInto records the elapsed time into h (nil-safe) and returns it.
func (t Timer) ObserveInto(h *Histogram) time.Duration {
	d := t.Elapsed()
	h.ObserveDuration(d)
	return d
}

// fmtFloat renders a sample value the way Prometheus clients do.
func fmtFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every metric in the text exposition format
// (version 0.0.4), grouped by metric name with TYPE headers, sorted for
// deterministic output.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	counters := make([]*Counter, 0, len(r.counters))
	for _, c := range r.counters {
		counters = append(counters, c)
	}
	gauges := make([]*Gauge, 0, len(r.gauges))
	for _, g := range r.gauges {
		gauges = append(gauges, g)
	}
	hists := make([]*Histogram, 0, len(r.hists))
	for _, h := range r.hists {
		hists = append(hists, h)
	}
	r.mu.RUnlock()

	sort.Slice(counters, func(i, j int) bool {
		if counters[i].name != counters[j].name {
			return counters[i].name < counters[j].name
		}
		return renderLabels(counters[i].labels) < renderLabels(counters[j].labels)
	})
	sort.Slice(gauges, func(i, j int) bool {
		if gauges[i].name != gauges[j].name {
			return gauges[i].name < gauges[j].name
		}
		return renderLabels(gauges[i].labels) < renderLabels(gauges[j].labels)
	})
	sort.Slice(hists, func(i, j int) bool {
		if hists[i].name != hists[j].name {
			return hists[i].name < hists[j].name
		}
		return renderLabels(hists[i].labels) < renderLabels(hists[j].labels)
	})

	var b strings.Builder
	lastType := func() func(name, typ string) {
		last := ""
		return func(name, typ string) {
			if name != last {
				fmt.Fprintf(&b, "# TYPE %s %s\n", name, typ)
				last = name
			}
		}
	}

	typ := lastType()
	for _, c := range counters {
		typ(c.name, "counter")
		writeSample(&b, c.name, renderLabels(c.labels), "", float64(c.Value()))
	}
	typ = lastType()
	for _, g := range gauges {
		typ(g.name, "gauge")
		writeSample(&b, g.name, renderLabels(g.labels), "", g.Value())
	}
	typ = lastType()
	for _, h := range hists {
		typ(h.name, "histogram")
		base := renderLabels(h.labels)
		cum := h.CumulativeCounts()
		ex := h.Exemplars()
		for i, bound := range h.bounds {
			writeBucket(&b, h.name, base, fmtFloat(bound), float64(cum[i]), ex[i])
		}
		writeBucket(&b, h.name, base, "+Inf", float64(cum[len(cum)-1]), ex[len(ex)-1])
		writeSample(&b, h.name+"_sum", base, "", h.Sum())
		writeSample(&b, h.name+"_count", base, "", float64(h.Count()))
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeBucket writes one histogram bucket line, appending the bucket's
// retained exemplar (OpenMetrics syntax: `# {trace_id="..."} value ts`)
// when one exists.
func writeBucket(b *strings.Builder, name, base, le string, v float64, e *Exemplar) {
	b.WriteString(name)
	b.WriteString("_bucket{")
	if base != "" {
		b.WriteString(base)
		b.WriteByte(',')
	}
	b.WriteString(`le="`)
	b.WriteString(le)
	b.WriteString(`"} `)
	b.WriteString(fmtFloat(v))
	if e != nil {
		b.WriteString(` # {trace_id="`)
		b.WriteString(escapeLabel(e.TraceID))
		b.WriteString(`"} `)
		b.WriteString(fmtFloat(e.Value))
		b.WriteByte(' ')
		b.WriteString(strconv.FormatFloat(float64(e.Time.UnixNano())/1e9, 'f', 3, 64))
	}
	b.WriteByte('\n')
}

// writeSample writes one exposition line, merging the base labels with an
// extra label (used for le).
func writeSample(b *strings.Builder, name, base, extra string, v float64) {
	b.WriteString(name)
	if base != "" || extra != "" {
		b.WriteByte('{')
		b.WriteString(base)
		if base != "" && extra != "" {
			b.WriteByte(',')
		}
		b.WriteString(extra)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(fmtFloat(v))
	b.WriteByte('\n')
}

// Snapshot is one metric's point-in-time state, JSON-friendly for the
// /api/metrics endpoint and eilingest's -metrics-out file.
type Snapshot struct {
	Name   string            `json:"name"`
	Type   string            `json:"type"` // counter | gauge | histogram
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value,omitempty"` // counter and gauge
	Count  int64             `json:"count,omitempty"` // histogram
	Sum    float64           `json:"sum,omitempty"`   // histogram
	// Buckets maps each upper bound (rendered as a string; "+Inf" last) to
	// its cumulative count.
	Buckets map[string]int64 `json:"buckets,omitempty"`
}

func labelMap(ls []Label) map[string]string {
	if len(ls) == 0 {
		return nil
	}
	m := make(map[string]string, len(ls))
	for _, l := range ls {
		m[l.Key] = l.Value
	}
	return m
}

// Snapshots returns every metric's current state, sorted by name then
// labels.
func (r *Registry) Snapshots() []Snapshot {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	out := make([]Snapshot, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for _, c := range r.counters {
		out = append(out, Snapshot{Name: c.name, Type: "counter", Labels: labelMap(c.labels), Value: float64(c.Value())})
	}
	for _, g := range r.gauges {
		out = append(out, Snapshot{Name: g.name, Type: "gauge", Labels: labelMap(g.labels), Value: g.Value()})
	}
	for _, h := range r.hists {
		s := Snapshot{Name: h.name, Type: "histogram", Labels: labelMap(h.labels), Count: h.Count(), Sum: h.Sum()}
		cum := h.CumulativeCounts()
		s.Buckets = make(map[string]int64, len(cum))
		for i, bound := range h.bounds {
			s.Buckets[fmtFloat(bound)] = cum[i]
		}
		s.Buckets["+Inf"] = cum[len(cum)-1]
		out = append(out, s)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return fmt.Sprint(out[i].Labels) < fmt.Sprint(out[j].Labels)
	})
	return out
}

// WriteJSON renders the snapshot list as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshots())
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
func SetBuildInfo(reg *Registry) {
	goVer, rev, at, modified := Info()
	if rev == "" {
		rev = "unknown"
	}
	reg.Gauge("eil_build_info",
		"go_version", goVer,
		"revision", rev,
		"vcs_time", at,
		"modified", strconv.FormatBool(modified),
	).Set(1)
}
