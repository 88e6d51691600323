// Package prof is the continuous-profiling subsystem: it captures pprof
// profiles (CPU, heap, mutex, block, goroutine) on a schedule, on demand,
// and automatically when the SLO engine pages, and keeps them in a bounded
// on-disk ring an operator can browse over /debug/prof and pull into
// `go tool pprof` — so the profile that explains an incident exists even
// when nobody was watching when it happened.
//
// Two invariants shape the design. First, the runtime allows one CPU
// profile per process: every CPU capture goes through a package-level
// guard, and a capture that loses the race reports ErrCPUBusy instead of
// poisoning a -cpuprofile run (or another capture) already in flight. Second, disk is bounded: the ring prunes oldest-first past a
// capture-count and byte budget, so a paging route that flaps all night
// cannot fill the volume — the rate limit on event captures keeps the ring
// from churning past the incident window, too.
package prof

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Profile kinds.
const (
	KindCPU       = "cpu"
	KindHeap      = "heap"
	KindMutex     = "mutex"
	KindBlock     = "block"
	KindGoroutine = "goroutine"
)

// ErrCPUBusy reports that a CPU profile is already being collected in this
// process (by this package or anyone else calling pprof.StartCPUProfile).
var ErrCPUBusy = errors.New("prof: cpu profile already in progress")

// cpuActive is the process-wide CPU-profile guard.
var cpuActive atomic.Bool

// Capture describes one stored profile.
type Capture struct {
	Name    string    `json:"name"` // file name within the ring dir
	Kind    string    `json:"kind"`
	Reason  string    `json:"reason"`
	Seq     uint64    `json:"seq"`
	Size    int64     `json:"size_bytes"`
	ModTime time.Time `json:"captured_at"`
}

// Ring is a bounded on-disk store of captures. Files are named
// NNNNNNNN-kind-reason.pprof; the sequence number survives restarts (a
// reopened ring resumes after the highest stored seq), so sorting by name
// is sorting by capture order.
type Ring struct {
	dir         string
	maxCaptures int
	maxBytes    int64

	mu  sync.Mutex
	seq uint64
}

// Ring defaults.
const (
	DefMaxCaptures = 64
	DefMaxBytes    = 256 << 20 // 256 MiB
)

// OpenRing creates (or reopens) a capture ring at dir. Zero bounds get
// DefMaxCaptures / DefMaxBytes.
func OpenRing(dir string, maxCaptures int, maxBytes int64) (*Ring, error) {
	if maxCaptures <= 0 {
		maxCaptures = DefMaxCaptures
	}
	if maxBytes <= 0 {
		maxBytes = DefMaxBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("prof: open ring: %w", err)
	}
	r := &Ring{dir: dir, maxCaptures: maxCaptures, maxBytes: maxBytes}
	for _, c := range r.List() {
		if c.Seq > r.seq {
			r.seq = c.Seq
		}
	}
	return r, nil
}

// Dir reports the ring's directory.
func (r *Ring) Dir() string { return r.dir }

var reasonClean = regexp.MustCompile(`[^a-z0-9_.]+`)

// sanitizeReason makes an arbitrary reason string filename- and URL-safe.
func sanitizeReason(reason string) string {
	s := reasonClean.ReplaceAllString(strings.ToLower(reason), "-")
	s = strings.Trim(s, "-")
	if s == "" {
		s = "manual"
	}
	if len(s) > 80 {
		s = s[:80]
	}
	return s
}

// Add stores one profile and prunes the ring to its bounds.
func (r *Ring) Add(kind, reason string, data []byte) (Capture, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	name := fmt.Sprintf("%08d-%s-%s.pprof", r.seq, kind, sanitizeReason(reason))
	path := filepath.Join(r.dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return Capture{}, fmt.Errorf("prof: store capture: %w", err)
	}
	r.pruneLocked()
	fi, err := os.Stat(path)
	if err != nil {
		// Pruning can legitimately evict the capture we just wrote if it
		// alone exceeds the byte budget.
		return Capture{}, fmt.Errorf("prof: capture evicted at write: %w", err)
	}
	c, _ := parseCaptureName(name)
	c.Size = fi.Size()
	c.ModTime = fi.ModTime()
	return c, nil
}

// pruneLocked deletes oldest captures until the count and byte budgets hold.
func (r *Ring) pruneLocked() {
	caps := r.listLocked()
	var total int64
	for _, c := range caps {
		total += c.Size
	}
	for i := 0; i < len(caps) && (len(caps)-i > r.maxCaptures || total > r.maxBytes); i++ {
		if err := os.Remove(filepath.Join(r.dir, caps[i].Name)); err == nil {
			total -= caps[i].Size
		}
	}
}

// List returns stored captures, oldest first.
func (r *Ring) List() []Capture {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.listLocked()
}

func (r *Ring) listLocked() []Capture {
	ents, err := os.ReadDir(r.dir)
	if err != nil {
		return nil
	}
	caps := make([]Capture, 0, len(ents))
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		c, ok := parseCaptureName(e.Name())
		if !ok {
			continue
		}
		if fi, err := e.Info(); err == nil {
			c.Size = fi.Size()
			c.ModTime = fi.ModTime()
		}
		caps = append(caps, c)
	}
	sort.Slice(caps, func(i, j int) bool { return caps[i].Seq < caps[j].Seq })
	return caps
}

// parseCaptureName decodes NNNNNNNN-kind-reason.pprof.
func parseCaptureName(name string) (Capture, bool) {
	base, ok := strings.CutSuffix(name, ".pprof")
	if !ok {
		return Capture{}, false
	}
	parts := strings.SplitN(base, "-", 3)
	if len(parts) != 3 {
		return Capture{}, false
	}
	seq, err := strconv.ParseUint(parts[0], 10, 64)
	if err != nil {
		return Capture{}, false
	}
	return Capture{Name: name, Seq: seq, Kind: parts[1], Reason: parts[2]}, true
}

// Open returns a reader over one stored capture. The name must be exactly
// a name List reported — anything with a path separator or that does not
// parse as a capture file is rejected, so a handler can pass user input
// straight through without directory-traversal risk.
func (r *Ring) Open(name string) (io.ReadCloser, error) {
	if name != filepath.Base(name) || strings.ContainsAny(name, `/\`) {
		return nil, fmt.Errorf("prof: invalid capture name %q", name)
	}
	if _, ok := parseCaptureName(name); !ok {
		return nil, fmt.Errorf("prof: invalid capture name %q", name)
	}
	return os.Open(filepath.Join(r.dir, name))
}

// Options configure a Profiler.
type Options struct {
	// Ring stores captures (required).
	Ring *Ring
	// Interval between scheduled background captures (0 disables the
	// schedule; on-demand and event captures still work).
	Interval time.Duration
	// ScheduledKinds are captured each Interval (default heap + goroutine:
	// cheap enough to take forever; CPU is reserved for events unless listed
	// explicitly).
	ScheduledKinds []string
	// CPUSeconds is the CPU-profile window (default 5s).
	CPUSeconds int
	// EventKinds are captured by CaptureEvent (default cpu + heap + mutex
	// + goroutine — the incident bundle).
	EventKinds []string
	// MinEventGap rate-limits CaptureEvent so a flapping alert cannot churn
	// the ring past its own incident (default 1m).
	MinEventGap time.Duration
	// MutexFraction / BlockRate enable the runtime's mutex and block
	// profilers at Start (0 leaves the runtime setting untouched; mutex
	// and block captures without them are empty).
	MutexFraction int
	BlockRate     int
	// Registry, if set, gets eil_prof_captures_total / eil_prof_capture_errors_total.
	Registry *obs.Registry
	// Logf, if set, receives capture failures (schedule and event captures
	// have no caller to return errors to).
	Logf func(format string, args ...any)
}

// Profiler runs the capture schedule and serves on-demand captures.
type Profiler struct {
	opts Options

	mu        sync.Mutex
	stop      chan struct{}
	done      chan struct{}
	lastEvent time.Time
	events    sync.WaitGroup // in-flight async event captures
}

// New returns a profiler with defaults filled. Call Start for the
// background schedule, or use CaptureNow/CaptureEvent directly.
func New(opts Options) *Profiler {
	if len(opts.ScheduledKinds) == 0 {
		opts.ScheduledKinds = []string{KindHeap, KindGoroutine}
	}
	if len(opts.EventKinds) == 0 {
		opts.EventKinds = []string{KindCPU, KindHeap, KindMutex, KindGoroutine}
	}
	if opts.CPUSeconds <= 0 {
		opts.CPUSeconds = 5
	}
	if opts.MinEventGap <= 0 {
		opts.MinEventGap = time.Minute
	}
	return &Profiler{opts: opts}
}

// Ring exposes the profiler's capture store.
func (p *Profiler) Ring() *Ring { return p.opts.Ring }

func (p *Profiler) logf(format string, args ...any) {
	if p.opts.Logf != nil {
		p.opts.Logf(format, args...)
	}
}

// Start enables the runtime mutex/block profilers (if configured) and, when
// Interval is set, launches the background capture loop. Safe to call once.
func (p *Profiler) Start() {
	if p.opts.MutexFraction > 0 {
		runtime.SetMutexProfileFraction(p.opts.MutexFraction)
	}
	if p.opts.BlockRate > 0 {
		runtime.SetBlockProfileRate(p.opts.BlockRate)
	}
	if p.opts.Interval <= 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stop != nil {
		return
	}
	p.stop = make(chan struct{})
	p.done = make(chan struct{})
	go p.loop(p.stop, p.done)
}

// Stop halts the schedule and waits for in-flight event captures.
func (p *Profiler) Stop() {
	p.mu.Lock()
	stop, done := p.stop, p.done
	p.stop, p.done = nil, nil
	p.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	p.events.Wait()
}

func (p *Profiler) loop(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	tick := time.NewTicker(p.opts.Interval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			if _, err := p.CaptureNow("schedule", p.opts.ScheduledKinds...); err != nil {
				p.logf("prof: scheduled capture: %v", err)
			}
		}
	}
}

// CaptureNow synchronously captures the given kinds (default: the
// scheduled set) under the given reason. A CPU capture blocks for
// CPUSeconds. Partial success is success: the error reflects the first
// failed kind, but every capturable kind is stored.
func (p *Profiler) CaptureNow(reason string, kinds ...string) ([]Capture, error) {
	if len(kinds) == 0 {
		kinds = p.opts.ScheduledKinds
	}
	var (
		caps     []Capture
		firstErr error
	)
	for _, kind := range kinds {
		data, err := p.capture(kind)
		if err == nil {
			var c Capture
			if c, err = p.opts.Ring.Add(kind, reason, data); err == nil {
				caps = append(caps, c)
			}
		}
		if err != nil {
			p.opts.Registry.Counter("eil_prof_capture_errors_total", "kind", kind).Inc()
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", kind, err)
			}
			continue
		}
		p.opts.Registry.Counter("eil_prof_captures_total", "kind", kind).Inc()
	}
	return caps, firstErr
}

// CaptureEvent asynchronously captures the incident bundle (EventKinds)
// for an alert or other trigger, rate-limited by MinEventGap. It returns
// immediately; the capture (CPU window included) runs on its own
// goroutine, so a paging SLO tick is not delayed by profiling.
func (p *Profiler) CaptureEvent(reason string) {
	p.mu.Lock()
	now := time.Now()
	if now.Sub(p.lastEvent) < p.opts.MinEventGap {
		p.mu.Unlock()
		return
	}
	p.lastEvent = now
	p.events.Add(1)
	p.mu.Unlock()
	go func() {
		defer p.events.Done()
		if _, err := p.CaptureNow(reason, p.opts.EventKinds...); err != nil {
			p.logf("prof: event capture (%s): %v", reason, err)
		}
	}()
}

// capture renders one profile kind to bytes.
func (p *Profiler) capture(kind string) ([]byte, error) {
	var buf bytes.Buffer
	switch kind {
	case KindCPU:
		if !cpuActive.CompareAndSwap(false, true) {
			return nil, ErrCPUBusy
		}
		defer cpuActive.Store(false)
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return nil, err
		}
		time.Sleep(time.Duration(p.opts.CPUSeconds) * time.Second)
		pprof.StopCPUProfile()
	case KindHeap, KindMutex, KindBlock, KindGoroutine:
		prof := pprof.Lookup(kind)
		if prof == nil {
			return nil, fmt.Errorf("prof: unknown runtime profile %q", kind)
		}
		if err := prof.WriteTo(&buf, 0); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("prof: unknown profile kind %q", kind)
	}
	return buf.Bytes(), nil
}
