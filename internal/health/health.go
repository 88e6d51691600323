// Package health is EIL's component-check registry and verdict rollup: the
// judgment layer that turns raw signals (breaker states, WAL appendability,
// snapshot freshness, runtime watermarks) into the three answers an
// orchestrator or load balancer actually asks — is the process alive, is it
// ready for traffic, is it degraded.
//
// Liveness stays trivially true while the process can serve HTTP at all
// (/healthz); readiness (/readyz) evaluates every registered check and
// rolls them up:
//
//   - a CRITICAL check failing  -> "unready"  (pull the instance)
//   - any check failed/degraded -> "degraded" (pull it, but it still serves
//     reduced answers — the resilience envelope's tiers keep working)
//   - everything ok             -> "ready"
//
// Checks are plain closures, named by sources evaluated on every poll, so
// every subsystem supplies its own probes without this package importing any
// of them.
package health

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
)

// Status is one check's outcome.
type Status string

// Check outcomes.
const (
	StatusOK       Status = "ok"
	StatusDegraded Status = "degraded"
	StatusFailed   Status = "failed"
)

// severity orders statuses for rollup (higher is worse).
func (s Status) severity() int {
	switch s {
	case StatusFailed:
		return 2
	case StatusDegraded:
		return 1
	default:
		return 0
	}
}

// Result is what a check reports.
type Result struct {
	Status Status `json:"status"`
	Detail string `json:"detail,omitempty"`
}

// OKf builds a passing result.
func OKf(format string, args ...any) Result {
	return Result{Status: StatusOK, Detail: fmt.Sprintf(format, args...)}
}

// Degradedf builds a degraded result.
func Degradedf(format string, args ...any) Result {
	return Result{Status: StatusDegraded, Detail: fmt.Sprintf(format, args...)}
}

// Failedf builds a failing result.
func Failedf(format string, args ...any) Result {
	return Result{Status: StatusFailed, Detail: fmt.Sprintf(format, args...)}
}

// CheckFunc probes one component. It must be safe for concurrent use and
// cheap enough to run on every readiness poll.
type CheckFunc func() Result

// Check is one named probe. A critical check gates readiness hard: its
// failure makes the verdict "unready".
type Check struct {
	Name     string
	Critical bool
	Fn       CheckFunc
}

// Verdict is the rollup over all checks.
type Verdict string

// Rollup verdicts.
const (
	VerdictReady    Verdict = "ready"
	VerdictDegraded Verdict = "degraded"
	VerdictUnready  Verdict = "unready"
)

// CheckResult is one check's evaluated state inside a Report.
type CheckResult struct {
	Name     string `json:"name"`
	Critical bool   `json:"critical"`
	Status   Status `json:"status"`
	Detail   string `json:"detail,omitempty"`
	// ElapsedSeconds is how long the probe took — a slow probe is itself a
	// signal (a WAL fsync probe taking 2s means the disk is struggling).
	ElapsedSeconds float64 `json:"elapsed_seconds"`
}

// Report is one full evaluation: the verdict, the failing checks as a flat
// cause list (what /readyz names in its 503 body), and every check's state.
type Report struct {
	Verdict   Verdict       `json:"verdict"`
	Causes    []string      `json:"causes,omitempty"`
	Checks    []CheckResult `json:"checks"`
	CheckedAt time.Time     `json:"checked_at"`
}

// Ready reports whether the verdict admits traffic.
func (r Report) Ready() bool { return r.Verdict == VerdictReady }

// Registry holds check sources. A nil *Registry evaluates to a ready report
// with no checks, so wiring is optional everywhere.
type Registry struct {
	mu      sync.RWMutex
	sources []func() []Check
	metrics *obs.Registry
}

// NewRegistry returns an empty registry. metrics (optional) receives
// eil_health_status and per-check eil_health_check gauges on every
// evaluation (0 ok / 1 degraded / 2 failed).
func NewRegistry(metrics *obs.Registry) *Registry {
	return &Registry{metrics: metrics}
}

// RegisterSource adds a function that names the checks which apply at the
// moment of each evaluation. A deployment whose state changes shape — a
// replica that has not synced yet, a failover node that changes role — is
// judged by what it is now, not by what it was when the registry was built.
// Sources run in registration order, and each one's checks in the order
// returned; that is also the report's order.
func (r *Registry) RegisterSource(src func() []Check) {
	if r == nil || src == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sources = append(r.sources, src)
}

// runCheck executes one probe, converting a panic into a failed result so
// one broken probe cannot take down the readiness endpoint.
func runCheck(c Check) (res Result) {
	defer func() {
		if p := recover(); p != nil {
			res = Failedf("check panicked: %v", p)
		}
	}()
	return c.Fn()
}

// Evaluate runs every check and rolls the outcomes up into a verdict.
func (r *Registry) Evaluate() Report {
	rep := Report{Verdict: VerdictReady, CheckedAt: time.Now()}
	if r == nil {
		return rep
	}
	r.mu.RLock()
	sources := append([]func() []Check(nil), r.sources...)
	r.mu.RUnlock()
	var checks []Check
	for _, src := range sources {
		checks = append(checks, src()...)
	}

	worst := 0
	criticalFailed := false
	for _, c := range checks {
		t := obs.StartTimer()
		res := runCheck(c)
		cr := CheckResult{
			Name:           c.Name,
			Critical:       c.Critical,
			Status:         res.Status,
			Detail:         res.Detail,
			ElapsedSeconds: t.Elapsed().Seconds(),
		}
		rep.Checks = append(rep.Checks, cr)
		if sev := res.Status.severity(); sev > 0 {
			rep.Causes = append(rep.Causes, fmt.Sprintf("%s: %s", c.Name, res.Detail))
			if sev > worst {
				worst = sev
			}
			if c.Critical && res.Status == StatusFailed {
				criticalFailed = true
			}
		}
		r.metrics.Gauge("eil_health_check", "check", c.Name).Set(float64(res.Status.severity()))
	}
	switch {
	case criticalFailed:
		rep.Verdict = VerdictUnready
	case worst > 0:
		rep.Verdict = VerdictDegraded
	}
	r.metrics.Gauge("eil_health_status").Set(float64(verdictSeverity(rep.Verdict)))
	return rep
}

func verdictSeverity(v Verdict) int {
	switch v {
	case VerdictUnready:
		return 2
	case VerdictDegraded:
		return 1
	default:
		return 0
	}
}
