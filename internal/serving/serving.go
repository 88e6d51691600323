// Package serving declares EIL's serving surface once. The paper's Figure 1
// is one search procedure behind one front end, whatever the deployment:
// a monolithic system, a sharded cluster, a read replica of either, or a
// failover node that changes role. Each is a Backend; the HTTP layer and
// the server command are written against the facets below and nothing
// else.
//
// The package is a leaf: it imports neither the root package nor
// internal/web, so both can share these declarations.
package serving

import (
	"context"
	"errors"
	"runtime"
	"time"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/docmodel"
	"repro/internal/fault"
	"repro/internal/health"
	"repro/internal/obs"
	"repro/internal/siapi"
	"repro/internal/synopsis"
	"repro/internal/trace"
)

// ErrNotSynced is what every facet of a replica answers before its first
// state lands. It is an outage-class error (core.IsUnavailable), so the HTTP
// layer answers 503 with Retry-After instead of an empty page.
var ErrNotSynced error = &core.BackendError{
	Backend: "replica",
	Err:     errors.New("eil: replica has not completed initial sync"),
}

// Reader is the read facet. The two keyword methods cannot report an
// error, so a caller that must tell "no matches" from "no state" asks Ready
// first.
type Reader interface {
	// Ready reports whether there is state to answer from.
	Ready() bool
	SearchCtx(ctx context.Context, user access.User, q core.FormQuery) (core.Result, error)
	SearchExplain(ctx context.Context, user access.User, q core.FormQuery) (core.Result, *core.Explanation, error)
	KeywordSearchCtx(ctx context.Context, query string, limit int) []siapi.DocHit
	KeywordCount(query string) int
	ExploreCtx(ctx context.Context, user access.User, dealID string, q core.FormQuery) ([]siapi.DocHit, error)
	SimilarDeals(user access.User, dealID string, k int) ([]synopsis.SimilarHit, error)
	Deal(user access.User, dealID string) (synopsis.Deal, error)
}

// Writer is the write facet: the three journaled mutations.
type Writer interface {
	AddDocuments(docs []*docmodel.Document) error
	RemoveDeal(dealID string) error
	Compact() error
}

// Telemetry is the part of the admin facet the HTTP layer reads.
type Telemetry interface {
	Registry() *obs.Registry
	// RequestTracer is the tracer whose ring of retained traces is also the
	// query log; nil when tracing is off.
	RequestTracer() *trace.Tracer
	// BreakerStates lists the circuits searches currently run through.
	BreakerStates() []core.BreakerStatus
}

// Admin is the admin facet: telemetry plus what the server command drives.
type Admin interface {
	Telemetry
	// Checks names the readiness checks that apply to the current state.
	// NewHealth calls it on every evaluation.
	Checks(opts HealthOptions) []health.Check
	// Tune installs the operator's settings. Call it before serving traffic;
	// a backend whose state is replaced (a replica installing a snapshot, a
	// failover node changing role) re-applies them to the new state.
	Tune(set Settings)
	EnableWAL(dir string, syncEvery int) error
	CloseWAL() error
	// Save commits the current state to dir as a new snapshot generation.
	Save(dir string) error
}

// Frontend is what the HTTP handler needs.
type Frontend interface {
	Reader
	Telemetry
}

// Backend is the whole surface: what the server command holds, whatever the
// deployment's shape.
type Backend interface {
	Reader
	Writer
	Admin
}

// HealthOptions tunes the component checks.
type HealthOptions struct {
	// SnapshotInterval is the expected checkpoint cadence; the freshness
	// check degrades when the last checkpoint is older than three times it.
	// Zero disables the freshness check (manual-save deployments).
	SnapshotInterval time.Duration
	// MaxGoroutines is the goroutine watermark (0 = 10000).
	MaxGoroutines int
}

// Settings are the operator's choices that belong to the serving state
// rather than to the process, and so must follow the state when it changes.
type Settings struct {
	// Resilience is the search budget, retry and breaker policy.
	Resilience core.Resilience
	// Faults, when set, injects backend faults into every search.
	Faults *fault.Injector
	// SnapshotKeep is how many snapshot generations a save retains (0 = the
	// store's default).
	SnapshotKeep int
}

// NewHealth builds the readiness registry over a backend: the checks are
// whatever a.Checks names at each evaluation, so a replica that syncs or a
// node that is promoted is judged by its current state.
func NewHealth(a Admin, opts HealthOptions) *health.Registry {
	reg := health.NewRegistry(a.Registry())
	reg.RegisterSource(func() []health.Check { return a.Checks(opts) })
	return reg
}

// RuntimeChecks are the process-level watermarks every shape reports: the
// goroutine count, read when the check runs.
func RuntimeChecks(opts HealthOptions) []health.Check {
	if opts.MaxGoroutines <= 0 {
		opts.MaxGoroutines = 10000
	}
	return []health.Check{{Name: "goroutines", Fn: func() health.Result {
		n := runtime.NumGoroutine()
		if n > opts.MaxGoroutines {
			return health.Degradedf("%d goroutines (watermark %d); likely a leak", n, opts.MaxGoroutines)
		}
		return health.OKf("%d goroutines", n)
	}}}
}
