package serving

import (
	"context"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/docmodel"
	"repro/internal/health"
	"repro/internal/obs"
	"repro/internal/siapi"
	"repro/internal/synopsis"
	"repro/internal/trace"
)

// Switch is the one indirection between a caller and a backend whose state
// can be replaced or absent: every call resolves the current state and
// delegates to it, or answers the resolver's error (ErrNotSynced while there
// is none). A read replica is a Switch over the state its stream last
// installed, a cluster replica over the scatter-gather view of its shard
// replicas, a failover node over whichever role object it currently holds.
//
// What does not change with the state is held here: the metrics registry
// and the tracer belong to the process, and the HTTP middleware captures
// them once.
//
// Switch supplies every facet except Tune: the owner knows when its state is
// replaced, so the owner keeps the settings and re-applies them. An owner
// overrides a method by declaring it (a replica names its own checks; a
// failover node guards its writes).
type Switch struct {
	metrics *obs.Registry
	tracer  *trace.Tracer
	cur     func() (Backend, error)
}

// NewSwitch returns a Switch over cur, which must be safe for concurrent use
// and cheap: it runs on every request.
func NewSwitch(metrics *obs.Registry, tracer *trace.Tracer, cur func() (Backend, error)) Switch {
	return Switch{metrics: metrics, tracer: tracer, cur: cur}
}

func (s *Switch) Ready() bool {
	b, err := s.cur()
	return err == nil && b.Ready()
}

func (s *Switch) SearchCtx(ctx context.Context, user access.User, q core.FormQuery) (core.Result, error) {
	b, err := s.cur()
	if err != nil {
		return core.Result{}, err
	}
	return b.SearchCtx(ctx, user, q)
}

func (s *Switch) SearchExplain(ctx context.Context, user access.User, q core.FormQuery) (core.Result, *core.Explanation, error) {
	b, err := s.cur()
	if err != nil {
		return core.Result{}, nil, err
	}
	return b.SearchExplain(ctx, user, q)
}

func (s *Switch) KeywordSearchCtx(ctx context.Context, query string, limit int) []siapi.DocHit {
	b, err := s.cur()
	if err != nil {
		return nil
	}
	return b.KeywordSearchCtx(ctx, query, limit)
}

func (s *Switch) KeywordCount(query string) int {
	b, err := s.cur()
	if err != nil {
		return 0
	}
	return b.KeywordCount(query)
}

func (s *Switch) ExploreCtx(ctx context.Context, user access.User, dealID string, q core.FormQuery) ([]siapi.DocHit, error) {
	b, err := s.cur()
	if err != nil {
		return nil, err
	}
	return b.ExploreCtx(ctx, user, dealID, q)
}

func (s *Switch) SimilarDeals(user access.User, dealID string, k int) ([]synopsis.SimilarHit, error) {
	b, err := s.cur()
	if err != nil {
		return nil, err
	}
	return b.SimilarDeals(user, dealID, k)
}

func (s *Switch) Deal(user access.User, dealID string) (synopsis.Deal, error) {
	b, err := s.cur()
	if err != nil {
		return synopsis.Deal{}, err
	}
	return b.Deal(user, dealID)
}

func (s *Switch) AddDocuments(docs []*docmodel.Document) error {
	b, err := s.cur()
	if err != nil {
		return err
	}
	return b.AddDocuments(docs)
}

func (s *Switch) RemoveDeal(dealID string) error {
	b, err := s.cur()
	if err != nil {
		return err
	}
	return b.RemoveDeal(dealID)
}

func (s *Switch) Compact() error {
	b, err := s.cur()
	if err != nil {
		return err
	}
	return b.Compact()
}

func (s *Switch) Registry() *obs.Registry { return s.metrics }

func (s *Switch) RequestTracer() *trace.Tracer { return s.tracer }

func (s *Switch) BreakerStates() []core.BreakerStatus {
	b, err := s.cur()
	if err != nil {
		return nil
	}
	return b.BreakerStates()
}

// Checks names the current state's checks; with no state, one failed
// critical check carries the reason.
func (s *Switch) Checks(opts HealthOptions) []health.Check {
	b, err := s.cur()
	if err != nil {
		return []health.Check{{Name: "state", Critical: true, Fn: func() health.Result {
			return health.Failedf("%v", err)
		}}}
	}
	return b.Checks(opts)
}

func (s *Switch) EnableWAL(dir string, syncEvery int) error {
	b, err := s.cur()
	if err != nil {
		return err
	}
	return b.EnableWAL(dir, syncEvery)
}

func (s *Switch) CloseWAL() error {
	b, err := s.cur()
	if err != nil {
		return err
	}
	return b.CloseWAL()
}

func (s *Switch) Save(dir string) error {
	b, err := s.cur()
	if err != nil {
		return err
	}
	return b.Save(dir)
}
