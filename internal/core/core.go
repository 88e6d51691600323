// Package core implements EIL's primary contribution: business-activity
// driven search (Figure 1 of the paper). A form-based query is decomposed
// into a synopsis query (directed SQL against the extracted business
// context) and a SIAPI query (against the semantic document index); the
// synopsis result set scopes the document search to relevant business
// activities; the two rankings are combined; and access control decides,
// per activity, whether the user sees documents, only the synopsis with its
// contact list, or nothing.
package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/access"
	"repro/internal/fault"
	"repro/internal/index"
	"repro/internal/lru"
	"repro/internal/obs"
	"repro/internal/siapi"
	"repro/internal/synopsis"
	"repro/internal/taxonomy"
	"repro/internal/trace"
)

// TextTarget selects where the form's text predicates search — "anywhere in
// EWB" or a specific synopsis section (Figure 8's drop-down).
type TextTarget string

// Text targets supported by the form.
const (
	TargetAnywhere     TextTarget = "anywhere"     // body + title of all documents
	TargetTechSolution TextTarget = "techsolution" // technology solution overviews
	TargetWinStrategy  TextTarget = "winstrategy"  // win strategy statements
	TargetTitle        TextTarget = "title"        // document titles only
)

// FormQuery mirrors the EIL search editor (Figure 8): concept criteria,
// text predicates, and people criteria, all optional and conjunctive.
type FormQuery struct {
	// Tower accepts any taxonomy surface form (canonical name, acronym, or
	// alias); sub-tower forms set the sub-tower criterion automatically.
	Tower    string
	SubTower string

	Industry   string
	Consultant string
	Geography  string
	Country    string

	AllWords    []string
	ExactPhrase string
	AnyWords    []string
	NoneWords   []string
	Target      TextTarget

	PersonName string
	PersonOrg  string

	// Limit bounds the number of returned activities (0 = all);
	// DocsPerDeal bounds documents listed per activity (0 = 5).
	Limit       int
	DocsPerDeal int
}

// HasConcepts reports whether any synopsis criterion is set.
func (q FormQuery) HasConcepts() bool {
	return q.Tower != "" || q.SubTower != "" || q.Industry != "" || q.Consultant != "" ||
		q.Geography != "" || q.Country != "" || q.PersonName != "" || q.PersonOrg != ""
}

// HasText reports whether any text predicate is set.
func (q FormQuery) HasText() bool {
	return len(q.AllWords) > 0 || q.ExactPhrase != "" || len(q.AnyWords) > 0 || len(q.NoneWords) > 0
}

// Activity is one business activity in the result set — the unit of
// presentation in EIL ("a search query returns a set of the most relevant
// business activities first rather than documents or links").
type Activity struct {
	DealID string
	// Score combines the synopsis ranking and the normalized document
	// ranking (Figure 1 step 18).
	Score float64
	// SynopsisScore and DocScore are the per-side normalized components.
	SynopsisScore float64
	DocScore      float64
	// MatchedTowers lists scope towers that satisfied the tower criterion,
	// significance order (Figure 5's bolded towers).
	MatchedTowers []string
	// Level is the caller's access level for this activity.
	Level access.Level
	// Synopsis is populated when Level >= LevelSynopsis.
	Synopsis *synopsis.Deal
	// Docs is populated when Level == LevelFull and the query had text
	// predicates.
	Docs []siapi.DocHit
}

// Result is a complete search response.
type Result struct {
	Activities []Activity
	// UnscopedFallback is true when the synopsis query was empty or
	// matched nothing and the SIAPI query ran unscoped (Figure 1 step 14).
	UnscopedFallback bool
	// Degraded is true when a backend outage forced a reduced answer: the
	// result is still useful (harvest shrank, yield held) but is not the
	// full two-backend ranking. DegradedCauses names the failed hops
	// ("synopsis", "siapi", "access").
	Degraded       bool     `json:"degraded"`
	DegradedCauses []string `json:"degraded_causes,omitempty"`
	// Explain carries one line per executed stage, for the UI's query
	// summary ("Find deals with ... tower; contain ... anywhere in EWB").
	Explain []string
	// Suggestions carries "did you mean" vocabulary matches when a tower
	// criterion failed to resolve in the taxonomy.
	Suggestions []string
}

// Engine runs Figure 1 over a list of backends. All other fields are
// optional: a nil Access means no access control (everyone sees everything —
// offline evaluation), a nil Tax disables concept-form resolution.
type Engine struct {
	// Backends is what the engine searches: one synopsis store and one
	// document engine per partition of the deals. A monolith is the list of
	// one, unnamed; a cluster lists its shards in ShardFor order. A search
	// observes len(Backends): one backend is called inline on the caller's
	// goroutine against its own collection statistics, several are scattered
	// under merged statistics (see shard.go). The slice must not change after
	// the first search.
	Backends []ShardBackend
	Access   *access.Controller
	Tax      *taxonomy.Taxonomy

	// SynopsisWeight and DocWeight set the rank-combination mix; zero
	// values default to 1.0 and 1.0.
	SynopsisWeight float64
	DocWeight      float64
	// DisableScoping makes the SIAPI query run unscoped even when the
	// synopsis query matched (the scoping ablation). Results are then
	// intersected with S anyway to preserve semantics, so the ablation
	// measures the cost, not a semantic change.
	DisableScoping bool
	// Metrics, when set, receives per-stage search timings and outcome
	// counters (search_* metric names); nil disables recording.
	Metrics *obs.Registry
	// Resilient configures budget deadlines, retry, and circuit breaking on
	// the backend hops (see resilience.go). The zero value reproduces the
	// unprotected engine exactly.
	Resilient Resilience
	// Faults, when set, activates the fault-injection layer for every
	// search this engine runs (chaos benching via -fault-spec); tests more
	// commonly inject per-request through fault.With on the context.
	Faults *fault.Injector

	// statsOnce/statsMemo memoize merged scoring statistics per compiled
	// query + cluster epoch (more than one backend only; see shard.go).
	statsOnce sync.Once
	statsMemo *lru.Cache[string, *index.Stats]
	// breakers holds the lazily built per-key circuit breakers; brMu
	// guards the map, not the breakers (each has its own lock).
	brMu     sync.Mutex
	breakers map[string]*Breaker
}

// Derive returns a new Engine sharing this engine's backends and
// configuration. Engines must not be copied by value (they carry breaker
// and memo state); Derive is the supported way to tweak settings —
// ablations flip DisableScoping or the rank weights on a derived engine.
func (e *Engine) Derive() *Engine {
	return &Engine{
		Backends:       e.Backends,
		Access:         e.Access,
		Tax:            e.Tax,
		SynopsisWeight: e.SynopsisWeight,
		DocWeight:      e.DocWeight,
		DisableScoping: e.DisableScoping,
		Metrics:        e.Metrics,
		Resilient:      e.Resilient,
		Faults:         e.Faults,
	}
}

// Search stage labels used in search_stage_seconds.
const (
	StageCompose  = "compose"  // form decomposition + taxonomy resolution
	StageSynopsis = "synopsis" // synopsis (business context) query
	StageSIAPI    = "siapi"    // semantic document index query
	StageMerge    = "merge"    // rank combination and sort
	StageAccess   = "access"   // per-activity access filtering
)

// stageHist returns the histogram for one search stage.
func (e *Engine) stageHist(stage string) *obs.Histogram {
	return e.Metrics.Histogram("search_stage_seconds", nil, "stage", stage)
}

// observeStage records one stage duration into the stage histogram. When
// the request is traced, the observation carries the trace ID as an
// exemplar, so a p99 bucket on the dashboard links to a concrete trace.
func (e *Engine) observeStage(ctx context.Context, stage string, d time.Duration) {
	e.stageHist(stage).ObserveDurationWithExemplar(d, trace.ID(ctx))
}

func (e *Engine) weights() (float64, float64) {
	sw, dw := e.SynopsisWeight, e.DocWeight
	if sw == 0 {
		sw = 1
	}
	if dw == 0 {
		dw = 1
	}
	return sw, dw
}

// Search runs the business-activity driven search algorithm for the user.
func (e *Engine) Search(user access.User, q FormQuery) (Result, error) {
	return e.SearchCtx(context.Background(), user, q)
}

// SearchCtx is Search under the caller's context: when ctx carries a trace
// (started by the web middleware or explain mode), every stage
// of the Figure 1 algorithm records a child span, and the stage histograms
// receive trace-ID exemplars.
func (e *Engine) SearchCtx(ctx context.Context, user access.User, q FormQuery) (Result, error) {
	total := obs.StartTimer()
	e.Metrics.Counter("search_total").Inc()
	res, err := e.search(ctx, user, q)
	e.Metrics.Histogram("search_seconds", nil).ObserveDurationWithExemplar(total.Elapsed(), trace.ID(ctx))
	if err != nil {
		e.Metrics.Counter("search_errors_total").Inc()
		return res, err
	}
	if res.UnscopedFallback {
		e.Metrics.Counter("search_fallback_total").Inc()
	} else {
		e.Metrics.Counter("search_scoped_total").Inc()
	}
	if len(res.Activities) == 0 {
		e.Metrics.Counter("search_zero_results_total").Inc()
	}
	return res, nil
}

// search is Figure 1, steps 1-19, written once for every shape. A backend
// stage reports how many of the backends it asked answered and how many
// failed; the ladder below turns that into the tier of answer that survives.
// One backend can only report all-ok or all-failed, so a monolith never
// reaches the partial rungs.
func (e *Engine) search(ctx context.Context, user access.User, q FormQuery) (Result, error) {
	var res Result
	n := len(e.Backends)
	ctx, cancel := e.envelope(ctx)
	defer cancel()
	// degrade records one backend outage survived by serving a reduced
	// answer: result flags, per-cause counter, and root-span attributes
	// (so ?explain=1 shows what was lost and why).
	degrade := func(cause string, err error) {
		res.Degraded = true
		res.DegradedCauses = append(res.DegradedCauses, cause)
		e.Metrics.Counter("search_degraded_total", "cause", cause).Inc()
		root := trace.FromContext(ctx)
		root.SetBool("degraded", true)
		root.Set("degraded_"+cause, err.Error())
	}

	// Step 1-2: compose the synopsis query from form input.
	compose := obs.StartTimer()
	_, csp := trace.StartSpan(ctx, "search.compose")
	sq, explain := e.composeSynopsisQuery(q)
	res.Explain = append(res.Explain, explain...)
	if q.Tower != "" && e.Tax != nil {
		if _, _, ok := e.Tax.Resolve(q.Tower); !ok {
			for _, s := range e.Tax.Suggest(q.Tower, 3) {
				res.Suggestions = append(res.Suggestions, s.Surface)
			}
		}
	}
	// Step 3: compose the SIAPI query.
	dq := e.composeSIAPIQuery(q)
	if !dq.Empty() {
		res.Explain = append(res.Explain, fmt.Sprintf("SIAPI query on fields %v", dq.Fields))
	}
	if csp != nil {
		csp.SetBool("has_concepts", !sq.Empty())
		csp.SetBool("has_text", !dq.Empty())
		csp.SetInt("suggestions", len(res.Suggestions))
		csp.End()
	}
	e.observeStage(ctx, StageCompose, compose.Elapsed())

	// Step 4: execute the synopsis query. A failed backend costs only its
	// own deals unless every backend is down.
	var synHits []synopsis.Hit
	synDown := false
	if !sq.Empty() {
		var o outcome
		synHits, o = e.synopsisStage(ctx, sq)
		switch {
		case o.failed == 0:
			res.Explain = append(res.Explain, fmt.Sprintf("synopsis query matched %d activities", len(synHits)))
		case o.ok == 0 && dq.Empty():
			// Concept-only query with the synopsis side down: there is no
			// text to fall back to, so the outage surfaces as unavailable.
			return res, o.err
		case o.ok == 0:
			// Harvest degradation (Fox & Brewer): drop the business-context
			// half, keep answering from the full-text index unscoped.
			synDown = true
			degrade(BackendSynopsis, o.err)
			res.Explain = append(res.Explain, "synopsis backend unavailable; degraded to unscoped full-text")
		default:
			// Partial harvest: the surviving shards' business context still
			// scopes the search; the dead shards' deals are simply absent.
			degrade(BackendSynopsis, o.err)
			res.Explain = append(res.Explain, fmt.Sprintf("%d of %d synopsis shards unavailable; serving partial business context", o.failed, n))
		}
	}

	synByDeal := map[string]synopsis.Hit{}
	maxSyn := 0.0
	for _, h := range synHits {
		synByDeal[h.DealID] = h
		if h.Score > maxSyn {
			maxSyn = h.Score
		}
	}

	acts := map[string]*combinedAct{}

	addSyn := func(h synopsis.Hit) {
		c := acts[h.DealID]
		if c == nil {
			c = &combinedAct{}
			acts[h.DealID] = c
		}
		if maxSyn > 0 {
			c.syn = h.Score / maxSyn
		}
		c.tws = h.MatchedTowers
	}

	perDeal := q.DocsPerDeal
	if perDeal <= 0 {
		perDeal = 5
	}

	switch {
	case len(synHits) > 0 && dq.Empty(): // step 11: R <- S
		for _, h := range synHits {
			addSyn(h)
		}
	case len(synHits) > 0: // steps 5-10
		// Step 8: scope the document search to the activities in S.
		scope := synHits
		if e.DisableScoping {
			scope = nil
		}
		docActs, o := e.siapiStage(ctx, dq, scope, perDeal)
		if o.failed > 0 {
			// Index down with the synopsis side healthy: the deals of the
			// backends that failed are served at the reduced tier (R <- S,
			// no documents) — the same answer the paper's access control
			// gives unauthorized users, here caused by an outage. With
			// every backend down that is all of S.
			degrade(BackendSIAPI, o.err)
			line := "document index unavailable;"
			if o.ok > 0 {
				line = fmt.Sprintf("%d document shards unavailable; affected activities", o.failed)
			}
			res.Explain = append(res.Explain, line+" degraded to synopsis-plus-contacts")
			for _, h := range synHits {
				if o.down[ShardFor(h.DealID, n)] {
					addSyn(h)
				}
			}
			if o.ok == 0 {
				break
			}
		}
		for _, da := range docActs {
			sh, inS := synByDeal[da.DealID]
			if !inS {
				continue // unscoped ablation: intersect to keep semantics
			}
			addSyn(sh)
			acts[da.DealID].doc = da.Score
			acts[da.DealID].dcs = da.Docs
		}
		res.Explain = append(res.Explain, fmt.Sprintf("scoped SIAPI query over %d activities", len(synHits)))
	case !dq.Empty(): // steps 13-15: unscoped SIAPI fallback
		if !sq.Empty() && !synDown {
			// The synopsis query ran and matched nothing: the concept
			// criteria are hard filters, so the conjunction is empty.
			res.Explain = append(res.Explain, "concept criteria matched no activities")
			break
		}
		docActs, o := e.siapiStage(ctx, dq, nil, perDeal)
		if o.ok == 0 {
			// Every serving tier is gone (text side down, and any concept
			// side already failed above): surface the outage.
			return res, o.err
		}
		if o.failed > 0 {
			degrade(BackendSIAPI, o.err)
			res.Explain = append(res.Explain, fmt.Sprintf("%d of %d document shards unavailable; serving partial results", o.failed, n))
		}
		for _, da := range docActs {
			acts[da.DealID] = &combinedAct{doc: da.Score, dcs: da.Docs}
		}
		res.UnscopedFallback = true
		if synDown {
			res.Explain = append(res.Explain, "unscoped SIAPI query (synopsis degraded)")
		} else {
			res.Explain = append(res.Explain, "unscoped SIAPI query (no concept criteria)")
		}
	default: // step 17: R <- empty set
		return res, nil
	}

	e.finishSearch(ctx, user, q, &res, acts, degrade)
	return res, nil
}

// combinedAct accumulates one activity's rank components across stages:
// the normalized synopsis score, the normalized document score, the
// matched towers, and the per-activity document hits.
type combinedAct struct {
	syn float64
	doc float64
	tws []string
	dcs []siapi.DocHit
}

// activityWorse reports whether a ranks strictly below b: lower combined
// score, or equal score and higher deal ID. It is the strict total order
// behind both the full sort and the bounded top-k heap, so limited and
// unlimited searches agree exactly.
func activityWorse(a, b *Activity) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.DealID > b.DealID
}

// topKActivities ranks activities by descending combined score (ties by
// ascending deal ID). A positive limit selects the top-k through a
// bounded worst-at-root min-heap — the coordinator-side merge of the
// sharded search — without sorting the full candidate set; the selected
// prefix is identical to sort-then-truncate.
func topKActivities(all []Activity, limit int) []Activity {
	if limit <= 0 || len(all) <= limit {
		sort.Slice(all, func(i, j int) bool { return activityWorse(&all[j], &all[i]) })
		return all
	}
	h := make([]Activity, 0, limit)
	for i := range all {
		if len(h) < limit {
			h = append(h, all[i])
			for c := len(h) - 1; c > 0; {
				parent := (c - 1) / 2
				if !activityWorse(&h[c], &h[parent]) {
					break
				}
				h[c], h[parent] = h[parent], h[c]
				c = parent
			}
			continue
		}
		if !activityWorse(&h[0], &all[i]) {
			continue
		}
		h[0] = all[i]
		for c := 0; ; {
			worst := c
			if l := 2*c + 1; l < len(h) && activityWorse(&h[l], &h[worst]) {
				worst = l
			}
			if r := 2*c + 2; r < len(h) && activityWorse(&h[r], &h[worst]) {
				worst = r
			}
			if worst == c {
				break
			}
			h[c], h[worst] = h[worst], h[c]
			c = worst
		}
	}
	sort.Slice(h, func(i, j int) bool { return activityWorse(&h[j], &h[i]) })
	return h
}

// synopsisSearch runs the synopsis query against one store (the monolith's,
// or one shard's) and counts whether the store's memo served it; the flag
// goes on the caller's trace span.
func (e *Engine) synopsisSearch(ctx context.Context, store *synopsis.Store, sq synopsis.Query) ([]synopsis.Hit, bool, error) {
	hits, cached, err := store.SearchCached(ctx, sq)
	if cached {
		e.Metrics.Counter("synopsis_cache_hits_total").Inc()
	} else {
		e.Metrics.Counter("synopsis_cache_misses_total").Inc()
	}
	return hits, cached, err
}

// finishSearch runs the last two Figure-1 stages: rank combination with
// bounded top-k selection (step 18) and per-activity access filtering (step
// 19). Under access control the cut to q.Limit waits until step 19 has
// dropped what the user may not see, so a page holds Limit visible
// activities whenever that many exist.
func (e *Engine) finishSearch(ctx context.Context, user access.User, q FormQuery, res *Result, acts map[string]*combinedAct, degrade func(cause string, err error)) {
	// Step 18: rank by the combined score.
	merge := obs.StartTimer()
	_, msp := trace.StartSpan(ctx, "search.combine")
	sw, dw := e.weights()
	all := make([]Activity, 0, len(acts))
	for dealID, c := range acts {
		all = append(all, Activity{
			DealID:        dealID,
			SynopsisScore: c.syn,
			DocScore:      c.doc,
			Score:         sw*c.syn + dw*c.doc,
			MatchedTowers: c.tws,
			Docs:          c.dcs,
		})
	}
	ranked, limit := len(all), q.Limit
	if e.Access != nil {
		limit = 0
	}
	res.Activities = topKActivities(all, limit)
	if msp != nil {
		msp.SetInt("combined", ranked)
		msp.SetBool("limit_truncated", ranked > len(res.Activities))
		msp.End()
	}
	e.observeStage(ctx, StageMerge, merge.Elapsed())

	// Step 19: present with proper access control.
	filter := obs.StartTimer()
	actx, asp := trace.StartSpan(ctx, "search.access")
	var levels []access.Level
	if e.Access != nil {
		ids := make([]string, len(res.Activities))
		for i, a := range res.Activities {
			ids[i] = a.DealID
		}
		var err error
		levels, err = e.Access.TryLevelsFor(actx, user, ids)
		if err != nil {
			// Entitlement resolution failed: degrade every activity to the
			// community-safe synopsis tier — contacts stay reachable, but
			// no documents are exposed on a guess.
			degrade(BackendAccess, err)
			res.Explain = append(res.Explain, "access control unavailable; degraded to synopsis-only")
			levels = make([]access.Level, len(ids))
			for i := range levels {
				levels[i] = access.LevelSynopsis
			}
		}
	}
	out := res.Activities[:0]
	synopsisOnly := 0
	for i, a := range res.Activities {
		if q.Limit > 0 && len(out) == q.Limit {
			break
		}
		level := access.LevelFull
		if levels != nil {
			level = levels[i]
		}
		a.Level = level
		switch {
		case level == access.LevelNone:
			continue // invisible
		case level == access.LevelSynopsis:
			a.Docs = nil // synopsis-plus-contacts fallback
			synopsisOnly++
		}
		deal, err := e.owner(a.DealID).Synopses.Get(a.DealID)
		if err == nil {
			a.Synopsis = &deal
		}
		out = append(out, a)
	}
	if asp != nil {
		asp.SetInt("in", len(res.Activities))
		asp.SetInt("visible", len(out))
		asp.SetInt("synopsis_only", synopsisOnly)
		asp.End()
	}
	res.Activities = out
	e.observeStage(ctx, StageAccess, filter.Elapsed())
}

// composeSynopsisQuery resolves concept criteria through the taxonomy and
// builds the structured query (Figure 1 step 2).
func (e *Engine) composeSynopsisQuery(q FormQuery) (synopsis.Query, []string) {
	var sq synopsis.Query
	var explain []string
	if q.Tower != "" && e.Tax != nil {
		tower, sub, ok := e.Tax.Resolve(q.Tower)
		if ok {
			sq.Tower = tower
			if sub != "" {
				sq.SubTower = sub
			}
			explain = append(explain, fmt.Sprintf("find deals with %s tower", tower))
		} else {
			// Unknown concept: fall back to the literal string so the
			// query simply matches nothing rather than erroring.
			sq.Tower = q.Tower
			explain = append(explain, fmt.Sprintf("find deals with unrecognized tower %q", q.Tower))
		}
	} else if q.Tower != "" {
		sq.Tower = q.Tower
	}
	if q.SubTower != "" {
		if e.Tax != nil {
			if tower, sub, ok := e.Tax.Resolve(q.SubTower); ok && sub != "" {
				sq.SubTower = sub
				if sq.Tower == "" {
					sq.Tower = tower
				}
			} else {
				sq.SubTower = q.SubTower
			}
		} else {
			sq.SubTower = q.SubTower
		}
	}
	sq.Industry = q.Industry
	sq.Consultant = q.Consultant
	sq.Geography = q.Geography
	sq.Country = q.Country
	sq.PersonName = q.PersonName
	sq.PersonOrg = q.PersonOrg
	if q.PersonName != "" || q.PersonOrg != "" {
		explain = append(explain, fmt.Sprintf("with people matching name=%q org=%q", q.PersonName, q.PersonOrg))
	}
	return sq, explain
}

// composeSIAPIQuery maps the text predicates onto index fields (Figure 1
// step 3).
func (e *Engine) composeSIAPIQuery(q FormQuery) siapi.Query {
	dq := siapi.Query{
		All:   q.AllWords,
		Exact: q.ExactPhrase,
		Any:   q.AnyWords,
		None:  q.NoneWords,
	}
	switch q.Target {
	case TargetTechSolution:
		dq.Fields = []string{"techsolution"}
	case TargetWinStrategy:
		dq.Fields = []string{"winstrategy"}
	case TargetTitle:
		dq.Fields = []string{siapi.FieldTitle}
	default:
		dq.Fields = nil // body + title
	}
	return dq
}

// Explore searches the documents of one business activity — the drill-down
// the methodology describes ("the user may further explore most relevant
// documents within a business activity based on its synopsis"). The user
// needs document-level access to the activity.
func (e *Engine) Explore(user access.User, dealID string, q FormQuery) ([]siapi.DocHit, error) {
	return e.ExploreCtx(context.Background(), user, dealID, q)
}

// ExploreCtx is Explore under the caller's context; the document search
// records spans when ctx carries a trace.
func (e *Engine) ExploreCtx(ctx context.Context, user access.User, dealID string, q FormQuery) ([]siapi.DocHit, error) {
	if e.Access != nil && !e.Access.CanSeeDocuments(user, dealID) {
		return nil, fmt.Errorf("core: %w for documents of %s", access.ErrDenied, dealID)
	}
	dq := e.composeSIAPIQuery(q)
	if dq.Empty() {
		return nil, fmt.Errorf("core: explore requires text criteria")
	}
	dq.Deals = []string{dealID}
	limit := q.Limit
	if limit <= 0 {
		limit = 20
	}
	ctx, cancel := e.envelope(ctx)
	defer cancel()
	// The activity's documents live wholly on the backend that owns it; in a
	// cluster they are scored against the merged statistics, so the scores
	// are the ones a monolith would give.
	owner := ShardFor(dealID, len(e.Backends))
	if len(e.Backends) == 1 {
		return e.docsOn(ctx, &e.Backends[0], dq, limit, nil, "")
	}
	epoch := e.ClusterEpoch()
	st, errs := e.clusterStats(ctx, dq, epoch)
	if errs[owner] != nil {
		return nil, errs[owner]
	}
	return onShard(ctx, e, "search.siapi.shard", owner, func(c context.Context, _ *trace.Span, i int) ([]siapi.DocHit, error) {
		return e.docsOn(c, &e.Backends[i], dq, limit, st, epoch)
	})
}

// envelope puts ctx under the engine's resilience envelope: the search
// budget becomes a context deadline that every backend attempt slices (see
// resilience.go), and an engine-configured fault injector (chaos benching)
// rides the context to the instrumented call sites.
func (e *Engine) envelope(ctx context.Context) (context.Context, context.CancelFunc) {
	cancel := context.CancelFunc(func() {})
	if r := e.resilience(); r.Budget > 0 {
		ctx, cancel = context.WithTimeout(ctx, r.Budget)
	}
	if e.Faults != nil {
		ctx = fault.With(ctx, e.Faults)
	}
	return ctx, cancel
}

// KeywordSearchCtx is the OmniFind-style search-box baseline the paper
// evaluates against (§4): kq, a parsed search-box query, runs over every
// document and returns documents, not activities, with no business context.
// One backend answers inline; several are scattered under merged statistics,
// so every score is the one a monolith gives, and their pages merge by score
// (ties by path). The baseline has no degraded flag: a failed backend costs
// only its own hits.
func (e *Engine) KeywordSearchCtx(ctx context.Context, kq siapi.Query, limit int) []siapi.DocHit {
	ctx, cancel := e.envelope(ctx)
	defer cancel()
	if len(e.Backends) == 1 {
		hits, _ := e.docsOn(ctx, &e.Backends[0], kq, limit, nil, "")
		return hits
	}
	return e.keywordScatter(ctx, kq, limit)
}

// KeywordCount reports how many documents kq matches — the "N documents
// returned" numbers quoted throughout the paper's §4. Backends hold
// disjoint partitions, so their counts add up to the monolith's.
func (e *Engine) KeywordCount(kq siapi.Query) int {
	n := 0
	for i := range e.Backends {
		n += e.Backends[i].Docs().Count(kq)
	}
	return n
}

// Deal fetches one deal synopsis from the backend that owns it, subject to
// the user's access level: a user with no access gets synopsis.ErrNotFound
// rather than existence disclosure.
func (e *Engine) Deal(user access.User, dealID string) (synopsis.Deal, error) {
	if e.Access != nil && !e.Access.CanSeeSynopsis(user, dealID) {
		return synopsis.Deal{}, fmt.Errorf("%w: %s", synopsis.ErrNotFound, dealID)
	}
	return e.owner(dealID).Synopses.Get(dealID)
}

// SimilarDeals finds the k activities most similar to dealID (services mix,
// industry, advisor) among those the user may at least see synopses of.
// Similarity is pairwise against the reference deal, so each backend ranks
// its own deals and the merged top k is the monolith's. Visibility is
// applied before each backend truncates to k, so hidden deals never take a
// visible deal's place.
func (e *Engine) SimilarDeals(user access.User, dealID string, k int) ([]synopsis.SimilarHit, error) {
	ref, err := e.Deal(user, dealID)
	if err != nil {
		return nil, err
	}
	var visible func(string) bool
	if e.Access != nil {
		visible = func(id string) bool { return e.Access.CanSeeSynopsis(user, id) }
	}
	if k <= 0 {
		k = 5
	}
	var hits []synopsis.SimilarHit
	for i := range e.Backends {
		page, err := e.Backends[i].Synopses.SimilarTo(ref, k, visible)
		if err != nil {
			return nil, err
		}
		hits = append(hits, page...)
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].DealID < hits[j].DealID
	})
	if len(hits) > k {
		hits = hits[:k]
	}
	return hits, nil
}
