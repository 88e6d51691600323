package core

// Sharded scatter-gather search. The corpus is partitioned by hashed deal
// ID into N self-contained shards — each with its own index, synopsis
// store, and durability — and the Figure-1 search path fans every stage
// out per shard: synopsis scatter, a global-statistics scatter (so BM25
// scores match the monolithic engine bit-for-bit; see index/stats.go),
// and a document scatter scoped per shard to its own synopsis hits. The
// coordinator merges with a single cluster-wide normalization and a
// bounded top-k heap, reproducing the single-engine ranking exactly.
//
// Resilience generalizes from "2 backends" to N shards: each shard's
// synopsis and document hops get their own circuit breaker
// ("<backend>#<shard>"), each shard goroutine gets a deadline carved from
// the remaining search budget (80%, reserving coordinator headroom), and
// a straggling, dead, or breaker-open shard degrades the result — its
// deals drop to a reduced tier and the degraded flag is set — instead of
// failing the query. Only a total outage of a stage with no tier left to
// serve surfaces as an error, mirroring the monolithic degradation
// ladder.

import (
	"context"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/access"
	"repro/internal/fault"
	"repro/internal/index"
	"repro/internal/lru"
	"repro/internal/obs"
	"repro/internal/siapi"
	"repro/internal/synopsis"
	"repro/internal/trace"
)

// ShardBackend is one self-contained shard: a synopsis store and a live
// document engine over the same partition of deals. Docs is a getter so
// per-shard compaction can republish its engine atomically (the same
// SwapDocs discipline the monolith uses). Faults, when set, is attached
// to this shard's scatter goroutines only — chaos tests kill or slow one
// shard while the rest stay healthy.
type ShardBackend struct {
	Name     string
	Synopses *synopsis.Store
	Docs     func() *siapi.Engine
	Faults   *fault.Injector
}

// ShardFor returns the shard owning dealID among n shards: FNV-1a over
// the deal ID, mod n. The hash is stable across processes and platforms,
// so a persisted cluster routes identically on every load.
func ShardFor(dealID string, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(dealID))
	return int(h.Sum32() % uint32(n))
}

// ShardForDoc routes a document: by its deal when it has one, by its path
// otherwise (deal-less documents have no cross-shard grouping to keep).
func ShardForDoc(dealID, path string, n int) int {
	if dealID == "" {
		return ShardFor(path, n)
	}
	return ShardFor(dealID, n)
}

// Sharded reports whether this engine coordinates shards.
func (e *Engine) Sharded() bool { return len(e.Shards) > 0 }

// statsMemoSize bounds the coordinator's merged-stats memo.
const statsMemoSize = 128

// shardCtx derives one shard's scatter context: a per-shard deadline
// carved from the remaining search budget (80% of what is left, reserving
// headroom for the coordinator's merge and access stages after the
// slowest shard reports), plus the shard's fault injector when set.
func shardCtx(ctx context.Context, sb *ShardBackend) (context.Context, context.CancelFunc) {
	cancel := context.CancelFunc(func() {})
	if deadline, ok := ctx.Deadline(); ok {
		remaining := time.Until(deadline)
		slice := remaining - remaining/5
		if slice < time.Millisecond {
			slice = time.Millisecond
		}
		ctx, cancel = context.WithDeadline(ctx, time.Now().Add(slice))
	}
	if sb.Faults != nil {
		ctx = fault.With(ctx, sb.Faults)
	}
	return ctx, cancel
}

// shardOut carries one shard's scatter result.
type shardOut[T any] struct {
	out T
	err error
}

// scatterShards fans fn out to every shard on its own goroutine — each
// under a per-shard child span, deadline, fault injector, and
// eil_shard_search_* metrics — and gathers results in shard order.
func scatterShards[T any](ctx context.Context, e *Engine, span string, fn func(ctx context.Context, i int, sb *ShardBackend) (T, error)) []shardOut[T] {
	outs := make([]shardOut[T], len(e.Shards))
	var wg sync.WaitGroup
	for i := range e.Shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sb := &e.Shards[i]
			t := obs.StartTimer()
			sctx, sp := trace.StartSpan(ctx, span)
			sctx, cancel := shardCtx(sctx, sb)
			defer cancel()
			out, err := fn(sctx, i, sb)
			d := t.Elapsed()
			e.Metrics.Counter("eil_shard_search_total", "shard", sb.Name).Inc()
			if err != nil {
				e.Metrics.Counter("eil_shard_search_errors_total", "shard", sb.Name).Inc()
			}
			e.Metrics.Histogram("eil_shard_search_seconds", nil, "shard", sb.Name).ObserveDurationWithExemplar(d, trace.ID(sctx))
			if sp != nil {
				sp.Set("shard", sb.Name)
				if err != nil {
					sp.Set("error", err.Error())
				}
				sp.End()
			}
			outs[i] = shardOut[T]{out, err}
		}(i)
	}
	wg.Wait()
	return outs
}

// clusterEpoch joins every shard's index generation into one cache-epoch
// string: a write on any shard yields a new epoch, so stats-scored cache
// entries (keyed on it) can never serve scores computed against a stale
// cluster state.
func (e *Engine) clusterEpoch() string {
	var b strings.Builder
	for i := range e.Shards {
		if i > 0 {
			b.WriteByte('-')
		}
		b.WriteString(strconv.FormatUint(e.Shards[i].Docs().Generation(), 10))
	}
	return b.String()
}

// clusterStats runs the statistics phase of the two-phase scoring
// protocol: scatter per-shard stats collection for dq, merge. Per-shard
// failures come back in errs (the caller treats a shard that cannot
// report stats as down for the whole document stage); the merged table is
// memoized per query and cluster epoch, but only when every shard
// reported — a partial table must not be served to later healthy
// searches.
func (e *Engine) clusterStats(ctx context.Context, dq siapi.Query, epoch string) (*index.Stats, []error) {
	e.statsOnce.Do(func() {
		e.statsMemo = lru.New[string, *index.Stats](statsMemoSize)
	})
	errs := make([]error, len(e.Shards))
	key := siapi.Key(dq) + "|" + epoch
	if st, ok := e.statsMemo.Get(key, 0); ok {
		e.Metrics.Counter("shard_stats_cache_hits_total").Inc()
		return st, errs
	}
	e.Metrics.Counter("shard_stats_cache_misses_total").Inc()
	outs := scatterShards(ctx, e, "search.siapi.stats", func(c context.Context, i int, sb *ShardBackend) (*index.Stats, error) {
		return resilientCall(c, e, shardBreakerName(BackendSIAPI, sb.Name), func(cc context.Context) (*index.Stats, error) {
			return sb.Docs().TryCollectStatsCtx(cc, dq)
		})
	})
	var merged *index.Stats
	complete := true
	for i, r := range outs {
		if r.err != nil {
			errs[i] = r.err
			complete = false
			continue
		}
		if merged == nil {
			merged = r.out
		} else {
			merged.Merge(r.out)
		}
	}
	if complete && merged != nil {
		e.statsMemo.Put(key, 0, merged)
	}
	return merged, errs
}

// searchSharded is the Figure-1 search path as a parallel scatter-gather
// over e.Shards. It mirrors the monolithic search() stage for stage; the
// differential suite holds the two paths to identical rankings.
func (e *Engine) searchSharded(ctx context.Context, user access.User, q FormQuery) (Result, error) {
	var res Result
	n := len(e.Shards)
	if r := e.resilience(); r.Budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.Budget)
		defer cancel()
	}
	if e.Faults != nil {
		ctx = fault.With(ctx, e.Faults)
	}
	degrade := func(cause string, err error) {
		res.Degraded = true
		res.DegradedCauses = append(res.DegradedCauses, cause)
		e.Metrics.Counter("search_degraded_total", "cause", cause).Inc()
		root := trace.FromContext(ctx)
		root.SetBool("degraded", true)
		root.Set("degraded_"+cause, err.Error())
	}

	// Steps 1-3: compose both queries (coordinator-local, not sharded).
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

	// Step 4: synopsis scatter. Hits union in shard order; a failed shard
	// costs only its own deals unless every shard is down.
	var synHits []synopsis.Hit
	synDown := false
	if !sq.Empty() {
		t := obs.StartTimer()
		sctx, sp := trace.StartSpan(ctx, "search.synopsis")
		type synOut struct {
			hits   []synopsis.Hit
			cached bool
		}
		outs := scatterShards(sctx, e, "search.synopsis.shard", func(c context.Context, i int, sb *ShardBackend) (synOut, error) {
			return resilientCall(c, e, shardBreakerName(BackendSynopsis, sb.Name), func(cc context.Context) (synOut, error) {
				hits, cached, err := e.synopsisSearch(cc, sb.Synopses, sq)
				return synOut{hits, cached}, err
			})
		})
		okCount, failCount := 0, 0
		var firstErr error
		for _, r := range outs {
			if r.err != nil {
				failCount++
				if firstErr == nil {
					firstErr = r.err
				}
				continue
			}
			okCount++
			synHits = append(synHits, r.out.hits...)
		}
		if sp != nil {
			sp.SetInt("hits", len(synHits))
			sp.SetInt("shards_failed", failCount)
			if firstErr != nil {
				sp.Set("error", firstErr.Error())
			}
			sp.End()
		}
		e.observeStage(ctx, StageSynopsis, t.Elapsed())
		switch {
		case failCount == 0:
			res.Explain = append(res.Explain, fmt.Sprintf("synopsis query matched %d activities", len(synHits)))
		case okCount == 0 && dq.Empty():
			// Concept-only query with every synopsis shard down: no tier
			// left to serve.
			return res, &BackendError{Backend: BackendSynopsis, Err: firstErr}
		case okCount == 0:
			synDown = true
			degrade(BackendSynopsis, firstErr)
			res.Explain = append(res.Explain, "synopsis backend unavailable; degraded to unscoped full-text")
		default:
			// Partial harvest: the surviving shards' business context still
			// scopes the search; the dead shards' deals are simply absent.
			degrade(BackendSynopsis, firstErr)
			res.Explain = append(res.Explain, fmt.Sprintf("%d of %d synopsis shards unavailable; serving partial business context", failCount, n))
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

	// shardedSIAPIStage scatters the two-phase document search: global
	// stats, then per-shard activity search. When scoping is on, each
	// shard's query is restricted to its own synopsis-hit deals (a deal's
	// documents live wholly on its shard, so the union equals the
	// monolithic scoped search). failedShards reports which shards
	// returned nothing; merged activity hits carry raw (unnormalized)
	// cluster-scored averages.
	shardedSIAPIStage := func(scoping bool) (docActs []siapi.ActivityHit, failedShards []bool, okCount, failCount int, firstErr error) {
		perDeal := q.DocsPerDeal
		if perDeal <= 0 {
			perDeal = 5
		}
		t := obs.StartTimer()
		sctx, sp := trace.StartSpan(ctx, "search.siapi")
		epoch := e.clusterEpoch()
		st, statsErrs := e.clusterStats(sctx, dq, epoch)
		var dealsByShard [][]string
		relevant := make([]bool, n)
		for i := range relevant {
			relevant[i] = true
		}
		if scoping {
			dealsByShard = make([][]string, n)
			for _, h := range synHits {
				i := ShardFor(h.DealID, n)
				dealsByShard[i] = append(dealsByShard[i], h.DealID)
			}
			for i := range relevant {
				relevant[i] = len(dealsByShard[i]) > 0
			}
		}
		outs := scatterShards(sctx, e, "search.siapi.shard", func(c context.Context, i int, sb *ShardBackend) ([]siapi.ActivityHit, error) {
			if !relevant[i] {
				return nil, nil
			}
			if statsErrs[i] != nil {
				return nil, statsErrs[i]
			}
			sdq := dq
			if scoping {
				sdq.Deals = dealsByShard[i]
			}
			return resilientCall(c, e, shardBreakerName(BackendSIAPI, sb.Name), func(cc context.Context) ([]siapi.ActivityHit, error) {
				return sb.Docs().TrySearchActivitiesRawCtx(cc, sdq, perDeal, st, epoch)
			})
		})
		failedShards = make([]bool, n)
		for i, r := range outs {
			if !relevant[i] {
				continue
			}
			if r.err != nil {
				failCount++
				failedShards[i] = true
				if firstErr == nil {
					firstErr = r.err
				}
				continue
			}
			okCount++
			docActs = append(docActs, r.out...)
		}
		// Coordinator normalization: one cluster-wide best activity, the
		// same single maxAvg the monolithic engine computes.
		maxAvg := 0.0
		for _, da := range docActs {
			if da.Score > maxAvg {
				maxAvg = da.Score
			}
		}
		if maxAvg > 0 {
			for i := range docActs {
				docActs[i].Score /= maxAvg
			}
		}
		if sp != nil {
			sp.SetBool("scoped", scoping)
			sp.SetInt("activities", len(docActs))
			sp.SetInt("shards_failed", failCount)
			if firstErr != nil {
				sp.Set("error", firstErr.Error())
			}
			sp.End()
		}
		e.observeStage(ctx, StageSIAPI, t.Elapsed())
		return docActs, failedShards, okCount, failCount, firstErr
	}

	switch {
	case len(synHits) > 0: // steps 5-11
		if !dq.Empty() {
			docActs, failedShards, okCount, failCount, err := shardedSIAPIStage(!e.DisableScoping)
			if failCount > 0 {
				degrade(BackendSIAPI, err)
				if okCount == 0 {
					// Every relevant document shard down with the synopsis
					// side healthy: serve the synopsis-plus-contacts tier.
					res.Explain = append(res.Explain, "document index unavailable; degraded to synopsis-plus-contacts")
					for _, h := range synHits {
						addSyn(h)
					}
					break
				}
				// Partial outage: only the dead shards' deals drop to the
				// synopsis tier; surviving shards keep their documents.
				res.Explain = append(res.Explain, fmt.Sprintf("%d document shards unavailable; affected activities degraded to synopsis-plus-contacts", failCount))
				for _, h := range synHits {
					if failedShards[ShardFor(h.DealID, n)] {
						addSyn(h)
					}
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
		} else {
			// Step 11: R <- S.
			for _, h := range synHits {
				addSyn(h)
			}
		}
	case !dq.Empty(): // steps 13-15: unscoped SIAPI fallback
		if !sq.Empty() && !synDown {
			res.Explain = append(res.Explain, "concept criteria matched no activities")
			break
		}
		docActs, _, okCount, failCount, err := shardedSIAPIStage(false)
		if okCount == 0 {
			// Every serving tier is gone: surface the outage.
			return res, &BackendError{Backend: BackendSIAPI, Err: err}
		}
		if failCount > 0 {
			degrade(BackendSIAPI, err)
			res.Explain = append(res.Explain, fmt.Sprintf("%d of %d document shards unavailable; serving partial results", failCount, n))
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

// exploreSharded drills into one activity's documents on its owning
// shard, scored against cluster-global statistics so the hit scores match
// what the monolithic engine would return.
func (e *Engine) exploreSharded(ctx context.Context, dealID string, dq siapi.Query, limit int) ([]siapi.DocHit, error) {
	epoch := e.clusterEpoch()
	st, errs := e.clusterStats(ctx, dq, epoch)
	i := ShardFor(dealID, len(e.Shards))
	if errs[i] != nil {
		return nil, errs[i]
	}
	sb := &e.Shards[i]
	sctx, sp := trace.StartSpan(ctx, "search.siapi.shard")
	sctx, cancel := shardCtx(sctx, sb)
	defer cancel()
	hits, err := resilientCall(sctx, e, shardBreakerName(BackendSIAPI, sb.Name), func(c context.Context) ([]siapi.DocHit, error) {
		return sb.Docs().TrySearchStatsCtx(c, dq, limit, st, epoch)
	})
	if sp != nil {
		sp.Set("shard", sb.Name)
		if err != nil {
			sp.Set("error", err.Error())
		}
		sp.End()
	}
	return hits, err
}
