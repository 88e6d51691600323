package core

// Backends, and the two backend stages of Figure 1 over them. The corpus is
// partitioned by hashed deal ID into N self-contained backends — each with
// its own index, synopsis store, and durability; a monolith is N = 1 — and a
// stage asks every backend that can hold an answer. With one backend that is
// a direct call. With several it is a parallel scatter: synopsis scatter, a
// global-statistics scatter (so BM25 scores match the monolithic engine
// bit-for-bit; see index/stats.go), and a document scatter scoped per shard
// to its own synopsis hits. Either way the stage normalizes once across
// everything it gathered, so every shape ranks exactly alike.
//
// Resilience is per backend: each one's synopsis and document hops get their
// own circuit breaker, each shard goroutine gets a deadline carved from the
// remaining search budget (80%, reserving coordinator headroom), and a
// straggling, dead, or breaker-open shard degrades the result — its deals
// drop to a reduced tier and the degraded flag is set — instead of failing
// the query. Which tier survives which outage is core.go's ladder.

import (
	"context"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/index"
	"repro/internal/lru"
	"repro/internal/obs"
	"repro/internal/siapi"
	"repro/internal/synopsis"
	"repro/internal/trace"
)

// ShardBackend is one self-contained backend: a synopsis store and a live
// document engine over the same partition of deals. Name is empty for the
// single backend of a monolith and the shard's name in a cluster. Docs is a
// getter so compaction can republish its engine atomically: a search in
// flight keeps the engine it loaded, new searches see the replacement.
// Faults, when set, rides every call to this backend and no other — chaos
// tests kill or slow one shard while the rest stay healthy.
type ShardBackend struct {
	Name     string
	Synopses *synopsis.Store
	Docs     func() *siapi.Engine
	Faults   *fault.Injector
}

// hopKey is the breaker and metric key of one hop on one backend: the hop
// alone on a monolith's unnamed backend ("siapi"), "<hop>#<shard>" in a
// cluster ("siapi#shard-2"), so one dead shard trips only its own circuit.
func hopKey(hop, shard string) string {
	if shard == "" {
		return hop
	}
	return hop + "#" + shard
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

// owner returns the backend that owns dealID.
func (e *Engine) owner(dealID string) *ShardBackend {
	return &e.Backends[ShardFor(dealID, len(e.Backends))]
}

// ShardForDoc routes a document: by its deal when it has one, by its path
// otherwise (deal-less documents have no cross-shard grouping to keep).
func ShardForDoc(dealID, path string, n int) int {
	if dealID == "" {
		return ShardFor(path, n)
	}
	return ShardFor(dealID, n)
}

// statsMemoSize bounds the coordinator's merged-stats memo.
const statsMemoSize = 128

// shardCtx derives one shard's scatter context: a per-shard deadline
// carved from the remaining search budget (80% of what is left, reserving
// headroom for the coordinator's merge and access stages after the
// slowest shard reports).
func shardCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	deadline, ok := ctx.Deadline()
	if !ok {
		return ctx, func() {}
	}
	remaining := time.Until(deadline)
	slice := remaining - remaining/5
	if slice < time.Millisecond {
		slice = time.Millisecond
	}
	return context.WithDeadline(ctx, time.Now().Add(slice))
}

// outcome is what a backend stage reports to the ladder beside its hits:
// how many of the backends it asked answered, how many failed, which, and
// the first failure.
type outcome struct {
	ok, failed int
	down       []bool // by backend index; nil while none has failed
	err        error
}

func (o *outcome) add(e *Engine, i int, err error) {
	if err == nil {
		o.ok++
		return
	}
	o.failed++
	if o.down == nil {
		o.down = make([]bool, len(e.Backends))
	}
	o.down[i] = true
	if o.err == nil {
		o.err = err
	}
}

// onShard runs fn against shard i of a cluster under what every per-shard
// hop gets: a child span, a deadline slice and the eil_shard_search_*
// metrics.
func onShard[T any](ctx context.Context, e *Engine, span string, i int, fn func(ctx context.Context, sp *trace.Span, i int) (T, error)) (T, error) {
	sb := &e.Backends[i]
	t := obs.StartTimer()
	sctx, sp := trace.StartSpan(ctx, span)
	sctx, cancel := shardCtx(sctx)
	defer cancel()
	out, err := fn(sctx, sp, i)
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
	return out, err
}

// shardOut carries one shard's scatter result.
type shardOut[T any] struct {
	out T
	err error
}

// scatterShards runs fn on every shard of a cluster that want names (nil
// wants them all), each on its own goroutine under onShard, and gathers the
// results in shard order; an unwanted shard's slot stays zero.
func scatterShards[T any](ctx context.Context, e *Engine, span string, want []bool, fn func(ctx context.Context, sp *trace.Span, i int) (T, error)) []shardOut[T] {
	outs := make([]shardOut[T], len(e.Backends))
	var wg sync.WaitGroup
	for i := range e.Backends {
		if want != nil && !want[i] {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i].out, outs[i].err = onShard(ctx, e, span, i, fn)
		}(i)
	}
	wg.Wait()
	return outs
}

// ClusterEpoch joins every shard's index generation into one cache-epoch
// string: a write on any shard yields a new epoch, so stats-scored cache
// entries (keyed on it) can never serve scores computed against a stale
// cluster state.
func (e *Engine) ClusterEpoch() string {
	var b strings.Builder
	for i := range e.Backends {
		if i > 0 {
			b.WriteByte('-')
		}
		b.WriteString(strconv.FormatUint(e.Backends[i].Docs().Generation(), 10))
	}
	return b.String()
}

// clusterStats runs the statistics phase of the two-phase scoring
// protocol: scatter per-shard stats collection for dq, merge. Per-shard
// failures come back in errs (the caller treats a shard that cannot
// report stats as down for the whole document stage); the merged table is
// memoized per query and cluster epoch, but only when every shard
// reported — a partial table must not be served to later healthy
// searches. One backend's own statistics are the global ones, so no caller
// runs this phase for a monolith.
func (e *Engine) clusterStats(ctx context.Context, dq siapi.Query, epoch string) (*index.Stats, []error) {
	e.statsOnce.Do(func() {
		e.statsMemo = lru.New[string, *index.Stats](statsMemoSize)
	})
	errs := make([]error, len(e.Backends))
	key := siapi.Key(dq) + "|" + epoch
	if st, ok := e.statsMemo.Get(key); ok {
		e.Metrics.Counter("shard_stats_cache_hits_total").Inc()
		return st, errs
	}
	e.Metrics.Counter("shard_stats_cache_misses_total").Inc()
	outs := scatterShards(ctx, e, "search.siapi.stats", nil, func(c context.Context, _ *trace.Span, i int) (*index.Stats, error) {
		sb := &e.Backends[i]
		return resilientCall(c, e, BackendSIAPI, sb, func(cc context.Context) (*index.Stats, error) {
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
		e.statsMemo.Put(key, merged)
	}
	return merged, errs
}

// synopsisOn runs the synopsis query on one backend behind the resilience
// wrapper — breaker admission, budget-sliced attempt deadlines, bounded
// retry — and records on the backend's span whether the store's memo served
// it.
func (e *Engine) synopsisOn(ctx context.Context, sp *trace.Span, b *ShardBackend, sq synopsis.Query) ([]synopsis.Hit, error) {
	type synOut struct {
		hits   []synopsis.Hit
		cached bool
	}
	out, err := resilientCall(ctx, e, BackendSynopsis, b, func(c context.Context) (synOut, error) {
		hits, cached, err := e.synopsisSearch(c, b.Synopses, sq)
		return synOut{hits, cached}, err
	})
	sp.SetBool("cache_hit", out.cached)
	sp.SetInt("hits", len(out.hits))
	return out.hits, err
}

// synopsisStage is Figure 1 step 4: the synopsis query on every backend,
// hits united in backend order.
func (e *Engine) synopsisStage(ctx context.Context, sq synopsis.Query) ([]synopsis.Hit, outcome) {
	t := obs.StartTimer()
	sctx, sp := trace.StartSpan(ctx, "search.synopsis")
	var hits []synopsis.Hit
	var o outcome
	if len(e.Backends) == 1 {
		var err error
		hits, err = e.synopsisOn(sctx, sp, &e.Backends[0], sq)
		o.add(e, 0, err)
	} else {
		sq := sq // what the goroutines capture is this copy: the one-backend path keeps its query on the stack
		outs := scatterShards(sctx, e, "search.synopsis.shard", nil, func(c context.Context, ssp *trace.Span, i int) ([]synopsis.Hit, error) {
			return e.synopsisOn(c, ssp, &e.Backends[i], sq)
		})
		for i, r := range outs {
			o.add(e, i, r.err)
			hits = append(hits, r.out...)
		}
		sp.SetInt("hits", len(hits))
		sp.SetInt("shards_failed", o.failed)
	}
	if sp != nil {
		if o.err != nil {
			sp.Set("error", o.err.Error())
		}
		sp.End()
	}
	e.observeStage(ctx, StageSynopsis, t.Elapsed())
	return hits, o
}

// activitiesOn runs one backend's activity search behind the resilience
// wrapper. Scores come back raw, so the stage can normalize once against
// the best activity of every backend; st and epoch are the merged
// statistics of a cluster, nil and "" for a backend that scores alone.
func (e *Engine) activitiesOn(ctx context.Context, b *ShardBackend, dq siapi.Query, perDeal int, st *index.Stats, epoch string) ([]siapi.ActivityHit, error) {
	return resilientCall(ctx, e, BackendSIAPI, b, func(c context.Context) ([]siapi.ActivityHit, error) {
		return b.Docs().TrySearchActivitiesRawCtx(c, dq, perDeal, st, epoch)
	})
}

// docsOn runs one backend's document search (keyword search, explore)
// behind the resilience wrapper; st and epoch are as for activitiesOn.
func (e *Engine) docsOn(ctx context.Context, b *ShardBackend, dq siapi.Query, limit int, st *index.Stats, epoch string) ([]siapi.DocHit, error) {
	return resilientCall(ctx, e, BackendSIAPI, b, func(c context.Context) ([]siapi.DocHit, error) {
		return b.Docs().TrySearchStatsCtx(c, dq, limit, st, epoch)
	})
}

// keywordScatter is the keyword search over several backends: the merged
// statistics (memoized like the form search's), then every backend whose
// statistics arrived asked for its top limit, and the pages merged by score
// descending, ties by path.
func (e *Engine) keywordScatter(ctx context.Context, kq siapi.Query, limit int) []siapi.DocHit {
	epoch := e.ClusterEpoch()
	st, statsErrs := e.clusterStats(ctx, kq, epoch)
	outs := scatterShards(ctx, e, "search.keyword.shard", nil, func(c context.Context, _ *trace.Span, i int) ([]siapi.DocHit, error) {
		if statsErrs[i] != nil {
			return nil, statsErrs[i]
		}
		return e.docsOn(c, &e.Backends[i], kq, limit, st, epoch)
	})
	var hits []siapi.DocHit
	for _, r := range outs {
		hits = append(hits, r.out...)
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].Path < hits[j].Path
	})
	if limit > 0 && len(hits) > limit {
		hits = hits[:limit]
	}
	return hits
}

// siapiStage is the document search of Figure 1 (step 8 when scope holds
// the synopsis hits to restrict it to, steps 13-15 when scope is nil). Each
// backend is asked only about its own deals in scope — a deal's documents
// live wholly on the backend that owns it, so the union equals one scoped
// search over everything — and a backend with none is not asked at all.
func (e *Engine) siapiStage(ctx context.Context, dq siapi.Query, scope []synopsis.Hit, perDeal int) ([]siapi.ActivityHit, outcome) {
	t := obs.StartTimer()
	sctx, sp := trace.StartSpan(ctx, "search.siapi")
	n := len(e.Backends)
	var docActs []siapi.ActivityHit
	var o outcome
	if n == 1 {
		for _, h := range scope {
			dq.Deals = append(dq.Deals, h.DealID)
		}
		var err error
		docActs, err = e.activitiesOn(sctx, &e.Backends[0], dq, perDeal, nil, "")
		o.add(e, 0, err)
	} else {
		dq := dq // as in synopsisStage: only the scatter pays a heap copy
		epoch := e.ClusterEpoch()
		st, statsErrs := e.clusterStats(sctx, dq, epoch)
		var deals [][]string
		var want []bool
		if scope != nil {
			deals, want = make([][]string, n), make([]bool, n)
			for _, h := range scope {
				i := ShardFor(h.DealID, n)
				deals[i], want[i] = append(deals[i], h.DealID), true
			}
		}
		outs := scatterShards(sctx, e, "search.siapi.shard", want, func(c context.Context, _ *trace.Span, i int) ([]siapi.ActivityHit, error) {
			if statsErrs[i] != nil {
				return nil, statsErrs[i]
			}
			sdq := dq
			if scope != nil {
				sdq.Deals = deals[i]
			}
			return e.activitiesOn(c, &e.Backends[i], sdq, perDeal, st, epoch)
		})
		for i, r := range outs {
			if want == nil || want[i] {
				o.add(e, i, r.err)
				docActs = append(docActs, r.out...)
			}
		}
		sp.SetInt("shards_failed", o.failed)
	}
	// One normalization against the best activity of every backend: the
	// single maxAvg a monolithic index computes.
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
		sp.SetBool("scoped", scope != nil)
		sp.SetInt("scope_deals", len(scope))
		sp.SetInt("activities", len(docActs))
		if o.err != nil {
			sp.Set("error", o.err.Error())
		}
		sp.End()
	}
	e.observeStage(ctx, StageSIAPI, t.Elapsed())
	return docActs, o
}
