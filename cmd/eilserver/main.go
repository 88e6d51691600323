// Command eilserver serves EIL over HTTP: an HTML search editor (the Lotus
// Notes GUI substitute) and a JSON API. It loads a persisted system or, with
// -demo, generates and ingests a synthetic corpus on startup.
//
// Observability: every route is wrapped with request/latency metrics,
// served at /metrics (Prometheus text exposition) and /api/metrics (JSON);
// request traces are sampled per -trace-sample and browsable at
// /debug/traces and /debug/trace/{id} (an inbound X-Trace-ID is adopted and
// echoed; ?explain=1 on /api/search returns the span tree and score
// decomposition); -pprof mounts net/http/pprof under /debug/pprof/;
// -access-log emits one structured log line per request. The trace ring is
// also the query log, summarized at /api/qlog; SIGINT/SIGTERM drain in-flight
// requests before exit so metrics and traces are not torn down mid-request.
//
// Durability: -wal journals every incremental update (AddDocuments,
// RemoveDeal, Compact) into the system directory before acknowledging it;
// after a crash, the next load replays the journal on top of the last
// committed snapshot. -snapshot-interval checkpoints the system periodically
// (each checkpoint commits a new generation and truncates the journal), and
// a graceful shutdown commits a final generation.
//
// Usage:
//
//	eilserver -sys ./eilsys -addr :8080
//	eilserver -demo -addr :8080 -wal -snapshot-interval 5m
//	eilserver -demo -addr :8080 -pprof -access-log
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/docmodel"
	"repro/internal/docparse"
	"repro/internal/failover"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/serving"
	"repro/internal/slo"
	"repro/internal/trace"
	"repro/internal/web"
)

// churnDocs builds one synthetic deal's documents for -demo-churn write
// traffic: enough structure (overview, scope, team, service grid) to
// exercise the full analysis/index/synopsis apply path on every batch.
func churnDocs(dealID string, round int) ([]*docmodel.Document, error) {
	files := []struct{ name, content string }{
		{"overview.txt", fmt.Sprintf("Deal Overview\nCustomer: Churn Corp %d\nIndustry: Retail\nTotal Contract Value: over 100M\nScope summary: Network Services.\n", round)},
		{"scope.deck", "# Services Scope Baseline\n- Network Services\n- Voice Services coverage\n"},
		{"team.grid", "GRID Deal Team Roster\nName | Role | Email | Phone\nChurn Person | CSE | churn.person@example.com |\n"},
		{"tsa-1.grid", fmt.Sprintf("GRID Network Services Service Details\nService Item | cross tower TSA | Notes\nNetwork Services item %d | | pending\n", round)},
	}
	var docs []*docmodel.Document
	for _, f := range files {
		doc, err := docparse.Parse(dealID+"/"+f.name, f.content)
		if err != nil {
			return nil, err
		}
		doc.DealID = dealID
		docs = append(docs, doc)
	}
	return docs, nil
}

// churnAdmin probes the serving state for churn deals; an admin sees every
// deal whatever -access-control says.
var churnAdmin = access.User{ID: "demo-churn", Roles: []access.Role{access.RoleAdmin}}

// churnWindow is how many churn deals are live at once: each add removes the
// deal this many numbers older.
const churnWindow = 10

// churner is the -demo-churn write traffic: a rotating window of synthetic
// deals, so replication demos have a continuous journal stream of both
// AddDocuments and RemoveDeal.
type churner struct {
	be serving.Backend
	// primary reports whether this process may write now; a failover
	// follower's writes could only be refused, after its promotion window.
	primary func() bool
	last    int // the highest churn deal this churner added or found held
}

func churnID(n int) string { return fmt.Sprintf("CHURN DEAL %d", n) }

// holds reports whether the serving state holds churn deal n.
func (c *churner) holds(n int) bool {
	_, err := c.be.Deal(churnAdmin, churnID(n))
	return err == nil
}

// step adds the next churn deal and removes the one churnWindow numbers
// older, if the state holds it; it does nothing while the process is not the
// primary. The number continues past the highest churn deal the state holds —
// held deals lie at most churnWindow apart, so the scan stops after that many
// misses in a row — so a node promoted over a state another process churned
// does not re-add its deals. A refused add still removes: the window moves.
func (c *churner) step() {
	if !c.primary() {
		return
	}
	for k, miss := c.last+1, 0; miss <= churnWindow; k++ {
		if c.holds(k) {
			c.last, miss = k, 0
		} else {
			miss++
		}
	}
	n := c.last + 1
	docs, err := churnDocs(churnID(n), n)
	if err == nil {
		err = c.be.AddDocuments(docs)
	}
	if err != nil {
		log.Printf("churn: add %s: %v", churnID(n), err)
	} else {
		c.last = n
	}
	if old := n - churnWindow; old > 0 && c.holds(old) {
		if err := c.be.RemoveDeal(churnID(old)); err != nil {
			log.Printf("churn: remove %s: %v", churnID(old), err)
		}
	}
}

// runChurn steps a churner over be every interval until ctx is done.
func runChurn(ctx context.Context, be serving.Backend, primary func() bool, every time.Duration) {
	c := &churner{be: be, primary: primary}
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			c.step()
		}
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("eilserver: ")
	var (
		sysDir    = flag.String("sys", "eilsys", "system directory written by eilingest")
		addr      = flag.String("addr", ":8080", "listen address")
		demo      = flag.Bool("demo", false, "ignore -sys; generate and ingest a demo corpus")
		shards    = flag.Int("shards", 1, "partition the demo corpus into N scatter-gather shards (persisted directories carry their own shard count)")
		secure    = flag.Bool("access-control", false, "enforce role-based access (default: everyone sees everything)")
		pprofOn   = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		accessLog = flag.Bool("access-log", false, "log every request (structured, to stderr)")
		drain     = flag.Duration("shutdown-timeout", 10*time.Second, "graceful-shutdown drain window")

		traceSample = flag.Int("trace-sample", 1, "trace 1 in N requests (1 = every request, 0 disables tracing)")
		traceRing   = flag.Int("trace-ring", trace.DefRingSize, "recent completed traces retained for /debug/traces and the query log at /api/qlog")
		traceSlow   = flag.Int("trace-slow", trace.DefSlowPerRoute, "slowest traces retained per route")

		snapInterval = flag.Duration("snapshot-interval", 0, "checkpoint the system to -sys every interval (0 disables background snapshots)")
		snapKeep     = flag.Int("snapshot-keep", 0, "committed snapshot generations retained as corruption fallbacks (0 = default)")
		walOn        = flag.Bool("wal", false, "journal every update to -sys before acknowledging it (crash recovery replays the journal)")
		walSync      = flag.Int("wal-sync-every", 1, "fsync the journal every N records (1 = every record; higher trades durability for throughput)")

		budget    = flag.Duration("search-budget", 0, "total time budget per search; backend attempts get slices of it (0 = unbounded)")
		retries   = flag.Int("search-retries", 1, "retries per failed backend call within the budget")
		faultSpec = flag.String("fault-spec", "", "inject backend faults, e.g. 'synopsis.search:error:p=0.01;siapi.search:slow:25ms' (chaos testing)")
		faultSeed = flag.Uint64("fault-seed", 1, "seed for fault-injection randomness")

		sloAvail = flag.Float64("slo-availability", 0.999, "per-route availability objective (fraction of non-5xx responses)")
		sloP99   = flag.Duration("slo-latency-p99", 250*time.Millisecond, "per-route p99 latency objective")
		maxGoros = flag.Int("max-goroutines", 0, "goroutine watermark for the readiness check (0 = default 10000)")

		replListen = flag.String("repl-listen", "", "ship the write-ahead journal to read replicas connecting on this address (requires -wal)")
		replicaOf  = flag.String("replica-of", "", "run as a read replica: bootstrap from the primary's -repl-listen address and keep replaying its journal into -sys")
		replName   = flag.String("repl-name", "", "follower identity reported to the primary (default follower-<pid>)")
		maxLag     = flag.Uint64("max-lag", 4096, "follower staleness bound in journal records: beyond it /readyz fails, so a balancer polling it drains this replica (0 = unbounded)")
		churn      = flag.Duration("demo-churn", 0, "with -demo: apply a synthetic document batch every interval (write traffic for replication demos; 0 disables)")

		failoverOn = flag.Bool("failover", false, "manage this node's primary/follower role through the fencing-epoch protocol: promotions bump a durable epoch, stale primaries are fenced (single-system only; requires -repl-listen for the address this node ships from while primary)")
		leaseDir   = flag.String("lease-dir", "", "shared lease directory for automatic failover: the primary renews lease.json here, a follower that sees it go stale claims the next epoch and self-promotes (requires -failover)")
		leaseTTL   = flag.Duration("lease-ttl", 3*time.Second, "lease staleness bound: a dead primary is replaced within roughly this window")
	)
	flag.Parse()

	// Log the build identity and the effective configuration up front: the
	// first question about any misbehaving instance is "what exactly is
	// running, with which flags".
	goVer, rev, vcsTime, modified := obs.Info()
	if rev == "" {
		rev = "unknown"
	} else if modified {
		rev += "+dirty"
	}
	log.Printf("build: %s, revision %s %s", goVer, rev, vcsTime)
	flag.VisitAll(func(f *flag.Flag) {
		log.Printf("flag: -%s=%s", f.Name, f.Value)
	})

	if *leaseDir != "" && !*failoverOn {
		log.Fatal("-lease-dir requires -failover")
	}

	var ctl *access.Controller
	if *secure {
		ctl = access.NewController()
	}

	var tracer *trace.Tracer
	if *traceSample > 0 {
		tracer = trace.New(trace.Options{
			RingSize:     *traceRing,
			SlowPerRoute: *traceSlow,
			SampleEvery:  *traceSample,
		})
	}

	d, err := selectShape(shapeConfig{
		sysDir:      *sysDir,
		demo:        *demo,
		shards:      *shards,
		failover:    *failoverOn,
		replicaOf:   *replicaOf,
		replName:    *replName,
		replListen:  *replListen,
		walSync:     *walSync,
		maxLag:      *maxLag,
		lease:       failover.LeaseConfig{Dir: *leaseDir, TTL: *leaseTTL},
		wal:         *walOn,
		writerFlags: *demo || *snapInterval > 0 || *faultSpec != "" || *budget > 0,
		ctl:         ctl,
		tracer:      tracer,
	})
	if err != nil {
		log.Fatal(err)
	}
	be, node := d.be, d.node
	if *replicaOf != "" && node == nil {
		log.Printf("replicating from %s into %s (staleness bound %d records); serving begins at first sync",
			*replicaOf, *sysDir, *maxLag)
	}
	if tracer != nil {
		log.Printf("tracing 1 in %d requests (debug surfaces at /debug/traces)", *traceSample)
	}

	// The operator's settings go through the admin facet, so a backend whose
	// state is replaced — a replica installing a snapshot, a failover node
	// changing role — carries them to the new state.
	set := serving.Settings{SnapshotKeep: *snapKeep}
	if *budget > 0 || *retries != 1 {
		set.Resilience = core.Resilience{Budget: *budget, MaxRetries: *retries}
		log.Printf("search budget %v, %d retries per backend call", *budget, *retries)
	}
	if *faultSpec != "" {
		inj, ferr := fault.ParseSpec(*faultSpec, *faultSeed)
		if ferr != nil {
			log.Fatal(ferr)
		}
		set.Faults = inj
		log.Printf("WARNING: fault injection active (seed %d): %s", *faultSeed, *faultSpec)
	}
	be.Tune(set)

	// checkpoint commits the current state to -sys: one generation for a
	// single system, one per shard (plus the manifest) for a cluster. A
	// failover node that is not the serving primary skips.
	checkpoint := func(what string) {
		if err := be.Save(*sysDir); err != nil {
			log.Printf("%s: %v", what, err)
			return
		}
		log.Printf("%s committed to %s%s", what, *sysDir, d.generations())
	}

	if *walOn && node != nil {
		log.Printf("note: -wal is implied by -failover; the node journals whenever it is primary")
	}
	if *walOn && node == nil {
		// EnableWAL checkpoints first when -sys has no snapshot matching the
		// in-memory state, so this also bootstraps the store in -demo mode.
		if err := be.EnableWAL(*sysDir, *walSync); err != nil {
			log.Fatal(err)
		}
		log.Printf("write-ahead journal enabled in %s%s", *sysDir, d.generations())
	}

	// Primary-side replication: ship the journal to any follower that
	// connects. Requires the journal — the stream is the journal.
	replStatus := d.replStatus
	if *replListen != "" && node == nil {
		if !*walOn {
			log.Fatal("-repl-listen requires -wal: replication ships the write-ahead journal")
		}
		lis, lerr := net.Listen("tcp", *replListen)
		if lerr != nil {
			log.Fatal(lerr)
		}
		// A parsed -fault-spec reaches the wire too (repl.send / repl.recv /
		// repl.corrupt), so replication chaos composes with backend chaos.
		shipper, serr := d.ship(lis, set.Faults)
		if serr != nil {
			log.Fatal(serr)
		}
		defer shipper.Close()
		replStatus = func() any { return d.primaryReport(shipper) }
		log.Printf("shipping journal to followers on %s (status at /api/repl)", lis.Addr())
	}

	// The judgment layer: component checks behind /readyz, and the one
	// telemetry history, whose ten-second tick samples the runtime and the
	// HTTP metrics behind /metrics, /api/slo and /debug/dash.
	obs.SetBuildInfo(be.Registry())
	sloEng := slo.New(slo.Options{
		Registry: be.Registry(),
		Default:  slo.Objective{Availability: *sloAvail, LatencyP99: *sloP99},
	})
	sloEng.Start()
	defer sloEng.Stop()
	checks := serving.NewHealth(be, serving.HealthOptions{
		SnapshotInterval: *snapInterval,
		MaxGoroutines:    *maxGoros,
	})
	log.Printf("SLO objectives: availability %.4f, p99 %v (report at /api/slo, dashboard at /debug/dash, readiness at /readyz)", *sloAvail, *sloP99)

	var opts []web.Option
	if *pprofOn {
		opts = append(opts, web.WithPprof())
		log.Printf("pprof enabled at /debug/pprof/")
	}
	if *accessLog {
		opts = append(opts, web.WithAccessLog(slog.New(slog.NewTextHandler(os.Stderr, nil))))
	}
	opts = append(opts, web.WithHealth(checks), web.WithSLO(sloEng))
	if replStatus != nil {
		opts = append(opts, web.WithReplStatus(replStatus))
	}
	if node != nil {
		promote := func(target string) error {
			if target != "" && target != node.Name() {
				return fmt.Errorf("this node is %q: POST /api/promote to the node being promoted", node.Name())
			}
			epoch, perr := d.elect.Claim()
			if perr != nil {
				return perr
			}
			log.Printf("failover: promoted to primary at epoch %d (manual)", epoch)
			return nil
		}
		opts = append(opts, web.WithFailover(func() web.FailoverInfo {
			st := node.Status()
			return web.FailoverInfo{Role: st.Role, Epoch: st.Epoch, PromotedAt: st.PromotedAt}
		}, promote))
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           web.HandlerFor(be, opts...),
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if node != nil && *leaseDir != "" {
		if err := os.MkdirAll(*leaseDir, 0o755); err != nil {
			log.Fatal(err)
		}
		go d.elect.Run(ctx)
	}

	if *churn > 0 && d.writes != nil {
		go runChurn(ctx, be, d.primary, *churn)
		log.Printf("churning one synthetic deal every %v", *churn)
	}

	if *snapInterval > 0 {
		go func() {
			tick := time.NewTicker(*snapInterval)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					checkpoint("snapshot")
				}
			}
		}()
		log.Printf("background snapshots every %v to %s", *snapInterval, *sysDir)
	}

	errc := make(chan error, 1)
	go func() {
		log.Printf("listening on %s (metrics at /metrics)", *addr)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
		stop() // restore default signal handling: a second signal kills us
		log.Printf("shutting down, draining for up to %v...", *drain)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("shutdown: %v", err)
		}
		if node != nil || *walOn || *snapInterval > 0 {
			// Fold journaled operations into a final generation so the next
			// start loads a clean snapshot instead of replaying.
			checkpoint("final snapshot")
		}
		if node == nil && (*walOn || *snapInterval > 0) {
			if err := be.CloseWAL(); err != nil {
				log.Printf("close journal: %v", err)
			}
		}
		if d.close != nil {
			if err := d.close(); err != nil {
				log.Printf("close: %v", err)
			}
		}
		log.Printf("bye")
	}
}
