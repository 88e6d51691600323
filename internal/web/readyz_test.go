package web

// Readiness under degradation: /readyz must turn traffic away (503) with
// the failing check named — an open circuit breaker, an unwritable journal —
// while /healthz keeps answering 200 (the process is alive; it should be
// drained, not restarted). Plus the SLO burn path: injected faults must
// produce a nonzero short-window burn rate that decays once faults stop.

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/docmodel"
	"repro/internal/durable"
	"repro/internal/fault"
	"repro/internal/health"
	"repro/internal/serving"
	"repro/internal/slo"
	"repro/internal/synth"
	"repro/internal/trace"
)

// opsServer builds a test server with the whole judgment layer wired:
// component checks behind /readyz, an SLO engine behind /api/slo, and the
// engine running under the given fault injector with a fast breaker
// cooldown so recovery is testable.
func opsServer(t *testing.T, inj *fault.Injector) (*httptest.Server, *eil.System, *slo.Engine) {
	t.Helper()
	corpus, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := eil.Ingest(corpus.Docs, eil.Options{
		Directory: corpus.Directory,
		Tracer:    trace.New(trace.Options{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Engine.Faults = inj
	sys.Engine.Resilient = core.Resilience{
		Budget:          2 * time.Second,
		MaxRetries:      1,
		BreakerCooldown: 10 * time.Millisecond,
	}
	sloEng := slo.New(slo.Options{Registry: sys.Metrics})
	checks := serving.NewHealth(sys, eil.HealthOptions{})
	srv := httptest.NewServer(HandlerFor(sys, WithHealth(checks), WithSLO(sloEng)))
	t.Cleanup(srv.Close)
	return srv, sys, sloEng
}

// readyReport fetches and decodes /readyz.
func readyReport(t *testing.T, srv *httptest.Server) (int, health.Report) {
	t.Helper()
	resp, body := get(t, srv.URL+"/readyz", nil)
	var rep health.Report
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("readyz body not JSON: %v\n%s", err, body)
	}
	return resp.StatusCode, rep
}

// hasCause reports whether any cause names the given check.
func hasCause(rep health.Report, check string) bool {
	for _, c := range rep.Causes {
		if strings.HasPrefix(c, check+":") {
			return true
		}
	}
	return false
}

func TestReadyzHealthy(t *testing.T) {
	srv, _, _ := opsServer(t, nil)
	code, rep := readyReport(t, srv)
	if code != 200 {
		t.Fatalf("healthy readyz = %d, want 200 (causes %v)", code, rep.Causes)
	}
	if rep.Verdict != health.VerdictReady {
		t.Fatalf("verdict %q, want ready", rep.Verdict)
	}
	if len(rep.Checks) == 0 {
		t.Fatal("readyz report lists no checks")
	}
}

func TestReadyz503OnOpenBreaker(t *testing.T) {
	inj := fault.New(1)
	srv, sys, _ := opsServer(t, inj)

	if code, rep := readyReport(t, srv); code != 200 {
		t.Fatalf("pre-fault readyz = %d (causes %v), want 200", code, rep.Causes)
	}

	// Fail every synopsis call; each search burns 2 breaker failures
	// (initial + one retry), so a few searches open the breaker.
	inj.Add(&fault.Rule{Site: fault.SiteSynopsisSearch, Mode: fault.ModeError})
	tower := strings.ReplaceAll(sys.Taxonomy.TowerNames()[0], " ", "+")
	for i := 0; i < 6 && sys.Engine.BreakerState(core.BackendSynopsis) != "open"; i++ {
		get(t, srv.URL+"/api/search?tower="+tower+"&all=the", nil)
	}
	if state := sys.Engine.BreakerState(core.BackendSynopsis); state != "open" {
		t.Fatalf("breaker state %q after repeated failures, want open", state)
	}

	code, rep := readyReport(t, srv)
	if code != 503 {
		t.Fatalf("readyz with open breaker = %d, want 503", code)
	}
	if rep.Verdict != health.VerdictDegraded {
		t.Fatalf("verdict %q, want degraded (breaker is non-critical)", rep.Verdict)
	}
	if !hasCause(rep, "breaker:"+core.BackendSynopsis) {
		t.Fatalf("causes %v do not name breaker:synopsis", rep.Causes)
	}

	// Liveness is unaffected: the process serves; it should be drained,
	// not killed.
	if resp, body := get(t, srv.URL+"/healthz", nil); resp.StatusCode != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("healthz = %d %q, want 200 ok", resp.StatusCode, body)
	}
}

func TestReadyz503OnUnwritableWAL(t *testing.T) {
	srv, sys, _ := opsServer(t, nil)

	// Route the journal through a fault-injectable filesystem. No rules are
	// armed yet, so EnableWAL (which checkpoints and creates the journal)
	// succeeds; only then does the fsync fault arm, so exactly the health
	// probe's Sync observes the dead disk.
	walInj := fault.New(7)
	sys.WALFS = &durable.FaultFS{Ctx: fault.With(context.Background(), walInj)}
	if err := sys.EnableWAL(t.TempDir(), 1); err != nil {
		t.Fatal(err)
	}

	if code, rep := readyReport(t, srv); code != 200 {
		t.Fatalf("readyz with healthy journal = %d (causes %v), want 200", code, rep.Causes)
	}

	walInj.Add(&fault.Rule{Site: durable.SiteSync, Mode: fault.ModeError})
	code, rep := readyReport(t, srv)
	if code != 503 {
		t.Fatalf("readyz with unwritable journal = %d, want 503", code)
	}
	if rep.Verdict != health.VerdictUnready {
		t.Fatalf("verdict %q, want unready (journal is critical)", rep.Verdict)
	}
	if !hasCause(rep, "wal") {
		t.Fatalf("causes %v do not name the wal check", rep.Causes)
	}
	if resp, _ := get(t, srv.URL+"/healthz", nil); resp.StatusCode != 200 {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}

	// The disk recovers: the next evaluation clears the verdict.
	walInj.Reset()
	if code, rep := readyReport(t, srv); code != 200 {
		t.Fatalf("readyz after recovery = %d (causes %v), want 200", code, rep.Causes)
	}
}

// TestReadyz503AfterFailedAppend: a failed append poisons the journal, so
// the node refuses writes and /readyz fails on the wal check — and stays
// failed after the disk recovers, unlike a failed probe, until a
// checkpoint re-establishes the journal.
func TestReadyz503AfterFailedAppend(t *testing.T) {
	srv, sys, _ := opsServer(t, nil)
	walInj := fault.New(7)
	sys.WALFS = &durable.FaultFS{Ctx: fault.With(context.Background(), walInj)}
	dir := t.TempDir()
	if err := sys.EnableWAL(dir, 1); err != nil {
		t.Fatal(err)
	}
	defer sys.CloseWAL()

	walInj.Add(&fault.Rule{Site: durable.SiteWrite, Mode: fault.ModeError})
	doc := &docmodel.Document{Path: "DEAL NEW/overview.txt", DealID: "DEAL NEW", Title: "Deal Overview", Body: "Customer: Nova Corp"}
	if err := sys.AddDocuments([]*docmodel.Document{doc}); err == nil {
		t.Fatal("append under a write fault succeeded")
	}
	code, rep := readyReport(t, srv)
	if code != 503 || !hasCause(rep, "wal") {
		t.Fatalf("readyz after a failed append = %d (causes %v), want 503 naming wal", code, rep.Causes)
	}
	walInj.Reset()
	if code, rep := readyReport(t, srv); code != 503 || !hasCause(rep, "wal") {
		t.Fatalf("readyz after the disk recovered = %d (causes %v), want 503 until a checkpoint", code, rep.Causes)
	}
	if _, err := sys.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	if code, rep := readyReport(t, srv); code != 200 {
		t.Fatalf("readyz after a checkpoint = %d (causes %v), want 200", code, rep.Causes)
	}
}

func TestSLOBurnRisesAndDecays(t *testing.T) {
	inj := fault.New(1)
	srv, sys, sloEng := opsServer(t, inj)
	tower := strings.ReplaceAll(sys.Taxonomy.TowerNames()[0], " ", "+")

	start := time.Now()
	sloEng.Tick(start)

	// Kill both serving tiers: every /api/search is a 503, all error budget.
	inj.Add(&fault.Rule{Site: fault.SiteSynopsisSearch, Mode: fault.ModeError})
	inj.Add(&fault.Rule{Site: fault.SiteSIAPISearch, Mode: fault.ModeError})
	for i := 0; i < 8; i++ {
		if resp, _ := get(t, srv.URL+"/api/search?tower="+tower+"&all=the", nil); resp.StatusCode != 503 {
			t.Fatalf("faulted search = %d, want 503", resp.StatusCode)
		}
	}
	sloEng.Tick(start.Add(time.Minute))

	burnAt := func() float64 {
		rep := sloEng.Report()
		for _, rr := range rep.Routes {
			if rr.Route == "/api/search" {
				if len(rr.Windows) == 0 {
					t.Fatal("no burn windows for /api/search")
				}
				return rr.Windows[0].AvailabilityBurn
			}
		}
		t.Fatalf("no /api/search route in SLO report: %+v", rep.Routes)
		return 0
	}
	if burn := burnAt(); burn <= 0 {
		t.Fatalf("5m availability burn = %v after a 100%% error window, want > 0", burn)
	}
	if v := sys.Metrics.Gauge("eil_slo_burn_rate",
		"route", "/api/search", "slo", slo.SLOAvailability, "window", "5m0s").Value(); v <= 0 {
		t.Fatalf("eil_slo_burn_rate gauge = %v, want > 0", v)
	}
	if _, body := get(t, srv.URL+"/api/slo", nil); !strings.Contains(body, "availability_burn") {
		t.Fatalf("/api/slo lacks burn fields: %s", body)
	}

	// Faults stop; the breakers recover (short cooldown) and traffic
	// succeeds again. Once the 5m window's base sample postdates the error
	// burst, the burn reads zero.
	inj.Reset()
	time.Sleep(20 * time.Millisecond) // past the breaker cooldown
	for i := 0; i < 12; i++ {
		resp, _ := get(t, srv.URL+"/api/search?tower="+tower+"&all=the", nil)
		if resp.StatusCode == 200 {
			break
		}
	}
	sloEng.Tick(start.Add(2 * time.Minute))
	sloEng.Tick(start.Add(9 * time.Minute))
	if burn := burnAt(); burn != 0 {
		t.Fatalf("5m availability burn = %v long after faults stopped, want 0", burn)
	}
}
