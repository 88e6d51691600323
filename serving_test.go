package eil

// The serving surface, shape by shape: every deployment shape is a
// serving.Backend, so the same HTTP handler over each must answer the same
// bytes at matched journal positions, the operator's settings must follow
// the state through every replacement, and the readiness checks must be the
// current state's, not the ones that applied when the registry was built.

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/health"
	"repro/internal/repl"
	"repro/internal/serving"
	"repro/internal/web"
)

// get serves one request through the HTTP handler over be.
func get(be serving.Frontend, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	web.HandlerFor(be).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

// shipFrom journals into a temp dir and serves replication on loopback.
func shipFrom(t *testing.T, primary interface {
	EnableWAL(dir string, syncEvery int) error
	CloseWAL() error
	ServeReplication(lis net.Listener, faults *fault.Injector) (*repl.Shipper, error)
}, faults *fault.Injector) string {
	t.Helper()
	if err := primary.EnableWAL(t.TempDir(), 1); err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sh, err := primary.ServeReplication(lis, faults)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		sh.Close()
		primary.CloseWAL()
	})
	return lis.Addr().String()
}

// unreachableAddr is a loopback address nothing listens on: a follower
// pointed at it stays unsynced.
func unreachableAddr(t *testing.T) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close()
	return addr
}

func checkNames(rep health.Report) map[string]health.CheckResult {
	out := map[string]health.CheckResult{}
	for _, c := range rep.Checks {
		out[c.Name] = c
	}
	return out
}

// TestServingConformance: System, Cluster n=3, Follower, ClusterFollower
// n=2, and a failover node before and after Promote, each behind web.HandlerFor, answer the read routes with
// byte-identical bodies once every shape has applied the same history.
func TestServingConformance(t *testing.T) {
	corpus, mono, cluster3 := clusterFixture(t, 3)
	opts := Options{Directory: corpus.Directory, Workers: 1}
	cluster2, err := IngestSharded(corpus.Docs, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	seed, err := Ingest(corpus.Docs, opts)
	if err != nil {
		t.Fatal(err)
	}

	f := startReplica(t, shipFrom(t, mono, nil), t.TempDir(), "replica", nil)
	cf, err := StartClusterFollower(2, FollowerOptions{Dir: t.TempDir(), Addr: shipFrom(t, cluster2, nil), Name: "cluster-replica", Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cf.Close() })
	haOpts := func(name string) HANodeOptions {
		return HANodeOptions{Name: name, Dir: t.TempDir(), ListenAddr: "127.0.0.1:0", SyncEvery: 1, Logf: t.Logf}
	}
	a, err := NewPrimaryHANode(seed, haOpts("a"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err := NewFollowerHANode(a.ReplAddr(), haOpts("b"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })

	// One journaled batch everywhere, so "matched position" is past the
	// bootstrap snapshot on every replica.
	const dealID = "CONFORMANCE DEAL"
	for _, w := range []serving.Writer{mono, cluster3, cluster2, a} {
		if err := w.AddDocuments(newDealDocs(t, dealID)); err != nil {
			t.Fatal(err)
		}
	}
	waitApplied(t, f, primarySeq(mono))
	wctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := cf.WaitSynced(wctx, 0); err != nil {
		t.Fatal(err)
	}
	for i, sub := range cf.Followers() {
		waitApplied(t, sub, primarySeq(cluster2.Shards[i]))
	}
	waitNodeApplied(t, b, primarySeq(seed))

	q := url.QueryEscape
	paths := []string{
		"/api/search?tower=" + q("Network Services") + "&all=service",
		"/api/search?tower=" + q("End User Services") + "&exact=" + q("data replication"),
		"/api/keyword?q=" + q("network services") + "&limit=10",
		"/api/explore?id=" + q(dealID) + "&all=network",
		"/api/similar?id=" + q("DEAL A") + "&k=5",
		"/api/deal?id=" + q(dealID),
	}
	want := make([]string, len(paths))
	for i, p := range paths {
		rec := get(mono, p)
		if rec.Code != http.StatusOK || rec.Body.Len() < 100 {
			t.Fatalf("system %s = %d %q: not an answer worth comparing", p, rec.Code, rec.Body.String())
		}
		want[i] = rec.Body.String()
	}
	if !strings.Contains(want[0], dealID) {
		t.Fatalf("reference search does not list the journaled deal:\n%s", want[0])
	}
	conform := func(shape string, be serving.Frontend) {
		t.Helper()
		for i, p := range paths {
			if rec := get(be, p); rec.Code != http.StatusOK || rec.Body.String() != want[i] {
				t.Errorf("%s %s = %d, body differs from the system's:\n got %s\nwant %s", shape, p, rec.Code, rec.Body.String(), want[i])
			}
		}
	}
	conform("cluster-3", cluster3)
	conform("follower", f)
	conform("cluster-follower-2", cf)
	conform("ha-primary", a)
	conform("ha-follower", b)
	// Only the shipped journal may change a replica's state.
	for name, r := range map[string]serving.Backend{"follower": f, "cluster-follower-2": cf, "ha-follower": b} {
		if err := r.AddDocuments(newDealDocs(t, "STRAY DEAL")); err == nil {
			t.Errorf("%s accepted a write", name)
		}
		if err := r.EnableWAL(t.TempDir(), 1); err == nil {
			t.Errorf("%s accepted a journal", name)
		}
	}
	_ = a.Close()
	if err := b.Promote(1); err != nil {
		t.Fatal(err)
	}
	conform("ha-promoted", b)
}

// TestUnsyncedFollowerAnswersNotSynced: before its first state lands a
// replica answers every read route 503 with Retry-After — never an empty
// page a caller could mistake for "no matches".
func TestUnsyncedFollowerAnswersNotSynced(t *testing.T) {
	f := startReplica(t, unreachableAddr(t), t.TempDir(), "unsynced", nil)
	if f.Ready() {
		t.Fatal("follower with no primary reports Ready")
	}
	for _, p := range []string{
		"/?tower=x", "/deal?id=x",
		"/api/search?tower=x", "/api/search?tower=x&explain=1", "/api/keyword?q=x",
		"/api/explore?id=x", "/api/similar?id=x", "/api/deal?id=x",
	} {
		rec := get(f, p)
		if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
			t.Errorf("%s on an unsynced follower = %d (Retry-After %q), want 503 with Retry-After", p, rec.Code, rec.Header().Get("Retry-After"))
		}
	}
	if err := f.AddDocuments(newDealDocs(t, "X")); err == nil {
		t.Error("unsynced follower accepted a write")
	}
	f.Tune(serving.Settings{Resilience: core.Resilience{MaxRetries: 2}}) // needs no state
}

// TestSettingsFollowTheState: settings installed on a follower at boot,
// whether or not its first state has landed (eilserver -replica-of
// -search-retries 2 dereferenced the missing state), are in force after the
// first sync and after a forced snapshot re-sync replaces the state.
func TestSettingsFollowTheState(t *testing.T) {
	inj := fault.New(1)
	_, sys, addr := replPrimary(t, inj)
	set := serving.Settings{
		Resilience:   core.Resilience{MaxRetries: 2},
		Faults:       fault.New(2),
		SnapshotKeep: 5,
	}
	f := startReplica(t, addr, t.TempDir(), "replica", nil)
	f.Tune(set) // as eilserver boots: right after start, synced or not
	inForce := func(when string) {
		t.Helper()
		st := f.System()
		if st.Engine.Resilient.MaxRetries != 2 || st.Engine.Faults != set.Faults || st.SnapshotKeep != 5 {
			t.Fatalf("%s: settings not in force: retries %d, faults %v, keep %d",
				when, st.Engine.Resilient.MaxRetries, st.Engine.Faults != nil, st.SnapshotKeep)
		}
	}
	waitApplied(t, f, primarySeq(sys))
	waitCond(t, 30*time.Second, f.Ready, "follower never synced")
	inForce("after first sync")

	first := f.System()
	inj.Add(&fault.Rule{Site: repl.SiteCorrupt, Mode: fault.ModeError, Times: 1})
	for i := 0; i < 3; i++ {
		if err := sys.AddDocuments(newDealDocs(t, fmt.Sprintf("DIRTY %d", i))); err != nil {
			t.Fatal(err)
		}
	}
	waitApplied(t, f, primarySeq(sys))
	if f.System() == first || f.Status().Client.Resyncs == 0 {
		t.Fatalf("corrupted frame did not replace the state: %+v", f.Status().Client)
	}
	inForce("after forced re-sync")
}

// TestHealthFollowsTheRole: one readiness registry, built once over a
// failover node, lists the current role's checks — replication while it
// follows, journal and breakers once promoted. The ex-primary restarts as a
// new node with a registry of its own, as a restarted process builds one:
// it lists the journal while it still believes it is primary, and
// replication again (and no journal) once it is fenced and rejoins.
func TestHealthFollowsTheRole(t *testing.T) {
	_, sysA := testSystem(t, Options{Workers: 1})
	a, b, _ := startHAGroup(t, sysA)
	for _, n := range []*HANode{a, b} {
		n.Tune(serving.Settings{Resilience: core.Resilience{MaxRetries: 3}})
	}
	regA := serving.NewHealth(a, HealthOptions{})
	regB := serving.NewHealth(b, HealthOptions{})
	waitNodeApplied(t, b, primarySeq(sysA))

	has := func(when string, reg *health.Registry, want []string, not []string) {
		t.Helper()
		got := checkNames(reg.Evaluate())
		for _, name := range want {
			if _, ok := got[name]; !ok {
				t.Errorf("%s: readiness report lacks %q (has %v)", when, name, got)
			}
		}
		for _, name := range not {
			if _, ok := got[name]; ok {
				t.Errorf("%s: readiness report lists %q", when, name)
			}
		}
	}
	has("b following", regB, []string{"repl", "index"}, []string{"wal"})
	has("a primary", regA, []string{"wal", "index", "breaker:synopsis", "breaker:siapi"}, []string{"repl"})

	_ = a.Close()
	if err := b.Promote(1); err != nil {
		t.Fatal(err)
	}
	has("b promoted", regB, []string{"wal", "breaker:synopsis", "breaker:siapi"}, []string{"repl"})
	if got := b.System().Engine.Resilient.MaxRetries; got != 3 {
		t.Errorf("promoted state runs with %d retries, want the 3 installed while it followed", got)
	}

	// a restarts over its directory, as eilserver does, with the settings
	// re-applied and a readiness registry of its own.
	a = restartPrimary(t, a)
	a.Tune(serving.Settings{Resilience: core.Resilience{MaxRetries: 3}})
	regA = serving.NewHealth(a, HealthOptions{})
	has("a restarted", regA, []string{"wal", "index"}, []string{"repl"})
	if err := a.Fence(1, b.ReplAddr()); err != nil {
		t.Fatal(err)
	}
	waitNodeApplied(t, a, primarySeq(b.System()))
	has("a fenced and rejoined", regA, []string{"repl", "index"}, []string{"wal"})
	if got := a.Follower().System().Engine.Resilient.MaxRetries; got != 3 {
		t.Errorf("rejoined state runs with %d retries, want 3", got)
	}
}

// TestFollowerHonoursHealthOptions: the goroutine watermark and the snapshot
// freshness bound reach a replica's checks.
func TestFollowerHonoursHealthOptions(t *testing.T) {
	_, sys, addr := replPrimary(t, nil)
	f := startReplica(t, addr, t.TempDir(), "replica", nil)
	waitApplied(t, f, primarySeq(sys))
	waitCond(t, 30*time.Second, f.Ready, "follower never synced")

	rep := serving.NewHealth(f, HealthOptions{
		MaxGoroutines:    1,
		SnapshotInterval: time.Nanosecond,
	}).Evaluate()
	got := checkNames(rep)
	for _, name := range []string{"goroutines", "snapshots"} {
		if c, ok := got[name]; !ok || c.Status != health.StatusDegraded {
			t.Errorf("check %q = %+v, want degraded under a bound of one", name, c)
		}
	}
	if c := got["repl"]; c.Status != health.StatusOK {
		t.Errorf("repl check = %+v, want ok", c)
	}
}

// TestClusterFollowerReportsShardChecks: a cluster replica lists a
// replication and an index check per shard, before and after sync.
func TestClusterFollowerReportsShardChecks(t *testing.T) {
	_, _, cluster := clusterFixture(t, 2)
	addr := shipFrom(t, cluster, nil)

	idle, err := StartClusterFollower(2, FollowerOptions{Dir: t.TempDir(), Addr: unreachableAddr(t), Name: "idle", Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	rep := serving.NewHealth(idle, HealthOptions{}).Evaluate()
	if rep.Verdict != health.VerdictUnready {
		t.Errorf("unsynced cluster replica verdict %q, want unready", rep.Verdict)
	}
	if c := checkNames(rep)["index:shard-1"]; c.Status != health.StatusFailed {
		t.Errorf("unsynced index:shard-1 = %+v, want failed", c)
	}

	cf, err := StartClusterFollower(2, FollowerOptions{Dir: t.TempDir(), Addr: addr, Name: "cluster-replica", Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	reg := serving.NewHealth(cf, HealthOptions{})
	wctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := cf.WaitSynced(wctx, 0); err != nil {
		t.Fatal(err)
	}
	got := checkNames(reg.Evaluate())
	for _, name := range []string{"repl:shard-0", "repl:shard-1", "index:shard-0", "index:shard-1", "breaker:siapi"} {
		if c, ok := got[name]; !ok || c.Status != health.StatusOK {
			t.Errorf("check %q = %+v (present %v), want ok", name, c, ok)
		}
	}
	if _, ok := got["wal:shard-0"]; ok {
		t.Error("cluster replica lists a journal check")
	}
}
