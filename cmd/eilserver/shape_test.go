package main

import (
	"encoding/json"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/docmodel"
	"repro/internal/failover"
	"repro/internal/health"
	"repro/internal/serving"
)

// deadAddr is a loopback address nothing listens on: a replica pointed at
// it boots and stays unsynced, which is how every replica starts.
func deadAddr(t *testing.T) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	return lis.Addr().String()
}

func shapeFor(t *testing.T, cfg shapeConfig) *deployment {
	t.Helper()
	d, err := selectShape(cfg)
	if err != nil {
		t.Fatalf("selectShape(%+v): %v", cfg, err)
	}
	if d.close != nil {
		t.Cleanup(func() { d.close() })
	}
	return d
}

func churn(t *testing.T, round int) []*docmodel.Document {
	t.Helper()
	docs, err := churnDocs("CHURN DEAL", round)
	if err != nil {
		t.Fatal(err)
	}
	return docs
}

// TestSelectShapePrimaries: the demo and load paths give a system or a
// cluster whose backend takes writes, ships, saves, and loads back as the
// same shape.
func TestSelectShapePrimaries(t *testing.T) {
	sysDir, clusterDir := t.TempDir(), t.TempDir()
	for _, tc := range []struct {
		name   string
		cfg    shapeConfig
		kind   string
		shards int
	}{
		{"demo", shapeConfig{demo: true, shards: 1}, "system", 1},
		{"demo sharded", shapeConfig{demo: true, shards: 3}, "cluster", 3},
	} {
		d := shapeFor(t, tc.cfg)
		if d.kind != tc.kind || len(d.shards) != tc.shards || d.sharded != (tc.shards > 1) {
			t.Fatalf("%s: kind %q, %d shards, sharded %v", tc.name, d.kind, len(d.shards), d.sharded)
		}
		if d.writes == nil || d.ship == nil || d.replStatus != nil || d.node != nil || !d.be.Ready() || !d.primary() {
			t.Fatalf("%s: a primary takes writes, can ship, and has no upstream: %+v", tc.name, d)
		}
		if err := d.writes.AddDocuments(churn(t, 1)); err != nil {
			t.Fatalf("%s: churn write: %v", tc.name, err)
		}
		dir := sysDir
		if d.sharded {
			dir = clusterDir
		}
		if err := d.be.Save(dir); err != nil {
			t.Fatalf("%s: save: %v", tc.name, err)
		}
	}

	// Persisted directories carry their own shape; -shards does not override.
	if d := shapeFor(t, shapeConfig{sysDir: sysDir, shards: 4}); d.kind != "system" {
		t.Errorf("loading a system snapshot gave %q", d.kind)
	}
	d := shapeFor(t, shapeConfig{sysDir: clusterDir, shards: 1})
	if d.kind != "cluster" || len(d.shards) != 3 {
		t.Fatalf("loading a cluster snapshot gave %q with %d shards", d.kind, len(d.shards))
	}

	// A shipping cluster reports one position per shard under its wire name.
	if err := d.be.EnableWAL(clusterDir, 1); err != nil {
		t.Fatal(err)
	}
	defer d.be.CloseWAL()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	shipper, err := d.ship(lis, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer shipper.Close()
	raw, err := json.Marshal(d.primaryReport(shipper))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"role":"primary"`, `"shard":"shard-0000"`, `"shard":"shard-0002"`} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("primary report lacks %s: %s", want, raw)
		}
	}
}

// TestSelectShapeReplicas: -replica-of boots a follower (or a cluster
// follower) that has no state yet; installing the operator's settings on it
// must not need any — eilserver -replica-of HOST -search-retries 2 used to
// dereference the missing engine — and its readiness report names the
// replication check that is keeping it out of rotation.
func TestSelectShapeReplicas(t *testing.T) {
	for _, tc := range []struct {
		shards int
		kind   string
		check  string
	}{
		{1, "follower", "repl"},
		{2, "cluster-follower", "repl:shard-1"},
	} {
		d := shapeFor(t, shapeConfig{sysDir: t.TempDir(), replicaOf: deadAddr(t), shards: tc.shards})
		if d.kind != tc.kind || d.writes != nil || d.ship != nil || d.replStatus == nil || d.be.Ready() {
			t.Fatalf("%s: a booting replica has an upstream, no writes and no state: %+v", tc.kind, d)
		}
		d.be.Tune(serving.Settings{Resilience: core.Resilience{MaxRetries: 2}})
		rep := serving.NewHealth(d.be, serving.HealthOptions{MaxGoroutines: 1}).Evaluate()
		if rep.Verdict != health.VerdictUnready {
			t.Errorf("%s: verdict %q before first sync, want unready", tc.kind, rep.Verdict)
		}
		var named, watermark bool
		for _, c := range rep.Checks {
			named = named || (c.Name == tc.check && c.Status == health.StatusFailed)
			watermark = watermark || (c.Name == "goroutines" && c.Status == health.StatusDegraded)
		}
		if !named || !watermark {
			t.Errorf("%s: report lacks a failed %q or a degraded goroutines check: %+v", tc.kind, tc.check, rep.Checks)
		}
	}
}

// replReport is what a failover node's /api/repl carries.
type replReport struct {
	Role   string `json:"role"`
	Epoch  uint64 `json:"epoch"`
	Seq    uint64 `json:"seq"`
	Writes struct {
		HasPrimary bool   `json:"has_primary"`
		Epoch      uint64 `json:"epoch"`
		Waiters    int    `json:"waiters"`
	} `json:"writes"`
}

// replOf decodes d's /api/repl payload, requiring every key of replReport.
func replOf(t *testing.T, d *deployment) replReport {
	t.Helper()
	raw, err := json.Marshal(d.replStatus())
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]any
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	w, _ := top["writes"].(map[string]any)
	for _, k := range []string{"role", "epoch", "seq", "writes"} {
		if _, ok := top[k]; !ok {
			t.Fatalf("/api/repl lacks %q: %s", k, raw)
		}
	}
	for _, k := range []string{"has_primary", "epoch", "waiters"} {
		if _, ok := w[k]; !ok {
			t.Fatalf("/api/repl writes lack %q: %s", k, raw)
		}
	}
	var rep replReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestSelectShapeFailover: a failover node is one backend in either role,
// and takes its own mutations.
func TestSelectShapeFailover(t *testing.T) {
	p := shapeFor(t, shapeConfig{sysDir: t.TempDir(), demo: true, shards: 1, failover: true, replListen: "127.0.0.1:0", replName: "a", walSync: 1, writerFlags: true})
	if p.kind != "failover" || p.node == nil || p.node.Role() != failover.RolePrimary || p.writes != serving.Writer(p.node) || !p.primary() {
		t.Fatalf("failover primary: %+v", p)
	}
	if err := p.writes.AddDocuments(churn(t, 1)); err != nil {
		t.Fatalf("write on the primary: %v", err)
	}
	if rep := replOf(t, p); rep.Role != failover.RolePrimary || rep.Seq == 0 || !rep.Writes.HasPrimary || rep.Writes.Epoch != rep.Epoch || rep.Writes.Waiters != 0 {
		t.Errorf("failover primary's /api/repl: %+v", rep)
	}

	f := shapeFor(t, shapeConfig{sysDir: t.TempDir(), shards: 1, failover: true, replicaOf: deadAddr(t), replListen: "127.0.0.1:0", replName: "b", walSync: 1})
	if f.node.Role() != failover.RoleFollower || f.be.Ready() || f.primary() {
		t.Fatalf("failover follower: role %s, ready %v, primary %v", f.node.Role(), f.be.Ready(), f.primary())
	}
	f.be.Tune(serving.Settings{Resilience: core.Resilience{MaxRetries: 2}})
	done := make(chan error, 1)
	go func() { done <- f.writes.RemoveDeal("CHURN DEAL 1") }()
	for deadline := time.Now().Add(10 * time.Second); f.node.Waiters() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("a follower's write never waited out its promotion window")
		}
	}
	if rep := replOf(t, f); rep.Role != failover.RoleFollower || rep.Writes.HasPrimary || rep.Writes.Waiters != 1 {
		t.Errorf("failover follower's /api/repl: %+v", rep)
	}
	if err := <-done; !failover.IsFenced(err) {
		t.Errorf("write on a follower nobody promotes: %v, want a fencing refusal", err)
	}
}

// TestLeaseTick: the elector eilserver runs, ticked over two in-process
// failover nodes sharing a lease directory. The primary renews; once its
// lease goes stale the follower claims epoch 2 and promotes; the primary,
// restarted over its directory, finds the newer lease at its next renewal
// and is fenced into a follower of the winner.
func TestLeaseTick(t *testing.T) {
	lease := failover.LeaseConfig{Dir: t.TempDir(), TTL: 300 * time.Millisecond}
	aCfg := shapeConfig{sysDir: t.TempDir(), demo: true, shards: 1, failover: true, replListen: "127.0.0.1:0", replName: "a", walSync: 1, lease: lease, writerFlags: true}
	a := shapeFor(t, aCfg)
	b := shapeFor(t, shapeConfig{sysDir: t.TempDir(), shards: 1, failover: true, replicaOf: a.node.ReplAddr(), replListen: "127.0.0.1:0", replName: "b", walSync: 1, lease: lease})
	readLease := func() failover.LeaseRecord {
		t.Helper()
		rec, ok, err := failover.ReadLease(lease.Dir)
		if err != nil || !ok {
			t.Fatalf("read lease: ok %v, %v", ok, err)
		}
		return rec
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(30 * time.Second); !cond(); time.Sleep(lease.TTL / 6) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting: %s", what)
			}
		}
	}
	waitFor("follower synced", b.be.Ready)

	// The primary renews under term 1; a follower under a live lease stays.
	a.elect.Tick()
	if rec := readLease(); rec.Epoch != 1 || rec.Name != "a" || rec.Addr != a.node.ReplAddr() {
		t.Fatalf("primary's lease = %+v, want epoch 1 held by a at %s", rec, a.node.ReplAddr())
	}
	b.elect.Tick()
	if b.node.Role() != failover.RoleFollower {
		t.Fatalf("follower under a live lease: role %s", b.node.Role())
	}

	// The primary dies and stops renewing: the follower claims the next
	// epoch once the lease is stale, promotes, and takes writes.
	if err := a.close(); err != nil {
		t.Fatal(err)
	}
	waitFor("follower promotes", func() bool {
		b.elect.Tick()
		return b.node.Role() == failover.RolePrimary
	})
	if st := b.node.Status(); st.Epoch != 2 {
		t.Fatalf("promoted at epoch %d, want 2", st.Epoch)
	}
	if rec := readLease(); rec.Epoch != 2 || rec.Name != "b" || rec.Addr == "" || rec.Addr != b.node.ReplAddr() {
		t.Fatalf("claimed lease = %+v, want epoch 2 held by b at %s", rec, b.node.ReplAddr())
	}
	if err := b.writes.AddDocuments(churn(t, 2)); err != nil {
		t.Fatalf("write after promotion: %v", err)
	}

	// The old primary restarts over its directory, as eilserver does,
	// believing it still leads. Its renewal loses to epoch 2, so it stops
	// taking writes and follows b.
	aCfg.demo, aCfg.writerFlags = false, false
	a = shapeFor(t, aCfg)
	if a.node.Role() != failover.RolePrimary {
		t.Fatalf("restarted primary came back as %s", a.node.Role())
	}
	a.elect.Tick()
	if a.node.Role() != failover.RoleFollower {
		t.Fatalf("restarted primary after lease loss: role %s", a.node.Role())
	}
	if rec := readLease(); rec.Epoch != 2 || rec.Name != "b" {
		t.Fatalf("fenced renewal rewrote the lease: %+v", rec)
	}
}

// TestSelectShapeRefusals: flag combinations no shape can honour are errors,
// not fatal exits halfway through start-up.
func TestSelectShapeRefusals(t *testing.T) {
	for _, tc := range []struct {
		cfg  shapeConfig
		want string
	}{
		{shapeConfig{replicaOf: "h:1", wal: true}, "read-only"},
		{shapeConfig{replicaOf: "h:1", writerFlags: true}, "read-only"},
		{shapeConfig{failover: true, demo: true}, "requires -repl-listen"},
		{shapeConfig{failover: true, demo: true, shards: 2, replListen: "127.0.0.1:0"}, "single-system"},
		{shapeConfig{failover: true, replicaOf: "h:1", replListen: "127.0.0.1:0", writerFlags: true}, "read-only"},
		{shapeConfig{sysDir: t.TempDir()}, "snapshot"},
	} {
		if d, err := selectShape(tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("selectShape(%+v) = %v, %v; want an error naming %q", tc.cfg, d, err, tc.want)
		}
	}
}

// always is the primary predicate of every shape but a failover node.
func always() bool { return true }

// refuseAdds is a backend that refuses every add, as a fenced node does.
type refuseAdds struct{ serving.Backend }

func (refuseAdds) AddDocuments([]*docmodel.Document) error { return errors.New("refused") }

// TestChurnContinuesPastHeldDeals: over a state that already holds CHURN
// DEAL 1..6 — churned by another process before this one was promoted — the
// next add is CHURN DEAL 7, not a refused re-add of 1, and the window's
// removals follow; a churner that starts below a window whose oldest deals
// are gone continues above it; a refused add does not skip its removal.
func TestChurnContinuesPastHeldDeals(t *testing.T) {
	var docs []*docmodel.Document
	for n := 1; n <= 6; n++ {
		deal, err := churnDocs(churnID(n), n)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, deal...)
	}
	sys, err := eil.Ingest(docs, eil.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := &churner{be: sys, primary: always}
	c.step()
	if c.last != 7 || !c.holds(7) {
		t.Fatalf("first add: last %d, holds 7 %v; want CHURN DEAL 7", c.last, c.holds(7))
	}
	for i := 0; i < 4; i++ {
		c.step()
	}
	if c.last != 11 || c.holds(1) || !c.holds(2) || !c.holds(11) {
		t.Fatalf("after 8..11: last %d, holds 1 %v, 2 %v, 11 %v; want 11 added and 1 removed", c.last, c.holds(1), c.holds(2), c.holds(11))
	}
	fresh := &churner{be: sys, primary: always}
	fresh.step()
	if fresh.last != 12 || fresh.holds(1) || fresh.holds(2) {
		t.Fatalf("fresh churner over 2..11: last %d, holds 1 %v, 2 %v; want 12 added and 2 removed", fresh.last, fresh.holds(1), fresh.holds(2))
	}
	refused := &churner{be: refuseAdds{sys}, primary: always, last: fresh.last}
	refused.step()
	if refused.last != 12 || refused.holds(13) || refused.holds(3) {
		t.Fatalf("refused add: last %d, holds 13 %v, 3 %v; want 13 not added and 3 removed", refused.last, refused.holds(13), refused.holds(3))
	}
}

// countWrites counts the writes that reach a backend.
type countWrites struct {
	serving.Backend
	adds, removes int
}

func (c *countWrites) AddDocuments(docs []*docmodel.Document) error {
	c.adds++
	return c.Backend.AddDocuments(docs)
}

func (c *countWrites) RemoveDeal(id string) error {
	c.removes++
	return c.Backend.RemoveDeal(id)
}

// TestChurnWritesOnlyAsPrimary: a churner whose process is not the primary
// issues no write at all, and one that is removes only a deal the state
// holds, so neither waits out a promotion window nor meets a refusal of its
// own making.
func TestChurnWritesOnlyAsPrimary(t *testing.T) {
	docs, err := churnDocs(churnID(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := eil.Ingest(docs, eil.Options{})
	if err != nil {
		t.Fatal(err)
	}
	be := &countWrites{Backend: sys}
	primary := false
	c := &churner{be: be, primary: func() bool { return primary }}
	c.step()
	if be.adds != 0 || be.removes != 0 || c.last != 0 || c.holds(2) {
		t.Fatalf("not primary: %d adds, %d removes, last %d", be.adds, be.removes, c.last)
	}
	primary = true
	for i := 0; i < churnWindow; i++ {
		c.step()
	}
	// Adds 2..11; the step that adds 11 removes 1, and none before it had a
	// held deal churnWindow numbers older to remove.
	if be.adds != churnWindow || be.removes != 1 || c.last != churnWindow+1 || c.holds(1) {
		t.Fatalf("primary: %d adds, %d removes, last %d, holds 1 %v", be.adds, be.removes, c.last, c.holds(1))
	}
	if err := sys.RemoveDeal(churnID(2)); err != nil {
		t.Fatal(err)
	}
	c.step()
	if be.adds != churnWindow+1 || be.removes != 1 || !c.holds(churnWindow+2) {
		t.Fatalf("removing an absent deal: %d adds, %d removes", be.adds, be.removes)
	}
}
