package eil

// Failover chaos suite: the differential proof behind the fencing
// protocol. Every node runs as eilserver runs it, with the lease loop of
// failover.Elector over a shared lease directory. A three-node group takes
// mixed write traffic while the primary is killed mid-stream; a follower
// claims the stale lease and promotes while a write waits out its promotion
// window, the restarted ex-primary is fenced (zero accepted stale writes)
// and rejoins as a follower, and the final corpus is float-exact identical
// to a never-failed twin that applied the same operation ledger in the same
// effective order.

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/failover"
	"repro/internal/fault"
	"repro/internal/serving"
)

// waitCond polls until cond holds or the deadline passes.
func waitCond(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal(msg)
}

// waitNodeApplied waits until h's follower role has applied through seq.
func waitNodeApplied(t *testing.T, h *HANode, seq uint64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if f := h.Follower(); f != nil && f.Ready() {
			if _, cur := f.Position(); cur >= seq {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("ha node %s did not reach seq %d (role %s)", h.Name(), seq, h.Role())
}

// assertSystemsIdentical runs the differential query set against two
// primary-role states and requires float-exact identical results.
func assertSystemsIdentical(t *testing.T, label string, want, got *System) {
	t.Helper()
	ctx := context.Background()
	for i, q := range differentialQueries() {
		wr, err := want.SearchCtx(ctx, admin(), q)
		if err != nil {
			t.Fatalf("%s/q%d: want side: %v", label, i, err)
		}
		gr, err := got.SearchCtx(ctx, admin(), q)
		if err != nil {
			t.Fatalf("%s/q%d: got side: %v", label, i, err)
		}
		assertSameResult(t, fmt.Sprintf("%s/q%d", label, i), wr, gr)
	}
}

// chaosOp is one entry in the writer's operation ledger. seq records the
// primary's journal position when the op was acknowledged — the seal
// comparison that identifies acked-but-unshipped operations after a kill.
type chaosOp struct {
	kind string // "add", "remove", "compact"
	deal string
	seq  uint64
}

func startHAGroup(t *testing.T, sysA *System) (a, b, c *HANode) {
	t.Helper()
	var err error
	a, err = NewPrimaryHANode(sysA, HANodeOptions{Name: "a", Dir: t.TempDir(), ListenAddr: "127.0.0.1:0", SyncEvery: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close() })
	b, err = NewFollowerHANode(a.ReplAddr(), HANodeOptions{Name: "b", Dir: t.TempDir(), ListenAddr: "127.0.0.1:0", SyncEvery: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = b.Close() })
	c, err = NewFollowerHANode(a.ReplAddr(), HANodeOptions{Name: "c", Dir: t.TempDir(), ListenAddr: "127.0.0.1:0", SyncEvery: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return a, b, c
}

// restartPrimary restarts a failover node as eilserver restarts one over
// its directory: the node is closed (for a primary, exactly what a crash
// leaves on disk), its state is loaded back, and a primary node is started
// over it, which comes up fenced if its EPOCH record says so. Settings are
// the caller's to re-apply with Tune.
func restartPrimary(t *testing.T, h *HANode) *HANode {
	t.Helper()
	_ = h.Close()
	sys, err := LoadSystem(h.opts.Dir, h.opts.Access)
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewPrimaryHANode(sys, h.opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close() })
	return n
}

// haMember is one node run as eilserver runs it: the node and its elector
// over the group's lease directory.
type haMember struct {
	*HANode
	elect *failover.Elector
	stop  func() // stops the elector's loop; nil while none runs
}

func newHAMember(t *testing.T, h *HANode, lease failover.LeaseConfig) *haMember {
	t.Helper()
	m := &haMember{HANode: h, elect: &failover.Elector{Node: h, Lease: lease, Logf: t.Logf}}
	t.Cleanup(m.halt)
	return m
}

// start runs the member's lease loop, as its process does.
func (m *haMember) start() {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		m.elect.Run(ctx)
	}()
	m.stop = func() { cancel(); <-done }
}

// halt stops the member's lease loop.
func (m *haMember) halt() {
	if m.stop != nil {
		m.stop()
		m.stop = nil
	}
}

// kill crashes the member: the node and its lease loop die together. For
// a primary, Close leaves on disk exactly what a crash does.
func (m *haMember) kill() {
	m.halt()
	_ = m.Close()
}

// streaming reports whether the member's follower is mid-session with its
// primary, and so may still apply records.
func (m *haMember) streaming() bool {
	f := m.Follower()
	return f != nil && f.Status().Client.State == "streaming"
}

// waitLeaseHolder waits until the lease names holder.
func waitLeaseHolder(t *testing.T, lease failover.LeaseConfig, holder string) {
	t.Helper()
	waitCond(t, 10*time.Second, func() bool {
		rec, ok, err := failover.ReadLease(lease.Dir)
		return err == nil && ok && rec.Name == holder
	}, holder+" never held the lease")
}

func TestFailoverChaosKillPromoteFenceRejoin(t *testing.T) {
	corpus, sysA := testSystem(t, Options{Workers: 1})
	na, nb, nc := startHAGroup(t, sysA)
	lease := failover.LeaseConfig{Dir: t.TempDir(), TTL: time.Second}
	a, b, c := newHAMember(t, na, lease), newHAMember(t, nb, lease), newHAMember(t, nc, lease)
	a.start()
	waitLeaseHolder(t, lease, "a")

	// The writer sends every mutation to the current primary.
	var w serving.Writer = a
	var ledger []chaosOp
	mustOp := func(o chaosOp) {
		t.Helper()
		var err error
		switch o.kind {
		case "add":
			err = w.AddDocuments(newDealDocs(t, o.deal))
		case "remove":
			err = w.RemoveDeal(o.deal)
		default:
			err = w.Compact()
		}
		if err != nil {
			t.Fatalf("%s %q: %v", o.kind, o.deal, err)
		}
		ledger = append(ledger, o)
	}

	// Mixed traffic on the original primary. The first op is barriered so
	// both followers are live before the chaos; the tail is not, so some
	// acknowledged operations may die unshipped with the primary.
	mustOp(chaosOp{kind: "add", deal: "CHAOS DEAL 0"})
	ledger[0].seq = primarySeq(sysA)
	waitNodeApplied(t, b.HANode, ledger[0].seq)
	waitNodeApplied(t, c.HANode, ledger[0].seq)
	for i := 1; i < 6; i++ {
		mustOp(chaosOp{kind: "add", deal: fmt.Sprintf("CHAOS DEAL %d", i)})
		ledger[len(ledger)-1].seq = primarySeq(sysA)
	}
	mustOp(chaosOp{kind: "remove", deal: "CHAOS DEAL 1"})
	ledger[len(ledger)-1].seq = primarySeq(sysA)

	// kill -9 the primary between two acknowledged writes. The followers'
	// positions freeze once their streams from the dead primary drop.
	a.kill()
	waitCond(t, 10*time.Second, func() bool { return !b.streaming() && !c.streaming() },
		"followers still streaming from a dead primary")

	// The first claimant after the TTL wins the lease. The more advanced
	// follower ticks first, so the other one can tail-resume from it.
	_, sb := b.Follower().Position()
	_, sc := c.Follower().Position()
	prim, survivor := b, c
	if sc > sb {
		prim, survivor = c, b
	}
	// Keep the traffic coming: once the dead primary's lease is stale, the
	// next mutation waits out the winner's promotion window, and lands when
	// its elector's first tick claims the lease and promotes it.
	waitCond(t, 10*time.Second, func() bool {
		rec, ok, err := failover.ReadLease(lease.Dir)
		return err == nil && ok && rec.Stale(lease.TTL)
	}, "the dead primary's lease never went stale")
	queued := newDealDocs(t, "CHAOS QUEUED")
	qdone := make(chan error, 1)
	go func() { qdone <- prim.AddDocuments(queued) }()
	waitCond(t, 10*time.Second, func() bool { return prim.Waiters() == 1 },
		"the write never queued in the promotion window")
	prim.start()
	waitCond(t, 15*time.Second, func() bool { return prim.Role() == failover.RolePrimary },
		"no promotion after primary kill")
	if err := <-qdone; err != nil {
		t.Fatalf("write queued across the promotion window failed: %v", err)
	}
	w = prim
	survivor.start()

	psys := prim.System()
	if psys == nil {
		t.Fatal("winner has no primary-role state")
	}
	if got := psys.FenceEpoch(); got == 0 {
		t.Fatalf("promoted primary still at epoch 0")
	}

	// Operations acknowledged by the dead lineage past the promotion seal
	// never shipped; the sequential writer re-applies that suffix, so the
	// ledger is re-ordered into the sequence the new lineage actually saw:
	// shipped prefix, then the queued write, then the repaired suffix.
	seal := psys.EpochInfo().SealedSeq
	var kept, lost []chaosOp
	for _, o := range ledger {
		if o.seq <= seal {
			kept = append(kept, o)
		} else {
			lost = append(lost, o)
		}
	}
	t.Logf("chaos: promotion sealed at seq %d; %d acked ops lost with the old lineage", seal, len(lost))
	ledger = append(kept, chaosOp{kind: "add", deal: "CHAOS QUEUED"})
	for _, o := range lost {
		mustOp(o)
	}

	// Post-failover traffic lands on the new primary.
	for i := 6; i < 10; i++ {
		mustOp(chaosOp{kind: "add", deal: fmt.Sprintf("CHAOS DEAL %d", i)})
	}
	mustOp(chaosOp{kind: "remove", deal: "CHAOS DEAL 2"})
	mustOp(chaosOp{kind: "compact"})

	// Restart the old primary over its directory: it reboots believing its
	// stale EPOCH record and ships again, and its lease loop's first renewal
	// finds the newer lease and fences it back down to a follower of the
	// winner.
	a = newHAMember(t, restartPrimary(t, a.HANode), lease)
	a.start()
	waitCond(t, 15*time.Second, func() bool { return a.Role() == failover.RoleFollower },
		"restarted stale primary was never fenced and repointed")
	// Zero accepted stale writes: the ex-primary, now a follower that no
	// promotion reaches, refuses once its promotion window passes.
	if err := a.AddDocuments(newDealDocs(t, "STALE WRITE")); !failover.IsFenced(err) {
		t.Fatalf("write to fenced ex-primary returned %v; want a fencing refusal", err)
	}

	// Everyone converges on the winner's head.
	barrier := primarySeq(psys)
	waitNodeApplied(t, a.HANode, barrier)
	waitNodeApplied(t, survivor.HANode, barrier)

	// The surviving follower repointed without re-bootstrapping.
	if f := survivor.Follower(); f == nil {
		t.Fatalf("survivor %s has no follower state", survivor.Name())
	} else if n := f.Status().Client.Resyncs; n != 0 {
		t.Errorf("surviving follower re-bootstrapped (%d resyncs); want tail resume", n)
	}

	// The never-failed twin applies the same ledger in the same effective
	// order; every surviving node must match it float-exactly.
	twin, err := Ingest(corpus.Docs, Options{Workers: 1, Directory: corpus.Directory})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range ledger {
		switch o.kind {
		case "add":
			err = twin.AddDocuments(newDealDocs(t, o.deal))
		case "remove":
			err = twin.RemoveDeal(o.deal)
		default:
			err = twin.Compact()
		}
		if err != nil {
			t.Fatalf("twin op %d (%s %q): %v", i, o.kind, o.deal, err)
		}
	}
	assertSystemsIdentical(t, "twin-vs-promoted", twin, psys)
	assertReplicaIdentity(t, "twin-vs-rejoined", twin, a.Follower())
	assertReplicaIdentity(t, "twin-vs-survivor", twin, survivor.Follower())
}

// TestFailoverPoisonedPrimaryManualPromote covers the operator path: the
// primary's journal is poisoned by a failed rotation (writes refused, the
// node still serves reads), a manual promotion moves the write lease to
// the replica, and the poisoned ex-primary is fenced and rejoins clean.
func TestFailoverPoisonedPrimaryManualPromote(t *testing.T) {
	_, sysA := testSystem(t, Options{Workers: 1})
	ffs := &failCreateFS{FS: durable.OS}
	sysA.WALFS = ffs
	dirA := t.TempDir()
	na, err := NewPrimaryHANode(sysA, HANodeOptions{Name: "a", Dir: dirA, ListenAddr: "127.0.0.1:0", SyncEvery: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = na.Close() })
	nb, err := NewFollowerHANode(na.ReplAddr(), HANodeOptions{Name: "b", Dir: t.TempDir(), ListenAddr: "127.0.0.1:0", SyncEvery: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = nb.Close() })

	// The primary never dies here; only the operator's claim moves the lease.
	lease := failover.LeaseConfig{Dir: t.TempDir(), TTL: time.Second}
	a, b := newHAMember(t, na, lease), newHAMember(t, nb, lease)
	a.start()
	waitLeaseHolder(t, lease, "a")
	b.start()

	if err := a.AddDocuments(newDealDocs(t, "BEFORE POISON")); err != nil {
		t.Fatal(err)
	}
	waitNodeApplied(t, b.HANode, primarySeq(sysA))

	// A failed rotation poisons the journal: the snapshot committed but
	// the surviving journal extends a superseded generation.
	ffs.armed.Store(true)
	if _, err := sysA.Checkpoint(dirA); err == nil {
		t.Fatal("checkpoint succeeded with rotation refused")
	}
	// The poisoned primary refuses writes, and the refusal is the journal's
	// own error, not a fencing one: it reaches the caller unchanged.
	err = a.AddDocuments(newDealDocs(t, "POISONED WRITE"))
	if err == nil {
		t.Fatal("write accepted into a poisoned journal")
	}
	if failover.IsFenced(err) {
		t.Fatalf("poisoned journal misreported as a fencing refusal: %v", err)
	}

	// The operator moves the write lease to the healthy replica (POST
	// /api/promote on b); a's lease loop demotes it at its next renewal.
	if _, err := b.elect.Claim(); err != nil {
		t.Fatal(err)
	}
	ffs.armed.Store(false)
	if err := b.AddDocuments(newDealDocs(t, "AFTER PROMOTE")); err != nil {
		t.Fatalf("post-promotion write: %v", err)
	}

	waitCond(t, 15*time.Second, func() bool { return a.Role() == failover.RoleFollower },
		"poisoned ex-primary was never demoted to follower")
	bsys := b.System()
	if bsys == nil {
		t.Fatal("promoted node has no primary-role state")
	}
	waitNodeApplied(t, a.HANode, primarySeq(bsys))

	if _, err := bsys.Synopses.Get("BEFORE POISON"); err != nil {
		t.Fatalf("acknowledged deal lost across promotion: %v", err)
	}
	if _, err := bsys.Synopses.Get("AFTER PROMOTE"); err != nil {
		t.Fatalf("post-promotion deal missing: %v", err)
	}
	if _, err := bsys.Synopses.Get("POISONED WRITE"); err == nil {
		t.Fatal("refused write resurfaced on the new lineage")
	}
	assertReplicaIdentity(t, "poisoned-ex-primary", bsys, a.Follower())
}

// TestFailoverWriteQueuesThroughPromotionWindow: a write that reaches a
// follower waits out its promotion window and lands on the state the node
// is promoted with.
func TestFailoverWriteQueuesThroughPromotionWindow(t *testing.T) {
	_, sysA := testSystem(t, Options{Workers: 1})
	a, b, _ := startHAGroup(t, sysA)
	waitNodeApplied(t, b, primarySeq(sysA))

	docs := newDealDocs(t, "QUEUED DEAL")
	done := make(chan error, 1)
	go func() { done <- b.AddDocuments(docs) }()
	waitCond(t, 10*time.Second, func() bool { return b.Waiters() == 1 }, "the write never queued")
	_ = a.Close()
	if err := b.Promote(1); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("queued write: %v", err)
	}
	if n := b.Waiters(); n != 0 {
		t.Fatalf("%d writes still waiting after the promotion", n)
	}
	if _, err := b.System().Synopses.Get("QUEUED DEAL"); err != nil {
		t.Fatalf("queued write missing on the promoted state: %v", err)
	}
	if got := b.Registry().Counter("eil_write_router_writes_total", "op", "add").Value(); got != 1 {
		t.Fatalf("writes counted = %d, want 1", got)
	}
}

// TestFailoverPrimaryAppliesEveryWrite: the live primary applies each kind
// of write on its own state at once, and counts each one.
func TestFailoverPrimaryAppliesEveryWrite(t *testing.T) {
	_, sys := testSystem(t, Options{Workers: 1})
	h, err := NewPrimaryHANode(sys, HANodeOptions{Name: "p", Dir: t.TempDir(), ListenAddr: "127.0.0.1:0", SyncEvery: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = h.Close() })

	if err := h.AddDocuments(newDealDocs(t, "ROUTED DEAL")); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Synopses.Get("ROUTED DEAL"); err != nil {
		t.Fatalf("added deal missing on the primary: %v", err)
	}
	if err := h.RemoveDeal("ROUTED DEAL"); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Synopses.Get("ROUTED DEAL"); err == nil {
		t.Fatal("removed deal still on the primary")
	}
	if err := h.Compact(); err != nil {
		t.Fatal(err)
	}
	reg := h.Registry()
	for _, op := range []string{"add", "remove", "compact"} {
		if got := reg.Counter("eil_write_router_writes_total", "op", op).Value(); got != 1 {
			t.Fatalf("%s writes counted = %d, want 1", op, got)
		}
	}
	if n := h.Waiters(); n != 0 {
		t.Fatalf("%d writes waited on a live primary", n)
	}
}

// TestFailoverNonFencingErrorsSurface: a primary whose own write fails (a
// journal poisoned by a failed rotation) returns that error unchanged, not
// a fencing refusal, and stays the primary.
func TestFailoverNonFencingErrorsSurface(t *testing.T) {
	_, sys := testSystem(t, Options{Workers: 1})
	ffs := &failCreateFS{FS: durable.OS}
	sys.WALFS = ffs
	dir := t.TempDir()
	h, err := NewPrimaryHANode(sys, HANodeOptions{Name: "p", Dir: dir, ListenAddr: "127.0.0.1:0", SyncEvery: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = h.Close() })

	ffs.armed.Store(true)
	if _, err := sys.Checkpoint(dir); err == nil {
		t.Fatal("checkpoint succeeded with rotation refused")
	}
	_, poisoned := sys.WALProbe()
	if poisoned == nil {
		t.Fatal("failed rotation left the journal healthy")
	}
	err = h.AddDocuments(newDealDocs(t, "POISONED WRITE"))
	if err == nil {
		t.Fatal("write accepted into a poisoned journal")
	}
	if failover.IsFenced(err) {
		t.Fatalf("poisoned journal misreported as a fencing refusal: %v", err)
	}
	if h.Role() != failover.RolePrimary || h.System() != sys {
		t.Fatalf("a non-fencing error deposed the primary (role %s)", h.Role())
	}
	if got := h.Registry().Counter("eil_write_router_writes_total", "op", "add").Value(); got != 0 {
		t.Fatalf("failed write counted as applied (%d)", got)
	}
}

// queueWindowWrites starts n writes on h, waits until all of them wait out
// its promotion window, and returns their outcomes, each with how long it
// waited.
func queueWindowWrites(t *testing.T, h *HANode, n int) <-chan windowOutcome {
	t.Helper()
	out := make(chan windowOutcome, n)
	for i := 0; i < n; i++ {
		go func() {
			start := time.Now()
			err := h.AddDocuments(nil)
			out <- windowOutcome{err: err, waited: time.Since(start)}
		}()
	}
	waitCond(t, 10*time.Second, func() bool { return h.Waiters() == n }, "the writes never queued")
	return out
}

type windowOutcome struct {
	err    error
	waited time.Duration
}

// TestFailoverWriteWindowTimesOut: a follower that is never promoted
// refuses the writes waiting on it once its promotion window passes, and
// not before. Every refusal is a fencing one.
func TestFailoverWriteWindowTimesOut(t *testing.T) {
	h, err := NewFollowerHANode(unreachableAddr(t), HANodeOptions{Name: "f", Dir: t.TempDir(), ListenAddr: "127.0.0.1:0", Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = h.Close() })

	out := queueWindowWrites(t, h, maxWindowWaiters)
	for i := 0; i < maxWindowWaiters; i++ {
		o := <-out
		if !failover.IsFenced(o.err) {
			t.Fatalf("queued write: %v; want a fencing refusal past the window", o.err)
		}
		if o.waited < promotionWindow {
			t.Fatalf("queued write refused after %v, inside the window", o.waited)
		}
	}
	if late := h.Registry().Counter("eil_write_router_refused_total", "op", "add", "reason", "no_primary").Value(); late != maxWindowWaiters {
		t.Fatalf("no_primary refusals counted = %d, want %d", late, maxWindowWaiters)
	}
}

// TestFailoverWriteWindowQueueBound: a follower refuses a write beyond
// maxWindowWaiters at once, and, closed, refuses the writes waiting on it
// and every later one at once. Every refusal is a fencing one.
func TestFailoverWriteWindowQueueBound(t *testing.T) {
	h, err := NewFollowerHANode(unreachableAddr(t), HANodeOptions{Name: "f", Dir: t.TempDir(), ListenAddr: "127.0.0.1:0", Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = h.Close() })

	out := queueWindowWrites(t, h, maxWindowWaiters)
	start := time.Now()
	if err := h.RemoveDeal("d"); !failover.IsFenced(err) || time.Since(start) >= promotionWindow {
		t.Fatalf("write beyond the waiter bound: %v after %v; want a fencing refusal at once", err, time.Since(start))
	}
	if full := h.Registry().Counter("eil_write_router_refused_total", "op", "remove", "reason", "queue_full").Value(); full != 1 {
		t.Fatalf("queue_full refusals counted = %d, want 1", full)
	}

	_ = h.Close()
	for i := 0; i < maxWindowWaiters; i++ {
		o := <-out
		if !failover.IsFenced(o.err) || o.waited >= promotionWindow {
			t.Fatalf("write waiting on a closed node: %v after %v; want a fencing refusal at Close", o.err, o.waited)
		}
	}
	start = time.Now()
	if err := h.Compact(); !failover.IsFenced(err) || time.Since(start) >= promotionWindow {
		t.Fatalf("write to a closed node: %v after %v; want a fencing refusal at once", err, time.Since(start))
	}
}

// TestFailoverFencedByHelloRefusesWrites: a primary whose shipper hears a
// hello from a peer at a newer epoch is the stale side of a partition. It
// fences itself and refuses writes at once, without a promotion window.
func TestFailoverFencedByHelloRefusesWrites(t *testing.T) {
	_, sysA := testSystem(t, Options{Workers: 1})
	a, err := NewPrimaryHANode(sysA, HANodeOptions{Name: "a", Dir: t.TempDir(), ListenAddr: "127.0.0.1:0", SyncEvery: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close() })
	if err := a.AddDocuments(newDealDocs(t, "BEFORE HELLO")); err != nil {
		t.Fatal(err)
	}

	// A peer whose state was last written under epoch 5 says hello.
	dir := t.TempDir()
	if err := durable.WriteEpoch(nil, dir, durable.EpochRecord{Epoch: 5}); err != nil {
		t.Fatal(err)
	}
	f, err := StartFollower(FollowerOptions{Dir: dir, Addr: a.ReplAddr(), Name: "newer", Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.Close() })
	waitCond(t, 10*time.Second, func() bool { return a.Role() == failover.RoleFenced }, "the newer hello never fenced the primary")

	start := time.Now()
	err = a.AddDocuments(newDealDocs(t, "STALE WRITE"))
	if !failover.IsFenced(err) || time.Since(start) >= promotionWindow {
		t.Fatalf("write to a primary fenced by a hello: %v after %v; want a fencing refusal at once", err, time.Since(start))
	}
	if by := sysA.FencedBy(); by != 5 {
		t.Fatalf("fenced by epoch %d, want 5", by)
	}
	if _, err := sysA.Synopses.Get("STALE WRITE"); err == nil {
		t.Fatal("refused write applied")
	}
}

// TestPoisonedJournalReopenRestoresWritability is the recovery path that
// does not involve another node: a poisoned journal (failed rotation) is
// cured by closing the handle and reloading from the committed snapshot —
// EnableWAL discards the stale-generation journal and opens a fresh one.
func TestPoisonedJournalReopenRestoresWritability(t *testing.T) {
	_, sys := testSystem(t, Options{Workers: 1})
	dir := t.TempDir()
	ffs := &failCreateFS{FS: durable.OS}
	sys.WALFS = ffs
	if err := sys.EnableWAL(dir, 1); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddDocuments(newDealDocs(t, "ACKED DEAL")); err != nil {
		t.Fatal(err)
	}

	ffs.armed.Store(true)
	if _, err := sys.Checkpoint(dir); err == nil {
		t.Fatal("checkpoint succeeded with rotation refused")
	}
	if enabled, err := sys.WALProbe(); !enabled || err == nil {
		t.Fatalf("WALProbe = (%v, %v); want enabled with a health error", enabled, err)
	}
	if err := sys.AddDocuments(newDealDocs(t, "LOST DEAL")); err == nil {
		t.Fatal("append accepted into a poisoned journal")
	}

	// Reopen instead of checkpointing: close the poisoned handle, reload
	// the committed state, and re-enable the journal.
	if err := sys.CloseWAL(); err != nil {
		t.Logf("closing poisoned journal: %v", err)
	}
	ffs.armed.Store(false)
	re, err := LoadSystem(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := re.EnableWAL(dir, 1); err != nil {
		t.Fatal(err)
	}
	defer re.CloseWAL()
	if enabled, err := re.WALProbe(); !enabled || err != nil {
		t.Fatalf("reopened WALProbe = (%v, %v); want healthy", enabled, err)
	}
	if err := re.AddDocuments(newDealDocs(t, "REOPENED DEAL")); err != nil {
		t.Fatalf("write after reopen: %v", err)
	}

	final, err := LoadSystem(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := final.Synopses.Get("ACKED DEAL"); err != nil {
		t.Fatalf("acknowledged deal lost: %v", err)
	}
	if _, err := final.Synopses.Get("REOPENED DEAL"); err != nil {
		t.Fatalf("post-reopen deal lost: %v", err)
	}
	if _, err := final.Synopses.Get("LOST DEAL"); err == nil {
		t.Fatal("refused deal resurrected on reload")
	}
}

// TestFailoverFailedAppendFollowerConverges runs a failed append through
// a primary node with a connected follower: the refused batch reaches
// neither, writes are refused until a checkpoint re-establishes the
// journal, and after the next write the follower stands at the primary's
// position answering the differential query set float-exact like it.
func TestFailoverFailedAppendFollowerConverges(t *testing.T) {
	for _, site := range []string{durable.SiteWrite, durable.SiteSync} {
		t.Run(site, func(t *testing.T) {
			_, sysA := testSystem(t, Options{Workers: 1})
			inj := fault.New(1)
			sysA.WALFS = &durable.FaultFS{Ctx: fault.With(context.Background(), inj)}
			dirA := t.TempDir()
			a, err := NewPrimaryHANode(sysA, HANodeOptions{Name: "a", Dir: dirA, ListenAddr: "127.0.0.1:0", SyncEvery: 1, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = a.Close() })
			b, err := NewFollowerHANode(a.ReplAddr(), HANodeOptions{Name: "b", Dir: t.TempDir(), ListenAddr: "127.0.0.1:0", SyncEvery: 1, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = b.Close() })

			if err := a.AddDocuments(newDealDocs(t, "DEAL ZA")); err != nil {
				t.Fatal(err)
			}
			waitNodeApplied(t, b, primarySeq(sysA))

			inj.Add(&fault.Rule{Site: site, Mode: fault.ModeError, Times: 1})
			if err := a.AddDocuments(newDealDocs(t, "DEAL ZB")); err == nil {
				t.Fatal("a batch whose append failed was acknowledged")
			}
			if err := a.AddDocuments(newDealDocs(t, "DEAL ZC")); err == nil || !strings.Contains(err.Error(), "journal poisoned") {
				t.Fatalf("write after a failed append = %v, want the poisoned-journal refusal", err)
			}
			if _, err := sysA.Checkpoint(dirA); err != nil {
				t.Fatal(err)
			}
			if err := a.AddDocuments(newDealDocs(t, "DEAL ZC")); err != nil {
				t.Fatalf("write after the checkpoint: %v", err)
			}

			waitNodeApplied(t, b, primarySeq(sysA))
			if _, seq := b.Follower().Position(); seq != primarySeq(sysA) {
				t.Fatalf("follower at seq %d, primary at %d", seq, primarySeq(sysA))
			}
			bsys := b.Follower().System()
			for _, sys := range []*System{sysA, bsys} {
				if holdsDeal(sys, "DEAL ZB") || !holdsDeal(sys, "DEAL ZA") || !holdsDeal(sys, "DEAL ZC") {
					t.Fatal("a node holds the refused batch or lacks an acknowledged one")
				}
			}
			assertReplicaIdentity(t, site, sysA, b.Follower())
		})
	}
}
