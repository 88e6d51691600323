package eil

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/docmodel"
	"repro/internal/durable"
	"repro/internal/fault"
	"repro/internal/repl"
	"repro/internal/synth"
)

// replPrimary builds a deterministic primary (Workers:1, WAL enabled in a
// temp dir) and serves replication on loopback. The fault injector, when
// non-nil, wires the repl.send / repl.corrupt chaos seams into every
// follower connection.
func replPrimary(t *testing.T, faults *fault.Injector) (*synth.Corpus, *System, string) {
	t.Helper()
	corpus, sys := testSystem(t, Options{Workers: 1})
	dir := t.TempDir()
	if err := sys.EnableWAL(dir, 1); err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sh, err := sys.ServeReplication(lis, faults)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		sh.Close()
		sys.CloseWAL()
	})
	return corpus, sys, lis.Addr().String()
}

// startReplica attaches a follower to the primary at addr, replicating
// into dir.
func startReplica(t *testing.T, addr, dir, name string, faults *fault.Injector) *Follower {
	t.Helper()
	f, err := StartFollower(FollowerOptions{
		Dir:    dir,
		Addr:   addr,
		Name:   name,
		Faults: faults,
		Logf:   t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// waitApplied blocks until the follower's applied position reaches seq.
func waitApplied(t *testing.T, f *Follower, seq uint64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if _, cur := f.Position(); cur >= seq {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	_, cur := f.Position()
	t.Fatalf("follower %s stuck at seq %d, want %d (client: %+v)", f.Name(), cur, seq, f.Status().Client)
}

// assertReplicaIdentity runs the full differential query suite against
// the primary and the replica at a matched position: every result must be
// float-exact identical, the same bar the sharded engine is held to.
func assertReplicaIdentity(t *testing.T, label string, primary *System, f *Follower) {
	t.Helper()
	rep := f.System()
	if rep == nil {
		t.Fatalf("%s: replica has no state", label)
	}
	ctx := context.Background()
	for i, q := range differentialQueries() {
		pr, err := primary.SearchCtx(ctx, admin(), q)
		if err != nil {
			t.Fatalf("%s/q%d: primary: %v", label, i, err)
		}
		rr, err := rep.SearchCtx(ctx, admin(), q)
		if err != nil {
			t.Fatalf("%s/q%d: replica: %v", label, i, err)
		}
		assertSameResult(t, fmt.Sprintf("%s/q%d", label, i), pr, rr)
	}
}

// primarySeq is the primary's current journal position.
func primarySeq(sys *System) uint64 {
	_, seq := sys.ReplPosition()
	return seq
}

// TestReplicationDifferentialIdentity is the tentpole proof: a primary
// and two followers under mixed update and search traffic converge to
// float-exact identical results for every differential query once
// positions match.
func TestReplicationDifferentialIdentity(t *testing.T) {
	_, sys, addr := replPrimary(t, nil)
	f1 := startReplica(t, addr, t.TempDir(), "replica-1", nil)
	f2 := startReplica(t, addr, t.TempDir(), "replica-2", nil)

	// Search the replicas while the write stream is live: results are
	// whatever position each replica holds, but nothing may race or fail
	// with a non-sync error.
	stopReads := make(chan struct{})
	var readers sync.WaitGroup
	for _, f := range []*Follower{f1, f2} {
		readers.Add(1)
		go func(f *Follower) {
			defer readers.Done()
			q := differentialQueries()[0]
			for {
				select {
				case <-stopReads:
					return
				default:
				}
				if _, err := f.SearchCtx(context.Background(), admin(), q); err != nil && !errors.Is(err, ErrNotSynced) {
					t.Errorf("concurrent read on %s: %v", f.Name(), err)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}(f)
	}

	// Mixed update traffic: adds, a removal, a compaction, more adds.
	for i := 0; i < 4; i++ {
		if err := sys.AddDocuments(newDealDocs(t, fmt.Sprintf("REPL DEAL %d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.RemoveDeal("REPL DEAL 1"); err != nil {
		t.Fatal(err)
	}
	if err := sys.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddDocuments(newDealDocs(t, "REPL DEAL LATE")); err != nil {
		t.Fatal(err)
	}
	close(stopReads)
	readers.Wait()

	barrier := primarySeq(sys)
	waitApplied(t, f1, barrier)
	waitApplied(t, f2, barrier)
	assertReplicaIdentity(t, "f1", sys, f1)
	assertReplicaIdentity(t, "f2", sys, f2)
}

// TestFollowerKillRestartResumes kills a follower mid-stream and restarts
// it over the same directory: it must resume from its checkpointed
// position via the tail (zero re-syncs), not re-bootstrap.
func TestFollowerKillRestartResumes(t *testing.T) {
	_, sys, addr := replPrimary(t, nil)
	dir := t.TempDir()
	f := startReplica(t, addr, dir, "replica", nil)
	if err := sys.AddDocuments(newDealDocs(t, "BEFORE KILL")); err != nil {
		t.Fatal(err)
	}
	// Checkpoint the primary so the follower checkpoints locally too (its
	// durable resume point), then kill it.
	if _, err := sys.Checkpoint(sys.walDir); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, f, primarySeq(sys))
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Writes continue while the follower is down.
	for i := 0; i < 3; i++ {
		if err := sys.AddDocuments(newDealDocs(t, fmt.Sprintf("WHILE DOWN %d", i))); err != nil {
			t.Fatal(err)
		}
	}

	f2 := startReplica(t, addr, dir, "replica", nil)
	waitApplied(t, f2, primarySeq(sys))
	st := f2.Status()
	if st.Client.Resyncs != 0 {
		t.Fatalf("restart re-bootstrapped (%d resyncs); want tail resume", st.Client.Resyncs)
	}
	assertReplicaIdentity(t, "restarted", sys, f2)
}

// TestReplicationStreamCorruptionResync flips one byte in flight: the
// follower's CRC check must catch it, distrust the stream, and re-sync
// from a fresh snapshot — converging to identical results regardless.
func TestReplicationStreamCorruptionResync(t *testing.T) {
	inj := fault.New(1)
	_, sys, addr := replPrimary(t, inj)
	f := startReplica(t, addr, t.TempDir(), "replica", nil)
	if err := sys.AddDocuments(newDealDocs(t, "CLEAN DEAL")); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, f, primarySeq(sys))

	// Arm corruption for exactly one frame, then write through it.
	inj.Add(&fault.Rule{Site: repl.SiteCorrupt, Mode: fault.ModeError, Times: 1})
	for i := 0; i < 3; i++ {
		if err := sys.AddDocuments(newDealDocs(t, fmt.Sprintf("DIRTY %d", i))); err != nil {
			t.Fatal(err)
		}
	}
	waitApplied(t, f, primarySeq(sys))
	if st := f.Status(); st.Client.Resyncs == 0 {
		t.Fatalf("corrupted frame did not force a re-sync: %+v", st.Client)
	}
	assertReplicaIdentity(t, "post-corruption", sys, f)
}

// TestReplicationStreamTruncationMidFrame cuts the connection mid-frame:
// an I/O error, not a framing violation — the follower must reconnect
// and tail-resume from its exact position, never re-bootstrapping.
func TestReplicationStreamTruncationMidFrame(t *testing.T) {
	inj := fault.New(1)
	_, sys, addr := replPrimary(t, inj)
	f := startReplica(t, addr, t.TempDir(), "replica", nil)
	if err := sys.AddDocuments(newDealDocs(t, "CLEAN DEAL")); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, f, primarySeq(sys))
	before := f.Status().Client

	// Deliver exactly half of the next frame, then cut the connection.
	inj.Add(&fault.Rule{Site: repl.SiteSend, Mode: fault.ModePartial, Fraction: 0.5, Times: 1})
	for i := 0; i < 3; i++ {
		if err := sys.AddDocuments(newDealDocs(t, fmt.Sprintf("TORN %d", i))); err != nil {
			t.Fatal(err)
		}
	}
	waitApplied(t, f, primarySeq(sys))
	st := f.Status().Client
	if st.Resyncs != before.Resyncs {
		t.Fatalf("mid-frame truncation forced a re-sync (%d -> %d); want tail resume", before.Resyncs, st.Resyncs)
	}
	if st.Reconnects == before.Reconnects {
		t.Fatalf("expected a reconnect after the cut connection: %+v", st)
	}
	assertReplicaIdentity(t, "post-truncation", sys, f)
}

// TestGenerationHandoffMidStream is the regression test for the
// rotate-on-checkpoint edge: a follower observing the primary checkpoint
// mid-stream must apply every record across the generation boundary —
// the strict-position rotate check means a single skipped frame fails
// loudly instead of silently diverging.
func TestGenerationHandoffMidStream(t *testing.T) {
	_, sys, addr := replPrimary(t, nil)
	f := startReplica(t, addr, t.TempDir(), "replica", nil)
	if err := sys.AddDocuments(newDealDocs(t, "PRE ROTATE")); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, f, primarySeq(sys))

	// Checkpoint mid-stream: the journal rotates to a new generation while
	// the follower is connected and tailing.
	if _, err := sys.Checkpoint(sys.walDir); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := sys.AddDocuments(newDealDocs(t, fmt.Sprintf("POST ROTATE %d", i))); err != nil {
			t.Fatal(err)
		}
	}
	waitApplied(t, f, primarySeq(sys))
	st := f.Status()
	if st.Client.Resyncs != 0 {
		t.Fatalf("generation handoff forced a re-sync: %+v", st.Client)
	}
	if gen, _ := f.Position(); gen != sys.Generation() {
		t.Fatalf("follower gen %d, primary gen %d: rotation not adopted", gen, sys.Generation())
	}
	assertReplicaIdentity(t, "post-handoff", sys, f)

	// And the handoff survives a restart: the local checkpoint taken at the
	// rotation point resumes the follower in the new generation.
	dir := f.opts.Dir
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddDocuments(newDealDocs(t, "AFTER RESTART")); err != nil {
		t.Fatal(err)
	}
	f2 := startReplica(t, addr, dir, "replica", nil)
	waitApplied(t, f2, primarySeq(sys))
	if st := f2.Status(); st.Client.Resyncs != 0 {
		t.Fatalf("restart across generations re-bootstrapped: %+v", st.Client)
	}
	assertReplicaIdentity(t, "post-handoff-restart", sys, f2)
}

// failCreateFS delegates to the real filesystem but fails Create while
// armed — the seam that makes a journal rotation fail after its snapshot
// committed.
type failCreateFS struct {
	durable.FS
	armed atomic.Bool
}

func (fs *failCreateFS) Create(name string) (durable.File, error) {
	if fs.armed.Load() {
		return nil, errors.New("injected: create refused")
	}
	return fs.FS.Create(name)
}

// TestFailedRotatePoisonsJournal is the latent-bug regression: when the
// snapshot commits but the journal rotation fails, the surviving journal
// extends a superseded generation. Accepting appends there would silently
// discard acknowledged operations on the next load — the journal must
// poison itself instead, and recover on the next successful checkpoint.
func TestFailedRotatePoisonsJournal(t *testing.T) {
	_, sys := testSystem(t, Options{Workers: 1})
	dir := t.TempDir()
	ffs := &failCreateFS{FS: durable.OS}
	sys.WALFS = ffs
	if err := sys.EnableWAL(dir, 1); err != nil {
		t.Fatal(err)
	}
	defer sys.CloseWAL()
	if err := sys.AddDocuments(newDealDocs(t, "ACKED DEAL")); err != nil {
		t.Fatal(err)
	}

	ffs.armed.Store(true)
	if _, err := sys.Checkpoint(dir); err == nil {
		t.Fatal("checkpoint succeeded with rotation refused")
	}
	// The snapshot committed; the stale journal must now refuse appends
	// rather than acknowledge operations the next load would discard.
	if err := sys.AddDocuments(newDealDocs(t, "LOST DEAL")); err == nil {
		t.Fatal("append accepted into a poisoned journal")
	}

	// A later successful checkpoint re-establishes the journal.
	ffs.armed.Store(false)
	if _, err := sys.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddDocuments(newDealDocs(t, "RECOVERED DEAL")); err != nil {
		t.Fatal(err)
	}

	// The reloaded state holds every acknowledged deal and no ghost of the
	// refused one.
	re, err := LoadSystem(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := re.Synopses.Get("ACKED DEAL"); err != nil {
		t.Fatalf("acknowledged deal lost: %v", err)
	}
	if _, err := re.Synopses.Get("RECOVERED DEAL"); err != nil {
		t.Fatalf("post-recovery deal lost: %v", err)
	}
	if _, err := re.Synopses.Get("LOST DEAL"); err == nil {
		t.Fatal("refused deal resurrected on reload")
	}
}

// TestClusterFollowerIdentity composes replication with sharding: every
// shard's journal ships independently, and the replicated scatter-gather
// view answers float-exact identically to the cluster primary.
func TestClusterFollowerIdentity(t *testing.T) {
	_, mono, cluster := clusterFixture(t, 2)
	dir := t.TempDir()
	if err := cluster.EnableWAL(dir, 1); err != nil {
		t.Fatal(err)
	}
	defer cluster.CloseWAL()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sh, err := cluster.ServeReplication(lis, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()

	cf, err := StartClusterFollower(2, FollowerOptions{
		Dir:  t.TempDir(),
		Addr: lis.Addr().String(),
		Name: "cluster-replica",
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()

	if err := cluster.AddDocuments(newDealDocs(t, "SHARDED REPL DEAL")); err != nil {
		t.Fatal(err)
	}
	if err := mono.AddDocuments(newDealDocs(t, "SHARDED REPL DEAL")); err != nil {
		t.Fatal(err)
	}
	// A shard that received no writes sits at seq 0, so a bare position
	// barrier is vacuous before its snapshot installs: wait for servable
	// state at zero lag first, then pin each shard to its exact position.
	wctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := cf.WaitSynced(wctx, 0); err != nil {
		t.Fatal(err)
	}
	for i, sub := range cf.Followers() {
		waitApplied(t, sub, primarySeq(cluster.Shards[i]))
	}

	ctx := context.Background()
	for i, q := range differentialQueries() {
		pr, err := cluster.SearchCtx(ctx, admin(), q)
		if err != nil {
			t.Fatalf("q%d: cluster: %v", i, err)
		}
		rr, err := cf.SearchCtx(ctx, admin(), q)
		if err != nil {
			t.Fatalf("q%d: cluster follower: %v", i, err)
		}
		assertSameResult(t, fmt.Sprintf("cluster/q%d", i), pr, rr)
		mr, err := mono.SearchCtx(ctx, admin(), q)
		if err != nil {
			t.Fatalf("q%d: mono: %v", i, err)
		}
		assertSameResult(t, fmt.Sprintf("mono-vs-replica/q%d", i), mr, rr)
	}
}

// TestFollowerBootstrapsFromFormat1Generation: a primary serving a
// generation whose index is format 1 (an upgraded store before its first
// checkpoint) bootstraps a follower from it, raw, and the follower answers
// float-identically; the primary's next checkpoint reaches the follower as a
// rotation, and the follower's own checkpoint writes format 2.
func TestFollowerBootstrapsFromFormat1Generation(t *testing.T) {
	dir := copyUpgradeStore(t)
	sys, err := LoadSystem(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.EnableWAL(dir, 1); err != nil {
		t.Fatal(err)
	}
	if sys.Generation() != 1 {
		t.Fatalf("EnableWAL checkpointed (generation %d): the follower would not see format 1", sys.Generation())
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sh, err := sys.ServeReplication(lis, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		sh.Close()
		sys.CloseWAL()
	})
	fdir := t.TempDir()
	f := startReplica(t, lis.Addr().String(), fdir, "replica-v1", nil)
	waitApplied(t, f, primarySeq(sys))
	indexSnapshot(t, fdir, 1, 1) // the follower installed the format-1 generation as shipped
	assertReplicaIdentity(t, "format-1 bootstrap", sys, f)

	if err := sys.AddDocuments(newDealDocs(t, "DEAL AFTER UPGRADE")); err != nil {
		t.Fatal(err)
	}
	gen, err := sys.Checkpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	waitApplied(t, f, primarySeq(sys))
	deadline := time.Now().Add(30 * time.Second)
	for f.System().Generation() < gen && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if fgen := f.System().Generation(); fgen < 2 {
		t.Fatalf("the follower did not checkpoint after the rotation (generation %d)", fgen)
	}
	if snap := indexSnapshot(t, fdir, f.System().Generation(), durable.ComponentVersion); !bytes.HasPrefix(snap, []byte(indexFormat2Magic)) {
		t.Fatal("the follower's checkpoint did not write format 2")
	}
	assertReplicaIdentity(t, "after the checkpoint", sys, f)
}

// A follower whose EPOCH record is unreadable resets it to epoch 0 and
// syncs: every install loads the directory, and a load refuses a corrupt
// record, so a follower that kept it would re-download the snapshot at
// every backoff and never serve.
func TestFollowerResetsUnreadableEpoch(t *testing.T) {
	_, sys, addr := replPrimary(t, nil)
	if err := sys.AddDocuments(newDealDocs(t, "EPOCH RESET")); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, durable.EpochName), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	f := startReplica(t, addr, dir, "replica", nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.WaitSynced(ctx, 0); err != nil {
		t.Fatalf("follower over a garbage EPOCH never synced: %v (client: %+v)", err, f.Status().Client)
	}
	waitApplied(t, f, primarySeq(sys))
	if ep, ok, err := durable.ReadEpoch(nil, dir); err != nil || !ok || ep.Epoch != 0 {
		t.Fatalf("EPOCH after sync = %+v, %v, %v; want a readable epoch-0 record", ep, ok, err)
	}
}

// TestFollowerSurvivesFailedPublish: a synopsis write that the follower's
// store refuses does not un-commit the shipped record. The follower's
// position moves past it, so the stream goes on; it does not re-ship the
// record into an index that already holds it.
func TestFollowerSurvivesFailedPublish(t *testing.T) {
	_, sys, addr := replPrimary(t, nil)
	f := startReplica(t, addr, t.TempDir(), "replica", nil)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := f.WaitSynced(ctx, 0); err != nil {
		t.Fatal(err)
	}
	// Every newDealDocs deal has the same customer, so the follower's
	// store refuses the second one's row; the primary's store takes it.
	if err := f.System().Synopses.Conn().DB().CreateIndex("deals_by_customer", "deals", []string{"customer"}, true); err != nil {
		t.Fatal(err)
	}
	for _, docs := range [][]*docmodel.Document{
		newDealDocs(t, "DEAL P1"),
		newDealDocs(t, "DEAL P2"),
		customerDealDocs(t, "DEAL P3", "Vega Corp"),
	} {
		if err := sys.AddDocuments(docs); err != nil {
			t.Fatal(err)
		}
	}
	want := primarySeq(sys)
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := f.Status()
		if strings.Contains(st.Client.LastError, "duplicate external id") {
			t.Fatalf("the follower re-applied a committed record: %s", st.Client.LastError)
		}
		if st.Seq == want {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at seq %d, primary at %d (client: %+v)", st.Seq, want, st.Client)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := f.System().Synopses.Get("DEAL P3"); err != nil {
		t.Fatalf("the follower does not serve the deal written after the failed publish: %v", err)
	}
}
