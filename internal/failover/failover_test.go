package failover

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// fakeNode is an in-memory Node for deterministic elector tests: tests call
// Tick and Claim directly instead of racing the loop's ticker, and make a
// lease stale with forceStale instead of waiting out its TTL.
type fakeNode struct {
	mu         sync.Mutex
	name       string
	addr       string
	promoteErr error
	// beforeClaim, when set, runs once inside the node's first claim,
	// between its read of the stale lease and its claim file.
	beforeClaim func()
	nodeState
}

// nodeState is what a test inspects of a fakeNode.
type nodeState struct {
	role        string
	epoch       uint64
	primaryAddr string
	promotes    int
	fences      []uint64
	repoints    []string
}

func (n *fakeNode) Name() string { return n.name }

func (n *fakeNode) Status() NodeStatus {
	n.mu.Lock()
	defer n.mu.Unlock()
	return NodeStatus{Role: n.role, Epoch: n.epoch}
}

func (n *fakeNode) ReplAddr() string {
	n.mu.Lock()
	hook := n.beforeClaim
	n.beforeClaim = nil
	n.mu.Unlock()
	if hook != nil {
		hook()
	}
	return n.addr
}

func (n *fakeNode) Promote(epoch uint64) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.promotes++
	if n.role == RoleFenced {
		return errors.New("no follower state to promote")
	}
	if n.promoteErr != nil {
		return n.promoteErr
	}
	n.role = RolePrimary
	n.epoch = epoch
	return nil
}

func (n *fakeNode) Fence(epoch uint64, primaryAddr string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.fences = append(n.fences, epoch)
	// As HANode does: without the new primary's address the node stays
	// fenced until a Repoint names it.
	n.role = RoleFenced
	if primaryAddr != "" {
		n.role = RoleFollower
	}
	n.primaryAddr = primaryAddr
	return nil
}

func (n *fakeNode) Repoint(addr string, epoch uint64) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.repoints = append(n.repoints, addr)
	n.role = RoleFollower
	n.primaryAddr = addr
	return nil
}

func (n *fakeNode) snapshot() nodeState {
	n.mu.Lock()
	defer n.mu.Unlock()
	st := n.nodeState
	st.fences = append([]uint64(nil), n.fences...)
	st.repoints = append([]string(nil), n.repoints...)
	return st
}

// member is a node with its elector over a shared lease directory. The TTL
// is an hour, so a lease goes stale only when a test says so.
func member(dir, name, role string) (*fakeNode, *Elector) {
	n := &fakeNode{name: name, addr: "addr-" + name, nodeState: nodeState{role: role}}
	return n, &Elector{Node: n, Lease: LeaseConfig{Dir: dir, TTL: time.Hour}}
}

func mustLease(t *testing.T, dir string) LeaseRecord {
	t.Helper()
	rec, ok, err := ReadLease(dir)
	if err != nil || !ok {
		t.Fatalf("read lease: ok %v, %v", ok, err)
	}
	return rec
}

// TestElectorClaimsStaleLease: the primary's tick renews the lease; once
// it goes stale a follower claims the lease's epoch + 1 and promotes.
func TestElectorClaimsStaleLease(t *testing.T) {
	dir := t.TempDir()
	if _, err := Acquire(LeaseConfig{Dir: dir, Name: "a", Addr: "addr-a", TTL: time.Hour}, 3); err != nil {
		t.Fatal(err)
	}
	a, ea := member(dir, "a", RolePrimary)
	a.epoch = 3
	b, eb := member(dir, "b", RoleFollower)

	ea.Tick()
	eb.Tick()
	if rec := mustLease(t, dir); rec.Epoch != 3 || rec.Name != "a" {
		t.Fatalf("renewed lease = %+v, want a at epoch 3", rec)
	}
	if got := b.snapshot(); got.role != RoleFollower || got.promotes != 0 {
		t.Fatalf("follower under a live lease: %+v", got)
	}

	forceStale(t, dir)
	eb.Tick()
	got := b.snapshot()
	if got.role != RolePrimary || got.epoch != 4 || got.promotes != 1 {
		t.Fatalf("claimant after the TTL: role %s epoch %d after %d promotions, want primary at 4", got.role, got.epoch, got.promotes)
	}
	if rec := mustLease(t, dir); rec.Epoch != 4 || rec.Name != "b" || rec.Addr != "addr-b" {
		t.Fatalf("claimed lease = %+v, want b at epoch 4", rec)
	}
}

// TestElectorOneOfTwoClaimants: two followers read the same stale lease.
// The second one's claim runs only after the first has claimed and
// promoted, so it finds a live lease at the epoch it wanted and loses;
// at its next tick it follows the winner.
func TestElectorOneOfTwoClaimants(t *testing.T) {
	dir := t.TempDir()
	_, ea := member(dir, "a", RolePrimary)
	b, eb := member(dir, "b", RoleFollower)
	c, ec := member(dir, "c", RoleFollower)
	ea.Tick()
	forceStale(t, dir)

	c.beforeClaim = eb.Tick
	ec.Tick()
	gb, gc := b.snapshot(), c.snapshot()
	if gb.role != RolePrimary || gb.epoch != 2 {
		t.Fatalf("first claimant: role %s epoch %d, want primary at 2", gb.role, gb.epoch)
	}
	if gc.role != RoleFollower || gc.promotes != 0 {
		t.Fatalf("second claimant promoted over a live lease: %+v", gc)
	}
	if rec := mustLease(t, dir); rec.Epoch != 2 || rec.Name != "b" {
		t.Fatalf("lease = %+v, want b at epoch 2", rec)
	}

	ec.Tick()
	if gc := c.snapshot(); gc.role != RoleFollower || fmt.Sprint(gc.repoints) != "[addr-b]" {
		t.Fatalf("loser after its next tick: role %s repoints %v, want a follower of addr-b", gc.role, gc.repoints)
	}
}

// TestElectorFencesResurrectedPrimary: a primary that comes back after a
// follower claimed the lease finds its renewal lost and is fenced at the
// newer epoch into a follower of the holder.
func TestElectorFencesResurrectedPrimary(t *testing.T) {
	dir := t.TempDir()
	a, ea := member(dir, "a", RolePrimary)
	b, eb := member(dir, "b", RoleFollower)
	ea.Tick()
	forceStale(t, dir)
	eb.Tick()
	if b.snapshot().role != RolePrimary {
		t.Fatal("setup: follower did not promote")
	}

	// a still believes it rules epoch 0.
	ea.Tick()
	got := a.snapshot()
	if fmt.Sprint(got.fences) != "[2]" || got.role != RoleFollower || got.primaryAddr != "addr-b" {
		t.Fatalf("resurrected primary: fences %v role %s primary %s, want fenced at 2 following addr-b", got.fences, got.role, got.primaryAddr)
	}
	if rec := mustLease(t, dir); rec.Epoch != 2 || rec.Name != "b" {
		t.Fatalf("lost renewal rewrote the lease: %+v", rec)
	}
	if b.snapshot().role != RolePrimary {
		t.Fatal("winner lost the primary role")
	}
}

// TestElectorManualClaimPreemptsLivePrimary: the operator's claim takes a
// live lease at the next epoch, and the old primary demotes at its next
// tick. A claim on the primary itself is refused and leaves the lease alone.
func TestElectorManualClaimPreemptsLivePrimary(t *testing.T) {
	dir := t.TempDir()
	a, ea := member(dir, "a", RolePrimary)
	c, ec := member(dir, "c", RoleFollower)
	ea.Tick()

	if _, err := ea.Claim(); err == nil {
		t.Fatal("claim on the primary succeeded")
	}
	if rec := mustLease(t, dir); rec.Epoch != 1 || rec.Name != "a" {
		t.Fatalf("refused claim rewrote the lease: %+v", rec)
	}

	epoch, err := ec.Claim()
	if err != nil || epoch != 2 {
		t.Fatalf("manual claim = %d, %v; want epoch 2", epoch, err)
	}
	if got := c.snapshot(); got.role != RolePrimary || got.epoch != 2 {
		t.Fatalf("claimant: %+v", got)
	}
	ea.Tick()
	if got := a.snapshot(); fmt.Sprint(got.fences) != "[2]" || got.primaryAddr != "addr-c" {
		t.Fatalf("old primary fences=%v primary=%s, want [2] addr-c", got.fences, got.primaryAddr)
	}
}

// TestElectorRetriesFailedPromotion: a claimant whose promotion fails
// holds a lease nobody renews. It does not claim again while that lease is
// live, and claims the next epoch once it goes stale.
func TestElectorRetriesFailedPromotion(t *testing.T) {
	dir := t.TempDir()
	_, ea := member(dir, "a", RolePrimary)
	b, eb := member(dir, "b", RoleFollower)
	ea.Tick()
	forceStale(t, dir)

	b.promoteErr = errors.New("injected: promote refused")
	eb.Tick()
	if got := b.snapshot(); got.role != RoleFollower || got.promotes != 1 {
		t.Fatalf("after a failed promotion: %+v", got)
	}
	if rec := mustLease(t, dir); rec.Epoch != 2 || rec.Name != "b" {
		t.Fatalf("failed claimant's lease = %+v, want b at epoch 2", rec)
	}
	b.mu.Lock()
	b.promoteErr = nil
	b.mu.Unlock()
	eb.Tick()
	if got := b.snapshot(); got.promotes != 1 {
		t.Fatalf("claimed again over its own live lease (%d promotions)", got.promotes)
	}

	forceStale(t, dir)
	eb.Tick()
	got := b.snapshot()
	if got.role != RolePrimary || got.epoch != 3 || got.promotes != 2 {
		t.Fatalf("retry after the TTL: role %s epoch %d after %d promotions, want primary at 3", got.role, got.epoch, got.promotes)
	}
	if rec := mustLease(t, dir); rec.Epoch != 3 || rec.Name != "b" {
		t.Fatalf("lease after retry = %+v, want b at epoch 3", rec)
	}
}

// TestElectorZeroTTLMeansDefault: a lease config without a TTL means the
// documented 3s everywhere. A lease the primary has just renewed is live,
// so the follower's tick must leave it alone; reading the zero TTL raw
// made every lease stale and promoted both nodes.
func TestElectorZeroTTLMeansDefault(t *testing.T) {
	dir := t.TempDir()
	a, ea := member(dir, "a", RolePrimary)
	b, eb := member(dir, "b", RoleFollower)
	ea.Lease.TTL, eb.Lease.TTL = 0, 0
	ea.Tick()
	eb.Tick()
	if ga, gb := a.snapshot(), b.snapshot(); ga.role != RolePrimary || gb.role != RoleFollower || gb.promotes != 0 {
		t.Fatalf("zero TTL: a %s, b %s after %d promotions; want one primary", ga.role, gb.role, gb.promotes)
	}
	if rec := mustLease(t, dir); rec.Epoch != 1 || rec.Name != "a" {
		t.Fatalf("lease = %+v, want a at epoch 1", rec)
	}
}

// TestElectorWaitsOutAbsentLease: the primary's and the follower's loops
// start together, the follower's first. A lease nobody has written yet is
// not stale until the follower has watched it absent for a whole TTL, and
// the primary writes it at its loop's first tick, so the primary keeps
// epoch 1. (When an absent lease counted as stale, the follower's first
// tick claimed epoch 1 and deposed the healthy primary.)
func TestElectorWaitsOutAbsentLease(t *testing.T) {
	dir := t.TempDir()
	a, ea := member(dir, "a", RolePrimary)
	b, eb := member(dir, "b", RoleFollower)
	ttl := 300 * time.Millisecond
	ea.Lease.TTL, eb.Lease.TTL = ttl, ttl
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer wg.Wait()
	defer cancel()
	for _, e := range []*Elector{eb, ea} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.Run(ctx)
		}()
		time.Sleep(ttl / 10)
	}
	time.Sleep(3 * ttl)
	ga, gb := a.snapshot(), b.snapshot()
	if ga.role != RolePrimary || len(ga.fences) != 0 || gb.role != RoleFollower || gb.promotes != 0 {
		t.Fatalf("a %s (fences %v), b %s after %d promotions; want a still primary", ga.role, ga.fences, gb.role, gb.promotes)
	}
	if rec := mustLease(t, dir); rec.Epoch != 1 || rec.Name != "a" {
		t.Fatalf("lease = %+v, want a at epoch 1", rec)
	}
}

// TestElectorFencedNodeNeverClaims: an ex-primary fenced without the new
// primary's address holds no follower state to promote. A manual claim on
// it is refused; it must leave a stale lease to the follower, which claims
// the first epoch after it, and follow the winner once the winner's lease
// is live.
func TestElectorFencedNodeNeverClaims(t *testing.T) {
	dir := t.TempDir()
	a, ea := member(dir, "a", RolePrimary)
	b, eb := member(dir, "b", RoleFollower)
	ea.Tick()
	if err := a.Fence(5, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := ea.Claim(); err == nil {
		t.Fatal("manual claim on a fenced node succeeded")
	}
	if rec := mustLease(t, dir); rec.Epoch != 1 || rec.Name != "a" {
		t.Fatalf("refused claim rewrote the lease: %+v", rec)
	}
	forceStale(t, dir)

	ea.Tick()
	eb.Tick()
	if ga := a.snapshot(); ga.role != RoleFenced || ga.promotes != 0 {
		t.Fatalf("fenced node: role %s after %d promotions, want fenced and no claim", ga.role, ga.promotes)
	}
	if gb := b.snapshot(); gb.role != RolePrimary || gb.epoch != 2 {
		t.Fatalf("follower: role %s epoch %d, want primary at 2", gb.role, gb.epoch)
	}
	ea.Tick()
	if ga := a.snapshot(); ga.role != RoleFollower || fmt.Sprint(ga.repoints) != "[addr-b]" {
		t.Fatalf("fenced node under the winner's lease: role %s repoints %v, want a follower of addr-b", ga.role, ga.repoints)
	}
}

func TestFencedErrorClassification(t *testing.T) {
	err := error(&FencedError{Mine: 1, Current: 2})
	if !IsFenced(err) {
		t.Fatal("FencedError not classified as fenced")
	}
	if !errors.Is(err, ErrFenced) {
		t.Fatal("errors.Is(FencedError, ErrFenced) = false")
	}
	if IsFenced(errors.New("plain")) {
		t.Fatal("plain error classified as fenced")
	}
}
