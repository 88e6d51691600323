// Package failover implements fenced primary promotion over the WAL-
// shipping replication stack. Every node carries a fencing epoch — a
// monotone term persisted in a durable EPOCH record beside its journal.
// Each node runs an Elector over a lease file on shared storage (lease.go):
// the primary renews the lease, and the first follower to see it go stale
// claims the next epoch and promotes itself. The old epoch is fenced, so a
// resurrected primary finds its renewal, writes and ship streams refused
// and demotes itself back to follower.
package failover

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrFenced marks a mutation or ship stream refused because the node is
// not the write primary: a newer epoch fenced it, or it is a follower that
// no promotion reached within its promotion window. Callers must stop
// writing here and re-resolve the primary.
var ErrFenced = errors.New("failover: fenced: stale epoch")

// FencedError carries the epochs behind an ErrFenced refusal.
type FencedError struct {
	Mine    uint64 // the epoch the refused writer believed in
	Current uint64 // the newer epoch that fenced it (0 if unknown)
}

func (e *FencedError) Error() string {
	if e.Current == 0 {
		return fmt.Sprintf("failover: fenced: not the write primary (epoch %d)", e.Mine)
	}
	return fmt.Sprintf("failover: fenced: epoch %d superseded by %d", e.Mine, e.Current)
}

func (e *FencedError) Is(target error) bool { return target == ErrFenced }

// IsFenced reports whether err is a fencing refusal.
func IsFenced(err error) bool { return errors.Is(err, ErrFenced) }

// Roles a node reports.
const (
	RolePrimary  = "primary"
	RoleFollower = "follower"
	RoleFenced   = "fenced"
)

// NodeStatus is one node's failover view.
type NodeStatus struct {
	Role       string    `json:"role"`
	Epoch      uint64    `json:"epoch"`
	Gen        uint64    `json:"gen"`
	Seq        uint64    `json:"seq"`
	PromotedAt time.Time `json:"promoted_at,omitempty"`
}

// Node is one member of a replication group: enough surface for its
// elector to promote, fence and re-point it. eil.HANode implements it.
type Node interface {
	Name() string
	Status() NodeStatus
	// ReplAddr is the address the node's shipper serves on (or would serve
	// on after promotion) — where survivors re-point.
	ReplAddr() string
	// Promote makes the node the primary under epoch: seal the WAL at the
	// current position, persist the bumped epoch, start shipping.
	Promote(epoch uint64) error
	// Fence tells a (possibly resurrected) stale primary that epoch
	// superseded it: refuse all writes, seal local history, demote to a
	// follower of primaryAddr.
	Fence(epoch uint64, primaryAddr string) error
	// Repoint re-targets a follower at the new primary's ship address.
	Repoint(addr string, epoch uint64) error
}

// Elector is one node's lease loop, the only way a primary is chosen. A
// primary renews the lease and demotes itself the moment a newer one
// appears; a follower follows a live lease's holder, and claims the next
// epoch and promotes once the lease goes stale. A fenced ex-primary follows
// a live holder too, but never claims: it holds no follower state to
// promote. The first claimant after the TTL wins: the claim file arbitrates
// between followers that saw the same stale lease. A claimant whose
// promotion fails holds a lease nobody renews, so it claims again once that
// goes stale.
type Elector struct {
	Node Node
	// Lease names the lease directory and TTL; Name and Addr are taken from
	// Node at every claim and renewal.
	Lease LeaseConfig
	// Logf receives the loop's decisions; nil discards.
	Logf func(format string, args ...any)

	// mu runs one tick or claim at a time, node calls included: a manual
	// claim racing a tick's claim would promote the node at one epoch and
	// then lose the lease to its own claim of the next.
	mu sync.Mutex
	// absentSince is when this elector first found no lease at all (zero
	// while one exists). A primary writes its first lease at its first
	// tick, so an absent lease counts as stale only after one TTL of this
	// elector's own watching.
	absentSince time.Time
}

func (e *Elector) logf(format string, args ...any) {
	if e.Logf != nil {
		e.Logf(format, args...)
	}
}

// lease is the lease config under the node's identity: its name, and the
// address it ships from, which survivors repoint at (empty until the
// node's first primary stint).
func (e *Elector) lease() LeaseConfig {
	l := e.Lease
	l.Name, l.Addr = e.Node.Name(), e.Node.ReplAddr()
	return l
}

// Run ticks at once, then every third of the lease TTL until ctx is done.
func (e *Elector) Run(ctx context.Context) {
	ttl := e.Lease.ttl()
	e.logf("failover: lease protocol active in %s (ttl %v)", e.Lease.Dir, ttl)
	t := time.NewTicker(ttl / 3)
	defer t.Stop()
	e.Tick()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			e.Tick()
		}
	}
}

// Tick runs one round of the loop.
func (e *Elector) Tick() {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.Node.Status()
	switch st.Role {
	case RolePrimary:
		ep := max(st.Epoch, 1) // pre-failover lineage serves under term 1 at the lease layer
		rec, err := Renew(e.lease(), ep)
		if errors.Is(err, ErrLeaseLost) {
			e.logf("failover: lease lost to %s (epoch %d); demoting", rec.Name, rec.Epoch)
			if ferr := e.Node.Fence(rec.Epoch, rec.Addr); ferr != nil {
				e.logf("failover: demote: %v", ferr)
			}
		}
	case RoleFollower, RoleFenced:
		cur, ok, err := ReadLease(e.Lease.Dir)
		if err != nil {
			return
		}
		ttl := e.Lease.ttl()
		if ok {
			e.absentSince = time.Time{}
		} else if e.absentSince.IsZero() {
			e.absentSince = time.Now()
		}
		if ok && !cur.Stale(ttl) {
			// Live primary. Make sure this node follows it: a fenced
			// ex-primary rejoins here, re-syncing its divergent suffix away.
			if cur.Addr != "" && cur.Name != e.Node.Name() {
				if perr := e.Node.Repoint(cur.Addr, cur.Epoch); perr != nil {
					e.logf("failover: repoint at %s: %v", cur.Addr, perr)
				}
			}
			return
		}
		if st.Role == RoleFenced || !ok && time.Since(e.absentSince) <= ttl {
			return
		}
		// Claim exactly the epoch after the stale one: a rival that claimed
		// it first now holds a live lease, and this claim loses to it.
		epoch, err := e.promote(max(st.Epoch, cur.Epoch) + 1)
		switch {
		case errors.Is(err, ErrLeaseHeld):
			// Lost the claim race; keep watching.
		case err != nil:
			e.logf("failover: claim and promote: %v", err)
		default:
			e.logf("failover: lease claimed; promoted to primary at epoch %d", epoch)
		}
	}
}

// Claim makes the node the primary at the epoch after both its own and the
// lease's, preempting a live holder, which demotes at its next tick: the
// operator's manual promotion. Without a lease directory the epoch is the
// node's own plus one. Only a follower may claim: a primary already is one,
// and a fenced node's claim would depose the holder for a promotion that
// cannot happen.
func (e *Elector) Claim() (uint64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.Node.Status()
	if st.Role != RoleFollower {
		return 0, fmt.Errorf("failover: a %s node cannot be promoted", st.Role)
	}
	epoch := st.Epoch + 1
	if e.Lease.Dir != "" {
		cur, _, err := ReadLease(e.Lease.Dir)
		if err != nil {
			return 0, err
		}
		epoch = max(epoch, cur.Epoch+1)
	}
	return e.promote(epoch)
}

// promote claims the lease at epoch (when there is a lease directory) and
// promotes the node, then renews the lease so that it carries the address
// the node now ships from.
func (e *Elector) promote(epoch uint64) (uint64, error) {
	if e.Lease.Dir != "" {
		rec, err := Acquire(e.lease(), epoch)
		if err != nil {
			return 0, err
		}
		epoch = rec.Epoch
	}
	if err := e.Node.Promote(epoch); err != nil {
		return 0, err
	}
	if e.Lease.Dir != "" {
		if _, err := Renew(e.lease(), epoch); err != nil {
			e.logf("failover: lease renew after promote: %v", err)
		}
	}
	return epoch, nil
}
