package failover

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"repro/internal/durable"
)

// Coordination between the members of a group (separate eilserver
// processes) runs through a lease file on shared storage. The primary
// renews lease.json (atomic rename, so readers never see a torn record); a
// follower that sees the lease go stale claims the next epoch through an
// O_EXCL claim file — the filesystem arbitrates concurrent claimants — then
// self-promotes. A primary whose renewal discovers a newer lease has been
// fenced and must demote itself. Elector is the loop that does all three.

// LeaseName is the lease record file inside the lease directory.
const LeaseName = "lease.json"

// LeaseRecord is the current holder's claim.
type LeaseRecord struct {
	Epoch     uint64    `json:"epoch"`
	Name      string    `json:"name"`
	Addr      string    `json:"addr"` // holder's replication listen address
	RenewedAt time.Time `json:"renewed_at"`
}

// LeaseConfig identifies this node to the lease protocol.
type LeaseConfig struct {
	Dir  string
	Name string
	Addr string
	// TTL is how stale a lease must be before a claimant may take it
	// (0 = 3s). It bounds unavailability after a primary dies; the elector
	// ticks every third of it.
	TTL time.Duration
}

func (c LeaseConfig) ttl() time.Duration {
	if c.TTL <= 0 {
		return 3 * time.Second
	}
	return c.TTL
}

// ErrLeaseLost means a renewal discovered a newer lease: this node was
// fenced at the lease layer and must demote itself.
var ErrLeaseLost = errors.New("failover: lease lost to a newer epoch")

// ErrLeaseHeld means an acquisition found a live lease held by another
// node.
var ErrLeaseHeld = errors.New("failover: lease held")

// ReadLease loads the current lease record. ok is false when none exists.
func ReadLease(dir string) (rec LeaseRecord, ok bool, err error) {
	b, err := os.ReadFile(filepath.Join(dir, LeaseName))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return LeaseRecord{}, false, nil
		}
		return LeaseRecord{}, false, err
	}
	if err := json.Unmarshal(b, &rec); err != nil {
		return LeaseRecord{}, false, fmt.Errorf("failover: corrupt lease: %w", err)
	}
	return rec, true, nil
}

// Stale reports whether the lease has gone unrenewed past the TTL.
func (r LeaseRecord) Stale(ttl time.Duration) bool {
	return time.Since(r.RenewedAt) > ttl
}

// writeLease replaces the lease record atomically. Each writer stages its
// record in a temporary file of its own: a holder's renewal and a
// claimant's acquisition can run at once in two processes, and with one
// shared staging name either may rename the other's file away and fail.
func writeLease(dir string, rec LeaseRecord) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, LeaseName+".*.tmp")
	if err != nil {
		return err
	}
	_, err = f.Write(b)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), filepath.Join(dir, LeaseName))
	}
	if err != nil {
		_ = os.Remove(f.Name())
		return err
	}
	return durable.SyncDir(nil, dir)
}

// Acquire claims the lease at epoch. It refuses when another node holds a
// live lease at this or a newer epoch (ErrLeaseHeld), and loses cleanly
// when a concurrent claimant beats it to the epoch's claim file.
func Acquire(cfg LeaseConfig, epoch uint64) (LeaseRecord, error) {
	cur, ok, err := ReadLease(cfg.Dir)
	if err != nil {
		return LeaseRecord{}, err
	}
	if ok && cur.Name != cfg.Name {
		if cur.Epoch >= epoch && !cur.Stale(cfg.ttl()) {
			return LeaseRecord{}, fmt.Errorf("%w: by %s at epoch %d", ErrLeaseHeld, cur.Name, cur.Epoch)
		}
		if cur.Epoch >= epoch {
			// Stale but not below us: claim the next term, never a reused one.
			epoch = cur.Epoch + 1
		}
	}
	// The claim file is the arbiter: O_EXCL means exactly one claimant
	// wins each epoch, no matter how many watchers saw the lease go stale
	// in the same poll.
	claim := filepath.Join(cfg.Dir, fmt.Sprintf("claim-%016x", epoch))
	f, err := os.OpenFile(claim, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		if errors.Is(err, fs.ErrExist) {
			// A claimant writes the lease right after its claim file. A claim
			// older than the TTL with the lease still below its epoch means
			// that write never happened (the claimant died, or the write
			// failed): the epoch is burned, and the next one is free.
			if fi, serr := os.Stat(claim); serr == nil && time.Since(fi.ModTime()) > cfg.ttl() && (!ok || cur.Epoch < epoch) {
				return Acquire(cfg, epoch+1)
			}
			return LeaseRecord{}, fmt.Errorf("%w: epoch %d already claimed", ErrLeaseHeld, epoch)
		}
		return LeaseRecord{}, err
	}
	_, _ = fmt.Fprintf(f, "%s %s\n", cfg.Name, time.Now().UTC().Format(time.RFC3339Nano))
	_ = f.Sync()
	_ = f.Close()
	rec := LeaseRecord{Epoch: epoch, Name: cfg.Name, Addr: cfg.Addr, RenewedAt: time.Now()}
	if err := writeLease(cfg.Dir, rec); err != nil {
		return LeaseRecord{}, err
	}
	return rec, nil
}

// Renew refreshes the holder's lease once. It returns the usurper's
// record with ErrLeaseLost when a newer lease (or the same epoch under
// another name) has fenced this holder — the caller must demote itself
// before acknowledging another write.
func Renew(cfg LeaseConfig, epoch uint64) (LeaseRecord, error) {
	cur, ok, err := ReadLease(cfg.Dir)
	if err != nil {
		return LeaseRecord{}, err
	}
	if ok && (cur.Epoch > epoch || (cur.Epoch == epoch && cur.Name != cfg.Name)) {
		return cur, ErrLeaseLost
	}
	rec := LeaseRecord{Epoch: epoch, Name: cfg.Name, Addr: cfg.Addr, RenewedAt: time.Now()}
	if err := writeLease(cfg.Dir, rec); err != nil {
		return LeaseRecord{}, err
	}
	return rec, nil
}
