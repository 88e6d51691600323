package failover

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func leaseCfg(dir, name string) LeaseConfig {
	return LeaseConfig{Dir: dir, Name: name, Addr: "addr-" + name, TTL: time.Hour}
}

func TestLeaseAcquireRenewLifecycle(t *testing.T) {
	dir := t.TempDir()
	if _, ok, err := ReadLease(dir); err != nil || ok {
		t.Fatalf("empty dir lease = ok=%v err=%v", ok, err)
	}

	rec, err := Acquire(leaseCfg(dir, "a"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Epoch != 1 || rec.Name != "a" || rec.Addr != "addr-a" {
		t.Fatalf("acquired lease = %+v", rec)
	}

	// A live lease refuses other claimants at or below its epoch.
	if _, err := Acquire(leaseCfg(dir, "b"), 1); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("second claimant got %v, want ErrLeaseHeld", err)
	}

	// The holder renews; an impostor renewing at the same epoch is fenced.
	if _, err := Renew(leaseCfg(dir, "a"), 1); err != nil {
		t.Fatal(err)
	}
	usurped, err := Renew(leaseCfg(dir, "b"), 1)
	if !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("impostor renew = %v, want ErrLeaseLost", err)
	}
	if usurped.Name != "a" {
		t.Fatalf("usurper record = %+v, want holder a", usurped)
	}
}

func TestLeaseRenewLosesToNewerEpoch(t *testing.T) {
	dir := t.TempDir()
	if _, err := Acquire(leaseCfg(dir, "a"), 1); err != nil {
		t.Fatal(err)
	}
	// A newer claimant takes over (the old lease is forced stale first).
	forceStale(t, dir)
	rec, err := Acquire(leaseCfg(dir, "b"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Epoch != 2 {
		t.Fatalf("claim over stale epoch-1 lease took epoch %d, want 2 (never reuse a term)", rec.Epoch)
	}
	// The old holder's next renewal discovers it was fenced.
	cur, err := Renew(leaseCfg(dir, "a"), 1)
	if !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("stale holder renew = %v, want ErrLeaseLost", err)
	}
	if cur.Name != "b" || cur.Epoch != 2 {
		t.Fatalf("usurper = %+v", cur)
	}
}

// forceStale rewrites the current lease as if it had not been renewed for
// a long time, without changing holder or epoch.
func forceStale(t *testing.T, dir string) {
	t.Helper()
	rec, ok, err := ReadLease(dir)
	if err != nil || !ok {
		t.Fatalf("forceStale: lease = ok=%v err=%v", ok, err)
	}
	rec.RenewedAt = time.Now().Add(-24 * time.Hour)
	if err := writeLease(dir, rec); err != nil {
		t.Fatal(err)
	}
}

func TestLeaseClaimFileArbitratesRaces(t *testing.T) {
	dir := t.TempDir()
	// A concurrent claimant already won epoch 1's claim file.
	if err := os.WriteFile(filepath.Join(dir, "claim-0000000000000001"), []byte("rival\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Acquire(leaseCfg(dir, "a"), 1); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("losing claimant got %v, want ErrLeaseHeld", err)
	}
	// The next epoch is still claimable.
	if rec, err := Acquire(leaseCfg(dir, "a"), 2); err != nil || rec.Epoch != 2 {
		t.Fatalf("next-epoch claim = %+v, %v", rec, err)
	}
}

// TestLeaseBurnedClaimIsSkipped: a claimant that made its claim file but
// never wrote the lease burns that epoch. While its claim is younger than
// the TTL it may still be writing, so the epoch stays held; after that the
// next claimant takes the epoch after it, instead of losing the claim race
// to a dead node at every tick.
func TestLeaseBurnedClaimIsSkipped(t *testing.T) {
	dir := t.TempDir()
	if _, err := Acquire(leaseCfg(dir, "a"), 1); err != nil {
		t.Fatal(err)
	}
	forceStale(t, dir)
	claim := filepath.Join(dir, "claim-0000000000000002")
	if err := os.WriteFile(claim, []byte("dead\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Acquire(leaseCfg(dir, "b"), 2); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("claim over a fresh rival claim = %v, want ErrLeaseHeld", err)
	}
	old := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(claim, old, old); err != nil {
		t.Fatal(err)
	}
	rec, err := Acquire(leaseCfg(dir, "b"), 2)
	if err != nil || rec.Epoch != 3 || rec.Name != "b" {
		t.Fatalf("claim over a burned epoch = %+v, %v; want b at epoch 3", rec, err)
	}
}

// TestLeaseConcurrentWriters: a renewal and an acquisition in two
// processes write the lease at the same time; both must land whole.
func TestLeaseConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for _, name := range []string{"a", "b"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if err := writeLease(dir, LeaseRecord{Epoch: 1, Name: name, RenewedAt: time.Now()}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent lease write: %v", err)
	}
	if rec, ok, err := ReadLease(dir); err != nil || !ok || rec.Epoch != 1 {
		t.Fatalf("lease after concurrent writes = %+v, ok %v, %v", rec, ok, err)
	}
	if m, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(m) != 0 {
		t.Fatalf("staging files left behind: %v", m)
	}
}

func TestReadLeaseCorrupt(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, LeaseName), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadLease(dir); err == nil {
		t.Fatal("corrupt lease read succeeded; guessing a holder defeats fencing")
	}
}
